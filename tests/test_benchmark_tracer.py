"""The benchmark's per-layer tracer must name functions that exist.

The tracer skips a (module, function) target it cannot find, so a renamed or
deleted function would silently read zero in the per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Targets whose function the library deleted on purpose; the benchmark's
# tracer still lists them, and their per-layer metrics read zero.
DELETED = (("circuit", "with_phase"),)


def test_tracer_targets_name_statesynth_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, func_name in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        found = getattr(module, func_name, None)
        if (module_name, func_name) in DELETED:
            assert found is None, f"{module_name}.{func_name} exists; drop it from DELETED"
        else:
            assert callable(found), f"{module_name}.{func_name}"
    for target in DELETED:
        assert target in tracer.TARGETS, f"{target} is no longer traced; drop it from DELETED"
