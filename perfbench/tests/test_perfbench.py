"""Self-test of the benchmark: determinism, metric names, tracer hygiene.

Run from the repository root:  python3 -m pytest perfbench/tests -q
Each workload runs twice as a short traced run in a subprocess, exactly as
the benchmark is invoked; the two runs must agree on everything that does
not depend on timing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import refcheck, tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC_LINES = ("inputs:", "counts ")
# Calls per op that the workload's shape fixes: haar_n4 and verify_n10 never
# reach the cosine-sine recursion or the leaf splits; only verify_n10 parses.
SHAPE = {
    "haar_n4": {"twoqubit.two_qubit_up_to_diagonal.calls": 0, "linalg.cosine_sine.calls": 0,
                "qasm.parse_qasm.calls": 0},
    "haar_n8": {"qasm.parse_qasm.calls": 0, "twoqubit.two_qubit_up_to_diagonal.calls": 30},
    "verify_n10": {"twoqubit.two_qubit_up_to_diagonal.calls": 0, "linalg.cosine_sine.calls": 0,
                   "qasm.parse_qasm.calls": 1},
}


def bench(workload: str, trace: int, seed: int = 11, seconds: float = 0.5) -> tuple[list, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_exactly(workload):
    runs = [bench(workload, trace=1) for _ in range(2)]
    for lines, result in runs:
        assert result["correct"] and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert any("wrappers left: 0" in line for line in lines)
        assert any("traced and untraced circuits identical: True" in line for line in lines)

    def fixed(run):
        lines, result = run
        counts = {k: v["value"] for k, v in result["metrics"].items()
                  if k.endswith((".calls", ".errors"))}
        return [line for line in lines if line.startswith(DETERMINISTIC_LINES)], counts

    assert fixed(runs[0]) == fixed(runs[1])
    assert re.search(r"sha256=[0-9a-f]{64}", "\n".join(runs[0][0]))
    metrics = runs[0][1]["metrics"]
    assert {k: metrics[k]["value"] for k in SHAPE[workload]} == SHAPE[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_and_nonzero(workload):
    _, result = bench(workload, trace=0)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_library_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "haar_n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tracer_restores_every_wrapped_name():
    import statesynth

    modules = tracer._site_modules()
    before = {(name, attr): value for name, mod in modules for attr, value in vars(mod).items()}
    with tracer.Tracer() as tr:
        assert tracer.installed_wrappers()
        tr.op(lambda s: statesynth.schmidt_prepare(s), np.ones(4) / 2.0)
    after = {(name, attr): value for name, mod in modules for attr, value in vars(mod).items()}
    assert tracer.installed_wrappers() == []
    assert all(after[key] is value for key, value in before.items())


def test_self_time_subtracts_direct_children():
    # root 0..10, child 1..4 with grandchild 2..3, child 5..9
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 3.0, 1.0, 4.0])
    assert tracer.self_times(parent, duration).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_reference_checker_counts_and_ceilings():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    gates = [("u", 1, h), ("cx", 1, 2), ("cx", 3, 4), ("cx", 2, 3)]
    assert refcheck.counts(4, gates) == refcheck.Counts(cnots=3, depth=2, gates=4)
    bell = refcheck.prepared_state(4, gates[:2])
    expected = np.zeros(16)
    expected[[0, 12]] = 1 / np.sqrt(2)
    assert refcheck.fidelity(bell, expected) == pytest.approx(1.0)
    assert [refcheck.unitary_ceiling(k) for k in (2, 3, 4, 5)] == [3, 20, 100, 444]
    assert [refcheck.scheme_ceiling(n) for n in (4, 5, 6)] == [9, 26, 47]
    assert [refcheck.scheme_depth_ceiling(n) for n in (4, 5, 6)] == [5, 22, 25]
