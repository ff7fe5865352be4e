"""Span tracer installed from outside the library, by wrapping public functions.

Each traced function is replaced at every import site: every loaded
``statesynth`` module attribute that is the function object gets its own
wrapper, so calls between modules are seen and a span records which module
made the call.  Spans are kept in flat in-memory arrays with their parent and
are written out only when the run ends.  ``uninstall`` puts every original
object back.
"""

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function) pairs the traced run measures.  Private helpers are not
# wrapped; their time shows as the self time of their public caller.
TARGETS = (
    ("linalg", "svd"),
    ("linalg", "cosine_sine"),
    ("linalg", "unitary_eig"),
    ("linalg", "require_unitary"),
    ("twoqubit", "synth_2q_unitary"),
    ("twoqubit", "two_qubit_up_to_diagonal"),
    ("twoqubit", "kak_decompose"),
    ("synthesis", "synth_kq_unitary"),
    ("synthesis", "demultiplex"),
    ("synthesis", "uc_su2_up_to_diagonal"),
    ("prepare", "schmidt_prepare"),
    ("prepare", "schmidt_decompose"),
    ("prepare", "baseline_prepare"),
    ("circuit", "shift"),
    ("circuit", "concat"),
    ("circuit", "with_phase"),
    ("circuit", "inverse"),
    ("circuit", "cost_report"),
    ("simulate", "run"),
    ("simulate", "fidelity"),
    ("simulate", "circuit_unitary"),
    ("qasm", "emit_qasm"),
    ("qasm", "parse_qasm"),
)
OP = "op"
PACKAGE = "statesynth"


def _site_modules() -> list:
    return [
        (name, mod)
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Collects spans for calls into the TARGETS; use as a context manager."""

    def __init__(self):
        self.names = [OP] + [f"{m}.{f}" for m, f in TARGETS]
        self.sites = ["benchmark"]
        self.name_id = array("i")
        self.parent = array("i")
        self.site = array("i")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self.outer = array("b")
        self.op_first = array("q")
        self._stack = [-1]
        self._active = [0] * len(self.names)
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _site_modules()
        for nid, (mod_name, func_name) in enumerate(TARGETS, start=1):
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            func = getattr(home, func_name, None)
            if func is None:
                continue  # removed from the library; its metrics read zero
            for site_name, mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        sid = self._site_id(site_name)
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, self._wrap(func, nid, sid))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _site_id(self, module_name: str) -> int:
        short = module_name.rpartition(".")[2] if module_name != PACKAGE else PACKAGE
        if short not in self.sites:
            self.sites.append(short)
        return self.sites.index(short)

    def _open(self, nid: int, sid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.site.append(sid)
        self.outer.append(self._active[nid] == 0)
        self.error.append(0)
        self.end.append(0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._active[nid] -= 1
        self._stack.pop()

    def _wrap(self, func, nid: int, sid: int):
        open_, close, error = self._open, self._close, self.error

        def traced(*args, **kwargs):
            idx = open_(nid, sid)
            try:
                return func(*args, **kwargs)
            except Exception:
                error[idx] = 1
                raise
            finally:
                close(idx, nid)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", "traced")
        return traced

    def op(self, fn, item):
        """Run one benchmark op as a root span; raises what the op raises."""
        self.op_first.append(len(self.name_id))
        idx = self._open(0, 0)
        try:
            return fn(item)
        except Exception:
            self.error[idx] = 1
            raise
        finally:
            self._close(idx, 0)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "site": np.frombuffer(self.site, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int8),
            "outer": np.frombuffer(self.outer, dtype=np.int8),
            "op_first": np.frombuffer(self.op_first, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write every span, the name table and the site table to an .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names), sites=np.array(self.sites), **self.arrays()
        )


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Span duration minus the time covered by its direct children.

    Spans come from one thread and nest, so children never overlap and the
    covered time is the sum of their durations.
    """
    covered = np.zeros(len(duration), dtype=np.float64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def summarize(tracer: Tracer, first_pass_ops: int, op_speed: list) -> dict:
    """Per-layer aggregates.

    Times are per op over every traced op, each span scaled by its op's entry
    in ``op_speed`` (reference-speed time over measured time).  Call and
    error counts use only
    the first ``first_pass_ops`` ops, one per distinct input, so they repeat
    exactly for a given seed.  ``calls_by_site`` counts first-pass calls per
    (layer, calling module).
    """
    a = tracer.arrays()
    n_ops = len(a["op_first"])
    spans_per_op = np.diff(np.append(a["op_first"], len(a["name_id"])))
    scale = np.repeat(np.asarray(op_speed, dtype=np.float64), spans_per_op)
    duration = (a["end_ns"] - a["start_ns"]).astype(np.float64) / 1e6 * scale
    own = self_times(a["parent"].astype(np.int64), duration)
    cut = int(a["op_first"][first_pass_ops]) if first_pass_ops < n_ops else len(duration)
    first = np.arange(len(duration)) < cut
    out = {}
    for nid, name in enumerate(tracer.names):
        mine = a["name_id"] == nid
        outer = mine & (a["outer"] == 1)
        out[name] = {
            "calls": int(np.count_nonzero(mine & first)),
            "errors": int(np.count_nonzero(mine & first & (a["error"] == 1))),
            "self_ms": float(own[mine].sum()) / n_ops,
            "total_ms": float(duration[outer].sum()) / n_ops,
        }
    by_site = Counter(
        (tracer.names[nid], tracer.sites[sid])
        for nid, sid in zip(a["name_id"][first], a["site"][first])
    )
    return {
        "layers": out,
        "calls_by_site": by_site,
        "ops": n_ops,
        "first_pass_ops": min(first_pass_ops, n_ops),
    }


def installed_wrappers() -> list:
    """Names of statesynth module attributes that are still tracing wrappers."""
    left = []
    for name, mod in _site_modules():
        for attr, value in vars(mod).items():
            if callable(value) and getattr(value, "__qualname__", "").endswith(
                "Tracer._wrap.<locals>.traced"
            ):
                left.append(f"{name}.{attr}")
    return left
