"""Command-line front end: prepare, verify, transform, bench, bounds."""

import argparse
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .circuit import cnot_count, depth
from .errors import (
    BadRangeError,
    NotNormalizedError,
    QasmParseError,
    StateSynthError,
)
from .linalg import MAX_DIM
from .prepare import schmidt_prepare, transform
from .qasm import emit_qasm, parse_qasm
from .sampling import haar_state
from .simulate import fidelity, num_qubits, run, state_from_json, zero_state

FIDELITY_GATE = 1.0 - 1e-9

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NOT_FOUND = 2  # also a path that is not a file; argparse exits 2 on a usage error
EXIT_PARSE = 3
EXIT_NOT_NORMALIZED = 4


def _read_input(path: str) -> str:
    """The text of an input file; bytes that are not UTF-8 are a parse error.

    A leading UTF-8 byte-order mark, which some editors write, is dropped.
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise QasmParseError(f"cannot read {path}: not UTF-8 text ({exc})") from exc


def _load_state(path: str, normalize: bool) -> np.ndarray:
    text = _read_input(path)
    try:
        state = state_from_json(text, normalize=normalize)
    except NotNormalizedError:
        raise
    except (json.JSONDecodeError, StateSynthError, TypeError, ValueError) as exc:
        raise QasmParseError(f"cannot parse state file {path}: {exc}") from exc
    # an accepted norm may be off by 1e-8, more than the fidelity gate allows;
    # the self-checks compare against the unit vector the file stands for
    return state / np.linalg.norm(state)


def cmd_prepare(args) -> int:
    state = _load_state(args.state, args.normalize)
    plan = schmidt_prepare(state)
    fid = fidelity(run(plan.total, zero_state(plan.total.n_qubits)), state)
    report_dict = plan.report.to_dict()
    report_dict["fidelity"] = fid
    qasm_text = emit_qasm(plan.total)
    out = Path(args.output) if args.output else Path(args.state).with_suffix(".qasm")
    if args.format == "qasm":
        out.write_text(qasm_text)
    else:
        out.write_text(json.dumps({"qasm": qasm_text, "report": report_dict}, indent=2))
    report_path = Path(args.report) if args.report else out.with_suffix(".report.json")
    report_path.write_text(json.dumps(report_dict, indent=2, sort_keys=True))
    print(f"wrote {out} and {report_path}")
    print(f"cnots={plan.report.cnot_count} depth={plan.report.depth} fidelity={fid!r}")
    return EXIT_OK if fid >= FIDELITY_GATE else EXIT_FAIL


def cmd_verify(args) -> int:
    qasm_text = _read_input(args.qasm)
    circuit = parse_qasm(qasm_text)
    target = _load_state(args.state, args.normalize)
    # sized by the state, not the qreg: run then rejects a width mismatch
    # before a wide qreg could allocate 2^n_qubits amplitudes
    out = run(circuit, zero_state(num_qubits(target)))
    fid = fidelity(out, target)
    print(f"fidelity={fid!r}")
    return EXIT_OK if fid >= FIDELITY_GATE else EXIT_FAIL


def cmd_transform(args) -> int:
    psi = _load_state(args.psi, args.normalize)
    phi = _load_state(args.phi, args.normalize)
    circuit = transform(psi, phi)
    fid = fidelity(run(circuit, psi), phi)
    out = Path(args.output) if args.output else Path(args.phi).with_suffix(".transform.qasm")
    out.write_text(emit_qasm(circuit))
    print(f"wrote {out}")
    print(f"cnots={cnot_count(circuit)} depth={depth(circuit)} fidelity={fid!r}")
    return EXIT_OK if fid >= FIDELITY_GATE else EXIT_FAIL


def _bench_rows(n_min: int, n_max: int, trials: int, seed: int):
    for n in range(n_min, n_max + 1):
        for trial in range(trials):
            rng = np.random.default_rng([seed, n, trial])
            state = haar_state(n, rng)
            plan = schmidt_prepare(state)
            fid = fidelity(run(plan.total, zero_state(n)), state)
            yield {
                "n": n,
                "trial": trial,
                "cnots": cnot_count(plan.total),
                "depth": depth(plan.total),
                "fidelity": fid,
                "lower": bounds_mod.cnot_lower_bound(n),
                "upper": bounds_mod.scheme_upper_bound(n),
                "gates": len(plan.total),
            }


def cmd_bench(args) -> int:
    n_limit = 2 * (MAX_DIM.bit_length() - 1)  # the largest state schmidt_prepare takes
    if not (2 <= args.n_min <= args.n_max <= n_limit):
        raise BadRangeError(f"need 2 <= n_min <= n_max <= {n_limit}")
    if args.trials < 0:
        raise BadRangeError("trials must be non-negative")
    rows = list(_bench_rows(args.n_min, args.n_max, args.trials, args.seed))
    if args.format == "csv":
        buf = io.StringIO()
        buf.write("n,trial,cnots,depth,fidelity,lower,upper,gates\n")
        for r in rows:
            buf.write(
                f"{r['n']},{r['trial']},{r['cnots']},{r['depth']},"
                f"{r['fidelity']!r},{r['lower']},{r['upper']},{r['gates']}\n"
            )
        text = buf.getvalue()
    else:
        summary = []
        for n in range(args.n_min, args.n_max + 1):
            group = [r for r in rows if r["n"] == n]
            if group:
                summary.append(
                    {
                        "n": n,
                        "trials": len(group),
                        "max_cnots": max(r["cnots"] for r in group),
                        "mean_cnots": sum(r["cnots"] for r in group) / len(group),
                        "max_depth": max(r["depth"] for r in group),
                        "mean_gates": sum(r["gates"] for r in group) / len(group),
                        "min_fidelity": min(r["fidelity"] for r in group),
                        "lower": bounds_mod.cnot_lower_bound(n),
                        "upper": bounds_mod.scheme_upper_bound(n),
                    }
                )
            else:
                summary.append({"n": n, "trials": 0})
        text = json.dumps({"seed": args.seed, "results": summary}, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bounds(args) -> int:
    print(bounds_mod.bound_set(args.n).to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statesynth",
        description="Synthesize state-preparation circuits over {1-qubit rotations, CNOT}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="synthesize a preparation circuit for a state file")
    p.add_argument("state", help="StateVector JSON file")
    p.add_argument("-o", "--output", help="output path (default: <state>.qasm)")
    p.add_argument("--report", help="cost report path (default: <output>.report.json)")
    p.add_argument("--normalize", action="store_true", help="renormalize the input state")
    p.add_argument("--format", choices=("qasm", "json"), default="qasm")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("verify", help="simulate a QASM file against a target state")
    p.add_argument("qasm")
    p.add_argument("state")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transform", help="circuit mapping one state to another")
    p.add_argument("psi")
    p.add_argument("phi")
    p.add_argument("-o", "--output")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("bench", help="synthesize random states and tabulate costs")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bounds", help="lower and scheme bounds for n qubits")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except OSError as exc:  # a path that is not a readable (or writable) file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (QasmParseError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotNormalizedError as exc:
        print(f"error: {exc} (use --normalize to rescale)", file=sys.stderr)
        return EXIT_NOT_NORMALIZED
    except StateSynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
