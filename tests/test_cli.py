"""CLI: file round trips, exit codes, bench determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from statesynth import (
    NotNormalizedError,
    bound_set,
    fidelity,
    haar_state,
    parse_qasm,
    run,
    state_to_json,
    zero_state,
)
from statesynth.cli import main
from statesynth.simulate import require_normalized


@pytest.fixture
def state_file(tmp_path):
    rng = np.random.default_rng(0)
    state = haar_state(4, rng)
    path = tmp_path / "state.json"
    path.write_text(state_to_json(state))
    return path, state


def test_prepare_roundtrip(state_file, capsys):
    path, state = state_file
    rc = main(["prepare", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cnots=9" in out and "depth=5" in out
    qasm_path = path.with_suffix(".qasm")
    report_path = qasm_path.with_suffix(".report.json")
    assert qasm_path.exists() and report_path.exists()
    report = json.loads(report_path.read_text())
    assert report["cnot_count"] <= 9
    assert report["depth"] <= 5
    assert report["fidelity"] >= 1 - 1e-9
    # emitted circuit reproduces the state
    circ = parse_qasm(qasm_path.read_text())
    assert fidelity(run(circ, zero_state(4)), state) >= 1 - 1e-9


def test_prepare_then_verify(state_file, capsys):
    path, _ = state_file
    assert main(["prepare", str(path)]) == 0
    rc = main(["verify", str(path.with_suffix(".qasm")), str(path)])
    assert rc == 0
    assert "fidelity=" in capsys.readouterr().out


def test_verify_wrong_target_fails(tmp_path, capsys):
    qasm = tmp_path / "bell.qasm"
    qasm.write_text(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "u3(1.5707963267948966,0.0,3.141592653589793) q[0];\ncx q[0],q[1];\n"
    )
    target = tmp_path / "zero.json"
    target.write_text(state_to_json(zero_state(2)))
    rc = main(["verify", str(qasm), str(target)])
    assert rc != 0
    fid = float(capsys.readouterr().out.split("=")[1])
    assert abs(fid - 0.5) < 1e-9


def test_verify_empty_circuit_on_zero(tmp_path):
    qasm = tmp_path / "empty.qasm"
    qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n')
    target = tmp_path / "zero.json"
    target.write_text(state_to_json(zero_state(3)))
    assert main(["verify", str(qasm), str(target)]) == 0


def test_verify_accepts_a_u3_whose_phase_sum_overflows(tmp_path, capsys):
    """u3(0,1e308,1e308) is finite and unitary: verify exits 0 with no
    warning (before, three numpy RuntimeWarnings and exit 1 on a NaN
    entry)."""
    qasm = tmp_path / "phase.qasm"
    qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nu3(0,1e308,1e308) q[0];\n')
    target = tmp_path / "zero.json"
    target.write_text(state_to_json(zero_state(1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(qasm), str(target)]) == 0
    out, err = capsys.readouterr()
    assert out == "fidelity=1.0\n" and err == ""


def test_missing_file_exit_code(tmp_path):
    assert main(["prepare", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["prepare", str(bad)]) == 3
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("n", [2**64, True])
def test_bad_qubit_count_exit_code(tmp_path, capsys, n):
    path = tmp_path / "bad_n.json"
    path.write_text(json.dumps({"n": n, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
    qasm = tmp_path / "one.qasm"
    qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n')
    for argv in (["prepare", str(path)], ["verify", str(qasm), str(path)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "bad qubit count" in err and "Traceback" not in err


def test_unnormalized_exit_code(tmp_path):
    path = tmp_path / "unnorm.json"
    amps = [[2.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    path.write_text(json.dumps({"n": 2, "amplitudes": amps}))
    assert main(["prepare", str(path)]) == 4
    # --normalize rescales and succeeds
    assert main(["prepare", str(path), "--normalize"]) == 0


@pytest.mark.parametrize("eps", [-0.9e-8, 0.9e-8])
def test_prepare_accepts_states_off_norm_within_tolerance(tmp_path, eps, capsys):
    for n in (2, 4):
        state = haar_state(n, 1) * (1 + eps)
        path = tmp_path / f"off{n}.json"
        path.write_text(state_to_json(state))
        assert main(["prepare", str(path)]) == 0
        assert main(["verify", str(path.with_suffix(".qasm")), str(path)]) == 0


def test_transform_command(tmp_path, capsys):
    rng = np.random.default_rng(1)
    psi, phi = haar_state(3, rng), haar_state(3, rng)
    psi_path = tmp_path / "psi.json"
    phi_path = tmp_path / "phi.json"
    psi_path.write_text(state_to_json(psi))
    phi_path.write_text(state_to_json(phi))
    rc = main(["transform", str(psi_path), str(phi_path)])
    assert rc == 0
    out_path = phi_path.with_suffix(".transform.qasm")
    circ = parse_qasm(out_path.read_text())
    assert fidelity(run(circ, psi), phi) >= 1 - 1e-9


def test_bench_csv_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["bench", "--n-min", "2", "--n-max", "4", "--trials", "3", "--seed", "7"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "n,trial,cnots,depth,fidelity,lower,upper,gates"
    assert len(lines) == 1 + 3 * 3
    for line in lines[1:]:
        n, trial, cnots, d, fid, lower, upper, gates = line.split(",")
        assert int(cnots) <= int(upper)
        assert float(fid) >= 1 - 1e-9
        assert int(cnots) <= int(gates) <= 3 * int(cnots) + int(n)  # the folded total


def test_bench_zero_trials_header_only(capsys):
    assert main(["bench", "--n-min", "2", "--n-max", "3", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "n,trial,cnots,depth,fidelity,lower,upper,gates"


def test_bench_bad_range(capsys):
    assert main(["bench", "--n-min", "1", "--n-max", "4"]) == 1
    assert main(["bench", "--n-min", "4", "--n-max", "17"]) == 1
    assert "need 2 <= n_min <= n_max <= 16" in capsys.readouterr().err


def test_bench_takes_every_n_that_prepares(capsys):
    """The bench's limit is the library's: n = 11 runs."""
    assert main(["bench", "--n-min", "11", "--n-max", "11", "--trials", "1"]) == 0
    assert capsys.readouterr().out.count("\n11,0,") == 1


def test_bench_json_summary(capsys):
    assert main(["bench", "--n-min", "4", "--n-max", "4", "--trials", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    row = data["results"][0]
    assert row["n"] == 4 and row["max_cnots"] <= 9 and row["lower"] == 6
    assert row["mean_gates"] == 28  # a Haar 4-qubit total folds to 28 gates


def test_prepare_json_format_and_flags(state_file):
    path, state = state_file
    out = path.parent / "combined.json"
    rc = main(["prepare", str(path), "-o", str(out), "--format", "json"])
    assert rc == 0
    payload = json.loads(out.read_text())
    circ = parse_qasm(payload["qasm"])
    assert fidelity(run(circ, zero_state(4)), state) >= 1 - 1e-9
    assert payload["report"]["cnot_count"] <= 9


@pytest.mark.parametrize(
    "argv",
    [
        ["prepare", "s.json", "--phase1", "baseline"],
        ["prepare", "s.json", "--rank-aware"],
        ["transform", "a.json", "b.json", "--phase1", "recursive"],
    ],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: statesynth") and "unrecognized arguments" in err


def test_prepare_one_qubit_state(tmp_path, capsys):
    state = np.array([0.6, 0.8j])
    path = tmp_path / "one.json"
    path.write_text(state_to_json(state))
    assert main(["prepare", str(path)]) == 0
    assert "cnots=0 depth=0" in capsys.readouterr().out
    lines = path.with_suffix(".qasm").read_text().splitlines()
    assert sum(line.startswith("u3(") for line in lines) == 1
    assert not any(line.startswith("cx ") for line in lines)
    report = json.loads(path.with_suffix(".report.json").read_text())
    assert report["per_phase"] == {"P1": 0, "P2": 0, "P3": 0, "P4": 0}
    assert report["fidelity"] >= 1 - 1e-9
    assert main(["verify", str(path.with_suffix(".qasm")), str(path)]) == 0


def test_prepare_output_is_deterministic(state_file):
    path, _ = state_file
    out1 = path.parent / "a.qasm"
    out2 = path.parent / "b.qasm"
    assert main(["prepare", str(path), "-o", str(out1)]) == 0
    assert main(["prepare", str(path), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bounds_command(capsys):
    assert main(["bounds", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "n": 5,
        "cnot_lower": 13,
        "cnot_upper_scheme": 26,
        "depth_lower": 7,
        "depth_upper_scheme": 22,
    }


def test_bounds_command_for_large_n(capsys):
    """bounds prints exact integers where 2^(n+1) overflows a float."""
    assert main(["bounds", "1030"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == bound_set(1030).to_dict()
    assert data["cnot_lower"] == -(-(2**1031 - 2 - 2 * 1030) // 4)
    assert data["depth_lower"] == -(-data["cnot_lower"] // 515)


def test_bounds_too_long_to_print_exit_code(capsys):
    """From about n = 14280 a ceiling has more digits than Python prints an
    integer with (4300 by default): bounds exits 1 with a message and no
    traceback, and just below that it still prints."""
    assert main(["bounds", "15000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "n = 15000" in captured.err
    assert "Traceback" not in captured.err
    assert main(["bounds", "14000"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 14000


def test_verify_reads_deep_angle_expressions(tmp_path, capsys):
    """An angle nested 2000 parentheses deep, or behind 2001 signs, is
    evaluated; the same nesting followed by a stray ")(" is a parse error,
    exit 3, with a message and no traceback."""
    target = tmp_path / "target.json"
    target.write_text(state_to_json(np.array([math.cos(0.5), -math.sin(0.5)])))  # u3(-1, 0, 0)|0>
    qasm = tmp_path / "deep.qasm"
    for angle, code in (
        ("(" * 2000 + "-1" + ")" * 2000, 0),
        ("-" * 2001 + "1", 0),
        ("(" * 2000 + "-1" + ")" * 2000 + ")(", 3),
    ):
        qasm.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nu3({angle},0,0) q[0];\n')
        assert main(["verify", str(qasm), str(target)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("error:") and "trailing tokens" in err


def test_nan_amplitude_is_not_normalized(tmp_path):
    with pytest.raises(NotNormalizedError):
        require_normalized(np.array([np.nan, 0.0, 0.0, 0.0]))
    path = tmp_path / "nan.json"
    amps = [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    path.write_text(json.dumps({"n": 2, "amplitudes": amps}))
    assert main(["prepare", str(path)]) == 4
    assert main(["prepare", str(path), "--normalize"]) == 4


@pytest.mark.parametrize(
    "statement",
    [
        "u3(1/0,0,0) q[0];",
        "u3(1e400,0,0) q[0];",
        "u3(0,1e300*1e300-1e300*1e300,0) q[0];",
        "u3(0,0,0) q[2];",
        "cx q[0],q[2];",
        "cx q[1],q[1];",
        "u3(0.1,0,0) r[0];",
        "cx q[0],zz[1];",
        "u3(0.1,0.2,0.3,) q[0];",
    ],
)
def test_malformed_qasm_is_a_parse_error(tmp_path, statement, capsys):
    qasm = tmp_path / "bad.qasm"
    qasm.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n{statement}\n')
    target = tmp_path / "zero.json"
    target.write_text(state_to_json(zero_state(2)))
    assert main(["verify", str(qasm), str(target)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_empty_qreg_is_a_parse_error(tmp_path, capsys):
    qasm = tmp_path / "empty.qasm"
    qasm.write_text("OPENQASM 2.0;\nqreg q[0];\n")
    target = tmp_path / "zero.json"
    target.write_text(state_to_json(zero_state(2)))
    assert main(["verify", str(qasm), str(target)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_verify_rejects_a_register_size_mismatch_before_simulating(tmp_path, capsys):
    """A 60-qubit register against a 2-qubit state must not allocate 2^60 amplitudes."""
    qasm = tmp_path / "wide.qasm"
    qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[60];\ncx q[0],q[59];\n')
    target = tmp_path / "zero.json"
    target.write_text(state_to_json(zero_state(2)))
    assert main(["verify", str(qasm), str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "60" in err


def test_oversize_state_exit_code(tmp_path, capsys):
    """A 17-qubit state exceeds the 256x256 factorization limit: the library
    refuses it at entry with a typed error, and prepare exits 1."""
    path = tmp_path / "big.json"
    amps = [[1.0, 0.0]] + [[0.0, 0.0]] * ((1 << 17) - 1)
    path.write_text(json.dumps({"n": 17, "amplitudes": amps}))
    assert main(["prepare", str(path)]) == 1
    assert "exceeds the 256 limit" in capsys.readouterr().err


_NOT_UTF8 = b"OPENQASM 2.0;\nqreg q[2];\n// \xff\xfe\n"


@pytest.mark.parametrize("which", ["qasm", "state"])
def test_verify_undecodable_input_is_a_parse_error(tmp_path, which, capsys):
    """Bytes that are not UTF-8 exit 3 with a message, not a UnicodeDecodeError traceback."""
    qasm = tmp_path / "c.qasm"
    qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n')
    target = tmp_path / "zero.json"
    target.write_text(state_to_json(zero_state(2)))
    bad = qasm if which == "qasm" else target
    bad.write_bytes(_NOT_UTF8 if which == "qasm" else b'{"n": 1, "amplitudes": "\xe9"}')
    assert main(["verify", str(qasm), str(target)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err and str(bad) in err


def test_prepare_and_transform_undecodable_state_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}\xff')
    good = tmp_path / "good.json"
    good.write_text(state_to_json(zero_state(1)))
    assert main(["prepare", str(bad)]) == 3
    assert main(["transform", str(good), str(bad)]) == 3
    assert main(["transform", str(bad), str(good)]) == 3
    assert capsys.readouterr().err.count("not UTF-8") == 3


def test_inputs_with_a_byte_order_mark_are_read(tmp_path, capsys):
    """QASM and state files that start with a UTF-8 byte-order mark, as some
    editors write them, read like the same files without it."""
    state = haar_state(3, np.random.default_rng(15))
    path = tmp_path / "state.json"
    path.write_text(state_to_json(state), encoding="utf-8-sig")
    assert main(["prepare", str(path)]) == 0
    qasm = path.with_suffix(".qasm")
    qasm.write_text(qasm.read_text(), encoding="utf-8-sig")
    assert qasm.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["verify", str(qasm), str(path)]) == 0
    zero = tmp_path / "zero.json"
    zero.write_text(state_to_json(zero_state(3)), encoding="utf-8-sig")
    assert main(["transform", str(zero), str(path)]) == 0
    assert main(["transform", str(path), str(zero)]) == 0
    assert "error" not in capsys.readouterr().err


def test_directory_as_input_exits_like_a_missing_file(tmp_path, capsys):
    """A path that is not a readable file exits 2, like a missing one."""
    target = tmp_path / "zero.json"
    target.write_text(state_to_json(zero_state(2)))
    qasm = tmp_path / "c.qasm"
    qasm.write_text('OPENQASM 2.0;\nqreg q[2];\n')
    folder = tmp_path / "folder"
    folder.mkdir()
    assert main(["verify", str(folder), str(target)]) == 2
    assert main(["verify", str(qasm), str(folder)]) == 2
    assert main(["prepare", str(folder)]) == 2
    assert main(["transform", str(target), str(folder)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(line.startswith("error:") for line in err)


@pytest.mark.parametrize(
    "header", ["includes q[0];", "OPENQASMx;", "OPENQASM 3.0;", 'include "other.inc";']
)
def test_verify_rejects_unknown_headers(tmp_path, header, capsys):
    qasm = tmp_path / "c.qasm"
    qasm.write_text(f"{header}\nqreg q[2];\n")
    target = tmp_path / "zero.json"
    target.write_text(state_to_json(zero_state(2)))
    assert main(["verify", str(qasm), str(target)]) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "body",
    [
        "qreg q[" + "1" * 5000 + "];\n",
        "qreg q[2];\nu3(0,0,0) q[" + "0" * 5000 + "];\n",
        "qreg q[2];\nu(0, 0, 0) q[" + "0" * 5000 + "];\n",
    ],
    ids=["qreg", "u3", "u"],
)
def test_verify_index_too_long_for_int_exit_code(tmp_path, body, capsys):
    """A qreg size or qubit index of more digits than int() converts (4300
    by default) is a parse error, exit 3, with a message and no traceback."""
    qasm = tmp_path / "c.qasm"
    qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n' + body)
    target = tmp_path / "zero.json"
    target.write_text(state_to_json(zero_state(2)))
    assert main(["verify", str(qasm), str(target)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "5000 digits" in err and "Traceback" not in err
