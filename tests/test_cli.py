"""Command line round trips, report formats, and exit codes."""

import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from zstates.cli import main
from zstates.plandoc import document_to_plan, frac_from_json, parse_document
from zstates.protocol import execute_plan

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_plan(tmp_path, capsys, *argv):
    code, out, err = run_cli(capsys, "plan", *argv)
    assert code == 0, err
    path = tmp_path / "plan.json"
    path.write_text(out, encoding="utf-8")
    return path


def test_plan_run_graph_roundtrip_exact(tmp_path, capsys):
    path = write_plan(tmp_path, capsys, "--mode", "exact", "--k", "1",
                      "--n1", "3", "--n2", "3")
    doc = parse_document(path.read_text())
    assert (doc.mode, doc.k, doc.target_n) == ("exact", 1, 6)

    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    assert out.rstrip().endswith("Z_1(6)")
    assert "1/24" in out
    assert "(~ 0.0416667)" in out

    code, dot1, _ = run_cli(capsys, "graph", str(path))
    assert code == 0
    code, dot2, _ = run_cli(capsys, "graph", str(path))
    assert dot1 == dot2
    assert dot1.count("shape=box") == 5
    assert dot1.count("shape=rarrow") == 2


def test_single_cycle_graph_shape(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "schema_version": 1, "mode": "explicit", "k": 1, "target_n": 4,
        "inputs": [{"id": "a", "k": 1, "n": 3}, {"id": "b", "k": 1, "n": 3}],
        "ancillas": [],
        "cycles": [{"left": "a", "right": "b", "produced": "out"}],
    }))
    code, dot, _ = run_cli(capsys, "graph", str(path))
    assert code == 0
    assert dot.count("shape=box") == 3
    assert dot.count("shape=rarrow") == 1
    assert '"a" -> "proj0";' in dot


def test_zero_cycle_graph_has_input_nodes_only(tmp_path, capsys):
    path = write_plan(tmp_path, capsys, "--mode", "incremental", "--k", "1",
                      "--n-target", "3")
    code, dot, _ = run_cli(capsys, "graph", str(path))
    assert code == 0
    assert dot.count("shape=box") == 1
    assert "rarrow" not in dot


def test_json_report_is_exact(tmp_path, capsys):
    path = write_plan(tmp_path, capsys, "--mode", "incremental", "--k", "1",
                      "--n-target", "6")
    code, out, _ = run_cli(capsys, "run", str(path), "--report", "json")
    assert code == 0
    report = json.loads(out)
    assert report["final"] == {"id": "s3", "k": 1, "n": 6}
    cumulative = frac_from_json(report["cumulative_probability"])
    assert (cumulative.numerator, cumulative.denominator) == (1, 108)
    assert report["ledger"]["output_qubits"] == 6

    def no_floats(node):
        if isinstance(node, float):
            return False
        if isinstance(node, dict):
            return all(no_floats(v) for v in node.values())
        if isinstance(node, list):
            return all(no_floats(v) for v in node)
        return True

    assert no_floats(report)


@pytest.mark.parametrize("mode, extra, final", [
    ("exact", ("--n1", "5", "--n2", "6"), "Z_2(11)"),
    ("incremental", ("--n-target", "8",), "Z_2(8)"),
    ("exponential", ("--n-target", "12",), "Z_2(12)"),
])
def test_roundtrip_all_modes_k2(tmp_path, capsys, mode, extra, final):
    path = write_plan(tmp_path, capsys, "--mode", mode, "--k", "2", *extra)
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    assert out.rstrip().endswith(final)
    code, dot, _ = run_cli(capsys, "graph", str(path))
    assert code == 0
    assert dot.startswith("digraph")


def test_run_with_oracle_flag(tmp_path, capsys):
    path = write_plan(tmp_path, capsys, "--mode", "exact", "--k", "1",
                      "--n1", "3", "--n2", "3")
    code, out, _ = run_cli(capsys, "run", str(path), "--verify-with-oracle")
    assert code == 0
    assert out.count("[oracle ok]") == 2


def test_oracle_replays_only_cycles_within_the_dense_cap(tmp_path, capsys):
    """Cycle 1 acts on 4 + 10 = 14 qubits; cycle 2 on 12 + 11 = 23, one
    past the 22-qubit cap, so the dense expansion does not replay it."""
    path = write_plan(tmp_path, capsys, "--mode", "exact", "--k", "1",
                      "--n1", "10", "--n2", "11")
    code, out, err = run_cli(capsys, "run", str(path), "--verify-with-oracle")
    assert (code, err) == (0, "")
    checked = [line for line in out.splitlines() if "[oracle ok]" in line]
    assert len(checked) == 1 and checked[0].startswith("cycle 1:")


def test_no_dense_cap_setting(tmp_path, capsys):
    """The oracle's reach is fixed: neither a flag nor a document field sets it."""
    path = write_plan(tmp_path, capsys, "--mode", "exact", "--k", "1",
                      "--n1", "3", "--n2", "3")
    code, _, err = run_cli(capsys, "run", str(path), "--dense-cap", "30")
    assert code == 2 and "--dense-cap" in err
    code, _, err = run_cli(capsys, "verify", "--dense-cap", "30")
    assert code == 2 and "--dense-cap" in err
    plan = json.loads(path.read_text())
    for field, value in (("dense_cap", 30), ("verify_with_oracle", True)):
        path.write_text(json.dumps({**plan, field: value}))
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2 and f"unknown fields: ['{field}']" in err


def test_violations_past_the_int_digit_limit(tmp_path, capsys):
    """A plan whose product size is wider than `str(int)` allows is still
    reported as invalid, one line per violation, without a traceback."""
    n = 10 ** 4300 - 1
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "schema_version": 1, "mode": "explicit", "k": 1, "target_n": 4,
        "inputs": [{"id": "a", "k": 1, "n": n}, {"id": "b", "k": 1, "n": n}],
        "ancillas": [],
        "cycles": [{"left": "a", "right": "b", "produced": "out"}],
    }))
    for command in ("run", "graph"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            f"final product Z_1({Decimal(2 * n - 2)}) does not match target Z_1(4)"]


def test_reports_past_the_int_digit_limit(tmp_path, capsys):
    """A cumulative probability wider than `str(int)` allows still prints
    exactly as text; the JSON report refuses it with exit 4."""
    path = write_plan(tmp_path, capsys, "--mode", "exponential", "--k", "3",
                      "--n-target", "1600")
    cumulative = execute_plan(
        document_to_plan(parse_document(path.read_text()))).cumulative_success
    digits = len(str(Decimal(cumulative.denominator)))
    assert digits > sys.get_int_max_str_digits()

    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, err) == (0, "")
    exact = f"{Decimal(cumulative.numerator)}/{Decimal(cumulative.denominator)}"
    assert f"cumulative success probability: {exact} (~ " in out

    code, out, err = run_cli(capsys, "run", str(path), "--report", "json")
    assert (code, out) == (4, "")
    assert err.count("\n") == 1
    assert f" {digits} digits" in err


def test_python_m_zstates():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "zstates", "plan", "--mode", "exact", "--k", "1",
         "--n1", "3", "--n2", "3"], capture_output=True, text=True, env=env,
        timeout=60)
    assert done.returncode == 0, done.stderr
    doc = parse_document(done.stdout)
    assert (doc.mode, doc.k, doc.n1, doc.n2) == ("exact", 1, 3, 3)


def test_plan_precondition_violations_exit_2(capsys):
    code, _, err = run_cli(capsys, "plan", "--mode", "incremental", "--k", "1",
                           "--n-target", "2")
    assert code == 2
    assert "n_target" in err
    code, _, _ = run_cli(capsys, "plan", "--mode", "exact", "--k", "1",
                         "--n1", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "plan", "--mode", "incremental", "--k", "1")
    assert code == 2


def test_run_malformed_document_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "malformed" in err
    code, _, _ = run_cli(capsys, "run", str(tmp_path / "missing.json"))
    assert code == 2
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "cannot read" in err and len(err.splitlines()) == 1


def test_run_k_mismatch_exits_3(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "schema_version": 1, "mode": "explicit", "k": 1, "target_n": 8,
        "inputs": [{"id": "a", "k": 2, "n": 5}, {"id": "b", "k": 2, "n": 5}],
        "ancillas": [],
        "cycles": [{"left": "a", "right": "b", "produced": "out"}],
    }))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 3
    assert "plan k" in err


def test_graph_invalid_plan_exits_3(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "schema_version": 1, "mode": "explicit", "k": 1, "target_n": 2,
        "inputs": [{"id": "a", "k": 1, "n": 1}, {"id": "b", "k": 1, "n": 3}],
        "ancillas": [],
        "cycles": [{"left": "a", "right": "b", "produced": "out"}],
    }))
    code, _, _ = run_cli(capsys, "graph", str(path))
    assert code == 3


def test_verify_small_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6", "--max-k", "1")
    assert code == 0
    assert "composition: pass" in out


def test_verify_bounds_exceeding_cap_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-n", "30")
    assert code == 2
    assert "dense cap" in err


def test_verify_corrupt_alpha_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "8", "--max-k", "2",
                           "--corrupt-alpha")
    assert code == 1
    assert "distillation: FAIL" in out
