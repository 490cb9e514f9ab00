"""Command line round trips, report formats, and exit codes."""

import argparse
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from zstates.cli import main
from zstates.plandoc import document_to_plan, parse_document
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


def test_state_ids_never_meet_projection_nodes(tmp_path, capsys):
    """A state id starting with `proj` or `~` is drawn as `~` + id, so the
    input `proj0` and cycle 0's projection stay two nodes."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "schema_version": 1, "mode": "explicit", "k": 1, "target_n": 4,
        "inputs": [{"id": "proj0", "k": 1, "n": 3}, {"id": "b", "k": 1, "n": 3}],
        "ancillas": [],
        "cycles": [{"left": "proj0", "right": "b", "produced": "out"}],
    }))
    code, dot, _ = run_cli(capsys, "graph", str(path))
    assert code == 0
    assert dot.count("shape=box") == 3
    assert '  "~proj0" [shape=box' in dot
    assert '"~proj0" -> "proj0";' in dot
    edges = [line.strip(" ;").split(" -> ") for line in dot.splitlines()
             if " -> " in line]
    assert len(edges) == 3 and all(head != tail for head, tail in edges)


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
    assert report["cumulative_probability"] == {"num": 1, "den": 108}
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


def test_ledger_sums_past_the_int_digit_limit(tmp_path, capsys):
    """Two idle ancillas of 4,300 nines each sum past `str(int)`'s limit:
    the text report spells the ledger exactly, the JSON report refuses it
    with exit 4, and the graph needs no sums."""
    n = 10 ** 4300 - 1
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "schema_version": 1, "mode": "explicit", "k": 1, "target_n": 4,
        "inputs": [{"id": "a", "k": 1, "n": 3}, {"id": "b", "k": 1, "n": 3}],
        "ancillas": [{"id": "x", "k": 1, "n": n}, {"id": "y", "k": 1, "n": n}],
        "cycles": [{"left": "a", "right": "b", "produced": "out"}],
    }))
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, err) == (0, "")
    ancillas = str(Decimal(2 * n))
    assert len(ancillas) == 4301
    assert f" ancilla_qubits={ancillas} " in out

    code, out, err = run_cli(capsys, "run", str(path), "--report", "json")
    assert (code, out) == (4, "")
    assert err.count("\n") == 1
    assert run_cli(capsys, "graph", str(path))[0] == 0


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


@pytest.mark.parametrize("argv, message", [
    (["plan", "--mode", "exact", "--k", "x"],
     "zstates plan: error: argument --k: invalid int value: 'x'"),
    (["bogus"], "zstates: error: argument command: invalid choice: 'bogus' "
                "(choose from 'plan', 'run', 'graph', 'verify')"),
    (["run"], "zstates run: error: the following arguments are required: "
              "plan_file"),
], ids=["bad-int", "unknown-command", "missing-positional"])
def test_usage_errors_are_one_stderr_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", message + "\n")


def test_help_goes_to_stdout_and_exits_0(capsys):
    code, out, err = run_cli(capsys, "plan", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: zstates plan [-h] --mode")


def test_parser_is_built_once(monkeypatch, capsys):
    argv = ["plan", "--mode", "exact", "--k", "1", "--n1", "3", "--n2", "3"]
    assert run_cli(capsys, *argv)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(3):
        assert run_cli(capsys, *argv)[0] == 0
    assert built == []


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


@pytest.mark.parametrize("mode", ["incremental", "exponential"])
def test_a_plan_past_the_cycle_limit_exits_at_once(tmp_path, capsys, mode):
    """A target of 10^11 qubits would take about 10^11 cycles: `plan` exits
    2 and `run` exits 3, each with one stderr line, before any is built."""
    target = str(10 ** 11)
    code, out, err = run_cli(capsys, "plan", "--mode", mode, "--k", "1",
                             "--n-target", target)
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert "more than the limit" in err
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"schema_version": 1, "mode": mode, "k": 1,
                                "target_n": int(target)}), encoding="utf-8")
    for command in ("run", "graph"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out, len(err.splitlines())) == (3, "", 1)
        assert "more than the limit" in err


def test_an_explicit_plan_past_the_cycle_limit_exits_3(tmp_path, capsys,
                                                       monkeypatch):
    import zstates.protocol

    monkeypatch.setattr(zstates.protocol, "MAX_CYCLES", 1)
    doc = {"schema_version": 1, "mode": "explicit", "k": 1, "target_n": 5,
           "inputs": [{"id": i, "k": 1, "n": 3} for i in "abc"],
           "ancillas": [],
           "cycles": [{"left": "a", "right": "b", "produced": "d"},
                      {"left": "d", "right": "c", "produced": "e"}]}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out, err) == (
        3, "", "the plan would have 2 cycles, more than the limit of 1\n")
    monkeypatch.setattr(zstates.protocol, "MAX_CYCLES", 2)
    assert run_cli(capsys, "run", str(path))[0] == 0


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


@pytest.mark.parametrize("bounds", [
    ("--max-n", "1"),
    ("--max-k", "0"),
    ("--max-n", "-5", "--max-k", "-2"),
    ("--corrupt-alpha", "--max-n", "1"),
])
def test_verify_bounds_that_leave_sweeps_empty_exit_2(capsys, bounds):
    """Below --max-n 2 or --max-k 1 the distillation and selection sweeps
    have no cells, so a pass, or the negative control's fail, would be vacuous."""
    code, out, err = run_cli(capsys, "verify", *bounds)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "no cells" in err


def test_verify_least_bounds_give_every_sweep_cells(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--max-k", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(": pass (" in line and " (0 cells" not in line for line in lines)


def test_verify_bounds_exceeding_cap_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-n", "30")
    assert code == 2
    assert "dense cap" in err


def test_verify_corrupt_alpha_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "8", "--max-k", "2",
                           "--corrupt-alpha")
    assert code == 1
    assert "distillation: FAIL" in out
