"""Command line round trips, report formats, and exit codes."""

import collections
import io
import json
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zstates.plandoc
import zstates.protocol
import zstates.verify
from zstates.cli import main, report_to_json
from zstates.dense import dense_project
from zstates.distill import success_probability
from zstates.plandoc import (
    MAX_DOCUMENT_BYTES,
    PlanDocument,
    document_to_plan,
    parse_document,
    render_document,
)
from zstates.protocol import (
    MAX_K,
    Cycle,
    ProtocolPlan,
    StateRef,
    execute_plan,
    gen_exact_plan,
    gen_exponential_plan,
    gen_incremental_plan,
)
from zstates.verify import check_distillation_cell, distillation_cells

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def written(writer, *args):
    """What a report or graph writer writes to a fresh stream."""
    out = io.StringIO()
    writer(*args, out)
    return out.getvalue()


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


def reference_json(plan, report):
    """The JSON report as a dict payload written by `json.dump(..., indent=2)`,
    the writer `report_to_json` must match byte for byte."""
    def frac(value):
        return {"num": value.numerator, "den": value.denominator}

    payload = {
        "schema_version": 1,
        "k": plan.k,
        "final": {"id": report.final.id, "k": report.final.k,
                  "n": report.final.n},
        "cycles": [
            {
                "index": i,
                "left": r.left,
                "right": r.right,
                "produced": {"id": r.produced, "k": plan.k, "n": r.n_produced},
                "probability": frac(r.probability),
                "oracle_checked": r.oracle_checked,
            }
            for i, r in enumerate(report.cycles)
        ],
        "cumulative_probability": frac(report.cumulative_success),
        "ledger": report.ledger._asdict(),
    }
    return json.dumps(payload, indent=2) + "\n"


def assert_json_report_matches(plan, oracle=None):
    report = execute_plan(plan, oracle)
    assert written(report_to_json, plan, report) == reference_json(plan, report)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
@pytest.mark.parametrize("oracle", [None, check_distillation_cell])
def test_json_report_bytes_on_the_goldens(name, oracle):
    doc = parse_document((GOLDEN / name / "plan.json").read_text("utf-8"))
    assert_json_report_matches(document_to_plan(doc), oracle)


@pytest.mark.parametrize("k", range(1, 6))
def test_json_report_bytes_in_every_generator_mode(k):
    for plan in (gen_exact_plan(k, 2 * k, 3 * k + 1),
                 gen_incremental_plan(k, 2 * k + 1),
                 gen_incremental_plan(k, 4 * k + 9),
                 gen_exponential_plan(k, 8 * k + 13),
                 gen_exponential_plan(k, 300)):
        assert_json_report_matches(plan)


# Ids that `json` has to escape: quotes, backslashes, control characters,
# U+2028, a lone surrogate, and text outside ASCII and the BMP.
HOSTILE_IDS = st.text(st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800é\U0001d11e/'),
    st.characters()), min_size=1, max_size=4)


@st.composite
def explicit_plans(draw):
    """A chain that folds its inputs left to right, with an idle ancilla or
    none; the first cycles fit the oracle's reach and the later ones not."""
    k = draw(st.integers(1, 2))
    sizes = draw(st.lists(st.integers(2 * k, 2 * k + 7), min_size=1,
                          max_size=5))
    ids = draw(st.lists(HOSTILE_IDS, min_size=2 * len(sizes),
                        max_size=2 * len(sizes), unique=True))
    inputs = tuple(StateRef(i, k, n) for i, n in zip(ids, sizes))
    cycles, left = [], ids[0]
    for right, produced in zip(ids[1:len(sizes)], ids[len(sizes):]):
        cycles.append(Cycle(left, right, produced))
        left = produced
    ancillas = draw(st.sampled_from([(), (StateRef(ids[-1], k, 2 * k),)]))
    return ProtocolPlan(k, inputs, ancillas, tuple(cycles),
                        sum(sizes) - 2 * k * len(cycles))


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(explicit_plans(), st.booleans())
@example(ProtocolPlan(1, (StateRef("a\u2028", 1, 3), StateRef('"\\', 1, 3)),
                      (), (Cycle("a\u2028", '"\\', "\x00é"),), 4), True)
def test_json_report_bytes_on_hostile_ids(plan, with_oracle):
    assert_json_report_matches(plan,
                               check_distillation_cell if with_oracle else None)


@pytest.mark.parametrize("mark", ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028",
                                  "é", "\U0001d11e", " ", "~", "'"])
def test_json_report_bytes_with_one_id_to_escape(mark):
    """Ids are written as they are only when no id of the plan needs an
    escape: one id holding `mark`, at a base state, a middle product or the
    final one, among plain ids, leaves every id written as `json` writes it."""
    plan = gen_exponential_plan(1, 12)
    for old in ("base1", "s3", "s9"):
        def name(i, old=old):
            return i + mark if i == old else i
        assert_json_report_matches(plan._replace(
            inputs=tuple(r._replace(id=name(r.id)) for r in plan.inputs),
            cycles=tuple(Cycle(*map(name, c)) for c in plan.cycles)))


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


def test_no_verdict_outlives_its_run(tmp_path, capsys, monkeypatch):
    """A run replays each distinct cell once: three projections for the 14
    cycles in reach of exponential k=3 to 31 qubits.  Nothing is kept
    between runs, so a projection that now returns a wrong weight fails
    the next run at cycle 0."""
    path = write_plan(tmp_path, capsys, "--mode", "exponential", "--k", "3",
                      "--n-target", "31")
    widths = []

    def counted(state, qubits, target):
        widths.append(state.width)
        return dense_project(state, qubits, target)

    monkeypatch.setattr(zstates.verify, "dense_project", counted)
    code, out, err = run_cli(capsys, "run", str(path), "--verify-with-oracle")
    assert (code, err, out.count("[oracle ok]")) == (0, "", 14)
    assert sorted(widths) == [14, 16, 20]

    def off_by_one(state, qubits, target):
        remainder, weight = dense_project(state, qubits, target)
        return remainder, weight + 1

    monkeypatch.setattr(zstates.verify, "dense_project", off_by_one)
    code, out, err = run_cli(capsys, "run", str(path), "--verify-with-oracle")
    p = success_probability(3, 7, 7)
    assert (code, out) == (4, "")
    assert err == (f"cycle 0: oracle disagreement: (k=3, N1=7, N2=7): oracle "
                   f"weight {p + 1} != symbolic probability {p}; (k=3, N1=7, "
                   f"N2=7): oracle weight {p + 1} != closed form {p}\n")


def test_a_late_oracle_disagreement_writes_no_stdout(tmp_path, capsys,
                                                    monkeypatch):
    """A projection that is wrong only at width 20 fails exponential k=3 to
    31 qubits at its first cycle on a 20-qubit cell, which comes after
    cycles that pass.  Every cycle is checked before the first byte is
    written, so neither report writes any of the cycles before it."""
    path = write_plan(tmp_path, capsys, "--mode", "exponential", "--k", "3",
                      "--n-target", "31")
    plan = gen_exponential_plan(3, 31)
    refs = {r.id: r.n for r in plan.inputs}
    for cyc in plan.cycles:
        refs[cyc.produced] = refs[cyc.left] + refs[cyc.right] - 6
    late = next(i for i, cyc in enumerate(plan.cycles)
                if refs[cyc.left] + refs[cyc.right] == 20)
    assert late > 0

    def wrong_at_20(state, qubits, target):
        remainder, weight = dense_project(state, qubits, target)
        return remainder, weight + (state.width == 20)

    monkeypatch.setattr(zstates.verify, "dense_project", wrong_at_20)
    for report in ("text", "json"):
        code, out, err = run_cli(capsys, "run", str(path),
                                 "--verify-with-oracle", "--report", report)
        assert (code, out) == (4, "")
        assert err.startswith(f"cycle {late}: oracle disagreement: "
                              f"(k=3, N1=10, N2=10): ")


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


def test_json_report_refuses_before_formatting_any_cycle(monkeypatch):
    """The cumulative and the ledger are formatted first: a report whose
    cumulative is past `str`'s digit limit quotes no id before it raises,
    and writes nothing."""
    import zstates.cli

    plan = gen_exponential_plan(3, 1600)
    report = execute_plan(plan)
    quoted, out = [], io.StringIO()
    monkeypatch.setattr(zstates.cli, "_quote", quoted.append)
    with pytest.raises(ValueError):
        report_to_json(plan, report, out)
    assert (quoted, out.getvalue()) == ([], "")


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
    assert " 4301 digits" in err
    assert run_cli(capsys, "graph", str(path))[0] == 0


@pytest.mark.parametrize("j", [1, 2, 15, 16, 17, 300, 4300, 4301, 20000])
def test_digit_counts_match_the_spelling(j):
    """`_digits` counts what `str` spells, on both sides of each power of
    ten, past `str`'s digit limit too."""
    from zstates.cli import _digits

    values = [0, 10 ** j - 1, 10 ** j, 10 ** j + 1, 2 ** (j * 10), 7 ** j]
    assert [_digits(v) for v in values] == [len(str(Decimal(v))) for v in values]


def test_graph_spells_sizes_past_the_int_digit_limit(tmp_path, capsys):
    """An unconsumed product of 4,301 digits still draws: its label is spelled
    exactly, as the run report spells it."""
    n = 10 ** 4300 - 1
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "schema_version": 1, "mode": "explicit", "k": 1, "target_n": 4,
        "inputs": [{"id": "A", "k": 1, "n": n}, {"id": "B", "k": 1, "n": n},
                   {"id": "C", "k": 1, "n": 3}, {"id": "D", "k": 1, "n": 3}],
        "ancillas": [],
        "cycles": [{"left": "A", "right": "B", "produced": "P"},
                   {"left": "C", "right": "D", "produced": "F"}],
    }))
    assert run_cli(capsys, "run", str(path))[0] == 0
    code, dot, err = run_cli(capsys, "graph", str(path))
    assert (code, err) == (0, "")
    size = str(Decimal(2 * n - 2))
    assert len(size) == 4301
    assert f'"P" [shape=box, style=rounded, label="Z_1({size})"];' in dot


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


def test_lone_surrogate_ids_exit_2_on_a_real_stdout(tmp_path):
    """JSON can spell a lone surrogate as an escape, and no UTF-8 stream can
    write it: the document is malformed before any command writes output.
    Only a real stdout meets this; an in-process StringIO takes any str."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "schema_version": 1, "mode": "explicit", "k": 1, "target_n": 4,
        "inputs": [{"id": "\ud800", "k": 1, "n": 3}, {"id": "b", "k": 1, "n": 3}],
        "ancillas": [],
        "cycles": [{"left": "\ud800", "right": "b", "produced": "out"}],
    }), encoding="ascii")
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for argv in (["run"], ["run", "--report", "json"], ["graph"]):
        done = subprocess.run(
            [sys.executable, "-m", "zstates", *argv, str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "malformed plan document: inputs[0].id holds a lone "
                   "surrogate, which UTF-8 cannot encode\n"), argv


@pytest.mark.parametrize("where, value", [
    (("inputs", 0, "id"), "a\ncycle 9: fake"),
    (("cycles", 0, "produced"), "b\x1b[31m"),
    (("cycles", 2, "right"), "c\u2028"),
    (("mode",), "explicit\x1b[0m"),
], ids=["newline-input", "escape-product", "separator-operand", "escape-mode"])
def test_non_printable_ids_exit_2(tmp_path, capsys, where, value):
    """An id (or the mode) holding a control or separator character, which
    would forge or break a report line, is refused as the document comes
    in: exit 2, one stderr line naming the field and no stdout, whether its
    array is checked whole or, with a flaw further on, entry by entry."""
    doc = {"schema_version": 1, "mode": "explicit", "k": 1, "target_n": 6,
           "inputs": [{"id": f"base{j}", "k": 1, "n": 3} for j in range(1, 5)],
           "ancillas": [],
           "cycles": [{"left": f"s{i}" if i else "base1", "right": f"base{i + 2}",
                       "produced": f"s{i + 1}"} for i in range(3)]}
    if len(where) == 1:
        field = "document.mode"
        doc["mode"] = value
    else:
        key, index, name = where
        field = f"{key}[{index}].{name}"
        doc[key][index][name] = value
    message = f"malformed plan document: {field} holds a non-printable character\n"
    path = tmp_path / "plan.json"
    for further_flaw in (False, True):
        if further_flaw:  # sends the field's array to the per-entry parser
            array = doc[where[0]] if len(where) > 1 else doc["cycles"]
            array.append({**array[-1], "extra": 1})
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["run"], ["run", "--report", "json"], ["graph"]):
            assert run_cli(capsys, argv[0], str(path), *argv[1:]) == (2, "", message)


@pytest.mark.parametrize("mode", ["incremental", "exponential"])
def test_plan_checks_a_grown_plan_without_building_it(capsys, monkeypatch, mode):
    """`plan` runs the checks a generator makes before it builds, and builds
    nothing: a plan of `MAX_CYCLES` cycles is written at once, one more is
    refused with the generator's message."""
    monkeypatch.setattr(zstates.protocol, "_grown_plan", None)
    limit = zstates.protocol.MAX_CYCLES
    target = limit + 3  # k = 1: n_target - 3 cycles
    assert run_cli(capsys, "plan", "--mode", mode, "--k", "1", "--n-target",
                   str(target)) == (0, render_document(PlanDocument(1, target, mode)), "")
    assert run_cli(capsys, "plan", "--mode", mode, "--k", "1", "--n-target",
                   str(target + 1)) == (2, "", f"the plan would have {limit + 1} "
                                               f"cycles, more than the limit of {limit}\n")


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
    (["plan", "--mode", "exact", "--k", "1", "--n1", "3", "--n2", "3",
      "--n-target", "7"], "--n-target must equal n1 + n2 for mode 'exact'"),
    (["plan", "--mode", "incremental", "--k", "1", "--n-target", "5", "--n2", "3"],
     "--n1/--n2 are only valid for mode 'exact'"),
], ids=["bad-int", "unknown-command", "missing-positional", "exact-n-target",
        "n2-outside-exact"])
def test_usage_errors_are_one_stderr_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", message + "\n")


def test_help_goes_to_stdout_and_exits_0(capsys):
    code, out, err = run_cli(capsys, "plan", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: zstates plan [-h] --mode")


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


def test_k_past_the_limit_is_refused_before_any_derivation(tmp_path, capsys,
                                                          monkeypatch):
    """Past `MAX_K`, `plan` exits 2, and `run` and `graph` exit 3, on a
    generated and on an explicit document, each with one stderr line naming
    k and the limit, and no step is derived.  At `MAX_K` the step is
    derived (here: the derivation raises, so `run` exits 4)."""
    import zstates.protocol

    def derived(*args, **kwargs):
        raise ValueError("a step was derived")

    monkeypatch.setattr(zstates.protocol, "distill_step", derived)
    k = MAX_K + 1
    code, out, err = run_cli(capsys, "plan", "--mode", "exact", "--k", str(k),
                             "--n1", str(2 * k), "--n2", str(2 * k))
    assert (code, out, err) == (2, "", f"k must be at most {MAX_K}, got {k}\n")
    for mode in ("incremental", "exponential"):
        assert run_cli(capsys, "plan", "--mode", mode, "--k", str(k),
                       "--n-target", str(4 * k)) == (
            2, "", f"k must be at most {MAX_K}, got {k}\n")

    def explicit(k):
        return {"schema_version": 1, "mode": "explicit", "k": k,
                "target_n": 2 * k,
                "inputs": [{"id": i, "k": k, "n": 2 * k} for i in "ab"],
                "ancillas": [],
                "cycles": [{"left": "a", "right": "b", "produced": "c"}]}

    generated = {"schema_version": 1, "mode": "exact", "k": k,
                 "target_n": 4 * k, "n1": 2 * k, "n2": 2 * k}
    path = tmp_path / "plan.json"
    for doc, message in ((generated, f"k must be at most {MAX_K}, got {k}"),
                         (explicit(k), f"plan k must be at most {MAX_K}, got {k}")):
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("run", "graph"):
            assert run_cli(capsys, command, str(path)) == (3, "", message + "\n")
    path.write_text(json.dumps(explicit(MAX_K)), encoding="utf-8")
    assert run_cli(capsys, "run", str(path)) == (
        4, "", "cycle 0: a step was derived\n")


def test_a_document_past_the_size_limit_is_not_read(tmp_path, capsys,
                                                    monkeypatch):
    """A document file one byte over 256 MiB exits 2 with one stderr line
    naming its size and the limit, before any of it is read."""
    assert MAX_DOCUMENT_BYTES == 256 * 2 ** 20
    path = tmp_path / "plan.json"
    with open(path, "wb") as fh:
        fh.truncate(MAX_DOCUMENT_BYTES + 1)  # sparse: no data is written

    def unread(*args, **kwargs):
        raise AssertionError("the document was read")

    monkeypatch.setattr(Path, "open", unread)
    for command in ("run", "graph"):
        assert run_cli(capsys, command, str(path)) == (
            2, "", f"cannot read {path}: the file has {MAX_DOCUMENT_BYTES + 1} "
                   f"bytes, more than the limit of {MAX_DOCUMENT_BYTES}\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_endless_stream_is_read_only_to_the_limit(capsys, monkeypatch):
    """`stat` gives /dev/zero size 0, so the size check passes it; the read
    stops one byte past the limit and the command exits 2 with one line."""
    import zstates.cli

    monkeypatch.setattr(zstates.cli, "MAX_DOCUMENT_BYTES", 4096)
    for command in ("run", "graph"):
        assert run_cli(capsys, command, "/dev/zero") == (
            2, "", "cannot read /dev/zero: it holds more than the limit of "
                   "4096 bytes\n")


def test_a_document_is_parsed_without_its_bytes(tmp_path):
    """The file's bytes are dropped once decoded: loading an explicit
    document of about 2 MB peaks no higher than parsing its text, where
    holding the bytes would add the document's size."""
    from zstates.cli import _load_plan

    plan = gen_incremental_plan(1, 3 + 13000)
    path = tmp_path / "plan.json"
    size = path.write_text(render_document(PlanDocument(
        k=1, target_n=3 + 13000, mode="explicit", inputs=plan.inputs,
        cycles=plan.cycles)))
    assert 1_900_000 < size < 2_200_000

    def peak(load):
        tracemalloc.start()
        try:
            assert len(load().cycles) == 13000
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    parsed = peak(lambda: document_to_plan(parse_document(path.read_text())))
    assert peak(lambda: _load_plan(str(path))) < parsed + size // 4


def test_a_crlf_document_reports_json_errors_at_text_offsets(tmp_path, capsys):
    """Line ends read as a text-mode read gives them: CRLF and CR count as one
    character each in a JSON error's offset."""
    path = tmp_path / "plan.json"
    path.write_bytes(b'{\r\n"k": \r}')
    assert run_cli(capsys, "run", str(path)) == (
        2, "", "malformed plan document: not valid JSON: Expecting value: "
               "line 3 column 1 (char 8)\n")


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


def test_a_valid_explicit_plan_takes_the_one_test_paths(tmp_path, capsys,
                                                       monkeypatch):
    """On a valid explicit document of 4,000 cycles, `graph` and `run` check
    each array whole and accept the plan by whole-array tests: neither the
    per-entry parser nor the pass that words violations runs.  Generated
    plans, the exact one and 4,000-cycle incremental and exponential ones,
    take the same whole-array resolve.  One fault sends its array, or its
    plan, down the slow path."""
    calls = collections.Counter()
    for module, name in ((zstates.plandoc, "_parse_entry"),
                         (zstates.protocol, "_violations")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    path = tmp_path / "plan.json"
    for argv in (("exact", "--k", "2", "--n1", "5", "--n2", "7"),
                 ("incremental", "--k", "1", "--n-target", "4003"),
                 ("exponential", "--k", "1", "--n-target", "4003")):
        path.write_text(run_cli(capsys, "plan", "--mode", *argv)[1])
        for command in ("graph", "run"):
            assert run_cli(capsys, command, str(path))[0] == 0
    assert calls == {}
    plan = gen_incremental_plan(1, 4003)
    doc = json.loads(render_document(PlanDocument(
        k=1, target_n=4003, mode="explicit", inputs=plan.inputs,
        cycles=plan.cycles)))
    path.write_text(json.dumps(doc))
    for command in ("graph", "run"):
        assert run_cli(capsys, command, str(path))[0] == 0
    assert calls == {}
    doc["cycles"][-1]["right"] = "ghost"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "graph", str(path))[0] == 3
    assert calls == {"_violations": 1}
    doc["inputs"][-1]["n"] = True
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "graph", str(path))[0] == 2
    assert calls["_parse_entry"] == len(doc["inputs"])


def counting_comb(monkeypatch):
    """The (n, k) of each C(n, k) that `protocol` computes, in call order."""
    calls = []

    def comb(n, k, _original=zstates.protocol.comb):
        calls.append((n, k))
        return _original(n, k)
    monkeypatch.setattr(zstates.protocol, "comb", comb)
    return calls


@pytest.mark.parametrize("mode", ["incremental", "exponential"])
def test_a_run_computes_each_norm_once_per_state(tmp_path, capsys, monkeypatch,
                                                 mode):
    """A 4,000-cycle run computes C(n, k) once per state, and once more for
    the step's C(2k, k): never three times a cycle, and not again for the
    telescoped cumulative or for another writer pass."""
    path = tmp_path / "plan.json"
    path.write_text(run_cli(capsys, "plan", "--mode", mode, "--k", "1",
                            "--n-target", "4003")[1])
    plan = document_to_plan(parse_document(path.read_text()))
    states = len(plan.inputs) + len(plan.ancillas) + len(plan.cycles)
    assert len(plan.cycles) == 4000
    calls = counting_comb(monkeypatch)
    for report in ("text", "json"):
        assert run_cli(capsys, "run", str(path), "--report", report)[0] == 0
        assert len(calls) == states + 1
        assert calls.count((2, 1)) == 1  # C(2k, k): only the step is that small
        calls.clear()


def counting_records(monkeypatch):
    """How many `Cycle`s and `StateRef`s `protocol` builds, by record name."""
    calls = collections.Counter()
    for name in ("Cycle", "StateRef"):
        def record(*fields, _name=name, _record=getattr(zstates.protocol, name)):
            calls[_name] += 1
            return _record(*fields)
        monkeypatch.setattr(zstates.protocol, name, record)
    return calls


@pytest.mark.parametrize("mode", ["incremental", "exponential"])
def test_a_generated_plan_is_run_and_drawn_from_its_columns(tmp_path, capsys,
                                                            monkeypatch, mode):
    """A 4,000-cycle generated plan is built, resolved, reported and drawn
    with no `Cycle` built, and with one `StateRef`, the report's final
    state, per run."""
    path = tmp_path / "plan.json"
    path.write_text(run_cli(capsys, "plan", "--mode", mode, "--k", "1",
                            "--n-target", "4003")[1])
    calls = counting_records(monkeypatch)
    for argv, built in ((("run",), {"StateRef": 1}),
                        (("run", "--report", "json"), {"StateRef": 1}),
                        (("graph",), {})):
        assert run_cli(capsys, argv[0], str(path), *argv[1:])[0] == 0
        assert calls == built
        calls.clear()


def test_an_idle_base_state_gets_no_norm(monkeypatch):
    """A base state no cycle consumes is never read, so its C(n, k), which
    can be large, is never computed; the ledger still counts its qubits."""
    n = 10 ** 300
    plan = ProtocolPlan(2, (StateRef("a", 2, 5), StateRef("b", 2, 6)),
                        (StateRef("idle", 2, n),), (Cycle("a", "b", "out"),), 7)
    calls = counting_comb(monkeypatch)
    report = execute_plan(plan)
    assert [call for call in calls if call[0] == n] == []
    assert report.ledger.ancilla_qubits == n
    assert report.cumulative_success == (
        execute_plan(plan._replace(ancillas=())).cumulative_success)


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


def test_verify_max_k_stops_at_the_last_k_with_a_cell(capsys):
    """No k past half the largest operand has a cell, so a huge --max-k
    runs no empty loops and prints what --max-k 3 prints."""
    assert list(distillation_cells(10 ** 18, 8, 14)) == \
        list(distillation_cells(4, 8, 14))
    assert run_cli(capsys, "verify", "--max-k", str(10 ** 18)) == \
        run_cli(capsys, "verify", "--max-k", "3")


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
