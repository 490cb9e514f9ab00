"""Checks on the benchmark itself, kept out of the repository's test run.

    python3 -m pytest bench/test_bench.py -q

The negative controls prove that the checker can fail: a report with one
wrong probability and `zstates verify --corrupt-alpha` must both count as
failed ops.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run
import tracer
import workloads

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
CLI = run.load_zstates()
RUN = run.in_process(CLI)


@pytest.fixture
def writer(tmp_path):
    return workloads.DocWriter(tmp_path)


def _frac(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


@pytest.mark.parametrize("case", sorted(p.name for p in GOLDEN.iterdir()))
def test_reference_reproduces_goldens(case):
    doc = json.loads((GOLDEN / case / "plan.json").read_text())
    expected = json.loads((GOLDEN / case / "expected.json").read_text())
    sched = reference.schedule_of(doc)
    assert [reference.step_probability(sched.k, *c) for c in sched.cycles] == \
        [_frac(p) for p in expected["per_cycle_probabilities"]]
    assert reference.cumulative_probability(sched.k, sched.cycles) == \
        _frac(expected["cumulative_probability"])
    assert sched.depth == expected["ledger"]["depth"]
    assert sum(sched.input_sizes) == expected["ledger"]["input_qubits"]


def test_golden_smoke_passes():
    assert run.golden_smoke(CLI) == []


def test_explicit_doc_matches_incremental_schedule():
    sched = reference.schedule_of(workloads.explicit_incremental_doc(3, 40))
    assert sched == reference.incremental_schedule(3, 40)


def _tampered(transform):
    def invoke(cli, argv):
        code, out, err = run.call(cli, argv)
        return code, transform(out), err
    return invoke


def _wrong_json_probability(out: str) -> str:
    report = json.loads(out)
    report["cycles"][3]["probability"]["num"] += 1
    return json.dumps(report, indent=2) + "\n"


def _wrong_text_probability(out: str) -> str:
    lines = out.splitlines()
    head, _, tail = lines[4].partition(" p = ")
    num, _, rest = tail.partition("/")
    lines[4] = f"{head} p = {int(num) + 1}/{rest}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("report,flags,transform", [
    ("json", ["--report", "json"], _wrong_json_probability),
    ("text", [], _wrong_text_probability),
])
def test_one_wrong_probability_is_a_failed_op(writer, report, flags, transform):
    doc = {"schema_version": 1, "mode": "exponential", "k": 1, "target_n": 40}
    op = workloads._plan_ops(writer, doc, flags, report, graph=False)[0]
    assert run.execute(RUN, op).problems == []
    bad = run.execute(run.in_process(CLI, _tampered(transform)), op)
    assert bad.problems and "probability" in bad.problems[0]
    tally = run.Tally()
    tally.add(op, bad)
    assert (tally.attempted, len(tally.failures)) == (1, 1)


def test_corrupt_alpha_is_a_failed_op():
    op = workloads._verify_op(0, 8, 2)
    assert run.execute(RUN, op).problems == []
    op.argv.append("--corrupt-alpha")
    bad = run.execute(RUN, op)
    assert bad.problems and bad.problems[0].startswith("exit code 1")


def test_worker_runs_checks_and_reports_memory(writer):
    doc = {"schema_version": 1, "mode": "exponential", "k": 1, "target_n": 40}
    good = workloads._plan_ops(writer, doc, ["--report", "json"], "json", graph=True)
    corrupt = workloads._verify_op(0, 8, 2)
    corrupt.argv.append("--corrupt-alpha")
    missing = workloads.Op("run", ["run", str(writer.directory / "absent.json")],
                           lambda out: [])
    worker = run.Worker(writer.directory)
    try:
        assert worker.reimport() > 0
        outcomes = [run.execute(worker.runner(fresh=True), op)
                    for op in (*good, corrupt, missing)]
    finally:
        peak_mb = worker.close()
    assert worker.proc.returncode == 0
    assert [o.problems for o in outcomes[:2]] == [[], []]
    assert outcomes[0].stdout.startswith("{")
    assert outcomes[2].problems[0].startswith("exit code 1")
    assert outcomes[3].problems[0].startswith("exit code")
    assert 5 < peak_mb < 1000


def test_wrong_dot_product_node_is_caught(writer):
    doc = {"schema_version": 1, "mode": "exponential", "k": 2, "target_n": 30}
    op = workloads._plan_ops(writer, doc, [], "text", graph=True)[1]
    good = run.execute(RUN, op)
    assert good.problems == []
    assert op.check(good.stdout.replace('label="Z_2(', 'label="Z_2(1', 1)) != []


def test_rounds_are_a_function_of_the_seed(tmp_path):
    def docs(seed, sub):
        (tmp_path / sub).mkdir()
        ops = workloads.make_round("exp-doubling", seed, 0,
                                   workloads.DocWriter(tmp_path / sub))
        return [(op.kind, Path(op.argv[1]).read_text()) for op in ops]
    first = docs(7, "a")
    assert first == docs(7, "b")
    assert first != docs(8, "c")


def _traced_counts(op) -> dict:
    tr = tracer.Tracer()
    tr.install()
    try:
        outcome = run.execute(
            run.in_process(CLI, lambda c, argv: tr.call_op(0, run.call, c, argv)), op)
    finally:
        tr.uninstall()
    assert outcome.problems == []
    return tr.summary()


def test_trace_counts_repeat_and_catch_internal_calls(writer):
    import zstates.blocks
    original = zstates.blocks.block_sum
    doc = {"schema_version": 1, "mode": "exponential", "k": 2, "target_n": 60}
    op = workloads._plan_ops(writer, doc, [], "text", graph=False)[0]
    first, second = _traced_counts(op), _traced_counts(op)
    assert zstates.blocks.block_sum is original
    counts = {k for k in first if k.rsplit(".", 1)[1] not in ("s", "self_s")}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    steps = first["distill.distill_step.calls"]
    assert steps == op.cycles
    # block_sum is reached only through blocks' own calls to it
    assert first["blocks.block_sum.calls"] > 5 * steps
    assert first["protocol.validate_plan.calls"] == 2
    for name in ("distill.distill_step", "protocol.execute_plan", "cli.main"):
        assert 0 < first[f"{name}.self_s"] <= first[f"{name}.s"]


def test_per_layer_spec_names_a_traced_boundary():
    traced = {f"{m}.{f}" for table in (tracer.SPANNED, tracer.COUNTED)
              for m, functions in table.items() for f in functions}
    traced |= {tracer.ROOT, "trace"}
    for name in run.declared("per_layer", {}):
        assert name.rsplit(".", 1)[0] in traced, name


def test_end_to_end_names_match_benchmark_json():
    tally = run.Tally()
    tally.add_setup(0.5, [])
    tally.peak_rss_mb = 30.0
    tally.best = {("run", "a"): (2.0, 10), ("run", "b"): (8.0, 30),
                  ("graph", "a"): (1.0, 0)}
    values = run.end_to_end("exp-doubling", tally)
    assert set(values) == set(run.declared("end_to_end", {}))
    assert values["run_s_geomean"] == pytest.approx(4.0)
    assert values["cycles_per_s"] == pytest.approx(4.0)
    assert values["graph_or_verify_s_geomean"] == 1.0
