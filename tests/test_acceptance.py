"""End-to-end acceptance suite.

Every advertised exact property of the engine, checked at full range with
zero tolerance (all arithmetic is rational) and one printed pass/fail line
per check.  Run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they complete.
"""

import json
from fractions import Fraction

from conftest import fresh_outcome, unit_state
from zstates import (
    BlockSum,
    NotCollectibleError,
    RegisterId,
    binom,
    dense_inner,
    dense_z,
    distill_step,
    execute_plan,
    gen_exact_plan,
    gen_exponential_plan,
    gen_incremental_plan,
    norm_sq,
    critical_path,
    split_register,
    success_probability,
    tensor,
    validate_plan,
    z_state,
)
import zstates.verify
from zstates.cli import main
from zstates.plandoc import parse_document
from zstates.verify import (
    check_distillation_cell,
    distillation_cells,
    sweep_bit_flip,
    sweep_composition,
    sweep_distillation,
    sweep_permutations,
    sweep_selections,
)

SEED = 20260809


def _finish(label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {label}: {status}")
    assert not failures, f"{label}: " + "; ".join(failures[:5])


def test_01_composition_identity_full_range():
    """Splitting Z_k(N) at any 0 <= M <= N preserves every dense amplitude."""
    res = sweep_composition(12)
    failures = res.failures + ([] if res.cells == 819 else [f"{res.cells} cells"])
    _finish("composition identity, N <= 12, all k and M", failures)


def test_02_norm_law():
    """norm_sq(Z_k(N)) == C(N, k): symbolically to 16, densely to 14."""
    failures = []
    for n in range(17):
        for k in range(n + 1):
            expected = binom(n, k)
            if norm_sq(z_state(k, n, "q")) != expected:
                failures.append(f"symbolic (N={n}, k={k})")
            elif n <= 14:
                d = dense_z(k, n)
                if dense_inner(d, d) != expected:
                    failures.append(f"dense (N={n}, k={k})")
    _finish("norm law, N <= 16 symbolic / N <= 14 dense", failures)


def test_03_distillation_sweep():
    """Every step collects to one Z_k(N1+N2-2k); the oracle remainder is
    proportional to it and the oracle weight equals the closed form."""
    failures = []
    cells = 0
    for k, n1, n2 in distillation_cells(3, 8, 14):
        cells += 1
        failures.extend(check_distillation_cell(k, n1, n2, fresh_outcome(k, n1, n2)))
    assert cells == 74
    _finish("distillation sweep, k <= 3, operands <= 8, totals <= 14", failures)


def test_04_one_excitation_example_numbers():
    """The frozen headline numbers: 3+3 -> 4 at 2/9 and 5+5 -> 6 at 1/15."""
    failures = []
    out = distill_step(z_state(1, 3, RegisterId("A", 3)),
                       z_state(1, 3, RegisterId("B", 3)))
    if out.post_state != z_state(1, 4, "A+B"):
        failures.append("3+3 post state is not Z_1(4)")
    if out.success_probability != Fraction(2, 9):
        failures.append(f"3+3 probability {out.success_probability} != 2/9")
    failures.extend(check_distillation_cell(1, 3, 3, out))

    out = distill_step(z_state(2, 5, RegisterId("A", 5)),
                       z_state(2, 5, RegisterId("B", 5)))
    if out.success_probability != Fraction(1, 15):
        failures.append(f"5+5 probability {out.success_probability} != 1/15")
    failures.extend(check_distillation_cell(2, 5, 5, out))
    _finish("example probabilities 2/9 and 1/15", failures)


def test_05_lossless_plan():
    """gen_exact_plan reaches Z_k(n1+n2) consuming exactly the 4k ancilla qubits."""
    failures = []
    for k in (1, 2, 3):
        for n1 in range(2 * k, 9):
            for n2 in range(2 * k, 9):
                plan = gen_exact_plan(k, n1, n2)
                if validate_plan(plan):
                    failures.append(f"(k={k}, {n1}, {n2}) invalid plan")
                    continue
                report = execute_plan(plan)
                ledger = report.ledger
                if unit_state(report.final) != z_state(k, n1 + n2, report.final.id):
                    failures.append(f"(k={k}, {n1}, {n2}) wrong final state")
                if ledger.ancilla_qubits != 4 * k or ledger.consumed_qubits != 4 * k:
                    failures.append(f"(k={k}, {n1}, {n2}) wrong ledger")
    _finish("lossless plans, k <= 3, inputs <= 8", failures)


def test_06_incremental_schedule():
    """One-excitation incremental plans reach N in exactly N - 3 cycles."""
    failures = []
    for n in range(4, 13):
        plan = gen_incremental_plan(1, n)
        if len(plan.cycles) != n - 3:
            failures.append(f"N={n}: {len(plan.cycles)} cycles")
            continue
        report = execute_plan(plan)
        if unit_state(report.final) != z_state(1, n, report.final.id):
            failures.append(f"N={n}: wrong final state")
    _finish("incremental schedule, 4 <= N <= 12", failures)


def test_07_exponential_schedule():
    """Doubling path 3 -> 4 -> 6 -> 10 at depth 3; power-of-two spans have
    depth equal to the base-2 logarithm of the span."""
    failures = []
    plan = gen_exponential_plan(1, 10)
    if critical_path(plan) != [3, 4, 6, 10]:
        failures.append(f"path {critical_path(plan)}")
    depth = execute_plan(plan).ledger.depth
    if depth != 3:
        failures.append(f"depth {depth}")
    for k in (1, 2, 3):
        for m in range(5):
            span = 1 << m
            report = execute_plan(gen_exponential_plan(k, 2 * k + span))
            if report.ledger.depth != m:
                failures.append(f"(k={k}, span={span}): depth {report.ledger.depth}")
            if report.final.n != 2 * k + span:
                failures.append(f"(k={k}, span={span}): wrong final size")
    _finish("exponential schedule and depth formula", failures)


def test_08_symmetry_suite():
    """Bit-flip to N <= 12, 50 random permutations per sector to N <= 10,
    and 10 random qubit selections per distillation tuple."""
    failures = []
    failures.extend(sweep_bit_flip(12).failures)
    failures.extend(sweep_permutations(10, SEED).failures)
    failures.extend(sweep_selections(3, 8, 14, SEED).failures)
    _finish("symmetry suite (bit-flip, permutations, selections)", failures)


def test_09_unit_weight_negative_control():
    """Forcing unit projection weights must break collection for every
    tuple with k >= 2, and only there: at k = 1 they are the proper weights."""
    failures = []
    res = sweep_distillation(3, 8, 14, True)
    expected = [f"(k={k}, N1={n1}, N2={n2}): post state does not collect to a "
                f"single Z factor" for k, n1, n2 in distillation_cells(3, 8, 14)
                if k >= 2]
    if res.cells != 74 or res.failures != expected:
        failures.append(f"{res.cells} cells, failures {res.failures[:3]}")
    if not any(f.startswith("(k=2, N1=5, N2=5)") for f in res.failures):
        failures.append("(k=2, 5, 5) did not fail as predicted")
    try:
        distill_step(z_state(2, 5, RegisterId("A", 5)),
                     z_state(2, 5, RegisterId("B", 5)),
                     alpha=[Fraction(1)] * 3)
        failures.append("(k=2, 5, 5) collected despite unit weights")
    except NotCollectibleError:
        pass
    _finish("unit-weight negative control", failures)


def test_10_cli_round_trips(tmp_path, capsys):
    """plan -> run -> graph for all three generators at k <= 2, plus the
    default verification sweeps exiting 0."""
    failures = []
    cases = []
    for k in (1, 2):
        base = 2 * k + 1
        cases.append((["--mode", "exact", "--k", str(k),
                       "--n1", str(base), "--n2", str(base + 1)],
                      2 * base + 1))
        cases.append((["--mode", "incremental", "--k", str(k),
                       "--n-target", str(base + 3)], base + 3))
        cases.append((["--mode", "exponential", "--k", str(k),
                       "--n-target", str(2 * k + 8)], 2 * k + 8))
    for argv, n_final in cases:
        code = main(["plan", *argv])
        out = capsys.readouterr().out
        if code != 0:
            failures.append(f"plan {argv} exited {code}")
            continue
        path = tmp_path / "plan.json"
        path.write_text(out, encoding="utf-8")
        doc = parse_document(out)
        code = main(["run", str(path), "--report", "json"])
        run_out = capsys.readouterr().out
        if code != 0:
            failures.append(f"run {argv} exited {code}")
            continue
        report = json.loads(run_out)
        if report["final"]["n"] != n_final or report["final"]["k"] != doc.k:
            failures.append(f"run {argv} final {report['final']}")
        code = main(["graph", str(path)])
        dot = capsys.readouterr().out
        if code != 0 or not dot.startswith("digraph"):
            failures.append(f"graph {argv} exited {code}")
    code = main(["verify"])
    verify_out = capsys.readouterr().out
    if code != 0:
        failures.append(f"default verification exited {code}: {verify_out}")
    _finish("CLI round trips and default verification", failures)


def test_11_permutation_negative_control(monkeypatch):
    """The permutation sweep expands the engine's own Z_k(N): a state that is
    not symmetric must fail it, with the same cell count."""
    def lopsided(k, n, label):  # |10...0>, whatever k is
        if n < 2:
            return z_state(k, n, label)
        return tensor(z_state(1, 1, RegisterId("a", 1)),
                      z_state(0, n - 1, RegisterId("b", n - 1)))

    monkeypatch.setattr(zstates.verify, "z_state", lopsided)
    res = sweep_permutations(4, SEED)
    failures = [] if res.failures and res.cells == 14 else [f"{res}"]
    _finish("asymmetric state fails the permutation sweep", failures)


def test_12_composition_negative_control(monkeypatch):
    """The composition sweep compares whole expansions: a split that loses
    one term, of however many, fails every cell."""
    def lossy(*args):
        return BlockSum(split_register(*args).terms[1:])

    monkeypatch.setattr(zstates.verify, "split_register", lossy)
    res = sweep_composition(12)
    failures = ([] if len(res.failures) == res.cells == 819
                else [f"{res.cells} cells, {len(res.failures)} failures"])
    _finish("a split that drops a term fails the composition sweep", failures)
