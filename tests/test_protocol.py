"""Plan validation, execution, and the three schedule generators."""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import unit_state
import zstates.distill
import zstates.protocol
import zstates.verify
from zstates import (
    Cycle,
    CycleResult,
    InvalidPlanError,
    PlanExecutionError,
    ProtocolPlan,
    StateRef,
    binom,
    critical_path,
    distill_step,
    execute_plan,
    gen_exact_plan,
    gen_exponential_plan,
    gen_incremental_plan,
    registers_of,
    success_probability,
    validate_plan,
    z_state,
)
from zstates.blocks import block_sum
from zstates.protocol import MAX_K, _resolve
from zstates.dense import DENSE_CAP, dense_project
from zstates.distill import DistillOutcome
from zstates.verify import check_distillation_cell


def single_cycle_plan(k=1, n1=3, n2=3):
    a = StateRef("a", k, n1)
    b = StateRef("b", k, n2)
    return ProtocolPlan(k, (a, b), (), (Cycle("a", "b", "out"),),
                        n1 + n2 - 2 * k)


# ------------------------------------------------------------- validation

def test_generated_plans_are_valid():
    assert validate_plan(gen_exact_plan(1, 3, 3)) == []
    assert validate_plan(gen_incremental_plan(2, 9)) == []
    assert validate_plan(gen_exponential_plan(1, 10)) == []


def test_validate_flags_small_operand():
    a = StateRef("a", 1, 1)
    b = StateRef("b", 1, 3)
    plan = ProtocolPlan(1, (a, b), (), (Cycle("a", "b", "out"),), 2)
    assert any("n < 2k" in v for v in validate_plan(plan))


def test_validate_flags_double_consumption():
    a = StateRef("a", 1, 3)
    b = StateRef("b", 1, 3)
    plan = ProtocolPlan(1, (a, b), (),
                        (Cycle("a", "b", "c"), Cycle("a", "c", "d")), 5)
    assert any("already consumed" in v for v in validate_plan(plan))


def test_validate_flags_unknown_operand_and_future_product():
    a = StateRef("a", 1, 3)
    b = StateRef("b", 1, 3)
    plan = ProtocolPlan(1, (a, b), (),
                        (Cycle("ghost", "a", "x"), Cycle("b", "x", "y")), 6)
    assert any("not an input" in v for v in validate_plan(plan))
    future = ProtocolPlan(1, (a, b, StateRef("c", 1, 3)), (),
                          (Cycle("a", "x", "y"), Cycle("b", "c", "x")), 4)
    assert any("'x' is not an input" in v for v in validate_plan(future))


def test_validate_flags_k_mismatch():
    a = StateRef("a", 2, 5)
    b = StateRef("b", 2, 5)
    plan = ProtocolPlan(1, (a, b), (), (Cycle("a", "b", "out"),), 8)
    assert any("plan k" in v for v in validate_plan(plan))


def test_validate_flags_target_mismatch():
    plan = single_cycle_plan()
    bad = ProtocolPlan(plan.k, plan.inputs, (), plan.cycles, 5)
    assert any("does not match target" in v for v in validate_plan(bad))


def test_validate_flags_duplicate_and_reused_ids():
    a = StateRef("a", 1, 3)
    plan = ProtocolPlan(1, (a, a), (), (Cycle("a", "a", "a"),), 4)
    violations = validate_plan(plan)
    assert any("duplicate state id" in v for v in violations)
    assert any("already in use" in v for v in violations)


def test_validate_empty_plan_needs_matching_input():
    a = StateRef("a", 1, 3)
    ok = ProtocolPlan(1, (a,), (), (), 3)
    assert validate_plan(ok) == []
    bad = ProtocolPlan(1, (a,), (), (), 4)
    assert any("no input matching" in v for v in validate_plan(bad))


def test_validate_flags_states_with_more_excitations_than_qubits():
    """Z_2(1) has no basis string: a plan that declares it, even unconsumed,
    does not validate, so execution never meets it."""
    lone = ProtocolPlan(2, (StateRef("a", 2, 1),), (), (), 1)
    assert validate_plan(lone) == ["state 'a' has k=2 > n=1"]
    with pytest.raises(InvalidPlanError):
        execute_plan(lone)
    plan = single_cycle_plan(k=2, n1=5, n2=5)
    spare = ProtocolPlan(2, plan.inputs, (StateRef("c", 2, 1),), plan.cycles,
                         plan.target_n)
    assert validate_plan(spare) == ["state 'c' has k=2 > n=1"]


# -------------------------------------------------------------- execution

def test_execute_single_cycle():
    report = execute_plan(single_cycle_plan(), check_distillation_cell)
    assert report.final == StateRef("out", 1, 4)
    assert report.cumulative_success == Fraction(2, 9)
    assert report.cycles[0].oracle_checked


def test_execute_exact_plan():
    report = execute_plan(gen_exact_plan(1, 3, 3))
    assert report.final == StateRef("out", 1, 6)
    assert [c.probability for c in report.cycles] == [Fraction(5, 24), Fraction(1, 5)]
    led = report.ledger
    assert (led.input_qubits, led.ancilla_qubits, led.consumed_qubits,
            led.cycles, led.output_qubits, led.depth) == (6, 4, 4, 2, 6, 2)


def test_execute_empty_plan():
    report = execute_plan(gen_incremental_plan(1, 3))
    assert report.cumulative_success == 1
    assert tuple(report.cycles) == ()
    assert report.final == StateRef("base1", 1, 3)


def test_execute_oracle_verdicts():
    plan = gen_exact_plan(1, 3, 3)
    seen = []
    report = execute_plan(plan, lambda k, n1, n2, p: seen.append(p))
    assert not any(c.oracle_checked for c in report.cycles)
    # The oracle is handed each cell's reported probability.
    assert seen == [c.probability for c in report.cycles]
    with pytest.raises(PlanExecutionError, match="cycle 1: oracle disagreement: off"):
        execute_plan(plan, lambda k, n1, n2, p: ["off"] if n1 == 5 else [])


def test_oracle_run_derives_each_cycle_once(monkeypatch):
    """The run derives the step once, at the least widths, and the oracle
    checks each cycle's outcome without deriving it again: one call for
    the two cycles of the exact plan, where one derivation per cycle
    would make two."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return distill_step(*args, **kwargs)

    for module in (zstates.protocol, zstates.verify):
        monkeypatch.setattr(module, "distill_step", counted)
    plan = gen_exact_plan(1, 3, 3)
    report = execute_plan(plan, check_distillation_cell)
    assert all(c.oracle_checked for c in report.cycles)
    assert len(plan.cycles) == 2
    assert len(calls) == 1


def test_oracle_sees_every_cycle_under_its_own_id():
    """A plan that repeats cells has every cycle checked, each reported
    under the id it produces and with its own cell's probability, while
    the oracle is handed each distinct cell once, at its first cycle."""
    plan = gen_exponential_plan(1, 20)  # repeats shapes, so most cycles hit
    seen = []

    def oracle(k, n1, n2, p):
        seen.append((n1, n2, p))
        return []

    report = execute_plan(plan, oracle)
    assert len(seen) < len(plan.cycles)
    assert all(c.oracle_checked for c in report.cycles)
    assert [c.produced for c in report.cycles] == [
        c.produced for c in plan.cycles]
    first = {}
    for c in report.cycles:
        assert c.probability == success_probability(1, c.n_left, c.n_right)
        first.setdefault((c.n_left, c.n_right), c.probability)
    assert seen == [(n1, n2, p) for (n1, n2), p in first.items()]


def test_one_store_replays_each_distinct_cell_once(monkeypatch):
    """Exponential k=3 to 31 qubits has 14 cycles within the dense cap on
    three distinct cells, (7, 7) x8, (8, 8) x4 and (10, 10) x2: one run
    keeps one set of checked cells, so the oracle is called once per
    distinct cell, in the order of their first cycles, marks every cycle
    in reach as checked, and projects the dense state 3 times."""
    projections, calls = [], []

    def counted_project(state, qubits, target):
        projections.append(state.width)
        return dense_project(state, qubits, target)

    monkeypatch.setattr(zstates.verify, "dense_project", counted_project)

    def oracle(k, n1, n2, p):
        calls.append((n1, n2))
        return check_distillation_cell(k, n1, n2, p)

    plan = gen_exponential_plan(3, 31)
    report = execute_plan(plan, oracle)
    cells = [(c.n_left, c.n_right) for c in report.cycles]
    assert calls == list(dict.fromkeys(cells))
    in_reach = [n1 + n2 <= DENSE_CAP for n1, n2 in cells]
    assert [c.oracle_checked for c in report.cycles] == in_reach
    assert sum(in_reach) == 14
    assert projections == [14, 16, 20]


def test_a_failing_repeated_cell_stops_at_its_first_cycle():
    """An oracle that fails the repeated (7, 7) cell stops the run at that
    cell's first cycle, after earlier cycles on other cells passed."""
    plan = gen_exponential_plan(3, 31)
    cells = [(c.n_left, c.n_right) for c in execute_plan(plan).cycles]
    first = cells.index((7, 7))
    assert cells.count((7, 7)) == 8

    def failing(k, n1, n2, p):
        return ["no"] if (n1, n2) == (7, 7) else []

    with pytest.raises(PlanExecutionError) as info:
        execute_plan(plan, failing)
    assert info.value.cycle_index == first
    assert str(info.value) == f"cycle {first}: oracle disagreement: no"


@pytest.mark.parametrize("plan", [
    *(gen(k, n) for gen in (gen_incremental_plan, gen_exponential_plan)
      for k in (1, 2, 3) for n in (2 * k + 9, 24)),
    *(gen_exact_plan(k, 2 * k, 2 * k + 3) for k in (1, 2, 3))])
def test_checked_cycles_report_the_closed_form(plan):
    """Every cycle the oracle marks checked reports the closed form of its
    cell, on every cycle of a repeated cell, not only its first."""
    report = execute_plan(plan, check_distillation_cell)
    checked = [c for c in report.cycles if c.oracle_checked]
    assert checked
    assert all(c.probability == success_probability(plan.k, c.n_left, c.n_right)
               for c in checked)


def fresh_run(plan, step=distill_step):
    """Every cycle derived afresh, base states built up front: the loop
    `execute_plan` must match exactly."""
    refs = {r.id: r for r in (*plan.inputs, *plan.ancillas)}
    states = {r.id: unit_state(r) for r in refs.values()}
    results, cumulative = [], Fraction(1)
    for cyc in plan.cycles:
        left, right = refs[cyc.left], refs[cyc.right]
        outcome = step(states.pop(cyc.left), states.pop(cyc.right),
                       out_label=cyc.produced)
        refs[cyc.produced] = StateRef(cyc.produced, plan.k,
                                      left.n + right.n - 2 * plan.k)
        states[cyc.produced] = outcome.post_state
        p = outcome.success_probability
        cumulative *= p
        results.append(CycleResult(*cyc, left.n, right.n, refs[cyc.produced].n,
                                   p.numerator, p.denominator))
    final = plan.cycles[-1].produced if plan.cycles else plan.inputs[0].id
    return tuple(results), cumulative, states[final]


AWKWARD = ProtocolPlan(  # ids that meet distill_step's own /sel and /keep labels
    1, (StateRef("x", 1, 3), StateRef("x/sel", 1, 3), StateRef("x/keep", 1, 3)),
    (StateRef("x/sel/keep", 1, 3),),
    (Cycle("x", "x/sel", "x/sel/sel"), Cycle("x/keep", "x/sel/keep", "x+x/sel"),
     Cycle("x/sel/sel", "x+x/sel", "out")), 6)


MEMO_PLANS = {**{f"exponential-k{k}-n{n}": gen_exponential_plan(k, n)
                 for k in (1, 2, 3) for n in (2 * k + 1, 2 * k + 9, 40)},
              "awkward-ids": AWKWARD}


@pytest.mark.parametrize("name", MEMO_PLANS)
def test_memoised_run_matches_fresh_derivations(name):
    plan = MEMO_PLANS[name]
    report = execute_plan(plan)
    assert (tuple(report.cycles), report.cumulative_success,
            unit_state(report.final)) == fresh_run(plan)


def test_memo_tells_operands_apart_by_coefficient(monkeypatch):
    """Equal sizes are not enough for a state to pass as the unit state: with
    every post state doubled, the one derivation leaves 2 * Z_1(2), not the
    unit Z_1(2), and the run fails at cycle 0, before cycle 1 would join a
    product with a Z_1(3) as cycle 2 joins the unit input Z_1(4)."""
    def doubled(a, b, **kwargs):
        out = distill_step(a, b, **kwargs)
        return DistillOutcome(block_sum([(2 * c, p) for c, p in out.post_state.terms]),
                              out.success_probability)

    monkeypatch.setattr(zstates.protocol, "distill_step", doubled)
    ids = {"a": 3, "b": 3, "c": 4, "d": 3, "e": 3}
    plan = ProtocolPlan(1, tuple(StateRef(i, 1, n) for i, n in ids.items()), (),
                        (Cycle("a", "b", "p"), Cycle("p", "d", "q"),
                         Cycle("c", "e", "r")), 5)
    with pytest.raises(PlanExecutionError,
                       match=r"^cycle 0: post state is not the unit Z_1\(2\)$"):
        execute_plan(plan)


def test_each_shape_is_derived_once(monkeypatch):
    """A plan of many operand sizes, some repeated, derives one step: at
    the least widths (2k, 2k), whatever sizes its cycles join."""
    calls = []

    def counted(a, b, **kwargs):
        calls.append((registers_of(a)[0].width, registers_of(b)[0].width))
        return distill_step(a, b, **kwargs)

    monkeypatch.setattr(zstates.protocol, "distill_step", counted)
    report = execute_plan(gen_exponential_plan(1, 100))
    sizes = [(c.n_left, c.n_right) for c in report.cycles]
    assert len(set(sizes)) > 1
    assert calls == [(2, 2)]


@pytest.mark.parametrize("k", range(1, 6))
def test_one_derivation_sizes_every_width(k):
    """The step derived at (2k, 2k) gives, at every width of the grid, the
    probability and post state that `distill_step` derives at that width."""
    for n1 in range(2 * k, 2 * k + 7):
        for n2 in range(2 * k, 2 * k + 7):
            report = execute_plan(single_cycle_plan(k, n1, n2))
            step = distill_step(z_state(k, n1, "a"), z_state(k, n2, "b"),
                                out_label="out")
            assert (report.cycles[0].probability, unit_state(report.final)) == \
                (step.success_probability, step.post_state)


def test_weights_that_do_not_collect_fail_the_run(monkeypatch):
    """Negative control: with unit projection weights the leftover of a
    k = 2 step does not collect into one Z factor, and the one derivation
    fails the run at cycle 0 (at k = 1 unit weights are the default ones)."""
    monkeypatch.setattr(zstates.distill, "x0_alpha",
                        lambda k: (Fraction(1),) * (k + 1))
    with pytest.raises(PlanExecutionError,
                       match="^cycle 0: post-measurement state does not "
                             "collect into a single Z factor$"):
        execute_plan(gen_exact_plan(2, 5, 6))


def depth_of(plan, state_id):
    """Cycles on the longest chain that produces `state_id`; 0 for a base state."""
    cyc = next((c for c in plan.cycles if c.produced == state_id), None)
    return 0 if cyc is None else 1 + max(depth_of(plan, cyc.left),
                                         depth_of(plan, cyc.right))


@st.composite
def plan_forests(draw):
    """A valid plan over k 1-3: base states of sizes 2k..2k+3, some of them
    ancillas, and up to six cycles, each joining any two states not yet
    consumed, so pairings are unbalanced and products may stay unconsumed.
    The target is the last product, or the first input without cycles."""
    k = draw(st.integers(1, 3))
    n_cycles = draw(st.integers(0, 6))
    sizes = draw(st.lists(st.integers(2 * k, 2 * k + 3), min_size=n_cycles + 1,
                          max_size=n_cycles + 3))
    n_ancillas = draw(st.integers(0, len(sizes) - 1))
    bases = [StateRef(f"b{i}", k, n) for i, n in enumerate(sizes)]
    free = {r.id: r.n for r in bases}
    cycles = []
    for i in range(n_cycles):
        ids = sorted(free)
        left = draw(st.sampled_from(ids))
        right = draw(st.sampled_from([j for j in ids if j != left]))
        produced = f"p{i}"
        free[produced] = free.pop(left) + free.pop(right) - 2 * k
        cycles.append(Cycle(left, right, produced))
    split = len(sizes) - n_ancillas
    target_n = free[cycles[-1].produced] if cycles else sizes[0]
    return ProtocolPlan(k, tuple(bases[:split]), tuple(bases[split:]),
                        tuple(cycles), target_n)


# A k = 2 chain whose fourth cycle, 16 + 7 qubits, is past the dense cap.
CHAIN_PAST_CAP = ProtocolPlan(
    2, tuple(StateRef(f"b{i}", 2, 7) for i in range(5)), (),
    tuple(Cycle(f"p{i - 1}" if i else "b0", f"b{i + 1}", f"p{i}")
          for i in range(4)), 19)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(plan_forests())
@example(CHAIN_PAST_CAP)
def test_random_plan_forests(plan):
    """Each plan matches `fresh_run`, so the telescoped cumulative equals the
    product of fresh probabilities; the ledger balances; the critical path
    is the ledger's depth plus one long and, unless an unconsumed product
    lies deeper, ends at the final state; and at k <= 2 the oracle checks
    exactly the cycles within the dense cap."""
    report = execute_plan(plan)
    assert (tuple(report.cycles), report.cumulative_success,
            unit_state(report.final)) == fresh_run(plan)
    led = report.ledger
    assert led.output_qubits == (led.input_qubits + led.ancilla_qubits
                                 - led.consumed_qubits)
    assert led.consumed_qubits == 2 * plan.k * led.cycles == \
        2 * plan.k * len(plan.cycles)
    path = critical_path(plan)
    assert len(path) == led.depth + 1
    if depth_of(plan, report.final.id) == led.depth:
        assert path[-1] == report.final.n
    if plan.k <= 2:
        checked = execute_plan(plan, check_distillation_cell)
        assert [c.oracle_checked for c in checked.cycles] == [
            c.n_left + c.n_right <= DENSE_CAP for c in checked.cycles]


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(plan_forests())
def test_rows_match_the_cycle_results(plan):
    """The rows the writers read are plain tuples, each the fields of the
    `CycleResult` indexing wraps: the cycle's ids, as the plan names them,
    the sizes of its three states, and its probability as a reduced
    num/den, den > 0, which `probability` reads as a `Fraction`."""
    cycles = execute_plan(plan, check_distillation_cell).cycles
    rows = list(cycles.rows(range(len(cycles))))
    assert len(rows) == len(plan.cycles)
    for i, (row, cyc) in enumerate(zip(rows, plan.cycles)):
        r = cycles[i]
        assert type(row) is tuple and tuple(r) == row
        assert (r.left, r.right, r.produced) == cyc
        assert r.probability == Fraction(r.num, r.den)
        assert gcd(r.num, r.den) == 1 and r.den > 0


def per_side_resolve(plan):
    """`_resolve` as it was written before its one-test fast paths: every
    state and each side of every cycle checked in turn.  Returns its
    fields: refs, depth, consumed, final and the violations."""
    v = []
    k = plan.k
    if k < 1:
        v.append(f"plan k must be >= 1, got {k}")
    elif k > MAX_K:
        v.append(f"plan k must be at most {MAX_K}, got {k}")
    refs = {}
    for origin, declared in (("input", plan.inputs), ("ancilla", plan.ancillas)):
        for ref in declared:
            if not ref.id:
                v.append(f"{origin} state with empty id")
            if ref.id in refs:
                v.append(f"duplicate state id {ref.id!r}")
            refs[ref.id] = ref
            if ref.k != k:
                v.append(f"state {ref.id!r} has k={ref.k}, plan k={k}")
            if ref.n < 1:
                v.append(f"state {ref.id!r} has no qubits")
            elif ref.n < ref.k:
                v.append(f"state {ref.id!r} has k={ref.k} > n={ref.n}")
    depth, unresolved, consumed, final = {}, set(), set(), None
    for i, cyc in enumerate(plan.cycles):
        operands = []
        for side, op in (("left", cyc.left), ("right", cyc.right)):
            ref = refs.get(op)
            if ref is None:
                if op not in unresolved:
                    v.append(f"cycle {i}: {side} operand {op!r} is not an input, "
                             f"ancilla, or earlier product")
                continue
            if ref.n < 2 * k:
                v.append(f"cycle {i}: {side} operand Z_{ref.k}({ref.n}) has n < 2k")
            if op in consumed:
                v.append(f"cycle {i}: {side} operand {op!r} already consumed")
            consumed.add(op)
            operands.append(ref)
        if not cyc.produced:
            v.append(f"cycle {i}: empty produced id")
        if cyc.produced in refs or cyc.produced in unresolved:
            v.append(f"cycle {i}: produced id {cyc.produced!r} already in use")
        final = None
        if len(operands) < 2:
            unresolved.add(cyc.produced)
            continue
        left, right = operands
        final = StateRef(cyc.produced, k, left.n + right.n - 2 * k)
        refs[final.id] = final
        depth[final.id] = 1 + max(depth.get(left.id, 0), depth.get(right.id, 0))
    if plan.cycles:
        if final is not None and final.n != plan.target_n:
            v.append(f"final product Z_{final.k}({final.n}) does not match "
                     f"target Z_{k}({plan.target_n})")
    else:
        final = next((r for r in plan.inputs if (r.k, r.n) == (k, plan.target_n)),
                     None)
        if final is None:
            v.append("plan with no cycles has no input matching the target")
    return refs, depth, consumed, final, v


PLAN_FAULTS = ("none", "unknown operand", "same id on both sides",
               "reused operand", "operand < 2k", "empty produced id",
               "reused produced id", "unresolved product reused",
               "wrong target", "duplicate state id", "empty state id",
               "state k", "no qubits", "k > n", "k = 0")


def with_plan_fault(plan, fault, pick):
    """The plan with one fault; `pick(seq)` draws an element of `seq`."""
    k, cycles = plan.k, list(plan.cycles)
    states = [*plan.inputs, *plan.ancillas]
    ids = [r.id for r in states] + [c.produced for c in cycles]
    if fault == "wrong target":
        return plan._replace(target_n=plan.target_n + pick([-1, 1, 5]))
    if fault == "k = 0":  # the plan's and every state's; one state's n below
        plan = plan._replace(k=0)
        states = [r._replace(k=0) for r in states]
    if fault in ("duplicate state id", "empty state id", "state k",
                 "no qubits", "k > n", "k = 0"):
        i = pick(range(len(states)))
        ref = states[i]
        states[i] = {"duplicate state id": ref._replace(id=pick(ids)),
                     "empty state id": ref._replace(id=""),
                     "state k": ref._replace(k=k + pick([-1, 1])),
                     "no qubits": ref._replace(n=pick([0, -1])),
                     "k > n": ref._replace(k=ref.n + 1),
                     "k = 0": ref._replace(n=0)}[fault]
        split = len(plan.inputs)
        return plan._replace(inputs=tuple(states[:split]),
                             ancillas=tuple(states[split:]))
    if fault == "none" or not cycles:
        return plan
    i = pick(range(len(cycles)))
    side = pick(["left", "right"])
    cyc = cycles[i]
    if fault == "unknown operand":
        cyc = cyc._replace(**{side: "ghost"})
    elif fault == "same id on both sides":
        cyc = cyc._replace(right=cyc.left)
    elif fault == "reused operand":
        cyc = cyc._replace(**{side: pick(ids)})
    elif fault == "operand < 2k":
        small = StateRef("small", k, pick(range(k, 2 * k)))
        plan = plan._replace(ancillas=(*plan.ancillas, small))
        cyc = cyc._replace(**{side: "small"})
    elif fault == "empty produced id":
        cyc = cyc._replace(produced="")
    elif fault == "reused produced id":
        cyc = cyc._replace(produced=pick(ids))
    elif fault == "unresolved product reused" and i:
        # An earlier cycle left unresolved, its product id produced again.
        j = pick(range(i))
        cycles[j] = cycles[j]._replace(left="ghost")
        cyc = cyc._replace(produced=cycles[j].produced)
    cycles[i] = cyc
    return plan._replace(cycles=tuple(cycles))


def by_id(plan, resolved):
    """A valid plan's columns, by position, mapped back to the fields the
    per-side checks return: refs, depth and consumed by id, the final
    state and no violations.  Its ids are the declared ids, then the
    produced ids."""
    ids, sizes, depth, left, right, final = resolved
    declared = (*plan.inputs, *plan.ancillas)
    d, c = len(declared), len(plan.cycles)
    assert ids == [r.id for r in declared] + [cyc.produced for cyc in plan.cycles]
    assert (len(sizes), len(depth), len(left), len(right)) == (d + c, d + c, c, c)
    states = [*declared, *(StateRef(cyc.produced, plan.k, n)
                           for cyc, n in zip(plan.cycles, sizes[d:]))]
    refs = {ref.id: ref for ref in states}
    depths = {ref.id: depth[s] for s, ref in enumerate(states) if s >= d}
    consumed = {states[s].id for s in (*left, *right)}
    return refs, depths, consumed, states[final], []


def resolved_or_violations(plan):
    """The plan's columns, or, for a plan `_resolve` refuses, the violations
    it raises with."""
    try:
        return _resolve(plan)
    except InvalidPlanError as exc:
        return exc.violations


def assert_resolves_as_the_per_side_checks(plan, resolved):
    """`resolved`, the plan's `resolved_or_violations`, is what the per-side
    checks found: their violations, in order, for a plan they find faulty,
    and for a valid one columns that read back by id as their states,
    depths, consumed ids and final state."""
    expected = per_side_resolve(plan)
    if expected[-1]:
        assert resolved == expected[-1]
    else:
        assert by_id(plan, resolved) == expected


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(plan_forests(), st.sampled_from(PLAN_FAULTS), st.data())
def test_one_test_resolve_matches_the_per_side_checks(plan, fault, data):
    """With one fault in a valid plan, `_resolve` finds what the per-side
    checks found: for a plan they find faulty, the same violations in the
    same order; for a valid one, read back by id from its columns, the
    same states, depths, consumed ids and final state."""
    plan = with_plan_fault(plan, fault, lambda seq: data.draw(st.sampled_from(seq)))
    assert_resolves_as_the_per_side_checks(plan, resolved_or_violations(plan))
    assert validate_plan(plan) == per_side_resolve(plan)[-1]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(plan_forests(), st.sampled_from(PLAN_FAULTS), st.data())
def test_resolve_raises_with_the_violations_validate_plan_lists(
        plan, fault, data):
    """`_resolve` raises InvalidPlanError with exactly `validate_plan`'s
    violations, in order, for a plan with one fault, and never runs the
    pass that words them for a valid plan."""
    plan = with_plan_fault(plan, fault, lambda seq: data.draw(st.sampled_from(seq)))
    violations = validate_plan(plan)
    calls = []

    def counted(p):
        calls.append(p)
        return words(p)

    words, zstates.protocol._violations = zstates.protocol._violations, counted
    try:
        if violations:
            with pytest.raises(InvalidPlanError) as raised:
                _resolve(plan)
            assert raised.value.violations == violations and calls == [plan]
        else:
            _resolve(plan)
            assert calls == []
    finally:
        zstates.protocol._violations = words


def dict_critical_path(plan):
    """`critical_path` as it was written over the per-side checks' refs and
    depths by id, with a producer map from product id to cycle."""
    refs, depth, _, final, _ = per_side_resolve(plan)
    producer = {cyc.produced: cyc for cyc in plan.cycles}
    state = max([final, *(refs[i] for i in depth)],
                key=lambda ref: depth.get(ref.id, 0))
    path = [state.n]
    while state.id in producer:
        cyc = producer[state.id]
        pick = (cyc.left if depth.get(cyc.left, 0) >= depth.get(cyc.right, 0)
                else cyc.right)
        state = refs[pick]
        path.append(state.n)
    path.reverse()
    return path


def dict_ledger(plan):
    """The ledger as it was summed from the refs and the depths by id."""
    _, depth, _, _, _ = per_side_resolve(plan)
    ins, ancillas = sum(r.n for r in plan.inputs), sum(r.n for r in plan.ancillas)
    used = 2 * plan.k * len(plan.cycles)
    return (ins, ancillas, used, len(plan.cycles), ins + ancillas - used,
            max(depth.values(), default=0))


def dict_telescoped(plan, beta_sq):
    """`_telescoped` as it was written: the powers of C(n, k) per size, from
    the id-set differences of products and consumed ids."""
    refs, depth, consumed, _, _ = per_side_resolve(plan)
    powers = Counter([refs[i].n for i in depth.keys() - consumed])
    powers.subtract([refs[i].n for i in consumed - depth.keys()])
    num = beta_sq.numerator ** len(plan.cycles)
    den = beta_sq.denominator ** len(plan.cycles)
    for n, power in powers.items():
        if power > 0:
            num *= binom(n, plan.k) ** power
        elif power < 0:
            den *= binom(n, plan.k) ** -power
    return Fraction(num, den)


def dict_row(plan, refs, beta_sq, i):
    """`_CycleResults._row` as it was written: cycle i's three states looked
    up by id, three C(n, k), and the probability reduced."""
    cyc, k = plan.cycles[i], plan.k
    left, right, produced = refs[cyc.left], refs[cyc.right], refs[cyc.produced]
    num = beta_sq.numerator * binom(produced.n, k)
    den = beta_sq.denominator * binom(left.n, k) * binom(right.n, k)
    g = gcd(num, den)
    return CycleResult(*cyc, left.n, right.n, produced.n, num // g, den // g)


GENERATED = [pytest.param(plan, id=f"{name}-k{k}") for k in range(1, 6)
             for name, plan in (("exact", gen_exact_plan(k, 2 * k + 1, 3 * k)),
                                ("incremental", gen_incremental_plan(k, 2 * k + 40)),
                                ("exponential", gen_exponential_plan(k, 2 * k + 70)))]
# No cycles: the final state is the first input of the target's size.
GENERATED.append(pytest.param(ProtocolPlan(
    2, (StateRef("a", 2, 5), StateRef("b", 2, 7), StateRef("c", 2, 7)),
    (StateRef("d", 2, 7),), (), 7), id="no-cycles"))


def assert_columns_match_the_dict_readers(plan):
    report = execute_plan(plan)
    refs, _, _, final, _ = per_side_resolve(plan)
    assert report.final == final
    beta_sq = zstates.protocol._step_beta_sq(plan.k) if plan.cycles else Fraction(1)
    assert critical_path(plan) == dict_critical_path(plan)
    assert tuple(report.ledger) == dict_ledger(plan)
    assert report.cumulative_success == dict_telescoped(plan, beta_sq)
    expected = [dict_row(plan, refs, beta_sq, i) for i in range(len(plan.cycles))]
    assert list(report.cycles) == expected
    cycles = report.cycles
    assert list(cycles.rows(range(len(cycles)))) == expected
    # A negative index reads cycle C + i, never the state at D + i.
    for i in range(-len(expected), 0):
        assert cycles[i] == expected[i]


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(plan_forests())
def test_columns_match_the_dict_readers_on_plan_forests(plan):
    """The final state, critical path, ledger, cumulative probability and
    rows, read from the columns by position, equal what the readers by id
    computed; a negative index reads a cycle from the end."""
    assert_columns_match_the_dict_readers(plan)


@pytest.mark.parametrize("plan", GENERATED)
def test_columns_match_the_dict_readers_on_generated_plans(plan):
    """The same on each generator's plans at k 1-5, and on a plan without
    cycles."""
    assert_columns_match_the_dict_readers(plan)


def test_cycle_results_index_from_either_end():
    """A negative index reads from the end, as a tuple does; an index past
    either end raises IndexError."""
    cycles = execute_plan(gen_exponential_plan(2, 30)).cycles
    whole = tuple(cycles)
    assert cycles[-1] == whole[-1] and cycles[-len(whole)] == whole[0]
    for i in (len(whole), -len(whole) - 1):
        with pytest.raises(IndexError):
            cycles[i]


def test_execute_rejects_invalid_plan():
    a = StateRef("a", 1, 1)
    b = StateRef("b", 1, 3)
    plan = ProtocolPlan(1, (a, b), (), (Cycle("a", "b", "out"),), 2)
    with pytest.raises(InvalidPlanError):
        execute_plan(plan)


def test_cumulative_equals_product_of_closed_forms():
    for plan in (gen_incremental_plan(1, 8), gen_exponential_plan(2, 11),
                 gen_exact_plan(3, 7, 8)):
        report = execute_plan(plan)
        product = Fraction(1)
        for res in report.cycles:
            p = success_probability(plan.k, res.n_left, res.n_right)
            assert res.probability == p
            product *= p
        assert report.cumulative_success == product


# -------------------------------------------------------------- exact plan

def test_exact_plan_shape():
    plan = gen_exact_plan(2, 5, 6)
    assert [r.n for r in plan.ancillas] == [8]
    assert plan.cycles[0].left == "anc"
    mids = [c.produced for c in plan.cycles]
    assert mids == ["mid", "out"]
    report = execute_plan(plan)
    assert report.final.n == 11
    assert [c.n_produced for c in report.cycles] == [9, 11]


def test_exact_plan_is_lossless():
    for k in (1, 2, 3):
        for n1 in range(2 * k, 9):
            for n2 in range(2 * k, 9):
                plan = gen_exact_plan(k, n1, n2)
                report = execute_plan(plan)
                assert report.final.n == n1 + n2
                assert report.ledger.ancilla_qubits == 4 * k
                assert report.ledger.consumed_qubits == 4 * k


def test_exact_plan_domain():
    with pytest.raises(ValueError):
        gen_exact_plan(2, 3, 6)
    with pytest.raises(ValueError):
        gen_exact_plan(0, 3, 3)


# ------------------------------------------------------- incremental plan

def test_incremental_w6_sequence():
    plan = gen_incremental_plan(1, 6)
    assert len(plan.cycles) == 3
    report = execute_plan(plan)
    assert [c.n_produced for c in report.cycles] == [4, 5, 6]
    assert report.final == StateRef("s3", 1, 6)


def test_incremental_base_case_has_no_cycles():
    for k in (1, 2, 3):
        plan = gen_incremental_plan(k, 2 * k + 1)
        assert plan.cycles == ()
        assert len(plan.inputs) == 1


def test_incremental_cycle_count():
    for k in (1, 2, 3):
        for n in range(2 * k + 1, 2 * k + 10):
            plan = gen_incremental_plan(k, n)
            assert len(plan.cycles) == n - 2 * k - 1
            assert validate_plan(plan) == []


def test_incremental_k2_example():
    plan = gen_incremental_plan(2, 8)
    assert len(plan.cycles) == 3
    assert all(r.n == 5 for r in plan.inputs)


def incremental_loop(k, n_target):
    """The incremental schedule as its own loop: base states base1.., and
    cycle i joins s{i} (base1 first) with base{i+2} into s{i+1}."""
    steps = n_target - 2 * k - 1
    bases = tuple(StateRef(f"base{i + 1}", k, 2 * k + 1)
                  for i in range(max(1, steps + 1)))
    cycles = tuple(Cycle(f"s{i}" if i else "base1", f"base{i + 2}", f"s{i + 1}")
                   for i in range(steps))
    return ProtocolPlan(k, bases, (), cycles, n_target)


def test_incremental_plan_is_the_exponential_tail_alone():
    for k in range(1, 6):
        for n in range(2 * k + 1, 2 * k + 61):
            assert gen_incremental_plan(k, n) == incremental_loop(k, n)


@pytest.mark.parametrize("generate", [gen_incremental_plan, gen_exponential_plan])
def test_generators_refuse_plans_past_the_cycle_limit(generate, monkeypatch):
    """n - 2k - 1 cycles for both schedules: at the limit a plan is built,
    one qubit past it none is."""
    monkeypatch.setattr(zstates.protocol, "MAX_CYCLES", 5)
    assert len(generate(1, 8).cycles) == 5
    with pytest.raises(ValueError, match="6 cycles, more than the limit of 5"):
        generate(1, 9)


def closure_grown_plan(k, n_target, doubling):
    """`_grown_plan` as it was written before its columns: closures that
    build a `StateRef` per base state and a `Cycle` per cycle, recursing
    over the doubling tree; its plan has tuple fields."""
    base_n, span = 2 * k + 1, n_target - 2 * k
    bases, cycles = [], []

    def fresh_base():
        bases.append(StateRef(f"base{len(bases) + 1}", k, base_n))
        return bases[-1].id

    def join(left, right):
        cycles.append(Cycle(left, right, f"s{len(cycles) + 1}"))
        return cycles[-1].produced

    def build(s):
        return fresh_base() if s == 1 else join(build(s // 2), build(s // 2))

    top = 1 << (span.bit_length() - 1) if doubling else 1
    current = build(top)
    for _ in range(span - top):
        current = join(current, fresh_base())
    return ProtocolPlan(k, tuple(bases), (), tuple(cycles), n_target)


SPANS = [*range(1, 71), *(2 ** m + d for m in range(7, 13) for d in (-1, 0, 1))]


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("doubling", [False, True])
def test_generated_plans_match_the_closure_generator(k, doubling):
    """Each schedule's plan, at spans 1-70 and around powers of two up to
    4,097, holds the states and cycles the closures built, equals and
    hashes as their plan in both directions, and resolves to the same
    columns."""
    generate = gen_exponential_plan if doubling else gen_incremental_plan
    for span in SPANS:
        plan = generate(k, 2 * k + span)
        twin = closure_grown_plan(k, 2 * k + span, doubling)
        assert tuple(plan.inputs) == twin.inputs
        assert tuple(plan.cycles) == twin.cycles
        assert plan == twin and twin == plan and hash(plan) == hash(twin)
        assert _resolve(plan) == _resolve(twin)


def tuple_twin(plan):
    """The plan with every state and cycle field a tuple."""
    return plan._replace(inputs=tuple(plan.inputs), ancillas=tuple(plan.ancillas),
                         cycles=tuple(plan.cycles))


def assert_resolves_as_its_tuple_twin(plan):
    resolved = resolved_or_violations(plan)
    assert resolved == resolved_or_violations(tuple_twin(plan))
    assert_resolves_as_the_per_side_checks(plan, resolved)


@pytest.mark.parametrize("fault", PLAN_FAULTS)
def test_a_faulty_generated_plan_resolves_as_its_tuple_twin(fault):
    """A generated plan with any one fault, at its first, middle or last
    state or cycle, resolves as the same plan with tuple fields does:
    a plan whose fields no longer share one set of columns is not read
    from them."""
    for k in range(1, 4):
        for generate in (gen_incremental_plan, gen_exponential_plan):
            plan = generate(k, 2 * k + 11)
            for pick in (lambda seq: seq[0], lambda seq: seq[len(seq) // 2],
                         lambda seq: seq[-1]):
                assert_resolves_as_its_tuple_twin(with_plan_fault(plan, fault, pick))


def test_a_replaced_field_of_a_generated_plan_resolves_as_its_tuple_twin():
    """The same for each field replaced: k, the target, ancillas, cycles
    (fewer, or another plan's view) and inputs (one state changed, or
    another plan's view); resolving them leaves the plan as it was."""
    for k in range(1, 4):
        plan = gen_exponential_plan(k, 2 * k + 11)
        other = gen_exponential_plan(k, 2 * k + 12)
        twin = tuple_twin(plan)
        first = plan.inputs[0]
        for changed in (
                plan._replace(k=k + 1), plan._replace(k=0),
                plan._replace(target_n=plan.target_n + 1),
                plan._replace(ancillas=(StateRef("extra", k, 2 * k + 1),)),
                plan._replace(ancillas=(first,)),
                plan._replace(cycles=plan.cycles[:-1]),
                plan._replace(cycles=other.cycles),
                plan._replace(inputs=other.inputs),
                plan._replace(inputs=(first._replace(n=0), *plan.inputs[1:])),
                plan._replace(inputs=(*plan.inputs[:-1], first))):
            assert_resolves_as_its_tuple_twin(changed)
        assert plan == twin and _resolve(plan) == _resolve(twin)


# ------------------------------------------------------- exponential plan

def test_exponential_w10_path():
    plan = gen_exponential_plan(1, 10)
    assert critical_path(plan) == [3, 4, 6, 10]
    assert len(plan.cycles) == 7
    report = execute_plan(plan)
    assert report.ledger.depth == 3
    assert report.final == StateRef(plan.cycles[-1].produced, 1, 10)


def test_exponential_first_step_matches_incremental():
    plan = gen_exponential_plan(1, 4)
    assert len(plan.cycles) == 1
    assert execute_plan(plan).ledger.depth == 1


def test_exponential_k2_path():
    assert critical_path(gen_exponential_plan(2, 12)) == [5, 6, 8, 12]


def test_exponential_depth_formula():
    """Depth is floor(log2(span)) plus one per fine-tuning cycle."""
    for k in (1, 2, 3):
        for n in range(2 * k + 1, 2 * k + 20):
            span = n - 2 * k
            plan = gen_exponential_plan(k, n)
            top = 1 << (span.bit_length() - 1)
            assert validate_plan(plan) == []
            report = execute_plan(plan)
            assert report.ledger.depth == (span.bit_length() - 1) + (span - top)
            assert report.final.n == n


def test_exponential_power_of_two_spans_are_pure_doubling():
    for k in (1, 2, 3):
        for m in range(5):
            span = 1 << m
            plan = gen_exponential_plan(k, 2 * k + span)
            assert execute_plan(plan).ledger.depth == m
            assert len(plan.cycles) == span - 1


# ----------------------------------------------------------------- ledger

def test_ledger_conservation():
    plans = []
    for k in (1, 2, 3):
        for n in range(2 * k + 1, 21):
            plans.append(gen_incremental_plan(k, n))
            plans.append(gen_exponential_plan(k, n))
        plans.append(gen_exact_plan(k, 2 * k, 2 * k + 1))
    for plan in plans:
        led = execute_plan(plan).ledger
        assert led.output_qubits == (led.input_qubits + led.ancilla_qubits
                                     - led.consumed_qubits)
        assert led.consumed_qubits == 2 * plan.k * led.cycles


def test_critical_path_of_empty_plan():
    assert critical_path(gen_incremental_plan(2, 5)) == [5]


def test_critical_path_of_a_forest_follows_its_deepest_product():
    """The final product Z_1(4) is one cycle deep, but the unconsumed Z_1(8)
    is two: the deepest chain runs to it, as long as the ledger's depth."""
    sizes = {"b0": 3, "b1": 4, "b2": 5, "b3": 3, "b4": 3}
    plan = ProtocolPlan(1, tuple(StateRef(i, 1, n) for i, n in sizes.items()), (),
                        (Cycle("b0", "b1", "p0"), Cycle("b2", "p0", "p1"),
                         Cycle("b3", "b4", "p2")), 4)
    assert execute_plan(plan).ledger.depth == 2
    assert critical_path(plan) == [3, 5, 8]
