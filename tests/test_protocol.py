"""Plan validation, execution, and the three schedule generators."""

from fractions import Fraction

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
    assert [c.produced.id for c in report.cycles] == [
        c.produced for c in plan.cycles]
    first = {}
    for c in report.cycles:
        assert c.probability == success_probability(1, c.left.n, c.right.n)
        first.setdefault((c.left.n, c.right.n), c.probability)
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
    cells = [(c.left.n, c.right.n) for c in report.cycles]
    assert calls == list(dict.fromkeys(cells))
    in_reach = [n1 + n2 <= DENSE_CAP for n1, n2 in cells]
    assert [c.oracle_checked for c in report.cycles] == in_reach
    assert sum(in_reach) == 14
    assert projections == [14, 16, 20]


def test_a_failing_repeated_cell_stops_at_its_first_cycle():
    """An oracle that fails the repeated (7, 7) cell stops the run at that
    cell's first cycle, after earlier cycles on other cells passed."""
    plan = gen_exponential_plan(3, 31)
    cells = [(c.left.n, c.right.n) for c in execute_plan(plan).cycles]
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
    assert all(c.probability == success_probability(plan.k, c.left.n, c.right.n)
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
        cumulative *= outcome.success_probability
        results.append(CycleResult(left, right, refs[cyc.produced],
                                   outcome.success_probability))
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
    sizes = [(c.left.n, c.right.n) for c in report.cycles]
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
            c.left.n + c.right.n <= DENSE_CAP for c in checked.cycles]


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
            p = success_probability(plan.k, res.left.n, res.right.n)
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
    assert [c.produced.n for c in report.cycles] == [9, 11]


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
    assert [c.produced.n for c in report.cycles] == [4, 5, 6]
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
