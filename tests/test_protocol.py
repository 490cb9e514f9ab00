"""Plan validation, execution, and the three schedule generators."""

from fractions import Fraction

import pytest

from zstates import (
    Cycle,
    InvalidPlanError,
    PlanExecutionError,
    ProtocolPlan,
    StateRef,
    critical_path,
    execute_plan,
    gen_exact_plan,
    gen_exponential_plan,
    gen_incremental_plan,
    plan_depth,
    success_probability,
    validate_plan,
    z_state,
)
from zstates.verify import check_distillation_cell


def single_cycle_plan(k=1, n1=3, n2=3):
    a = StateRef("a", k, n1)
    b = StateRef("b", k, n2)
    return ProtocolPlan(k, (a, b), (), (Cycle("a", "b", "out"),),
                        (k, n1 + n2 - 2 * k))


# ------------------------------------------------------------- validation

def test_generated_plans_are_valid():
    assert validate_plan(gen_exact_plan(1, 3, 3)) == []
    assert validate_plan(gen_incremental_plan(2, 9)) == []
    assert validate_plan(gen_exponential_plan(1, 10)) == []


def test_validate_flags_small_operand():
    a = StateRef("a", 1, 1)
    b = StateRef("b", 1, 3)
    plan = ProtocolPlan(1, (a, b), (), (Cycle("a", "b", "out"),), (1, 2))
    assert any("n < 2k" in v for v in validate_plan(plan))


def test_validate_flags_double_consumption():
    a = StateRef("a", 1, 3)
    b = StateRef("b", 1, 3)
    plan = ProtocolPlan(1, (a, b), (),
                        (Cycle("a", "b", "c"), Cycle("a", "c", "d")), (1, 5))
    assert any("already consumed" in v for v in validate_plan(plan))


def test_validate_flags_unknown_operand_and_future_product():
    a = StateRef("a", 1, 3)
    b = StateRef("b", 1, 3)
    plan = ProtocolPlan(1, (a, b), (),
                        (Cycle("ghost", "a", "x"), Cycle("b", "x", "y")), (1, 6))
    assert any("not an input" in v for v in validate_plan(plan))
    future = ProtocolPlan(1, (a, b, StateRef("c", 1, 3)), (),
                          (Cycle("a", "x", "y"), Cycle("b", "c", "x")), (1, 4))
    assert any("'x' is not an input" in v for v in validate_plan(future))


def test_validate_flags_k_mismatch():
    a = StateRef("a", 2, 5)
    b = StateRef("b", 2, 5)
    plan = ProtocolPlan(1, (a, b), (), (Cycle("a", "b", "out"),), (1, 8))
    assert any("plan k" in v for v in validate_plan(plan))


def test_validate_flags_target_mismatch():
    plan = single_cycle_plan()
    bad = ProtocolPlan(plan.k, plan.inputs, (), plan.cycles, (1, 5))
    assert any("does not match target" in v for v in validate_plan(bad))


def test_validate_flags_duplicate_and_reused_ids():
    a = StateRef("a", 1, 3)
    plan = ProtocolPlan(1, (a, a), (), (Cycle("a", "a", "a"),), (1, 4))
    violations = validate_plan(plan)
    assert any("duplicate state id" in v for v in violations)
    assert any("already in use" in v for v in violations)


def test_validate_empty_plan_needs_matching_input():
    a = StateRef("a", 1, 3)
    ok = ProtocolPlan(1, (a,), (), (), (1, 3))
    assert validate_plan(ok) == []
    bad = ProtocolPlan(1, (a,), (), (), (1, 4))
    assert any("no input matching" in v for v in validate_plan(bad))


# -------------------------------------------------------------- execution

def test_execute_single_cycle():
    report = execute_plan(single_cycle_plan(),
                          lambda k, n1, n2: check_distillation_cell(k, n1, n2))
    assert report.final_state == z_state(1, 4, "out")
    assert report.cumulative_success == Fraction(2, 9)
    assert report.cycles[0].oracle_checked


def test_execute_exact_plan():
    report = execute_plan(gen_exact_plan(1, 3, 3))
    assert report.final_state == z_state(1, 6, "out")
    assert [c.probability for c in report.cycles] == [Fraction(5, 24), Fraction(1, 5)]
    led = report.ledger
    assert (led.input_qubits, led.ancilla_qubits, led.consumed_qubits,
            led.cycles, led.output_qubits, led.depth) == (6, 4, 4, 2, 6, 2)


def test_execute_empty_plan():
    report = execute_plan(gen_incremental_plan(1, 3))
    assert report.cumulative_success == 1
    assert report.cycles == ()
    assert report.final.n == 3
    assert report.final_state == z_state(1, 3, "base1")


def test_execute_oracle_verdicts():
    plan = gen_exact_plan(1, 3, 3)
    report = execute_plan(plan, lambda k, n1, n2: None)
    assert not any(c.oracle_checked for c in report.cycles)
    with pytest.raises(PlanExecutionError, match="cycle 1: oracle disagreement: off"):
        execute_plan(plan, lambda k, n1, n2: ["off"] if n1 == 5 else [])


def test_execute_rejects_invalid_plan():
    a = StateRef("a", 1, 1)
    b = StateRef("b", 1, 3)
    plan = ProtocolPlan(1, (a, b), (), (Cycle("a", "b", "out"),), (1, 2))
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
    assert report.final_state == z_state(1, 6, "s3")


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


# ------------------------------------------------------- exponential plan

def test_exponential_w10_path():
    plan = gen_exponential_plan(1, 10)
    assert critical_path(plan) == [3, 4, 6, 10]
    assert plan_depth(plan) == 3
    assert len(plan.cycles) == 7
    assert execute_plan(plan).final_state == z_state(1, 10, plan.cycles[-1].produced)


def test_exponential_first_step_matches_incremental():
    plan = gen_exponential_plan(1, 4)
    assert len(plan.cycles) == 1
    assert plan_depth(plan) == 1


def test_exponential_k2_path():
    assert critical_path(gen_exponential_plan(2, 12)) == [5, 6, 8, 12]


def test_exponential_depth_formula():
    """Depth is floor(log2(span)) plus one per fine-tuning cycle."""
    for k in (1, 2, 3):
        for n in range(2 * k + 1, 2 * k + 20):
            span = n - 2 * k
            plan = gen_exponential_plan(k, n)
            top = 1 << (span.bit_length() - 1)
            assert plan_depth(plan) == (span.bit_length() - 1) + (span - top)
            assert validate_plan(plan) == []
            assert execute_plan(plan).final.n == n


def test_exponential_power_of_two_spans_are_pure_doubling():
    for k in (1, 2, 3):
        for m in range(5):
            span = 1 << m
            plan = gen_exponential_plan(k, 2 * k + span)
            assert plan_depth(plan) == m
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
