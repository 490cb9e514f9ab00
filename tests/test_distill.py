"""The projection target and the 2k-local distillation step."""

import random
from fractions import Fraction

import pytest

import zstates.verify
from conftest import fresh_outcome
from zstates import (
    DENSE_CAP,
    DistillOutcome,
    NotCollectibleError,
    RegisterId,
    dense_inner,
    distill_step,
    norm_sq,
    success_probability,
    to_dense,
    x0_alpha,
    x0_beta_sq,
    x0_state,
    z_state,
)
from zstates.verify import (
    check_distillation_cell,
    distillation_cells,
    sweep_selections,
)


def _regs(k):
    return RegisterId("XA", k), RegisterId("XB", k)


def _weights(target):
    """The target's coefficient alpha_j, indexed by j, its XB excitation
    (XB sorts after XA, so its block is second)."""
    by_j = {p.blocks[1].excitations: c for c, p in target.terms}
    return tuple(by_j[j] for j in sorted(by_j))


# ------------------------------------------------------- projection target

def test_x0_k1_is_the_symmetric_pair():
    state = x0_state(1, *_regs(1))
    assert sorted(to_dense(state).amplitudes) == [0b01, 0b10]
    assert _weights(state) == (Fraction(1), Fraction(1))
    assert x0_beta_sq(1) == Fraction(1, 2)


def test_x0_k2_weights_and_norm():
    state = x0_state(2, *_regs(2))
    assert _weights(state) == (Fraction(1), Fraction(1, 4), Fraction(1))
    assert x0_beta_sq(2) == Fraction(4, 9)
    assert norm_sq(state) == Fraction(9, 4)


@pytest.mark.parametrize("k", range(1, 7))
def test_x0_normalization_identity(k):
    state = x0_state(k, *_regs(k))
    assert norm_sq(state) * x0_beta_sq(k) == 1
    assert _weights(state) == x0_alpha(k)
    if 2 * k <= 14:
        d = to_dense(state)
        assert dense_inner(d, d) * x0_beta_sq(k) == 1


def test_x0_lies_in_the_k_sector():
    state = x0_state(3, *_regs(3))
    assert all(key.bit_count() == 3 for key in to_dense(state).amplitudes)


def test_x0_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        x0_state(0, RegisterId("XA", 0), RegisterId("XB", 0))
    with pytest.raises(ValueError):
        x0_state(2, RegisterId("XA", 1), RegisterId("XB", 2))
    with pytest.raises(ValueError):
        x0_state(1, RegisterId("X", 1), RegisterId("X", 1))
    with pytest.raises(ValueError):
        x0_state(2, *_regs(2), alpha=[1, 1])
    with pytest.raises(ValueError, match="nonzero"):
        x0_state(2, *_regs(2), alpha=[0, 0, 0])


# ------------------------------------------------------ success probability

@pytest.mark.parametrize("k, n1, n2, expected", [
    (1, 3, 3, Fraction(2, 9)),
    (1, 3, 4, Fraction(5, 24)),
    (2, 5, 5, Fraction(1, 15)),
])
def test_success_probability_frozen_values(k, n1, n2, expected):
    """Values frozen from the dense oracle; the cell check recomputes them."""
    assert success_probability(k, n1, n2) == expected
    assert check_distillation_cell(k, n1, n2, fresh_outcome(k, n1, n2)) == []


def test_success_probability_domain():
    with pytest.raises(ValueError):
        success_probability(0, 3, 3)
    with pytest.raises(ValueError):
        success_probability(1, 1, 3)


def test_success_probability_decays_for_larger_inputs():
    assert success_probability(1, 3, 3) > success_probability(1, 10, 10)


def test_probability_bounds_over_small_range():
    for k, n1, n2 in distillation_cells(3, 8, 16):
        p = success_probability(k, n1, n2)
        assert 0 < p <= 1


# ----------------------------------------------------------- distill_step

def test_distill_w3_w3():
    out = distill_step(z_state(1, 3, RegisterId("A", 3)),
                       z_state(1, 3, RegisterId("B", 3)))
    assert out.post_state == z_state(1, 4, "A+B")
    assert out.success_probability == Fraction(2, 9)


def test_distill_k2():
    out = distill_step(z_state(2, 5, RegisterId("A", 5)),
                       z_state(2, 5, RegisterId("B", 5)),
                       out_label="C")
    assert out.post_state == z_state(2, 6, "C")
    assert out.success_probability == Fraction(1, 15)


def test_distill_step_preconditions():
    a3 = z_state(1, 3, RegisterId("A", 3))
    with pytest.raises(ValueError):
        distill_step(a3, z_state(2, 5, RegisterId("B", 5)))
    with pytest.raises(ValueError):
        distill_step(a3, z_state(1, 1, RegisterId("B", 1)))
    with pytest.raises(ValueError):
        distill_step(z_state(0, 3, RegisterId("A", 3)),
                     z_state(0, 3, RegisterId("B", 3)))
    with pytest.raises(ValueError):
        distill_step(a3, z_state(1, 3, RegisterId("A", 3)))
    from zstates import tensor
    pair = tensor(a3, z_state(1, 3, RegisterId("C", 3)))
    with pytest.raises(ValueError):
        distill_step(pair, z_state(1, 3, RegisterId("B", 3)))


# -------------------------------------------------------- negative control

def test_unit_weights_fail_to_collect_at_k2():
    with pytest.raises(NotCollectibleError):
        distill_step(z_state(2, 5, RegisterId("A", 5)),
                     z_state(2, 5, RegisterId("B", 5)),
                     alpha=[Fraction(1)] * 3)


def test_unit_weights_coincide_with_default_at_k1():
    out = distill_step(z_state(1, 3, RegisterId("A", 3)),
                       z_state(1, 3, RegisterId("B", 3)),
                       alpha=[Fraction(1)] * 2)
    assert out.post_state == z_state(1, 4, "A+B")
    assert out.success_probability == Fraction(2, 9)


# --------------------------------------------------- oracle cross-checking

def test_small_sweep_against_oracle():
    for k, n1, n2 in distillation_cells(2, 6, 12):
        outcome = fresh_outcome(k, n1, n2)
        assert check_distillation_cell(k, n1, n2, outcome) == [], (k, n1, n2)


def test_distillation_cells_stay_in_the_oracle_reach():
    """Totals past the dense cap are not swept: a cell the oracle cannot
    replay would count as a pass."""
    cells = list(distillation_cells(3, 18, 24))
    assert len(cells) == 370
    assert all(n1 + n2 <= DENSE_CAP for _, n1, n2 in cells)


def test_cell_check_reads_the_outcome_it_is_given():
    good = fresh_outcome(1, 3, 3)
    tampered = DistillOutcome(good.post_state, Fraction(1, 3))
    assert check_distillation_cell(1, 3, 3, tampered) == [
        "(k=1, N1=3, N2=3): oracle weight 2/9 != symbolic probability 1/3"]
    too_wide = DistillOutcome(z_state(1, 5, "A+B"), good.success_probability)
    assert check_distillation_cell(1, 3, 3, too_wide) == [
        "(k=1, N1=3, N2=3): symbolic post state is not a single Z_1(4)"]
    # Past the dense cap the post state is still checked.
    past = fresh_outcome(1, 12, 11)
    assert check_distillation_cell(1, 12, 11, past) is None
    assert check_distillation_cell(
        1, 12, 11, DistillOutcome(z_state(1, 22, "o"), past.success_probability))


def test_selection_invariance_spot_checks():
    rng = random.Random(11)
    for k, n1, n2 in [(1, 3, 5), (2, 4, 6), (3, 6, 7)]:
        selections = [(tuple(rng.sample(range(n1), k)),
                       tuple(rng.sample(range(n2), k))) for _ in range(5)]
        outcome = fresh_outcome(k, n1, n2)
        assert check_distillation_cell(k, n1, n2, outcome, selections) == []


def test_selection_indexes_its_own_operand():
    """Qubit 3 of the first operand is out of range, not the second's qubit 0;
    it is found after an agreeing selection, so every selection is read."""
    with pytest.raises(ValueError):
        check_distillation_cell(1, 3, 3, fresh_outcome(1, 3, 3),
                                [((0,), (0,)), ((3,), (0,))])


@pytest.mark.parametrize("selections", [[], iter(())], ids=["list", "iterator"])
def test_selections_that_name_none_are_refused(selections):
    """An empty list is not the default selection, and an empty iterator
    does not pass a check that replayed nothing."""
    with pytest.raises(ValueError, match="no selection"):
        check_distillation_cell(1, 3, 3, fresh_outcome(1, 3, 3), selections)


def test_a_shared_store_changes_no_result():
    """Checks that share one verdict store return what checks with a fresh
    store each return, on agreeing and on tampered outcomes alike."""
    shared = {}
    for k, n1, n2 in distillation_cells(3, 8, 14):
        good = fresh_outcome(k, n1, n2)
        tampered = DistillOutcome(good.post_state, good.success_probability / 2)
        selections = [(range(k), range(k)), (range(n1 - k, n1), range(k))]
        for outcome in (good, tampered):
            for sel in (None, selections):
                assert check_distillation_cell(
                    k, n1, n2, outcome, sel, verdicts=shared
                ) == check_distillation_cell(k, n1, n2, outcome, sel)
    # Two keys per cell: the first k qubits of each operand, and the last
    # k of the first with the first k of the second.
    assert len(shared) == 2 * len(list(distillation_cells(3, 8, 14)))


def test_closed_form_is_computed_once_per_cell(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return success_probability(*args)

    monkeypatch.setattr(zstates.verify, "success_probability", counted)
    res = sweep_selections(2, 6, 12, seed=5)
    assert res.passed
    assert len(calls) == res.cells
