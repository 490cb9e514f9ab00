"""The projection target and the 2k-local distillation step."""

import random
from fractions import Fraction

import pytest

from zstates import (
    NotCollectibleError,
    RegisterId,
    dense_norm_sq,
    distill_step,
    norm_sq,
    success_probability,
    to_dense,
    x0_alpha,
    x0_beta_sq,
    x0_state,
    z_state,
)
from zstates.verify import check_distillation_cell, distillation_cells


def _regs(k):
    return RegisterId("XA", k), RegisterId("XB", k)


# ------------------------------------------------------- projection target

def test_x0_k1_is_the_symmetric_pair():
    state, spec = x0_state(1, *_regs(1))
    assert sorted(to_dense(state).amplitudes) == ["01", "10"]
    assert spec.alpha == (Fraction(1), Fraction(1))
    assert spec.beta_sq == Fraction(1, 2)


def test_x0_k2_weights_and_norm():
    state, spec = x0_state(2, *_regs(2))
    assert spec.alpha == (Fraction(1), Fraction(1, 4), Fraction(1))
    assert spec.beta_sq == Fraction(4, 9)
    assert norm_sq(state) == Fraction(9, 4)


@pytest.mark.parametrize("k", range(1, 7))
def test_x0_normalization_identity(k):
    state, spec = x0_state(k, *_regs(k))
    assert norm_sq(state) * spec.beta_sq == 1
    assert spec.beta_sq == x0_beta_sq(k)
    assert spec.alpha == x0_alpha(k)
    if 2 * k <= 14:
        assert dense_norm_sq(to_dense(state)) * spec.beta_sq == 1


def test_x0_lies_in_the_k_sector():
    state, _ = x0_state(3, *_regs(3))
    assert all(s.count("1") == 3 for s in to_dense(state).amplitudes)


def test_x0_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        x0_state(0, RegisterId("XA", 0), RegisterId("XB", 0))
    with pytest.raises(ValueError):
        x0_state(2, RegisterId("XA", 1), RegisterId("XB", 2))
    with pytest.raises(ValueError):
        x0_state(1, RegisterId("X", 1), RegisterId("X", 1))
    with pytest.raises(ValueError):
        x0_state(2, *_regs(2), alpha=[1, 1])


# ------------------------------------------------------ success probability

@pytest.mark.parametrize("k, n1, n2, expected", [
    (1, 3, 3, Fraction(2, 9)),
    (1, 3, 4, Fraction(5, 24)),
    (2, 5, 5, Fraction(1, 15)),
])
def test_success_probability_frozen_values(k, n1, n2, expected):
    """Values frozen from the dense oracle; the cell check recomputes them."""
    assert success_probability(k, n1, n2) == expected
    assert check_distillation_cell(k, n1, n2) == []


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
        assert check_distillation_cell(k, n1, n2) == [], (k, n1, n2)


def test_selection_invariance_spot_checks():
    rng = random.Random(11)
    for k, n1, n2 in [(1, 3, 5), (2, 4, 6), (3, 6, 7)]:
        for _ in range(5):
            selection = (tuple(rng.sample(range(n1), k)),
                         tuple(rng.sample(range(n2), k)))
            assert check_distillation_cell(k, n1, n2, selection=selection) == []


def test_selection_indexes_its_own_operand():
    with pytest.raises(ValueError):
        check_distillation_cell(1, 3, 3, selection=((3,), (0,)))
