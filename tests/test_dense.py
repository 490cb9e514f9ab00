"""Dense brute-force expansion and its agreement with the symbolic algebra."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import block_sums
from zstates import (
    DENSE_CAP,
    DenseState,
    RegisterId,
    add,
    binom,
    bit_flip,
    dense_basis,
    dense_inner,
    dense_norm_sq,
    dense_project,
    dense_z,
    inner_product,
    permute_qubits,
    project_registers,
    proportionality,
    registers_of,
    scale,
    split_register,
    tensor,
    to_dense,
    x0_state,
    z_state,
)

# ---------------------------------------------------------------- dense_z

def test_dense_z_small_cases():
    assert set(dense_z(1, 3).amplitudes) == {"100", "010", "001"}
    assert dense_z(0, 4).amplitudes == {"0000": Fraction(1)}
    assert len(dense_z(3, 6).amplitudes) == 20
    assert all(v == 1 for v in dense_z(3, 6).amplitudes.values())


def test_dense_z_cap():
    assert len(dense_z(1, DENSE_CAP).amplitudes) == DENSE_CAP
    with pytest.raises(ValueError):
        dense_z(1, DENSE_CAP + 1)
    with pytest.raises(ValueError):
        to_dense(z_state(1, DENSE_CAP + 1, "A"))


# ---------------------------------------------------------------- to_dense

def test_to_dense_single_block_matches_dense_z():
    assert to_dense(z_state(1, 3, "A")).amplitudes == dense_z(1, 3).amplitudes


def test_to_dense_is_linear_in_coefficients():
    s = scale(z_state(1, 2, "A"), Fraction(1, 2))
    assert to_dense(s).amplitudes == {"10": Fraction(1, 2), "01": Fraction(1, 2)}


def test_to_dense_split_preserves_amplitudes():
    split = split_register(z_state(2, 5, "q"), "q", 2, ("qa", "qb"))
    assert to_dense(split).amplitudes == dense_z(2, 5).amplitudes


def test_to_dense_commutes_with_merge():
    from zstates import merge_registers

    for k, n, m in [(1, 3, 1), (2, 6, 3), (3, 7, 4)]:
        split = split_register(z_state(k, n, "q"), "q", m, ("qa", "qb"))
        before = to_dense(split, register_order=(RegisterId("qa", m),
                                                 RegisterId("qb", n - m)))
        merged, ok = merge_registers(split, "qa", "qb", "out")
        assert ok
        assert to_dense(merged).amplitudes == before.amplitudes


def test_to_dense_commutes_with_tensor():
    from zstates import tensor

    a = scale(z_state(1, 2, "A"), Fraction(1, 3))
    b = z_state(2, 3, "B")
    joint = to_dense(tensor(a, b))
    expected = {}
    for sa, va in to_dense(a).amplitudes.items():
        for sb, vb in to_dense(b).amplitudes.items():
            expected[sa + sb] = va * vb
    assert joint.amplitudes == expected


def test_to_dense_register_order_controls_layout():
    pair = tensor(z_state(1, 1, "A"), z_state(1, 2, "B"))
    ra, rb = RegisterId("A", 1), RegisterId("B", 2)
    default = to_dense(pair)
    assert default.registers == (ra, rb)
    swapped = to_dense(pair, register_order=(rb, ra))
    assert swapped.registers == (rb, ra)
    assert set(default.amplitudes) == {"110", "101"}
    assert set(swapped.amplitudes) == {"101", "011"}
    with pytest.raises(ValueError):
        to_dense(pair, register_order=(ra,))


# -------------------------------------------------------------- dense_inner

def test_dense_inner_norms_and_orthogonality():
    d = dense_z(2, 4)
    assert dense_inner(d, d) == 6
    assert dense_inner(dense_z(1, 4), dense_z(2, 4)) == 0


def test_dense_inner_rejects_layout_mismatch():
    with pytest.raises(ValueError):
        dense_inner(dense_z(1, 3), to_dense(z_state(1, 3, "A")))


@settings(max_examples=60)
@given(a=block_sums(), b=block_sums())
def test_inner_product_agrees_with_dense(a, b):
    """Symbolic and dense inner products coincide whenever both are defined."""
    if a.is_zero() or b.is_zero():
        assert inner_product(a, b) == 0
        return
    if registers_of(a) != registers_of(b):
        return
    assert inner_product(a, b) == dense_inner(to_dense(a), to_dense(b))


@settings(max_examples=60)
@given(a=block_sums())
def test_bit_flip_agrees_with_dense_complement(a):
    flip = str.maketrans("01", "10")
    complemented = {s.translate(flip): v
                    for s, v in to_dense(a).amplitudes.items()}
    assert complemented == to_dense(bit_flip(a)).amplitudes


# ------------------------------------------------------------ dense_project

def test_project_two_term_state():
    state = DenseState((RegisterId("p", 2),),
                       {"10": Fraction(1), "01": Fraction(1)})
    remainder, weight = dense_project(state, [0], dense_basis("1"))
    assert remainder.amplitudes == {"0": Fraction(1)}
    assert weight == Fraction(1, 2)


def test_project_distillation_example():
    joint = to_dense(tensor(z_state(1, 3, "A"), z_state(1, 3, "B")))
    target, _ = x0_state(1, RegisterId("XA", 1), RegisterId("XB", 1))
    remainder, weight = dense_project(joint, [0, 3], to_dense(target))
    assert proportionality(remainder, dense_z(1, 4)) == 1
    assert weight == Fraction(2, 9)


def test_project_orthogonal_target_gives_zero():
    state = to_dense(z_state(1, 3, "A"))
    remainder, weight = dense_project(state, [0, 1], dense_basis("11"))
    assert remainder.is_zero()
    assert weight == 0


def test_project_errors():
    state = to_dense(z_state(1, 3, "A"))
    with pytest.raises(ValueError):
        dense_project(state, [], dense_basis(""))
    with pytest.raises(ValueError):
        dense_project(DenseState((RegisterId("q", 2),), {}), [0], dense_basis("1"))
    with pytest.raises(ValueError):
        dense_project(state, [0, 0], dense_basis("11"))
    with pytest.raises(ValueError):
        dense_project(state, [5], dense_basis("1"))
    with pytest.raises(ValueError):
        dense_project(state, [0, 1], dense_basis("1"))


def test_born_rule_completeness_over_computational_basis():
    """Projection weights over a complete orthogonal basis sum to exactly 1."""
    from itertools import product as iproduct

    states = [
        to_dense(z_state(2, 6, "q")),
        to_dense(add(scale(z_state(1, 6, "q"), Fraction(1, 3)),
                     scale(z_state(3, 6, "q"), 2))),
    ]
    for state in states:
        for measured in (2, 3, 4):
            qubits = list(range(measured))
            total = Fraction(0)
            for bits in iproduct("01", repeat=measured):
                target = dense_basis("".join(bits))
                _, weight = dense_project(state, qubits, target)
                total += weight
            assert total == 1


@settings(max_examples=60)
@given(data=st.data())
def test_project_registers_agrees_with_dense(data):
    """Symbolic partial contraction equals the dense post-selected remainder."""
    a = data.draw(block_sums(max_registers=3), label="a")
    regs = registers_of(a)
    assume(regs)
    measured = data.draw(st.lists(st.sampled_from(regs), min_size=1,
                                  unique=True), label="measured")
    target = data.draw(block_sums(registers=measured), label="target")
    assume(not target.is_zero())
    qubit_registers = [r for r in regs for _ in range(r.width)]
    qubits = [i for i, r in enumerate(qubit_registers) if r in measured]
    remainder, _ = dense_project(to_dense(a), qubits, to_dense(target))
    assert to_dense(project_registers(a, target)).amplitudes == remainder.amplitudes


# ---------------------------------------------------------- permute_qubits

def test_permute_swap():
    state = dense_basis("10")
    swapped = permute_qubits(state, [1, 0])
    assert swapped.amplitudes == {"01": Fraction(1)}
    assert permute_qubits(state, [0, 1]) == state


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute_qubits(dense_basis("10"), [0, 0])


def test_permutation_invariance_of_symmetric_sectors():
    import random
    rng = random.Random(7)
    for n in range(1, 8):
        for k in range(n + 1):
            state = dense_z(k, n)
            for _ in range(10):
                perm = list(range(n))
                rng.shuffle(perm)
                assert permute_qubits(state, perm).amplitudes == state.amplitudes


# ------------------------------------------------------------------ helpers

def test_proportionality():
    a = dense_z(1, 3)
    b = DenseState(a.registers, {s: 3 * v for s, v in a.amplitudes.items()})
    assert proportionality(b, a) == 3
    assert proportionality(DenseState(a.registers, {}), a) == 0
    assert proportionality(a, DenseState(a.registers, {})) is None
    c = dict(a.amplitudes)
    c["100"] = Fraction(2)
    assert proportionality(DenseState(a.registers, c), a) is None


def test_dense_norm_sq():
    assert dense_norm_sq(dense_z(2, 4)) == 6
    assert dense_norm_sq(DenseState((RegisterId("q", 1),), {})) == 0
