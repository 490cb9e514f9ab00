"""Dense brute-force expansion and its agreement with the symbolic algebra."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import block_sums, linear_combination
from zstates import (
    DENSE_CAP,
    DenseState,
    RegisterId,
    binom,
    bit_flip,
    dense_inner,
    dense_project,
    dense_z,
    inner_product,
    permute_qubits,
    project_registers,
    proportionality,
    registers_of,
    split_register,
    tensor,
    to_dense,
    x0_state,
    z_state,
)


def basis_state(bits: str) -> DenseState:
    """The basis state of one bit string, amplitude 1."""
    return DenseState(len(bits), {int(bits or "0", 2): 1})


# ---------------------------------------------------------------- dense_z

def test_dense_z_small_cases():
    assert set(dense_z(1, 3).amplitudes) == {0b100, 0b010, 0b001}
    assert dense_z(0, 4) == DenseState(4, {0b0000: 1})
    assert len(dense_z(3, 6).amplitudes) == 20
    z = dense_z(3, 6)
    assert z.scale == 1 and all(v == 1 for v in z.amplitudes.values())


def test_dense_z_cap():
    assert len(dense_z(1, DENSE_CAP).amplitudes) == DENSE_CAP
    with pytest.raises(ValueError):
        dense_z(1, DENSE_CAP + 1)
    with pytest.raises(ValueError):
        to_dense(z_state(1, DENSE_CAP + 1, "A"))


# ---------------------------------------------------------------- to_dense

def test_to_dense_single_block_matches_dense_z():
    assert to_dense(z_state(1, 3, "A")) == dense_z(1, 3)


def test_to_dense_is_linear_in_coefficients():
    s = linear_combination((Fraction(1, 2), z_state(1, 2, "A")))
    assert to_dense(s) == DenseState(2, {0b10: 1, 0b01: 1}, Fraction(1, 2))


def test_to_dense_split_preserves_amplitudes():
    split = split_register(z_state(2, 5, "q"), "q", 2, ("qa", "qb"))
    assert to_dense(split) == dense_z(2, 5)


def test_to_dense_commutes_with_merge():
    from zstates import merge_registers

    for k, n, m in [(1, 3, 1), (2, 6, 3), (3, 7, 4)]:
        split = split_register(z_state(k, n, "q"), "q", m, ("qa", "qb"))
        before = to_dense(split)
        merged, ok = merge_registers(split, "qa", "qb", "out")
        assert ok
        assert to_dense(merged) == before


def test_to_dense_commutes_with_tensor():
    from zstates import tensor

    a = linear_combination((Fraction(1, 3), z_state(1, 2, "A")))
    b = z_state(2, 3, "B")
    joint = to_dense(tensor(a, b))
    da, db = to_dense(a), to_dense(b)
    expected = {(ka << db.width) | kb: va * vb
                for ka, va in da.amplitudes.items()
                for kb, vb in db.amplitudes.items()}
    assert joint == DenseState(da.width + db.width, expected, da.scale * db.scale)


# -------------------------------------------------------------- dense_inner

def test_dense_inner_norms_and_orthogonality():
    d = dense_z(2, 4)
    assert dense_inner(d, d) == 6
    assert dense_inner(dense_z(1, 4), dense_z(2, 4)) == 0


def test_dense_inner_rejects_layout_mismatch():
    """A state's layout is its width: states of different widths do not pair."""
    with pytest.raises(ValueError):
        dense_inner(dense_z(1, 3), to_dense(z_state(1, 4, "A")))


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
    d = to_dense(a)
    ones = (1 << d.width) - 1
    complemented = DenseState(d.width, {key ^ ones: v
                                        for key, v in d.amplitudes.items()},
                              d.scale)
    assert complemented == to_dense(bit_flip(a))


# ------------------------------------------------------------ dense_project

def test_project_two_term_state():
    state = DenseState(2, {0b10: 1, 0b01: 1})
    remainder, weight = dense_project(state, [0], basis_state("1"))
    assert remainder == DenseState(1, {0b0: 1})
    assert weight == Fraction(1, 2)


def test_project_distillation_example():
    joint = to_dense(tensor(z_state(1, 3, "A"), z_state(1, 3, "B")))
    target = x0_state(1, RegisterId("XA", 1), RegisterId("XB", 1))
    remainder, weight = dense_project(joint, [0, 3], to_dense(target))
    assert proportionality(remainder, dense_z(1, 4)) == 1
    assert weight == Fraction(2, 9)


def test_project_orthogonal_target_gives_zero():
    state = to_dense(z_state(1, 3, "A"))
    remainder, weight = dense_project(state, [0, 1], basis_state("11"))
    assert remainder.is_zero()
    assert weight == 0


def test_project_errors():
    state = to_dense(z_state(1, 3, "A"))
    with pytest.raises(ValueError):
        dense_project(state, [], basis_state(""))
    with pytest.raises(ValueError):
        dense_project(DenseState(2, {}), [0], basis_state("1"))
    with pytest.raises(ValueError):
        dense_project(state, [0, 0], basis_state("11"))
    with pytest.raises(ValueError):
        dense_project(state, [5], basis_state("1"))
    with pytest.raises(ValueError):
        dense_project(state, [0, 1], basis_state("1"))


def test_born_rule_completeness_over_computational_basis():
    """Projection weights over a complete orthogonal basis sum to exactly 1."""
    states = [
        to_dense(z_state(2, 6, "q")),
        to_dense(linear_combination((Fraction(1, 3), z_state(1, 6, "q")),
                                    (2, z_state(3, 6, "q")))),
    ]
    for state in states:
        for measured in (2, 3, 4):
            qubits = list(range(measured))
            total = Fraction(0)
            for x in range(2 ** measured):
                target = DenseState(measured, {x: 1})
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
    symbolic = to_dense(project_registers(a, target))
    # A zero sum has no registers, so it expands to width 0.
    assert symbolic == remainder or symbolic.is_zero() and remainder.is_zero()


# ---------------------------------------------------------- permute_qubits

def test_permute_swap():
    state = basis_state("10")
    swapped = permute_qubits(state, [1, 0])
    assert swapped == DenseState(state.width, {0b01: 1})
    assert permute_qubits(state, [0, 1]) == state


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute_qubits(basis_state("10"), [0, 0])


def test_permutation_invariance_of_symmetric_sectors():
    import random
    rng = random.Random(7)
    for n in range(1, 8):
        for k in range(n + 1):
            state = dense_z(k, n)
            for _ in range(10):
                perm = list(range(n))
                rng.shuffle(perm)
                assert permute_qubits(state, perm) == state


# ------------------------------------------------------------------ helpers

def test_proportionality():
    a = dense_z(1, 3)
    b = DenseState(a.width, {s: 3 * v for s, v in a.amplitudes.items()})
    assert proportionality(b, a) == 3
    assert proportionality(DenseState(a.width, {}), a) == 0
    assert proportionality(a, DenseState(a.width, {})) is None
    c = dict(a.amplitudes)
    c[0b100] = 2
    assert proportionality(DenseState(a.width, c), a) is None


def test_dense_norm_sq():
    d, zero = dense_z(2, 4), DenseState(1, {})
    assert dense_inner(d, d) == 6
    assert dense_inner(zero, zero) == 0
