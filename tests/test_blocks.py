"""Symbolic block algebra: construction, products, splitting, merging."""

from fractions import Fraction

import pytest
from hypothesis import given

from conftest import block_sums
from zstates import (
    UNIT,
    ZERO,
    BlockProduct,
    BlockSum,
    RegisterId,
    ZBlock,
    add,
    binom,
    bit_flip,
    block_sum,
    format_block_sum,
    inner_product,
    merge_registers,
    norm_sq,
    registers_of,
    scale,
    split_register,
    tensor,
    z_state,
)


# ---------------------------------------------------------------- z_state

def test_z_state_is_single_unit_term():
    s = z_state(1, 3, "A")
    assert len(s.terms) == 1
    coeff, prod = s.terms[0]
    assert coeff == 1
    assert prod.blocks == (ZBlock(RegisterId("A", 3), 1),)


def test_z_state_rejects_out_of_range_k():
    with pytest.raises(ValueError):
        z_state(4, 3, "A")
    with pytest.raises(ValueError):
        z_state(-1, 3, "A")


def test_z_state_rejects_width_mismatch():
    with pytest.raises(ValueError):
        z_state(1, 3, RegisterId("A", 2))


# ----------------------------------------------------------------- tensor

def test_tensor_single_terms():
    t = tensor(z_state(1, 3, "A"), z_state(1, 3, "B"))
    assert len(t.terms) == 1
    assert len(t.terms[0][1].blocks) == 2


def test_tensor_with_unit_is_identity():
    a = tensor(z_state(1, 3, "A"), z_state(2, 4, "B"))
    assert tensor(a, UNIT) == a
    assert tensor(UNIT, a) == a


def test_tensor_is_bilinear():
    x = z_state(1, 2, "A")
    y = z_state(2, 2, "A")
    z = z_state(1, 3, "B")
    lhs = tensor(add(scale(x, Fraction(1, 2)), y), z)
    rhs = add(scale(tensor(x, z), Fraction(1, 2)), tensor(y, z))
    assert lhs == rhs


def test_tensor_rejects_overlapping_registers():
    with pytest.raises(ValueError):
        tensor(z_state(1, 3, "A"), z_state(1, 2, "A"))


# ---------------------------------------------------------- inner products

def test_inner_product_norm_cases():
    assert inner_product(z_state(3, 6, "A"), z_state(3, 6, "A")) == 20
    assert inner_product(z_state(1, 3, "A"), z_state(2, 3, "A")) == 0
    pair = tensor(z_state(1, 2, "A"), z_state(1, 2, "B"))
    assert inner_product(pair, pair) == 4


def test_inner_product_rejects_register_mismatch():
    with pytest.raises(ValueError):
        inner_product(z_state(1, 3, "A"), z_state(1, 3, "B"))
    with pytest.raises(ValueError):
        inner_product(z_state(1, 3, "A"), z_state(1, 4, RegisterId("A", 4)))


def test_sector_orthogonality():
    for n in range(11):
        for j in range(n + 1):
            for l in range(n + 1):
                got = inner_product(z_state(j, n, "q"), z_state(l, n, "q"))
                assert got == (binom(n, j) if j == l else 0)


def test_norm_law_to_16():
    for n in range(17):
        for k in range(n + 1):
            assert norm_sq(z_state(k, n, "q")) == binom(n, k)


def test_norm_of_zero_sum():
    assert norm_sq(ZERO) == 0
    assert norm_sq(z_state(2, 4, "q")) == 6


# ------------------------------------------------------------------ split

def test_split_w_state():
    s = split_register(z_state(1, 3, "q"), "q", 1, ("a", "b"))
    expected = block_sum([
        (1, BlockProduct.of((ZBlock(RegisterId("a", 1), 1),
                             ZBlock(RegisterId("b", 2), 0)))),
        (1, BlockProduct.of((ZBlock(RegisterId("a", 1), 0),
                             ZBlock(RegisterId("b", 2), 1)))),
    ])
    assert s == expected


def test_split_at_zero_keeps_single_term():
    s = split_register(z_state(2, 5, "q"), "q", 0, ("a", "b"))
    assert len(s.terms) == 1
    blocks = s.terms[0][1].blocks
    assert (blocks[0].register.width, blocks[0].excitations) == (0, 0)
    assert (blocks[1].register.width, blocks[1].excitations) == (5, 2)


def test_split_term_count_matches_nonzero_products():
    for n in range(9):
        for k in range(n + 1):
            for m in range(n + 1):
                s = split_register(z_state(k, n, "q"), "q", m, ("a", "b"))
                expected = sum(1 for j in range(k + 1)
                               if binom(m, j) * binom(n - m, k - j) > 0)
                assert len(s.terms) == expected


def test_split_errors():
    s = z_state(2, 4, "q")
    with pytest.raises(ValueError):
        split_register(s, "nope", 2, ("a", "b"))
    with pytest.raises(ValueError):
        split_register(s, "q", 5, ("a", "b"))
    with pytest.raises(ValueError):
        split_register(s, "q", 2, ("a", "a"))
    two = tensor(s, z_state(1, 2, "r"))
    with pytest.raises(ValueError):
        split_register(two, "q", 2, ("r", "b"))


# ------------------------------------------------------------------ merge

def test_merge_round_trip():
    for n in range(1, 11):
        for k in range(n + 1):
            for m in range(n + 1):
                s = split_register(z_state(k, n, "q"), "q", m, ("a", "b"))
                merged, ok = merge_registers(s, "a", "b", "q")
                assert ok
                assert merged == z_state(k, n, "q")


def test_merge_incomplete_pattern_is_not_collectible():
    lone = block_sum([(1, BlockProduct.of((ZBlock(RegisterId("a", 1), 1),
                                           ZBlock(RegisterId("b", 2), 1))))])
    merged, ok = merge_registers(lone, "a", "b", "q")
    assert not ok
    assert merged == lone


def test_merge_unequal_coefficients_is_not_collectible():
    pattern = block_sum([
        (1, BlockProduct.of((ZBlock(RegisterId("a", 1), 1),
                             ZBlock(RegisterId("b", 2), 0)))),
        (2, BlockProduct.of((ZBlock(RegisterId("a", 1), 0),
                             ZBlock(RegisterId("b", 2), 1)))),
    ])
    merged, ok = merge_registers(pattern, "a", "b", "q")
    assert not ok
    assert merged == pattern


def test_merge_scaled_complete_pattern():
    """A uniformly scaled complete pattern collects, keeping its coefficient."""
    k, n1, n2 = 2, 6, 7
    coeff = Fraction(4, 9)
    pairs = []
    for j in range(k + 1):
        pairs.append((coeff, BlockProduct.of((
            ZBlock(RegisterId("A", n1 - k), j),
            ZBlock(RegisterId("B", n2 - k), k - j)))))
    merged, ok = merge_registers(block_sum(pairs), "A", "B", "out")
    assert ok
    assert merged == scale(z_state(k, n1 + n2 - 2 * k, "out"), coeff)


def test_merge_unknown_register():
    with pytest.raises(ValueError):
        merge_registers(z_state(1, 3, "q"), "q", "nope", "out")


# --------------------------------------------------------------- bit flip

def test_bit_flip_maps_excitations():
    assert bit_flip(z_state(1, 3, "q")) == z_state(2, 3, "q")
    assert bit_flip(z_state(2, 4, "q")) == z_state(2, 4, "q")


@given(a=block_sums())
def test_bit_flip_involution_and_norm(a):
    assert bit_flip(bit_flip(a)) == a
    assert norm_sq(bit_flip(a)) == norm_sq(a)


# ------------------------------------------------------- canonical form

@given(a=block_sums())
def test_canonical_form_idempotent(a):
    assert block_sum(a.terms) == a


def test_like_terms_merge_and_zeros_drop():
    prod = BlockProduct.of((ZBlock(RegisterId("q", 3), 1),))
    merged = block_sum([(1, prod), (2, prod)])
    assert merged == scale(z_state(1, 3, "q"), 3)
    assert block_sum([(1, prod), (-1, prod)]) == ZERO
    for s in (merged, block_sum([(5, prod)]), z_state(1, 3, "q")):
        assert all(type(coeff) is Fraction for coeff, _ in s.terms)


def test_product_key_ignores_construction_order():
    x = ZBlock(RegisterId("x", 2), 1)
    y = ZBlock(RegisterId("y", 3), 2)
    xy, yx = BlockProduct.of((x, y)), BlockProduct.of((y, x))
    assert xy.blocks == yx.blocks == (x, y)
    assert xy == yx
    assert hash(xy) == hash(yx)
    assert xy != BlockProduct.of((x, ZBlock(RegisterId("y", 3), 1)))
    assert xy != BlockProduct.of((x, ZBlock(RegisterId("y", 4), 2)))
    with pytest.raises(ValueError):
        BlockProduct.of((x, ZBlock(RegisterId("x", 3), 0)))


def test_mixed_register_sets_rejected():
    with pytest.raises(ValueError):
        add(z_state(1, 3, "A"), z_state(1, 3, "B"))


# ------------------------------------------------------------- formatting

def test_format_block_sum():
    s = split_register(z_state(1, 3, "q"), "q", 1, ("a", "b"))
    assert format_block_sum(s) == ("1 * Z_0^a(1) ⊗ Z_1^b(2)\n"
                                   "1 * Z_1^a(1) ⊗ Z_0^b(2)")
    assert format_block_sum(ZERO) == "0"
    assert format_block_sum(scale(UNIT, Fraction(3, 2))) == "3/2 * 1"
    assert str(scale(z_state(1, 2, "A"), Fraction(1, 2))) == "1/2 * Z_1^A(2)"
