"""Symbolic algebra of unnormalized symmetric excitation states.

Z_k(n) denotes the equal-weight sum of every n-qubit basis string with
exactly k ones.  A state is a rational linear combination of tensor
products of such factors, each factor on its own named register.  States
stay unnormalized throughout: coefficients, inner products, and squared
norms are all exact `fractions.Fraction` values, and normalization is
represented by carrying a squared norm next to a state rather than by
dividing amplitudes (which would drag in irrational square roots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .combinatorics import binom

__all__ = [
    "RegisterId",
    "ZBlock",
    "BlockProduct",
    "BlockSum",
    "block_sum",
    "ZERO",
    "z_state",
    "registers_of",
    "tensor",
    "inner_product",
    "norm_sq",
    "bit_flip",
    "split_register",
    "merge_registers",
    "project_registers",
    "format_block_sum",
]

CoeffLike = Union[Fraction, int]


@dataclass(frozen=True, order=True, slots=True)
class RegisterId:
    """A named group of qubits; width is the qubit count."""

    label: str
    width: int

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("register label must be non-empty")
        if self.width < 0:
            raise ValueError(f"register width must be non-negative, got {self.width}")


@dataclass(frozen=True, order=True, slots=True)
class ZBlock:
    """One Z_k(n) factor on a register of width n."""

    register: RegisterId
    excitations: int

    def __post_init__(self) -> None:
        if not 0 <= self.excitations <= self.register.width:
            raise ValueError(
                f"excitations must lie in 0..{self.register.width}, "
                f"got {self.excitations}")

    def flipped(self) -> "ZBlock":
        return ZBlock(self.register, self.register.width - self.excitations)

    def norm_sq(self) -> int:
        return binom(self.register.width, self.excitations)


@dataclass(frozen=True, slots=True)
class BlockProduct:
    """Product of Z blocks over pairwise-distinct registers, sorted by label.

    :meth:`of` sorts the blocks and checks that their labels are distinct;
    operations whose outputs keep both invariants by construction call the
    constructor directly.  Products compare, hash and sort by their blocks.
    """

    blocks: tuple[ZBlock, ...]

    @staticmethod
    def of(blocks: Iterable[ZBlock]) -> "BlockProduct":
        ordered = tuple(sorted(blocks, key=lambda b: b.register.label))
        labels = [b.register.label for b in ordered]
        if len(set(labels)) != len(labels):
            raise ValueError("register labels within a product must be distinct")
        return BlockProduct(ordered)

    def registers(self) -> tuple[RegisterId, ...]:
        return tuple([b.register for b in self.blocks])


Term = tuple[Fraction, BlockProduct]


@dataclass(frozen=True)
class BlockSum:
    """Canonical rational combination of block products over one register set.

    Canonical means: like terms merged, zero coefficients dropped, every
    coefficient a `Fraction`, terms sorted by product blocks, and every term
    over the identical register set.  Use :func:`block_sum` to construct
    one; equality of canonical forms is exact symbolic equality.

    The operations below rely on these invariants: the products of a sum
    are pairwise distinct, the blocks of each product are sorted by label,
    and all products share one register set, so one register's position is
    the same in every term, and two terms are orthogonal unless their
    products are equal.
    """

    terms: tuple[Term, ...]

    def __str__(self) -> str:
        return format_block_sum(self)

    def is_zero(self) -> bool:
        return not self.terms


def block_sum(pairs: Iterable[tuple[CoeffLike, BlockProduct]]) -> BlockSum:
    """Canonicalize (coefficient, product) pairs into a BlockSum.

    Coefficients are summed as given; each one that survives becomes a
    `Fraction` once.
    """
    acc: dict[BlockProduct, CoeffLike] = {}
    for coeff, prod in pairs:
        old = acc.get(prod)
        acc[prod] = coeff if old is None else old + coeff
    terms = tuple(sorted(
        [(c if type(c) is Fraction else Fraction(c), p) for p, c in acc.items() if c],
        key=lambda term: term[1].blocks))
    regs = terms[0][1].registers() if terms else ()
    if any(p.registers() != regs for _, p in terms[1:]):
        raise ValueError("terms of a sum must share one register set")
    return BlockSum(terms)


ZERO = block_sum([])


def z_state(k: int, n: int, reg: Union[RegisterId, str]) -> BlockSum:
    """Single unnormalized Z_k(n) on the given register (squared norm C(n, k))."""
    if isinstance(reg, str):
        reg = RegisterId(reg, n)
    if reg.width != n:
        raise ValueError(f"register width {reg.width} does not match n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"excitation count must lie in 0..{n}, got {k}")
    # One term with coefficient 1 on one block is already canonical.
    return BlockSum(((Fraction(1), BlockProduct((ZBlock(reg, k),))),))


def registers_of(a: BlockSum) -> tuple[RegisterId, ...]:
    """Register set of the sum, in canonical label order (empty for zero sums)."""
    return a.terms[0][1].registers() if a.terms else ()


def tensor(a: BlockSum, b: BlockSum) -> BlockSum:
    """Distributive product of sums over disjoint register sets."""
    overlap = ({r.label for r in registers_of(a)}
               & {r.label for r in registers_of(b)})
    if overlap:
        raise ValueError(f"register labels overlap: {sorted(overlap)}")
    return block_sum([(ca * cb, BlockProduct.of(pa.blocks + pb.blocks))
                      for ca, pa in a.terms for cb, pb in b.terms])


def _norm_sq(prod: BlockProduct) -> int:
    """Squared norm of one product: the product of its blocks' C(width, k)."""
    return math.prod([b.norm_sq() for b in prod.blocks])


def inner_product(a: BlockSum, b: BlockSum) -> Fraction:
    """Exact <a|b>, computed factor-wise.

    Factors with different excitation counts on the same register are
    orthogonal; matching factors contribute C(width, k).  Amplitudes are
    real, so no conjugation is involved.  Both sums are canonical over one
    register set, so only equal products pair up.
    """
    if a.is_zero() or b.is_zero():
        return Fraction(0)
    if registers_of(a) != registers_of(b):
        raise ValueError("inner product requires matching register sets")
    b_coeffs = {p: c for c, p in b.terms}
    return sum([ca * b_coeffs[p] * _norm_sq(p)
                for ca, p in a.terms if p in b_coeffs], Fraction(0))


def norm_sq(a: BlockSum) -> Fraction:
    return inner_product(a, a)


def bit_flip(a: BlockSum) -> BlockSum:
    """Exchange the roles of 0 and 1: every Z_k(n) factor becomes Z_{n-k}(n)."""
    return block_sum([
        (c, BlockProduct(tuple([b.flipped() for b in p.blocks])))
        for c, p in a.terms])


def _position(labels: list[str], label: str) -> int:
    if label not in labels:
        raise ValueError(f"unknown register {label!r}")
    return labels.index(label)


def split_register(a: BlockSum, label: str, m: int,
                   new_labels: tuple[str, str]) -> BlockSum:
    """Rewrite every Z_k(N) factor on `label` as a sum of two-part factorizations.

    Z_k(N) becomes the sum of Z_j(m) Z_{k-j}(N-m) over two fresh registers,
    with j running over the values for which both parts have at least one
    basis string (so out-of-range summands simply never appear).  The dense
    expansion of the sum is preserved exactly.
    """
    regs = registers_of(a)
    labels = [r.label for r in regs]
    pos = _position(labels, label)
    width = regs[pos].width
    if not 0 <= m <= width:
        raise ValueError(f"split point must lie in 0..{width}, got {m}")
    label_left, label_right = new_labels
    if label_left == label_right:
        raise ValueError("new labels must be distinct")
    remaining = labels[:pos] + labels[pos + 1:]
    if label_left in remaining or label_right in remaining:
        raise ValueError("new labels collide with existing registers")
    reg_left = RegisterId(label_left, m)
    reg_right = RegisterId(label_right, width - m)
    pairs = []
    for coeff, prod in a.terms:
        k = prod.blocks[pos].excitations
        rest = prod.blocks[:pos] + prod.blocks[pos + 1:]
        for j in range(max(0, k - reg_right.width), min(m, k) + 1):
            pairs.append((coeff, BlockProduct.of(
                rest + (ZBlock(reg_left, j), ZBlock(reg_right, k - j)))))
    return block_sum(pairs)


def merge_registers(a: BlockSum, label_left: str, label_right: str,
                    new_label: str) -> tuple[BlockSum, bool]:
    """Inverse of :func:`split_register`, as an all-or-nothing pattern match.

    The two registers collapse into one of combined width whenever, for every
    group of terms agreeing outside them, the excitation splittings form the
    complete two-part factorization pattern with one common coefficient.
    Otherwise the input is returned unchanged with a False indicator; nothing
    is ever partially collected, so canonical forms stay unique.
    """
    regs = registers_of(a)
    labels = [r.label for r in regs]
    li, ri = _position(labels, label_left), _position(labels, label_right)
    if li == ri:
        raise ValueError("left and right registers must differ")
    if new_label in set(labels) - {label_left, label_right}:
        raise ValueError(f"label {new_label!r} already in use")
    left, right = regs[li], regs[ri]
    merged = RegisterId(new_label, left.width + right.width)

    # (rest blocks, total) -> coefficient by left count
    groups: dict[tuple[tuple[ZBlock, ...], int], dict[int, Fraction]] = {}
    for coeff, prod in a.terms:
        rest = tuple([b for i, b in enumerate(prod.blocks) if i != li and i != ri])
        j = prod.blocks[li].excitations
        groups.setdefault((rest, j + prod.blocks[ri].excitations), {})[j] = coeff

    collected = []
    for (rest, total), by_j in groups.items():
        lo = max(0, total - right.width)
        hi = min(left.width, total)
        if set(by_j) != set(range(lo, hi + 1)):
            return a, False
        coeffs = set(by_j.values())
        if len(coeffs) != 1:
            return a, False
        collected.append((coeffs.pop(),
                          BlockProduct.of(rest + (ZBlock(merged, total),))))
    return block_sum(collected), True


def project_registers(a: BlockSum, target: BlockSum) -> BlockSum:
    """Partial inner product: contract `a` with `target` over the target's registers.

    Every register of the target must appear in `a` with the same width; the
    result lives on the remaining registers.
    """
    if target.is_zero():
        raise ValueError("projection target must be nonzero")
    if a.is_zero():
        return ZERO
    a_regs = registers_of(a)
    labels = [r.label for r in a_regs]
    target_regs = registers_of(target)
    for r in target_regs:
        if r not in a_regs:
            raise ValueError(
                f"target register {r.label!r} not present with matching width")
    # A term of `a` meets the target term whose excitations match its own on
    # the target's registers, taken in the target's (label) order.
    weights = {tuple([b.excitations for b in pt.blocks]): ct * _norm_sq(pt)
               for ct, pt in target.terms}
    pos = [labels.index(r.label) for r in target_regs]
    keep = [i for i in range(len(labels)) if i not in pos]
    pairs = []
    for ca, pa in a.terms:
        weight = weights.get(tuple([pa.blocks[i].excitations for i in pos]))
        if weight is not None:
            pairs.append((weight * ca,
                          BlockProduct(tuple([pa.blocks[i] for i in keep]))))
    return block_sum(pairs)


def format_block_sum(a: BlockSum) -> str:
    """One term per line: `coeff * Z_k^label(n) ⊗ ...`; the zero sum prints `0`."""
    if a.is_zero():
        return "0"
    lines = []
    for coeff, prod in a.terms:
        if prod.blocks:
            factors = " ⊗ ".join(
                f"Z_{b.excitations}^{b.register.label}({b.register.width})"
                for b in prod.blocks)
        else:
            factors = "1"
        lines.append(f"{coeff} * {factors}")
    return "\n".join(lines)
