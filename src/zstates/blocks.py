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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

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


@dataclass(frozen=True, eq=False, slots=True)
class BlockProduct:
    """Product of Z blocks over pairwise-distinct registers, sorted by label.

    :meth:`of` sorts the blocks and checks that their labels are distinct;
    the algebra's own operations, whose outputs keep both invariants by
    construction, call the constructor directly.  The key is computed once,
    at construction: ``(label, width, excitations)`` of every block in
    block order, flattened into one tuple.  Equality and hashing read it,
    so two products are equal exactly when their blocks are.
    """

    blocks: tuple[ZBlock, ...]
    _key: tuple[Union[str, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", tuple([
            x for b in self.blocks
            for x in (b.register.label, b.register.width, b.excitations)]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockProduct):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

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
    coefficient a `Fraction`, terms sorted by product key, and every term
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


def _register_key(prod: BlockProduct) -> tuple[tuple, tuple]:
    """The register part of a product's key: its labels and its widths."""
    return prod._key[0::3], prod._key[1::3]


def block_sum(pairs: Iterable[tuple[CoeffLike, BlockProduct]]) -> BlockSum:
    """Canonicalize (coefficient, product) pairs into a BlockSum.

    Coefficients are summed as given; each one that survives becomes a
    `Fraction` once.
    """
    acc: dict[tuple, list] = {}
    for coeff, prod in pairs:
        slot = acc.get(prod._key)
        if slot is None:
            acc[prod._key] = [coeff, prod]
        else:
            slot[0] += coeff
    terms = tuple([(c if type(c) is Fraction else Fraction(c), p)
                   for _, (c, p) in sorted(acc.items()) if c])
    if len(terms) > 1:
        regs = _register_key(terms[0][1])
        for _, prod in terms[1:]:
            if _register_key(prod) != regs:
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


def _label_order(labels: list[str]) -> Optional[list[int]]:
    """Positions that put `labels` in sorted order; None if they already are."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    return None if order == list(range(len(labels))) else order


def tensor(a: BlockSum, b: BlockSum) -> BlockSum:
    """Distributive product of sums over disjoint register sets."""
    a_labels = [r.label for r in registers_of(a)]
    b_labels = [r.label for r in registers_of(b)]
    overlap = set(a_labels) & set(b_labels)
    if overlap:
        raise ValueError(f"register labels overlap: {sorted(overlap)}")
    # Every term of a sum has the same labels, so one permutation sorts
    # every concatenated product.
    order = _label_order(a_labels + b_labels)
    pairs = []
    for ca, pa in a.terms:
        for cb, pb in b.terms:
            blocks = pa.blocks + pb.blocks
            if order is not None:
                blocks = tuple([blocks[i] for i in order])
            pairs.append((Fraction(ca.numerator * cb.numerator,
                                   ca.denominator * cb.denominator),
                          BlockProduct(blocks)))
    return block_sum(pairs)


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
    if _register_key(a.terms[0][1]) != _register_key(b.terms[0][1]):
        raise ValueError("inner product requires matching register sets")
    # Sum numerators over a running denominator; one Fraction at the end.
    b_coeffs = None if a is b else {p._key: c for c, p in b.terms}
    num, den = 0, 1
    for ca, pa in a.terms:
        cb = ca if b_coeffs is None else b_coeffs.get(pa._key)
        if cb is None:
            continue
        n = ca.numerator * cb.numerator * _norm_sq(pa)
        d = ca.denominator * cb.denominator
        if d == den:
            num += n
        else:
            num, den = num * d + n * den, den * d
    return Fraction(num, den)


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
    order = _label_order(remaining + [label_left, label_right])
    pairs = []
    for coeff, prod in a.terms:
        k = prod.blocks[pos].excitations
        rest = prod.blocks[:pos] + prod.blocks[pos + 1:]
        lo = max(0, k - reg_right.width)
        hi = min(reg_left.width, k)
        for j in range(lo, hi + 1):
            blocks = rest + (ZBlock(reg_left, j), ZBlock(reg_right, k - j))
            if order is not None:
                blocks = tuple([blocks[i] for i in order])
            pairs.append((coeff, BlockProduct(blocks)))
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
    rest_pos = [i for i in range(len(labels)) if i != li and i != ri]

    # (rest excitations, total) -> (rest blocks, coefficient by left count)
    groups: dict[tuple[tuple[int, ...], int],
                 tuple[tuple[ZBlock, ...], dict[int, Fraction]]] = {}
    for coeff, prod in a.terms:
        excs = prod._key[2::3]
        j = excs[li]
        group_key = (tuple([excs[i] for i in rest_pos]), j + excs[ri])
        group = groups.get(group_key)
        if group is None:
            group = groups[group_key] = (
                tuple([prod.blocks[i] for i in rest_pos]), {})
        group[1][j] = coeff

    collected = []
    for (_, total), (rest, by_j) in groups.items():
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
    # Index a's terms by their excitations on the target's registers, taken
    # in the target's (label) order, so a target term meets only its matches.
    pos = [labels.index(r.label) for r in target_regs]
    target_labels = {r.label for r in target_regs}
    keep = [i for i, label in enumerate(labels) if label not in target_labels]
    index: dict[tuple[int, ...], list[Term]] = {}
    for ca, pa in a.terms:
        excs = pa._key[2::3]
        index.setdefault(tuple([excs[i] for i in pos]), []).append((ca, pa))
    pairs = []
    for ct, pt in target.terms:
        matches = index.get(pt._key[2::3])
        if matches:
            weight = ct.numerator * _norm_sq(pt)
            for ca, pa in matches:
                pairs.append((
                    Fraction(weight * ca.numerator, ct.denominator * ca.denominator),
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
