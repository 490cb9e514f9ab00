"""Brute-force dense expansion over computational basis states.

The independent cross-check for the symbolic engine: states become sparse
maps from basis states to exact amplitudes, so any algebraic claim can be
replayed amplitude by amplitude.  A basis state is an int bitmask: the
qubit at position i of a `width`-qubit state is bit `width - 1 - i`, so
the key of the basis string s is `int(s, 2)`.  Amplitudes are ints with
one exact `Fraction` scale per state; the value on a key is
`scale * amplitudes[key]`.  Only nonzero amplitudes are stored, and
fixed-weight sectors are enumerated mask by mask rather than by scanning
all 2**n basis states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .blocks import BlockSum, registers_of

__all__ = [
    "DENSE_CAP",
    "DenseState",
    "dense_z",
    "to_dense",
    "dense_inner",
    "dense_project",
    "permute_qubits",
    "proportionality",
]

# Widest exact dense expansion we are willing to build: the oracle's reach.
DENSE_CAP = 22


@dataclass(frozen=True)
class DenseState:
    """Sparse map from basis-state bitmasks of `width` qubits to int
    amplitudes, all multiplied by one exact `scale`.

    The form is canonical: construction divides out the amplitudes' common
    factor and makes the scale positive (1 for the zero state).  With only
    nonzero amplitudes stored, `==` then compares exact values, scale
    included, of states of equal width.
    """

    width: int
    amplitudes: dict[int, int]
    scale: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        amps, scale = self.amplitudes, self.scale
        if type(scale) is not Fraction:
            scale = Fraction(scale)
        divisor = math.gcd(*amps.values()) if scale.numerator else 0
        if divisor == 0:
            amps, scale = {}, Fraction(1)
        elif divisor != 1 or scale.numerator < 0:
            divisor = divisor if scale.numerator > 0 else -divisor
            amps = {key: v // divisor for key, v in amps.items()}
            scale *= divisor
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "scale", scale)

    def is_zero(self) -> bool:
        return not self.amplitudes


def _weight_masks(n: int, k: int) -> list[int]:
    """Every n-bit mask with k ones, in increasing order (Gosper's hack)."""
    if k == 0:
        return [0]
    masks = []
    mask = (1 << k) - 1
    while mask >> n == 0:
        masks.append(mask)
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple
    return masks


def _mover(dest: Sequence[int]) -> tuple[list[int], list[int], int, int]:
    """Tables that move the qubit at each position p to position dest[p]:
    a key becomes `low[key & low_mask] | high[key >> split]`."""
    width = len(dest)
    split = width // 2
    tables = []
    for bits in (range(split), range(split, width)):
        table = [0]
        for b in bits:  # key bit b is position width-1-b
            move = 1 << (width - 1 - dest[width - 1 - b])
            table += [t | move for t in table]
        tables.append(table)
    return tables[0], tables[1], (1 << split) - 1, split


def _check_cap(width: int) -> None:
    if width > DENSE_CAP:
        raise ValueError(f"{width} qubits exceed the dense cap of {DENSE_CAP}")


def dense_z(k: int, n: int) -> DenseState:
    """Amplitude 1 on every weight-k basis state of n qubits (C(n, k) entries)."""
    _check_cap(n)
    if not 0 <= k <= n:
        raise ValueError(f"excitation count must lie in 0..{n}, got {k}")
    return DenseState(n, dict.fromkeys(_weight_masks(n, k), 1))


def to_dense(a: BlockSum) -> DenseState:
    """Expand a block sum faithfully; linear in the coefficients.

    Tensor order follows the sum's canonical label order.  The scale is the
    gcd of the coefficients' numerators over the lcm of their denominators,
    so every term's amplitude is an int.
    """
    width = sum(r.width for r in registers_of(a))
    _check_cap(width)
    common = math.gcd(*[c.numerator for c, _ in a.terms])
    denominator = math.lcm(*[c.denominator for c, _ in a.terms])
    amps: dict[int, int] = {}
    for coeff, prod in a.terms:
        # A product's blocks are in the sum's register order, and the
        # products of a canonical sum are distinct, so no two terms share
        # a basis state.
        keys, shift = [0], width
        for b in prod.blocks:
            shift -= b.register.width
            masks = _weight_masks(b.register.width, b.excitations)
            keys = [high | (m << shift) for high in keys for m in masks]
        amp = coeff.numerator * (denominator // coeff.denominator) // common
        amps.update(dict.fromkeys(keys, amp))
    return DenseState(width, amps, Fraction(common, denominator))


def _sum_sq(amplitudes: dict[int, int]) -> int:
    values = amplitudes.values()
    return sum(map(mul, values, values))


def dense_inner(a: DenseState, b: DenseState) -> Fraction:
    """Sum over basis states of the product of amplitudes (real, no conjugation)."""
    if a.width != b.width:
        raise ValueError("dense inner product requires equal widths")
    if len(a.amplitudes) > len(b.amplitudes):
        a, b = b, a
    other = b.amplitudes
    total = sum(v * other[key] for key, v in a.amplitudes.items() if key in other)
    return a.scale * b.scale * total


def dense_project(state: DenseState, qubits: Sequence[int],
                  target: DenseState) -> tuple[DenseState, Fraction]:
    """Post-selected projective measurement on a subset of qubit positions.

    remainder(y) collects target(x) * state(x, y) over assignments x of the
    measured positions (taken in the order given).  The returned weight is
    the Born probability of the target outcome with state and target both
    read as normalized:  |remainder|^2 / (|state|^2 * |target|^2).  The
    remainder itself stays unnormalized; the complementary outcome has
    probability 1 - weight and is not materialized.  The remainder's scale
    is the product of the two scales, so they cancel from the weight.
    """
    if state.is_zero():
        raise ValueError("cannot project a zero state")
    idx = list(qubits)
    if not idx:
        raise ValueError("measured subset must be non-empty")
    if len(set(idx)) != len(idx):
        raise ValueError("measured qubit indices must be distinct")
    total = state.width
    if any(not 0 <= i < total for i in idx):
        raise ValueError("measured qubit index out of range")
    if target.width != len(idx):
        raise ValueError("target width must equal the number of measured qubits")
    if target.is_zero():
        raise ValueError("projection target must be nonzero")
    chosen = set(idx)
    order = idx + [i for i in range(total) if i not in chosen]
    dest = [0] * total
    for j, p in enumerate(order):
        dest[p] = j
    # Gathered, a key holds the measured bits x above the kept bits y.
    low, high, low_mask, split = _mover(dest)
    n_keep = total - len(idx)
    keep_mask = (1 << n_keep) - 1
    overlaps = target.amplitudes
    rem: dict[int, int] = {}
    for key, amp in state.amplitudes.items():
        gathered = low[key & low_mask] | high[key >> split]
        overlap = overlaps.get(gathered >> n_keep)
        if overlap is not None:
            y = gathered & keep_mask
            rem[y] = rem.get(y, 0) + overlap * amp
    rem = {y: v for y, v in rem.items() if v}
    weight = Fraction(_sum_sq(rem),
                      _sum_sq(state.amplitudes) * _sum_sq(overlaps))
    remainder = DenseState(n_keep, rem, state.scale * target.scale)
    return remainder, weight


def permute_qubits(state: DenseState, perm: Sequence[int]) -> DenseState:
    """Reindex amplitudes; input position i moves to position perm[i]."""
    if sorted(perm) != list(range(state.width)):
        raise ValueError("perm must be a bijection on qubit positions")
    low, high, low_mask, split = _mover(perm)
    amps = {low[key & low_mask] | high[key >> split]: v
            for key, v in state.amplitudes.items()}
    return DenseState(state.width, amps, state.scale)


def proportionality(a: DenseState, b: DenseState) -> Optional[Fraction]:
    """The constant c with a = c * b amplitude-wise, or None if there is none.

    Both forms are canonical, so a nonzero `a` is a multiple of `b` exactly
    when its amplitudes equal b's or their negatives.
    """
    if b.is_zero():
        return None
    if a.is_zero():
        return Fraction(0)
    if a.amplitudes == b.amplitudes:
        return a.scale / b.scale
    if a.amplitudes == {key: -v for key, v in b.amplitudes.items()}:
        return -a.scale / b.scale
    return None
