"""Brute-force dense expansion over computational basis strings.

The independent cross-check for the symbolic engine: states become sparse
maps from basis bitstrings to exact rational amplitudes, so any algebraic
claim can be replayed amplitude by amplitude.  Only nonzero amplitudes are
stored, and fixed-weight sectors are enumerated by walking position subsets
rather than scanning all 2**n strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Optional, Sequence

from .blocks import BlockSum, RegisterId, registers_of

__all__ = [
    "DENSE_CAP",
    "DenseState",
    "dense_z",
    "dense_basis",
    "to_dense",
    "dense_inner",
    "dense_norm_sq",
    "dense_project",
    "permute_qubits",
    "proportionality",
]

# Widest exact dense expansion we are willing to build: the oracle's reach.
DENSE_CAP = 22


@dataclass(frozen=True)
class DenseState:
    """Sparse amplitude map over the concatenated registers' basis strings."""

    registers: tuple[RegisterId, ...]
    amplitudes: dict[str, Fraction]

    @property
    def width(self) -> int:
        return sum(r.width for r in self.registers)

    def is_zero(self) -> bool:
        return not self.amplitudes


@lru_cache(maxsize=None)
def _weight_strings(n: int, k: int) -> tuple[str, ...]:
    out = []
    for ones in combinations(range(n), k):
        chars = ["0"] * n
        for i in ones:
            chars[i] = "1"
        out.append("".join(chars))
    return tuple(out)


def _check_cap(width: int) -> None:
    if width > DENSE_CAP:
        raise ValueError(f"{width} qubits exceed the dense cap of {DENSE_CAP}")


def dense_z(k: int, n: int) -> DenseState:
    """Amplitude 1 on every weight-k string of n qubits (C(n, k) entries)."""
    _check_cap(n)
    if not 0 <= k <= n:
        raise ValueError(f"excitation count must lie in 0..{n}, got {k}")
    amps = {s: Fraction(1) for s in _weight_strings(n, k)}
    return DenseState((RegisterId("q", n),), amps)


def dense_basis(bits: str, label: str = "m") -> DenseState:
    """Single computational basis string as a dense state."""
    if any(c not in "01" for c in bits):
        raise ValueError("basis string must consist of 0s and 1s")
    return DenseState((RegisterId(label, len(bits)),), {bits: Fraction(1)})


def to_dense(a: BlockSum,
             register_order: Optional[Sequence[RegisterId]] = None) -> DenseState:
    """Expand a block sum faithfully; linear in the coefficients.

    Tensor order follows the register order, which defaults to the sum's
    canonical label order but can be overridden with any permutation of its
    registers.
    """
    canonical = registers_of(a)
    if register_order is None:
        regs = canonical
    else:
        regs = tuple(register_order)
        if sorted(regs) != sorted(canonical):
            raise ValueError(
                "register_order must be a permutation of the sum's registers")
    _check_cap(sum(r.width for r in regs))
    amps: dict[str, Fraction] = {}
    for coeff, prod in a.terms:
        per_register = [
            _weight_strings(r.width, prod.block_for(r.label).excitations)
            for r in regs]
        for parts in product(*per_register):
            s = "".join(parts)
            amps[s] = amps.get(s, Fraction(0)) + coeff
    amps = {s: v for s, v in amps.items() if v}
    return DenseState(regs, amps)


def dense_inner(a: DenseState, b: DenseState) -> Fraction:
    """Sum over strings of the product of amplitudes (real, no conjugation)."""
    if a.registers != b.registers:
        raise ValueError("dense inner product requires identical register layouts")
    if len(a.amplitudes) > len(b.amplitudes):
        a, b = b, a
    total = Fraction(0)
    for s, v in a.amplitudes.items():
        w = b.amplitudes.get(s)
        if w is not None:
            total += v * w
    return total


def dense_norm_sq(a: DenseState) -> Fraction:
    return sum((v * v for v in a.amplitudes.values()), Fraction(0))


def dense_project(state: DenseState, qubits: Sequence[int],
                  target: DenseState) -> tuple[DenseState, Fraction]:
    """Post-selected projective measurement on a subset of qubit positions.

    remainder(y) collects target(x) * state(x, y) over assignments x of the
    measured positions (taken in the order given).  The returned weight is
    the Born probability of the target outcome with state and target both
    read as normalized:  |remainder|^2 / (|state|^2 * |target|^2).  The
    remainder itself stays unnormalized; the complementary outcome has
    probability 1 - weight and is not materialized.
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
    keep = [i for i in range(total) if i not in chosen]
    rem: dict[str, Fraction] = {}
    for s, amp in state.amplitudes.items():
        overlap = target.amplitudes.get("".join(s[i] for i in idx))
        if overlap is None:
            continue
        y = "".join(s[i] for i in keep)
        rem[y] = rem.get(y, Fraction(0)) + overlap * amp
    rem = {y: v for y, v in rem.items() if v}
    remainder = DenseState((RegisterId("rest", len(keep)),), rem)
    weight = dense_norm_sq(remainder) / (dense_norm_sq(state) * dense_norm_sq(target))
    return remainder, weight


def permute_qubits(state: DenseState, perm: Sequence[int]) -> DenseState:
    """Reindex amplitudes; input position i moves to position perm[i]."""
    total = state.width
    if sorted(perm) != list(range(total)):
        raise ValueError("perm must be a bijection on qubit positions")
    amps: dict[str, Fraction] = {}
    for s, v in state.amplitudes.items():
        chars = ["0"] * total
        for i, c in enumerate(s):
            chars[perm[i]] = c
        amps["".join(chars)] = v
    return DenseState(state.registers, amps)


def proportionality(a: DenseState, b: DenseState) -> Optional[Fraction]:
    """The constant c with a = c * b amplitude-wise, or None if there is none."""
    if b.is_zero():
        return None
    if a.is_zero():
        return Fraction(0)
    if set(a.amplitudes) != set(b.amplitudes):
        return None
    ratio: Optional[Fraction] = None
    for s, v in a.amplitudes.items():
        r = v / b.amplitudes[s]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    return ratio
