"""The 2k-local distillation primitive.

One step measures k qubits of each of two equal-excitation Z states,
post-selecting on a specific projection target that lives in the sector
with k total excitations across the 2k measured qubits.  On success the
leftover qubits collect back into a single larger Z state; the step
consumes 2k qubits regardless of how large the inputs are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .blocks import (
    BlockProduct,
    BlockSum,
    RegisterId,
    ZBlock,
    block_sum,
    merge_registers,
    norm_sq,
    project_registers,
    split_register,
    tensor,
)
from .combinatorics import binom

__all__ = [
    "DistillationError",
    "NotCollectibleError",
    "X0Spec",
    "DistillOutcome",
    "x0_alpha",
    "x0_beta_sq",
    "x0_state",
    "distill_step",
    "success_probability",
]


class DistillationError(Exception):
    """A distillation step could not be carried out."""


class NotCollectibleError(DistillationError):
    """The post-measurement state did not collect into a single Z factor."""


@dataclass(frozen=True)
class X0Spec:
    """Projection target data: weights alpha_j and squared normalization.

    The default weights alpha_j = C(k, j)**-2 make every surviving summand
    of the measured sector contribute with unit coefficient, which is what
    lets the leftover state collect back into a single Z factor.  beta_sq is
    the reciprocal of the unnormalized target's squared norm, so
    norm_sq(target) * beta_sq == 1.
    """

    k: int
    alpha: tuple[Fraction, ...]
    beta_sq: Fraction


@dataclass(frozen=True)
class DistillOutcome:
    """Success branch of one distillation step."""

    post_state: BlockSum
    success_probability: Fraction


def x0_alpha(k: int) -> tuple[Fraction, ...]:
    """Default projection weights alpha_j = 1 / C(k, j)**2."""
    if k < 1:
        raise ValueError("projection target needs k >= 1")
    return tuple(Fraction(1, binom(k, j) ** 2) for j in range(k + 1))


def x0_beta_sq(k: int) -> Fraction:
    """Squared normalization of the default projection target.

    With the default weights, the target's squared norm is
    sum_j 1 / C(k, j)**2, and beta_sq is its reciprocal.
    """
    if k < 1:
        raise ValueError("projection target needs k >= 1")
    return 1 / sum(Fraction(1, binom(k, j) ** 2) for j in range(k + 1))


def x0_state(k: int, reg_a: RegisterId, reg_b: RegisterId,
             alpha: Optional[Sequence[Fraction]] = None,
             ) -> tuple[BlockSum, X0Spec]:
    """Unnormalized projection target sum_j alpha_j Z_{k-j}(k) Z_j(k).

    Both registers must have width k.  The state lies entirely in the sector
    with k total excitations over the 2k qubits.  `alpha` overrides the
    default weights (useful to demonstrate that the default choice is what
    makes collection work); the returned X0Spec always carries the
    reciprocal of the actual squared norm.
    """
    if k < 1:
        raise ValueError("projection target needs k >= 1")
    if reg_a.width != k or reg_b.width != k:
        raise ValueError("both projection registers must have width k")
    if reg_a.label == reg_b.label:
        raise ValueError("projection registers must be distinct")
    weights = x0_alpha(k) if alpha is None else tuple(Fraction(c) for c in alpha)
    if len(weights) != k + 1:
        raise ValueError(f"alpha must have {k + 1} entries")
    state = block_sum([
        (weights[j], BlockProduct.of((ZBlock(reg_a, k - j), ZBlock(reg_b, j))))
        for j in range(k + 1)])
    squared_norm = norm_sq(state)
    if squared_norm == 0:
        raise ValueError("projection target must be nonzero")
    return state, X0Spec(k, weights, 1 / squared_norm)


def success_probability(k: int, n1: int, n2: int) -> Fraction:
    """Exact probability that one step on Z_k(n1), Z_k(n2) succeeds.

    Closed form from norm accounting of the projection:
    beta_sq * C(n1 + n2 - 2k, k) / (C(n1, k) * C(n2, k)).
    """
    _check_step_domain(k, n1, n2)
    return (x0_beta_sq(k) * binom(n1 + n2 - 2 * k, k)
            / (binom(n1, k) * binom(n2, k)))


def _check_step_domain(k: int, n1: int, n2: int) -> None:
    if k < 1:
        raise ValueError("distillation needs k >= 1")
    if n1 < 2 * k or n2 < 2 * k:
        raise ValueError(f"both operands need at least 2k={2 * k} qubits, "
                         f"got {n1} and {n2}")


def _single_block(a: BlockSum) -> ZBlock:
    if len(a.terms) != 1 or len(a.terms[0][1].blocks) != 1:
        raise ValueError("operand must be a single Z factor on one register")
    coeff, prod = a.terms[0]
    if coeff <= 0:
        raise ValueError("operand coefficient must be positive")
    return prod.blocks[0]


def distill_step(a: BlockSum, b: BlockSum,
                 alpha: Optional[Sequence[Fraction]] = None,
                 out_label: Optional[str] = None) -> DistillOutcome:
    """Project k qubits of each operand onto the X0 target and collect the rest.

    Each operand is split into its measured and kept parts, the measured
    parts are contracted against the projection target, and the kept parts
    merge back into one register (labelled `out_label`, default
    "<left>+<right>").  Because Z states are invariant under any qubit
    permutation, the outcome does not depend on which k qubits are measured,
    so the step always measures the first k of each register; the dense
    oracle (`verify.check_distillation_cell`) replays other selections.
    Each step consumes 2k qubits and post-selects the sector with k
    excitations across them.

    Raises NotCollectibleError when the leftover does not form a single Z
    factor, which happens exactly when `alpha` deviates from the default.
    """
    blk_a = _single_block(a)
    blk_b = _single_block(b)
    k = blk_a.excitations
    if blk_b.excitations != k:
        raise ValueError("operands must carry the same excitation count")
    n1, n2 = blk_a.register.width, blk_b.register.width
    _check_step_domain(k, n1, n2)
    label_a, label_b = blk_a.register.label, blk_b.register.label
    if label_a == label_b:
        raise ValueError("operands must live on distinct registers")

    sel_a, keep_a = label_a + "/sel", label_a + "/keep"
    sel_b, keep_b = label_b + "/sel", label_b + "/keep"
    joint = tensor(
        split_register(a, label_a, k, (sel_a, keep_a)),
        split_register(b, label_b, k, (sel_b, keep_b)))
    target, spec = x0_state(k, RegisterId(sel_a, k), RegisterId(sel_b, k),
                            alpha=alpha)
    leftover = project_registers(joint, target)
    merged_label = out_label if out_label is not None else f"{label_a}+{label_b}"
    post, collected = merge_registers(leftover, keep_a, keep_b, merged_label)
    if not collected:
        raise NotCollectibleError(
            "post-measurement state does not collect into a single Z factor")
    probability = spec.beta_sq * norm_sq(post) / (norm_sq(a) * norm_sq(b))
    return DistillOutcome(post, probability)
