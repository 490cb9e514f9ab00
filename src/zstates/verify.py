"""Exhaustive and randomized sweeps replaying the symbolic engine on the
brute-force dense expansion.

Each sweep walks a parameter grid, cross-checks one claim exactly (rational
arithmetic, zero tolerance), and reports every failing cell.  The command
line front end wires them together; the test suite calls them with the
advertised bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .blocks import (
    RegisterId,
    bit_flip,
    norm_sq,
    split_register,
    tensor,
    z_state,
)
from .combinatorics import binom, vandermonde_holds
from .dense import (
    DENSE_CAP,
    dense_inner,
    dense_project,
    dense_z,
    permute_qubits,
    proportionality,
    to_dense,
)
from .distill import (
    NotCollectibleError,
    distill_step,
    success_probability,
    x0_state,
)

__all__ = [
    "SweepResult",
    "sweep_vandermonde",
    "sweep_norms",
    "composition_cell_matches",
    "sweep_composition",
    "distillation_cells",
    "check_distillation_cell",
    "sweep_distillation",
    "sweep_bit_flip",
    "sweep_permutations",
    "sweep_selections",
    "run_verification",
]

_FLIP = str.maketrans("01", "10")


@dataclass
class SweepResult:
    name: str
    cells: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def sweep_vandermonde(max_n: int = 20) -> SweepResult:
    """The convolution identity, exhaustively over N <= max_n."""
    res = SweepResult("vandermonde")
    for n in range(max_n + 1):
        for m in range(n + 1):
            for k in range(n + 1):
                res.cells += 1
                if not vandermonde_holds(n, m, k):
                    res.failures.append(f"(N={n}, M={m}, k={k})")
    return res


def sweep_norms(max_symbolic_n: int = 16, max_dense_n: int = 14) -> SweepResult:
    """norm_sq(Z_k(N)) == C(N, k), symbolically and on the dense expansion."""
    res = SweepResult("norm")
    for n in range(max_symbolic_n + 1):
        for k in range(n + 1):
            res.cells += 1
            expected = binom(n, k)
            if norm_sq(z_state(k, n, "q")) != expected:
                res.failures.append(f"symbolic (N={n}, k={k})")
                continue
            if n <= min(max_dense_n, DENSE_CAP):
                d = dense_z(k, n)
                if dense_inner(d, d) != expected:
                    res.failures.append(f"dense (N={n}, k={k})")
    return res


def composition_cell_matches(k: int, n: int, m: int) -> bool:
    """Splitting Z_k(N) at position m leaves the dense expansion unchanged."""
    split = split_register(z_state(k, n, RegisterId("q", n)), "q", m, ("qa", "qb"))
    return to_dense(split).amplitudes == dense_z(k, n).amplitudes


def sweep_composition(max_n: int = 12) -> SweepResult:
    res = SweepResult("composition")
    for n in range(min(max_n, DENSE_CAP) + 1):
        for k in range(n + 1):
            for m in range(n + 1):
                res.cells += 1
                if not composition_cell_matches(k, n, m):
                    res.failures.append(f"(N={n}, k={k}, M={m})")
    return res


def distillation_cells(max_k: int, max_operand_n: int, max_total_n: int):
    for k in range(1, max_k + 1):
        for n1 in range(2 * k, max_operand_n + 1):
            for n2 in range(2 * k, max_operand_n + 1):
                if n1 + n2 <= max_total_n:
                    yield k, n1, n2


def check_distillation_cell(k: int, n1: int, n2: int,
                            selection: Optional[tuple[Sequence[int], Sequence[int]]] = None,
                            unit_alpha: bool = False) -> Optional[list[str]]:
    """Replay one distillation step against the dense oracle.

    Checks that the symbolic post state is a single Z_k(n1+n2-2k) factor,
    that the brute-force projection remainder is proportional to the same
    dense state, and that the oracle weight equals both the symbolic and the
    closed-form probability.  Returns failure descriptions (empty = agree),
    or None for a cell that passes the symbolic check but whose n1 + n2
    qubits lie beyond the dense cap, so it is `execute_plan`'s oracle as is.
    `selection` names the k measured qubits of each operand for the dense
    replay (default: the first k of each).
    With unit_alpha the projection weights are all forced to 1 instead of
    the proper choice, the negative control.
    """
    where = f"(k={k}, N1={n1}, N2={n2})"
    alpha = (Fraction(1),) * (k + 1) if unit_alpha else None
    a = z_state(k, n1, RegisterId("A", n1))
    b = z_state(k, n2, RegisterId("B", n2))
    n_out = n1 + n2 - 2 * k
    try:
        outcome = distill_step(a, b, alpha=alpha)
    except NotCollectibleError:
        return [f"{where}: post state does not collect to a single Z factor"]
    failures = []
    post = outcome.post_state
    single = len(post.terms) == 1 and len(post.terms[0][1].blocks) == 1
    if single:
        coeff, prod = post.terms[0]
        blk = prod.blocks[0]
        single = coeff > 0 and blk.excitations == k and blk.register.width == n_out
    if not single:
        failures.append(f"{where}: symbolic post state is not a single Z_{k}({n_out})")
    if n1 + n2 > DENSE_CAP:
        return failures or None
    sel_a, sel_b = selection if selection is not None else (range(k), range(k))
    if any(not 0 <= i < n for sel, n in ((sel_a, n1), (sel_b, n2)) for i in sel):
        raise ValueError("selection index out of range for its operand")
    joint = to_dense(tensor(a, b))
    qubits = [*sel_a, *(n1 + i for i in sel_b)]
    target = x0_state(k, RegisterId("XA", k), RegisterId("XB", k), alpha=alpha)
    remainder, weight = dense_project(joint, qubits, to_dense(target))
    ratio = proportionality(remainder, dense_z(k, n_out))
    if ratio is None or ratio <= 0:
        failures.append(
            f"{where}: dense remainder is not proportional to Z_{k}({n_out})")
    if weight != outcome.success_probability:
        failures.append(f"{where}: oracle weight {weight} != symbolic "
                        f"probability {outcome.success_probability}")
    if not unit_alpha and weight != success_probability(k, n1, n2):
        failures.append(f"{where}: oracle weight {weight} != closed form "
                        f"{success_probability(k, n1, n2)}")
    return failures


def sweep_distillation(max_k: int = 3, max_operand_n: int = 8,
                       max_total_n: int = 14, unit_alpha: bool = False) -> SweepResult:
    res = SweepResult("distillation")
    for k, n1, n2 in distillation_cells(max_k, max_operand_n, max_total_n):
        res.cells += 1
        res.failures.extend(
            check_distillation_cell(k, n1, n2, unit_alpha=unit_alpha) or ())
    return res


def sweep_bit_flip(max_n: int = 12) -> SweepResult:
    """Exchanging 0s and 1s maps Z_k(N) to Z_{N-k}(N), densely verified."""
    res = SweepResult("bit-flip")
    for n in range(min(max_n, DENSE_CAP) + 1):
        for k in range(n + 1):
            res.cells += 1
            state = z_state(k, n, "q")
            flipped = bit_flip(state)
            if flipped != z_state(n - k, n, "q"):
                res.failures.append(f"symbolic (N={n}, k={k})")
                continue
            complemented = {s.translate(_FLIP): v
                            for s, v in to_dense(state).amplitudes.items()}
            if complemented != to_dense(flipped).amplitudes:
                res.failures.append(f"dense (N={n}, k={k})")
    return res


def sweep_permutations(max_n: int = 10, samples: int = 50,
                       seed: int = 0) -> SweepResult:
    """Full permutation symmetry of every dense Z_k(N) sector."""
    res = SweepResult("permutation")
    rng = random.Random(seed)
    for n in range(1, min(max_n, DENSE_CAP) + 1):
        for k in range(n + 1):
            res.cells += 1
            state = dense_z(k, n)
            for _ in range(samples):
                perm = list(range(n))
                rng.shuffle(perm)
                if permute_qubits(state, perm).amplitudes != state.amplitudes:
                    res.failures.append(f"(N={n}, k={k}, perm={perm})")
                    break
    return res


def sweep_selections(max_k: int = 3, max_operand_n: int = 8, max_total_n: int = 14,
                     samples: int = 10, seed: int = 0) -> SweepResult:
    """Distillation outcome is the same for any choice of measured qubits."""
    res = SweepResult("selection")
    rng = random.Random(seed)
    for k, n1, n2 in distillation_cells(max_k, max_operand_n, max_total_n):
        res.cells += 1
        for _ in range(samples):
            selection = (tuple(rng.sample(range(n1), k)),
                         tuple(rng.sample(range(n2), k)))
            problems = check_distillation_cell(k, n1, n2, selection=selection)
            if problems:
                res.failures.append(
                    f"selection={selection}: " + "; ".join(problems))
                break
    return res


def run_verification(max_n: int = 12, max_k: int = 3, seed: int = 0,
                     corrupt_alpha: bool = False) -> list[SweepResult]:
    """Run every sweep; bounds scale from max_n so the defaults reproduce the
    advertised ranges (composition to max_n, norms to max_n+4 symbolically and
    max_n+2 densely, distillation operands to max_n-4 with totals to max_n+2,
    permutations to max_n-2).

    With corrupt_alpha the distillation sweep runs with unit projection
    weights instead of the proper choice and is expected to fail; it is the
    debug switch demonstrating that the weight choice matters.
    """
    operand_cap = max(max_n - 4, 2)
    total_cap = max_n + 2
    return [
        sweep_vandermonde(max(max_n, 20)),
        sweep_norms(max_n + 4, max_n + 2),
        sweep_composition(max_n),
        sweep_distillation(max_k, operand_cap, total_cap, unit_alpha=corrupt_alpha),
        sweep_bit_flip(max_n),
        sweep_permutations(max(max_n - 2, 1), 50, seed=seed),
        sweep_selections(max_k, operand_cap, total_cap, 10, seed=seed),
    ]
