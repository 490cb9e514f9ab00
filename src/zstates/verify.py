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
from typing import Iterable, Optional, Sequence

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
    DenseState,
    dense_inner,
    dense_project,
    dense_z,
    permute_qubits,
    proportionality,
    to_dense,
)
from .distill import (
    DistillOutcome,
    NotCollectibleError,
    distill_step,
    success_probability,
    x0_state,
)

__all__ = [
    "SweepResult",
    "sweep_vandermonde",
    "sweep_norms",
    "sweep_composition",
    "distillation_cells",
    "check_distillation_cell",
    "sweep_distillation",
    "sweep_bit_flip",
    "sweep_permutations",
    "sweep_selections",
    "run_verification",
]

PERMUTATION_SAMPLES = 50  # random qubit permutations per Z_k(N)
SELECTION_SAMPLES = 10  # random measured-qubit selections per distillation cell
Selection = tuple[Sequence[int], Sequence[int]]  # indexes within each operand


@dataclass
class SweepResult:
    name: str
    cells: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def sweep_vandermonde(max_n: int) -> SweepResult:
    """The convolution identity, exhaustively over N <= max_n."""
    res = SweepResult("vandermonde")
    for n in range(max_n + 1):
        for m in range(n + 1):
            for k in range(n + 1):
                res.cells += 1
                if not vandermonde_holds(n, m, k):
                    res.failures.append(f"(N={n}, M={m}, k={k})")
    return res


def sweep_norms(max_symbolic_n: int, max_dense_n: int) -> SweepResult:
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


def sweep_composition(max_n: int) -> SweepResult:
    """Splitting Z_k(N) at any position M leaves its dense expansion unchanged."""
    res = SweepResult("composition")
    for n in range(min(max_n, DENSE_CAP) + 1):
        for k in range(n + 1):
            state, expected = z_state(k, n, "q"), dense_z(k, n)
            for m in range(n + 1):
                res.cells += 1
                if to_dense(split_register(state, "q", m, ("qa", "qb"))) != expected:
                    res.failures.append(f"(N={n}, k={k}, M={m})")
    return res


def distillation_cells(max_k: int, max_operand_n: int, max_total_n: int):
    """Totals stop at the dense cap as well, so the oracle replays every cell."""
    for k in range(1, max_k + 1):
        for n1 in range(2 * k, max_operand_n + 1):
            for n2 in range(2 * k, max_operand_n + 1):
                if n1 + n2 <= min(max_total_n, DENSE_CAP):
                    yield k, n1, n2


def check_distillation_cell(k: int, n1: int, n2: int, outcome: DistillOutcome,
                            selections: Optional[Iterable[Selection]] = None,
                            *, verdicts: Optional[dict] = None
                            ) -> Optional[list[str]]:
    """Check the outcome of one distillation step on Z_k(n1), Z_k(n2).

    Its post state must be a single Z_k(n1+n2-2k) factor; on the dense
    expansion the projection remainder must be proportional to that state,
    with an oracle weight equal to the outcome's probability and to the
    closed form.  Returns the failures (empty = agree), or None for a cell
    that passes the symbolic check but lies beyond the dense cap, so it is
    `execute_plan`'s oracle as is.  Each of `selections` (the k measured
    qubits of each operand; None: the first k of each) is replayed up to
    the first that disagrees; ValueError if they name none.

    Z states are invariant under every qubit permutation, so a replay
    depends only on the cell and the ordered selection, never on the
    outcome: its (weight, proportional) verdict is kept in `verdicts`, a
    store that one caller owns and passes to every call (None: a fresh
    one), and every outcome is compared with it.  The expansions are built
    once per call, on the first selection missing from the store.
    """
    where = f"(k={k}, N1={n1}, N2={n2})"
    n_out = n1 + n2 - 2 * k
    failures = []
    terms = outcome.post_state.terms
    blocks = terms[0][1].blocks if len(terms) == 1 else ()
    if not (len(blocks) == 1 and terms[0][0] > 0
            and (blocks[0].excitations, blocks[0].register.width) == (k, n_out)):
        failures.append(f"{where}: symbolic post state is not a single Z_{k}({n_out})")
    if n1 + n2 > DENSE_CAP:
        return failures or None
    verdicts = {} if verdicts is None else verdicts
    closed_form = success_probability(k, n1, n2)
    expansions = None
    replayed = False
    for sel_a, sel_b in ([(range(k), range(k))] if selections is None
                         else selections):
        replayed = True
        if any(not 0 <= i < n for sel, n in ((sel_a, n1), (sel_b, n2)) for i in sel):
            raise ValueError("selection index out of range for its operand")
        qubits = (*sel_a, *(n1 + i for i in sel_b))
        verdict = verdicts.get((k, n1, n2, qubits))
        if verdict is None:
            if expansions is None:
                expansions = (
                    to_dense(tensor(z_state(k, n1, RegisterId("A", n1)),
                                    z_state(k, n2, RegisterId("B", n2)))),
                    to_dense(x0_state(k, RegisterId("XA", k), RegisterId("XB", k))),
                    dense_z(k, n_out))
            joint, target, z_out = expansions
            remainder, weight = dense_project(joint, qubits, target)
            ratio = proportionality(remainder, z_out)
            verdict = verdicts[k, n1, n2, qubits] = (
                weight, ratio is not None and ratio > 0)
        weight, proportional = verdict
        problems = []
        if not proportional:
            problems.append(
                f"{where}: dense remainder is not proportional to Z_{k}({n_out})")
        if weight != outcome.success_probability:
            problems.append(f"{where}: oracle weight {weight} != symbolic "
                            f"probability {outcome.success_probability}")
        if weight != closed_form:
            problems.append(f"{where}: oracle weight {weight} != closed form "
                            f"{closed_form}")
        if problems:
            failures += ([f"selection={sel_a, sel_b}: " + "; ".join(problems)]
                         if selections is not None else problems)
            break
    if not replayed:
        raise ValueError("selections named no selection to replay")
    return failures


def _derive_and_check(k: int, n1: int, n2: int, alpha, selections,
                      verdicts: Optional[dict]) -> list[str]:
    """Distill fresh operands once and check the outcome."""
    try:
        outcome = distill_step(z_state(k, n1, RegisterId("A", n1)),
                               z_state(k, n2, RegisterId("B", n2)), alpha)
    except NotCollectibleError:
        return [f"(k={k}, N1={n1}, N2={n2}): post state does not collect to a "
                f"single Z factor"]
    return check_distillation_cell(k, n1, n2, outcome, selections,
                                   verdicts=verdicts) or []


def sweep_distillation(max_k: int, max_operand_n: int, max_total_n: int,
                       corrupt_alpha: bool, *, verdicts: Optional[dict] = None
                       ) -> SweepResult:
    """With corrupt_alpha each step is derived with unit projection weights,
    the negative control: from k = 2 on its post state does not collect.
    `verdicts` is the oracle's store (see `check_distillation_cell`)."""
    res = SweepResult("distillation")
    for k, n1, n2 in distillation_cells(max_k, max_operand_n, max_total_n):
        res.cells += 1
        alpha = (Fraction(1),) * (k + 1) if corrupt_alpha else None
        res.failures.extend(_derive_and_check(k, n1, n2, alpha, None, verdicts))
    return res


def sweep_bit_flip(max_n: int) -> SweepResult:
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
            dense, ones = to_dense(state), (1 << n) - 1
            complemented = DenseState(dense.width, {
                key ^ ones: v for key, v in dense.amplitudes.items()}, dense.scale)
            if complemented != to_dense(flipped):
                res.failures.append(f"dense (N={n}, k={k})")
    return res


def sweep_permutations(max_n: int, seed: int) -> SweepResult:
    """Full permutation symmetry of the dense expansion of every Z_k(N)."""
    res = SweepResult("permutation")
    rng = random.Random(seed)
    for n in range(1, min(max_n, DENSE_CAP) + 1):
        for k in range(n + 1):
            res.cells += 1
            state = to_dense(z_state(k, n, "q"))
            for _ in range(PERMUTATION_SAMPLES):
                perm = list(range(n))
                rng.shuffle(perm)
                if permute_qubits(state, perm) != state:
                    res.failures.append(f"(N={n}, k={k}, perm={perm})")
                    break
    return res


def sweep_selections(max_k: int, max_operand_n: int, max_total_n: int,
                     seed: int, *, verdicts: Optional[dict] = None) -> SweepResult:
    """Distillation outcome is the same for any choice of measured qubits.
    `verdicts` is the oracle's store (see `check_distillation_cell`)."""
    res = SweepResult("selection")
    rng = random.Random(seed)
    for k, n1, n2 in distillation_cells(max_k, max_operand_n, max_total_n):
        res.cells += 1
        selections = ((tuple(rng.sample(range(n1), k)),
                       tuple(rng.sample(range(n2), k)))
                      for _ in range(SELECTION_SAMPLES))
        res.failures.extend(
            _derive_and_check(k, n1, n2, None, selections, verdicts))
    return res


def run_verification(max_n: int, max_k: int, seed: int,
                     corrupt_alpha: bool) -> list[SweepResult]:
    """Run every sweep; bounds scale from max_n so the command line defaults
    reproduce the advertised ranges (composition to max_n, norms to max_n+4
    symbolically and max_n+2 densely, distillation operands to max_n-4 with
    totals to max_n+2, clipped at the dense cap, permutations to max_n-2).

    With corrupt_alpha the distillation sweep derives each step with unit
    projection weights instead of the proper choice and is expected to fail;
    it is the debug switch demonstrating that the weight choice matters.
    The distillation and selection sweeps share one oracle verdict store.
    """
    operand_cap = max(max_n - 4, 2)
    total_cap = max_n + 2
    verdicts: dict = {}
    return [
        sweep_vandermonde(max(max_n, 20)),
        sweep_norms(max_n + 4, max_n + 2),
        sweep_composition(max_n),
        sweep_distillation(max_k, operand_cap, total_cap, corrupt_alpha,
                           verdicts=verdicts),
        sweep_bit_flip(max_n),
        sweep_permutations(max(max_n - 2, 1), seed),
        sweep_selections(max_k, operand_cap, total_cap, seed,
                         verdicts=verdicts),
    ]
