"""Declarative multi-cycle distillation plans with exact accounting.

A plan is a graph: the declared input and ancilla states are its base
nodes, and each cycle joins two states, named by id, into a third.  One
pass resolves every id to its size and depth and collects the violations;
validation, depth, critical path, ledger, execution and DOT export all
read it.  Execution is purely symbolic and deterministic.
Every cycle takes the same step, derived once per run; a cycle's success
probability follows from the norms C(n, k) of its three states.  Cycles act
on disjoint fresh states (the dataflow rules enforce single consumption),
so the probability that an entire plan succeeds is the product of its
per-cycle success probabilities, a product that telescopes.  A report's
summary is computed from the resolve pass and the one step; its cycle
results are built when they are read, so a report holds no per-cycle record.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

from .blocks import z_state
from .combinatorics import binom, int_str
from .distill import DistillationError, distill_step

__all__ = [
    "StateRef",
    "Cycle",
    "ProtocolPlan",
    "CycleResult",
    "ResourceLedger",
    "ExecutionReport",
    "InvalidPlanError",
    "PlanExecutionError",
    "MAX_CYCLES",
    "MAX_K",
    "CHUNK_CYCLES",
    "chunk_ranges",
    "check_cycle_count",
    "validate_plan",
    "execute_plan",
    "critical_path",
    "gen_exact_plan",
    "gen_incremental_plan",
    "gen_exponential_plan",
]

# The most cycles a plan may have, checked before any cycle is built: 250
# times the largest plans the benchmark runs (about 4,000 cycles).
MAX_CYCLES = 10 ** 6
# The largest k a plan may have, checked before the step is derived: the one
# derivation a run makes grows as k squared, and at k = 256 it takes about
# 0.9 s and 23 MB on a 2-vCPU x86 host.
MAX_K = 256
# Reports and graphs are written this many cycles at a time, so a writer
# holds one chunk of a plan's output, never all of it.
CHUNK_CYCLES = 256

# oracle(k, n1, n2, p): the problems it finds in p as the success probability
# of one step on Z_k(n1), Z_k(n2) (empty when it agrees), or None beyond its
# reach.
Oracle = Callable[[int, int, int, Fraction], Optional[list[str]]]


class StateRef(NamedTuple):
    """Descriptor of one Z_k(n) state appearing in a plan."""

    id: str
    k: int
    n: int


class Cycle(NamedTuple):
    """One distillation cycle, by state id: left + right -> produced."""

    left: str
    right: str
    produced: str


class ProtocolPlan(NamedTuple):
    k: int
    inputs: tuple[StateRef, ...]
    ancillas: tuple[StateRef, ...]
    cycles: tuple[Cycle, ...]
    target_n: int  # the target is Z_k(target_n)


class CycleResult(NamedTuple):
    left: StateRef
    right: StateRef
    produced: StateRef
    probability: Fraction
    oracle_checked: bool = False


class ResourceLedger(NamedTuple):
    """Exact qubit accounting: output = input + ancilla - 2k * cycles."""

    input_qubits: int
    ancilla_qubits: int
    consumed_qubits: int
    cycles: int
    output_qubits: int
    depth: int


class _CycleResults:
    """A report's cycle results, each computed when it is read, from the
    resolved states and the step's beta_sq: a report holds no per-cycle
    record.  The writers read plain rows (`rows`); indexing builds a
    `CycleResult` from the same row.  It has a length, can be indexed,
    sliced (into a tuple) and iterated any number of times, and equals
    another report's results when they hold equal records.  `checked` holds
    the cells (n1, n2) the oracle replayed.
    """

    __slots__ = ("_cycles", "_refs", "_k", "_num", "_den", "_checked")

    def __init__(self, plan: ProtocolPlan, refs: dict[str, StateRef],
                 beta_sq: Fraction, checked: frozenset) -> None:
        self._cycles, self._refs, self._k = plan.cycles, refs, plan.k
        self._num, self._den = beta_sq.numerator, beta_sq.denominator
        self._checked = checked

    def __len__(self) -> int:
        return len(self._cycles)

    def _row(self, i: int) -> tuple:
        """Cycle i as (left, right, produced, num, den, checked), its
        probability num/den reduced, with den > 0."""
        cyc = self._cycles[i]
        refs, k = self._refs, self._k
        left, right, produced = refs[cyc.left], refs[cyc.right], refs[cyc.produced]
        num = self._num * binom(produced.n, k)
        den = self._den * binom(left.n, k) * binom(right.n, k)
        g = gcd(num, den)
        return (left, right, produced, num // g, den // g,
                (left.n, right.n) in self._checked)

    def rows(self, indexes: range) -> Iterator[tuple]:
        """The rows (see `_row`) of the cycles at `indexes`, one at a time."""
        return map(self._row, indexes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self._cycles))[i]))
        left, right, produced, num, den, checked = self._row(i)
        return CycleResult(left, right, produced, Fraction(num, den), checked)

    def __iter__(self):
        return map(self.__getitem__, range(len(self._cycles)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _CycleResults):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


class ExecutionReport(NamedTuple):
    cycles: _CycleResults
    cumulative_success: Fraction
    ledger: ResourceLedger
    final: StateRef  # its state is the unit Z_k(n) on its id


class InvalidPlanError(ValueError):
    """A plan, or the document it is built from, describes no valid plan."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class PlanExecutionError(RuntimeError):
    def __init__(self, cycle_index: int, message: str):
        self.cycle_index = cycle_index
        super().__init__(f"cycle {cycle_index}: {message}")


class _Resolved(NamedTuple):
    """Declared states and products whose operands resolved, by id.

    `depth` holds only products; a base state has depth 0.  `consumed`
    holds the ids the cycles take as operands.
    """

    refs: dict[str, StateRef]
    depth: dict[str, int]
    consumed: set[str]
    final: Optional[StateRef]
    violations: list[str]


def _z(k: int, n: int) -> str:
    return f"Z_{int_str(k)}({int_str(n)})"


def _state_violations(plan: ProtocolPlan) -> list[str]:
    """The violations of the declared states, in declaration order."""
    v: list[str] = []
    k = plan.k
    seen: set[str] = set()
    for origin, declared in (("input", plan.inputs), ("ancilla", plan.ancillas)):
        for ref in declared:
            if not ref.id:
                v.append(f"{origin} state with empty id")
            if ref.id in seen:
                v.append(f"duplicate state id {ref.id!r}")
            seen.add(ref.id)
            if ref.k != k:
                v.append(f"state {ref.id!r} has k={int_str(ref.k)}, "
                         f"plan k={int_str(k)}")
            if ref.n < 1:
                v.append(f"state {ref.id!r} has no qubits")
            elif ref.n < ref.k:
                v.append(f"state {ref.id!r} has k={int_str(ref.k)} > "
                         f"n={int_str(ref.n)}")
    return v


def _cycle_violations(i: int, cyc: Cycle, k: int, refs: dict[str, StateRef],
                      consumed: set[str], unresolved: set[str]) -> list[str]:
    """The violations of cycle i, each operand's in turn, then its produced
    id's; it marks the operands that resolve consumed."""
    v: list[str] = []
    for side, op in (("left", cyc.left), ("right", cyc.right)):
        ref = refs.get(op)
        if ref is None:
            # A product of an unresolved cycle was reported with it.
            if op not in unresolved:
                v.append(f"cycle {i}: {side} operand {op!r} is not an input, "
                         f"ancilla, or earlier product")
            continue
        if ref.n < 2 * k:
            v.append(f"cycle {i}: {side} operand {_z(ref.k, ref.n)} has n < 2k")
        if op in consumed:
            v.append(f"cycle {i}: {side} operand {op!r} already consumed")
        consumed.add(op)
    if not cyc.produced:
        v.append(f"cycle {i}: empty produced id")
    if cyc.produced in refs or cyc.produced in unresolved:
        v.append(f"cycle {i}: produced id {cyc.produced!r} already in use")
    return v


def _resolve(plan: ProtocolPlan) -> _Resolved:
    """One pass over the plan; messages spell every integer with `int_str`,
    since a product of two declared sizes can pass the `str` digit limit.
    Valid states and cycles take one test each; the helpers that word the
    violations run only where a test fails."""
    v: list[str] = []
    k = plan.k
    if k < 1:
        v.append(f"plan k must be >= 1, got {int_str(k)}")
    elif k > MAX_K:
        v.append(f"plan k must be at most {MAX_K}, got {int_str(k)}")
    declared = (*plan.inputs, *plan.ancillas)
    # A repeated id keeps the place of its first and the state of its last.
    refs = dict(zip(map(itemgetter(0), declared), declared))
    if not (len(refs) == len(declared) and "" not in refs
            and {*map(itemgetter(1), declared)} <= {k}
            and min(map(itemgetter(2), declared), default=k) >= max(k, 1)):
        v += _state_violations(plan)
    depth: dict[str, int] = {}
    unresolved: set[str] = set()
    consumed: set[str] = set()
    final: Optional[StateRef] = None
    get, two_k = refs.get, 2 * k
    for i, cyc in enumerate(plan.cycles):
        left, right, produced = cyc
        a, b = get(left), get(right)
        if (a is not None and b is not None and a.n >= two_k and b.n >= two_k
                and left != right and left not in consumed
                and right not in consumed and produced
                and produced not in refs and produced not in unresolved):
            consumed.add(left)
            consumed.add(right)
        else:
            v += _cycle_violations(i, cyc, k, refs, consumed, unresolved)
            if a is None or b is None:
                final = None
                unresolved.add(produced)
                continue
        final = refs[produced] = StateRef(produced, k, a.n + b.n - two_k)
        depth[produced] = 1 + max(depth.get(left, 0), depth.get(right, 0))
    if plan.cycles:
        if final is not None and final.n != plan.target_n:
            v.append(f"final product {_z(final.k, final.n)} does not match "
                     f"target {_z(k, plan.target_n)}")
    else:
        final = next((r for r in plan.inputs if (r.k, r.n) == (k, plan.target_n)),
                     None)
        if final is None:
            v.append("plan with no cycles has no input matching the target")
    return _Resolved(refs, depth, consumed, final, v)


def _resolve_valid(plan: ProtocolPlan) -> _Resolved:
    resolved = _resolve(plan)
    if resolved.violations:
        raise InvalidPlanError(resolved.violations)
    return resolved


def validate_plan(plan: ProtocolPlan) -> list[str]:
    """Every violation found; an empty list means the plan is executable.

    Checks excitation-count consistency, that each declared Z_k(n) has
    1 <= n and k <= n, the n >= 2k operand requirement, that every operand
    names an input, ancilla or earlier product, single consumption, id
    uniqueness, and the target arithmetic.
    """
    return _resolve(plan).violations


def _ledger(plan: ProtocolPlan, resolved: _Resolved) -> ResourceLedger:
    input_qubits = sum(r.n for r in plan.inputs)
    ancilla_qubits = sum(r.n for r in plan.ancillas)
    consumed = 2 * plan.k * len(plan.cycles)
    return ResourceLedger(
        input_qubits=input_qubits,
        ancilla_qubits=ancilla_qubits,
        consumed_qubits=consumed,
        cycles=len(plan.cycles),
        output_qubits=input_qubits + ancilla_qubits - consumed,
        depth=max(resolved.depth.values(), default=0),
    )


def critical_path(plan: ProtocolPlan) -> list[int]:
    """Qubit counts along the deepest dependency chain, base state first.

    The chain ends at the final state, unless a product the final state does
    not depend on lies deeper; its length is then still the ledger's depth
    plus one.  Raises InvalidPlanError for a plan that does not validate.
    """
    resolved = _resolve_valid(plan)
    depth = resolved.depth
    producer = {cyc.produced: cyc for cyc in plan.cycles}
    # max keeps the first of equals: the final state on a tie.
    state = max([resolved.final, *(resolved.refs[i] for i in depth)],
                key=lambda ref: depth.get(ref.id, 0))
    path = [state.n]
    while state.id in producer:
        cyc = producer[state.id]
        pick = (cyc.left if depth.get(cyc.left, 0) >= depth.get(cyc.right, 0)
                else cyc.right)
        state = resolved.refs[pick]
        path.append(state.n)
    path.reverse()
    return path


def _step_beta_sq(k: int) -> Fraction:
    """beta_sq of the one step every cycle of a k plan takes.

    By the distillation theorem, distilling the unit Z_k(n1) with the unit
    Z_k(n2) leaves the unit Z_k(N), N = n1 + n2 - 2k, with probability
    beta_sq * C(N, k) / (C(n1, k) * C(n2, k)) for every n1, n2 >= 2k: the
    derivation does not depend on the widths.  So it runs once, at the
    least widths, and a leftover that is not the unit Z_k(2k) fails cycle 0.
    """
    n = 2 * k
    try:
        outcome = distill_step(z_state(k, n, "a"), z_state(k, n, "b"),
                               out_label="out")
    except (ValueError, DistillationError) as exc:
        raise PlanExecutionError(0, str(exc)) from exc
    if outcome.post_state != z_state(k, n, "out"):
        raise PlanExecutionError(0, f"post state is not the unit {_z(k, n)}")
    return outcome.success_probability * binom(n, k)


def _telescoped(plan: ProtocolPlan, resolved: _Resolved,
                beta_sq: Fraction) -> Fraction:
    """The product of every cycle's probability, reduced once.

    A product's C(n, k) is a numerator of the cycle producing it and a
    denominator of the cycle consuming it, so the product is beta_sq**c
    times the C(n, k) of every product never consumed, over the C(n, k) of
    every base state consumed.
    """
    refs, depth, consumed = resolved.refs, resolved.depth, resolved.consumed
    # The power of C(n, k) left, per size n; only products have a depth.
    powers = Counter([refs[i].n for i in depth.keys() - consumed])
    powers.subtract([refs[i].n for i in consumed - depth.keys()])
    num = beta_sq.numerator ** len(plan.cycles)
    den = beta_sq.denominator ** len(plan.cycles)
    for n, power in powers.items():
        if power > 0:
            num *= binom(n, plan.k) ** power
        elif power < 0:
            den *= binom(n, plan.k) ** -power
    return Fraction(num, den)


def execute_plan(plan: ProtocolPlan,
                 oracle: Optional[Oracle] = None) -> ExecutionReport:
    """Run every cycle in order, symbolically, with exact probabilities.

    Raises InvalidPlanError, listing every violation, for a plan that does
    not validate.  Every state of a plan is the unit Z_k(n) on its own id,
    fixed by its size, so the step is derived once per call (see
    `_step_beta_sq`), each cycle is sized by the norms C(n, k) of its three
    states, and the cumulative probability telescopes (see `_telescoped`).
    The report's `cycles` build each cycle's result when it is read.
    With an `oracle`, a cycle's outcome is fixed by its cell (n1, n2), so
    each distinct cell is checked once before this returns, on the
    probability its first cycle reports: a cell it reports problems for
    fails that first cycle, one it returns None for (beyond its reach)
    stays unchecked.  Errors name the failing cycle index.
    """
    resolved = _resolve_valid(plan)
    refs = resolved.refs
    # A plan without cycles derives nothing: beta_sq**0 is 1 whatever it is.
    beta_sq = _step_beta_sq(plan.k) if plan.cycles else Fraction(1)
    checked = set()
    if oracle is not None:
        # Checked before any report is written, so a run whose oracle
        # disagrees writes nothing; only the checked cells are kept.
        first: dict[tuple[int, int], int] = {}  # each cell's first cycle
        for i, cyc in enumerate(plan.cycles):
            first.setdefault((refs[cyc.left].n, refs[cyc.right].n), i)
        unchecked = _CycleResults(plan, refs, beta_sq, frozenset())
        for cell, i in first.items():
            _, _, _, num, den, _ = unchecked._row(i)
            problems = oracle(plan.k, *cell, Fraction(num, den))
            if problems:
                raise PlanExecutionError(
                    i, "oracle disagreement: " + "; ".join(problems))
            if problems is not None:
                checked.add(cell)
    cycles = _CycleResults(plan, refs, beta_sq, frozenset(checked))
    return ExecutionReport(cycles, _telescoped(plan, resolved, beta_sq),
                           _ledger(plan, resolved), resolved.final)


def chunk_ranges(count: int) -> list[range]:
    """The indexes 0..count-1 in consecutive ranges of CHUNK_CYCLES."""
    return [range(start, min(start + CHUNK_CYCLES, count))
            for start in range(0, count, CHUNK_CYCLES)]


def check_cycle_count(cycles: int) -> None:
    """Raise ValueError for a plan of more than MAX_CYCLES cycles."""
    if cycles > MAX_CYCLES:
        raise ValueError(f"the plan would have {int_str(cycles)} cycles, more "
                         f"than the limit of {int_str(MAX_CYCLES)}")


def _check_generator_domain(k: int, n: int, name: str, minimum: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > MAX_K:
        raise ValueError(f"k must be at most {MAX_K}, got {k}")
    if n < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {n}")


def gen_exact_plan(k: int, n1: int, n2: int) -> ProtocolPlan:
    """Lossless two-cycle schedule reaching Z_k(n1 + n2).

    All n1 + n2 input qubits survive; only the 4k qubits of one locally
    generated Z_k(4k) ancilla are consumed, 2k per projection.
    """
    _check_generator_domain(k, n1, "n1", 2 * k)
    _check_generator_domain(k, n2, "n2", 2 * k)
    inputs = (StateRef("in1", k, n1), StateRef("in2", k, n2))
    cycles = (Cycle("anc", "in1", "mid"), Cycle("mid", "in2", "out"))
    return ProtocolPlan(k, inputs, (StateRef("anc", k, 4 * k),), cycles,
                        n1 + n2)


def _grown_plan(k: int, n_target: int, doubling: bool) -> ProtocolPlan:
    """Reach Z_k(n_target) from Z_k(2k+1) base states: with `doubling`, a
    balanced tree first builds the largest power-of-two span that fits;
    the rest of the span is closed by +1 cycles, one fresh base state each.
    A span of n_target - 2k takes span - 1 cycles either way."""
    base_n = 2 * k + 1
    _check_generator_domain(k, n_target, "n_target", base_n)
    span = n_target - 2 * k
    check_cycle_count(span - 1)
    bases: list[StateRef] = []
    cycles: list[Cycle] = []

    def fresh_base() -> str:
        bases.append(StateRef(f"base{len(bases) + 1}", k, base_n))
        return bases[-1].id

    def join(left: str, right: str) -> str:
        cycles.append(Cycle(left, right, f"s{len(cycles) + 1}"))
        return cycles[-1].produced

    def build(s: int) -> str:
        return fresh_base() if s == 1 else join(build(s // 2), build(s // 2))

    top = 1 << (span.bit_length() - 1) if doubling else 1
    current = build(top)
    for _ in range(span - top):
        current = join(current, fresh_base())
    return ProtocolPlan(k, tuple(bases), (), tuple(cycles), n_target)


def gen_incremental_plan(k: int, n_target: int) -> ProtocolPlan:
    """Grow one qubit per cycle from a supply of Z_k(2k+1) base states.

    Cycle i distills the current Z_k(2k+i) with a fresh base state into
    Z_k(2k+i+1); n_target - 2k - 1 cycles in total.  The smallest target,
    n_target = 2k+1, is a base state itself and needs no cycles.
    """
    return _grown_plan(k, n_target, False)


def gen_exponential_plan(k: int, n_target: int) -> ProtocolPlan:
    """Double the added-qubit span per layer, then fine-tune by +1 steps.

    Pairing two equal Z_k(2k+s) states yields Z_k(2k+2s), so a balanced
    tree reaches span s = 2**m at dependency depth m using 2**m - 1 cycles.
    The largest power of two not exceeding n_target - 2k is built first
    (doubling has the larger per-cycle yield); any remaining gap is closed
    with incremental cycles, one fresh base state each.  Total cycle count
    is linear in the span; the dependency depth is what stays logarithmic.
    """
    return _grown_plan(k, n_target, True)
