"""Declarative multi-cycle distillation plans with exact accounting.

A plan is a graph: the declared input and ancilla states are its base
nodes, and each cycle joins two states, named by id, into a third.  One
pass resolves it into int columns by state position (sizes, depths,
operands) and collects the violations; validation, depth, critical path,
ledger, execution and DOT export all read those columns.  Execution is
purely symbolic: each cycle takes the one step, derived once per run, and
its probability follows from the norms C(n, k) of its three states, each
computed once.  Cycles act on disjoint fresh states (the dataflow rules
enforce single consumption), so the probability that a whole plan succeeds
is the product of its per-cycle probabilities, a product that telescopes.
A report's summary comes from the resolve pass and the one step; its
cycle results are built when read, so a report holds no per-cycle record.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, repeat
from math import comb, gcd
from operator import itemgetter, lt
from typing import Callable, Iterator, NamedTuple, Optional

from .blocks import z_state
from .combinatorics import int_str
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
    """A report's cycle results, each computed when it is read from the
    resolved columns, the states' C(n, k) and the step's beta_sq; `checked`
    holds the cells (n1, n2) the oracle replayed.  The writers read plain
    rows (`rows`), and indexing builds a `CycleResult` from the same row.
    It has a length, can be indexed, sliced (into a tuple) and iterated any
    number of times, and equals another report's when their records do."""

    __slots__ = ("_plan", "_resolved", "_norms", "_num", "_den", "_checked")

    def __init__(self, plan: ProtocolPlan, resolved: _Resolved,
                 norms: list[int], beta_sq: Fraction) -> None:
        self._plan, self._resolved, self._norms = plan, resolved, norms
        self._num, self._den = beta_sq.numerator, beta_sq.denominator
        self._checked: frozenset = frozenset()

    def __len__(self) -> int:
        return len(self._plan.cycles)

    def rows(self, indexes: range) -> Iterator[tuple]:
        """Each cycle's row, for the consecutive `indexes`: (left, right, produced,
        n_left, n_right, n_produced, num, den, checked), num/den reduced, den > 0."""
        start, stop = indexes.start, indexes.stop
        sizes, _, left, right = self._resolved[:4]
        norms, num, den, checked = self._norms, self._num, self._den, self._checked
        for (left_id, right_id, produced), a, b, s in zip(
                self._plan.cycles[start:stop], left[start:stop], right[start:stop],
                range(len(sizes) - len(left) + start, len(sizes))):
            p, q = num * norms[s], den * norms[a] * norms[b]
            g, n1, n2 = gcd(p, q), sizes[a], sizes[b]
            yield (left_id, right_id, produced, n1, n2, sizes[s], p // g, q // g,
                   (n1, n2) in checked)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i = range(len(self))[i]  # negative from the end; IndexError ends iter()
        left, right, produced, n1, n2, n, num, den, checked = next(
            self.rows(range(i, i + 1)))
        k = self._plan.k
        return CycleResult(StateRef(left, k, n1), StateRef(right, k, n2),
                           StateRef(produced, k, n), Fraction(num, den), checked)

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
    """Each state's size and dependency depth by position (the declared
    states in order, then cycle i's product at D + i, D the number
    declared), each cycle's operand positions and the final state's.  In a
    plan that does not validate, an operand naming no state has position
    None, as have the size and depth of a product of such an operand."""

    sizes: list
    depth: list
    left: list
    right: list
    final: Optional[int]
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


def _cycle_violations(i: int, cyc: Cycle, k: int, declared: tuple, index: dict,
                      sizes: list, consumed: set, unresolved: set) -> list[str]:
    """The violations of cycle i, each operand's in turn, then its produced
    id's; it marks the operands that resolve consumed."""
    v: list[str] = []
    for side, op in (("left", cyc.left), ("right", cyc.right)):
        s = index.get(op)
        if s is None:
            # A product of an unresolved cycle was reported with it.
            if op not in unresolved:
                v.append(f"cycle {i}: {side} operand {op!r} is not an input, "
                         f"ancilla, or earlier product")
            continue
        if sizes[s] < 2 * k:
            z = _z(declared[s].k if s < len(declared) else k, sizes[s])
            v.append(f"cycle {i}: {side} operand {z} has n < 2k")
        if op in consumed:
            v.append(f"cycle {i}: {side} operand {op!r} already consumed")
        consumed.add(op)
    if not cyc.produced:
        v.append(f"cycle {i}: empty produced id")
    if cyc.produced in index or cyc.produced in unresolved:
        v.append(f"cycle {i}: produced id {cyc.produced!r} already in use")
    return v


def _resolve(plan: ProtocolPlan) -> _Resolved:
    """One pass over the plan; messages spell every integer with `int_str`,
    since a product of two declared sizes can pass the `str` digit limit.
    A valid plan passes whole-array tests: ids distinct and non-empty, each
    operand an earlier state consumed once and no smaller than 2k.  Any other
    runs the loop that words violations, its helpers only where a test fails."""
    v: list[str] = []
    k = plan.k
    if k < 1:
        v.append(f"plan k must be >= 1, got {int_str(k)}")
    elif k > MAX_K:
        v.append(f"plan k must be at most {MAX_K}, got {int_str(k)}")
    declared, cycles = (*plan.inputs, *plan.ancillas), plan.cycles
    d, n, two_k = len(declared), len(declared) + len(cycles), 2 * k
    index = dict(zip(chain(map(itemgetter(0), declared),
                           map(itemgetter(2), cycles)), range(n)))
    distinct = len(index) == n and "" not in index
    sizes, depth = [*map(itemgetter(2), declared)], [0] * d
    least = min(sizes, default=k)
    if not (distinct and {*map(itemgetter(1), declared)} <= {k}
            and least >= max(k, 1)):
        v += _state_violations(plan)
    # An id no state has gets position n, which no cycle's position passes.
    left = [*map(index.get, map(itemgetter(0), cycles), repeat(n))]
    right = [*map(index.get, map(itemgetter(1), cycles), repeat(n))]
    valid = (distinct and all(map(lt, left, range(d, n)))
             and all(map(lt, right, range(d, n)))
             and len({*left, *right}) == 2 * len(cycles))
    if valid:
        for a, b in zip(left, right):
            sizes.append(sizes[a] + sizes[b] - two_k)
            depth.append(max(depth[a], depth[b]) + 1)
        # With no base state below 2k, no product is either.
        valid = least >= two_k or min(map(sizes.__getitem__, left + right),
                                      default=two_k) >= two_k
    if not valid:
        sizes[d:], depth[d:] = [None] * len(cycles), [None] * len(cycles)
        # A repeated id keeps the place of its first and the state of its last.
        index = dict(zip(map(itemgetter(0), declared), range(d)))
        unresolved, consumed = set(), set()
        for i, (lid, rid, pid) in enumerate(cycles):
            a, b = left[i], right[i] = index.get(lid), index.get(rid)
            if (a is not None and b is not None and sizes[a] >= two_k
                    and sizes[b] >= two_k and lid != rid and lid not in consumed
                    and rid not in consumed and pid and pid not in index
                    and pid not in unresolved):
                consumed.update((lid, rid))
            else:
                v += _cycle_violations(i, cycles[i], k, declared, index, sizes,
                                       consumed, unresolved)
                if a is None or b is None:
                    unresolved.add(pid)
                    continue
            index[pid] = d + i
            sizes[d + i] = sizes[a] + sizes[b] - two_k
            depth[d + i] = max(depth[a], depth[b]) + 1
    if cycles:
        final = None if sizes[-1] is None else n - 1
        if final is not None and sizes[final] != plan.target_n:
            v.append(f"final product {_z(k, sizes[final])} does not match "
                     f"target {_z(k, plan.target_n)}")
    else:
        final = next((s for s, r in enumerate(plan.inputs)
                      if (r.k, r.n) == (k, plan.target_n)), None)
        if final is None:
            v.append("plan with no cycles has no input matching the target")
    return _Resolved(sizes, depth, left, right, final, v)


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


def critical_path(plan: ProtocolPlan) -> list[int]:
    """Qubit counts along the deepest dependency chain, base state first.

    The chain ends at the final state, unless a product the final state does
    not depend on lies deeper; its length is then still the ledger's depth
    plus one.  Raises InvalidPlanError for a plan that does not validate.
    """
    sizes, depth, left, right, final, _ = _resolve_valid(plan)
    d = len(sizes) - len(left)  # state s >= d is cycle s - d's product
    # max keeps the first of equals: the final state on a tie.
    s = max([final, *range(d, len(sizes))], key=depth.__getitem__)
    path = [sizes[s]]
    while s >= d:
        a, b = left[s - d], right[s - d]
        s = a if depth[a] >= depth[b] else b
        path.append(sizes[s])
    return path[::-1]


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
    return outcome.success_probability * comb(n, k)


def _telescoped(norms: list, unused: set, d: int, beta_sq: Fraction) -> Fraction:
    """The product of every cycle's probability, reduced once.

    A product's C(n, k) is a numerator of the cycle producing it and a
    denominator of the cycle consuming it, so the product is beta_sq**c
    times the C(n, k) of every product never consumed, over the C(n, k) of
    every base state consumed: of every unused state over every base state.
    """
    c = len(norms) - d
    # How often each C(n, k) is left over, keyed by its value.
    up, down = Counter(map(norms.__getitem__, unused)), Counter(norms[:d])
    num, den = beta_sq.numerator ** c, beta_sq.denominator ** c
    for norm, power in (up - down).items():
        num *= norm ** power
    for norm, power in (down - up).items():
        den *= norm ** power
    return Fraction(num, den)


def execute_plan(plan: ProtocolPlan,
                 oracle: Optional[Oracle] = None) -> ExecutionReport:
    """Run every cycle in order, symbolically, with exact probabilities.

    Raises InvalidPlanError, listing every violation, for a plan that does
    not validate.  Every state of a plan is the unit Z_k(n) on its own id,
    fixed by its size, so the step is derived once per call (see
    `_step_beta_sq`), each cycle is sized by the norms C(n, k) of its three
    states, computed once per state, and the cumulative probability
    telescopes (see `_telescoped`).  The report's `cycles` build each
    cycle's result when it is read.
    With an `oracle`, a cycle's outcome is fixed by its cell (n1, n2), so
    each distinct cell is checked once before this returns, on the
    probability its first cycle reports: a cell it reports problems for
    fails that first cycle, one it returns None for (beyond its reach)
    stays unchecked.  Errors name the failing cycle index.
    """
    resolved = _resolve_valid(plan)
    sizes, depth, left, right = resolved[:4]
    k, c, d = plan.k, len(left), len(sizes) - len(left)
    # A plan without cycles derives nothing: beta_sq**0 is 1 whatever it is.
    beta_sq = _step_beta_sq(k) if c else Fraction(1)
    # C(n, k) once per state, but a base state no cycle consumes is never
    # read, and its own can be large: it gets C(k, k) = 1.
    unused = set(range(len(sizes))).difference(left, right)
    read = [*sizes]
    for s in unused.intersection(range(d)):
        read[s] = k
    norms = list(map(comb, read, repeat(k)))
    cycles = _CycleResults(plan, resolved, norms, beta_sq)
    if oracle is not None:
        # Checked before any report is written, so a run whose oracle
        # disagrees writes nothing; only the checked cells are kept.
        first: dict[tuple[int, int], int] = {}  # each cell's first cycle
        for i, a, b in zip(range(c), left, right):
            first.setdefault((sizes[a], sizes[b]), i)
        checked = set()
        for cell, i in first.items():
            num, den = next(cycles.rows(range(i, i + 1)))[6:8]
            problems = oracle(k, *cell, Fraction(num, den))
            if problems:
                raise PlanExecutionError(
                    i, "oracle disagreement: " + "; ".join(problems))
            if problems is not None:
                checked.add(cell)
        cycles._checked = frozenset(checked)
    final = (StateRef(plan.cycles[-1].produced, k, sizes[-1]) if c
             else plan.inputs[resolved.final])
    ins, anc = sum(sizes[:len(plan.inputs)]), sum(sizes[len(plan.inputs):d])
    ledger = ResourceLedger(ins, anc, 2 * k * c, c, ins + anc - 2 * k * c, max(depth))
    return ExecutionReport(cycles, _telescoped(norms, unused, d, beta_sq), ledger,
                           final)


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
