"""Declarative multi-cycle distillation plans with exact accounting.

A plan is a graph: the declared input and ancilla states are its base
nodes, and each cycle joins two states, named by id, into a third.
Whole-array tests accept a valid plan and resolve it into int columns by
state position (sizes, depths, operands); any other is refused with every
violation, worded by one sequential pass.  Validation, depth, critical
path, ledger, execution and DOT export all read those columns.
Execution is purely symbolic: each cycle takes the one step, derived
once per run, and its probability follows from the norms C(n, k) of its
three states, each computed once.  Cycles act on disjoint fresh states
(the dataflow rules enforce single consumption), so the probability that
a whole plan succeeds is the product of its per-cycle probabilities, a
product that telescopes.  A report's summary comes from the resolve
pass and the one step; its cycle results are built when read, so a
report holds no per-cycle record.  A generated plan holds no per-cycle
record either: its `inputs` and `cycles` are views over its columns (the
ids, and each cycle's operand positions) that build a `StateRef` or a
`Cycle` when read, and the resolve pass takes its positions from those
columns.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat
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
    """One cycle of a report: its three state ids, their sizes, and its
    probability as the reduced num/den, den > 0."""

    left: str
    right: str
    produced: str
    n_left: int
    n_right: int
    n_produced: int
    num: int
    den: int
    oracle_checked: bool = False

    @property
    def probability(self) -> Fraction:
        return Fraction(self.num, self.den)


class ResourceLedger(NamedTuple):
    """Exact qubit accounting: output = input + ancilla - 2k * cycles."""

    input_qubits: int
    ancilla_qubits: int
    consumed_qubits: int
    cycles: int
    output_qubits: int
    depth: int


class _View:
    """A read-only sequence of records, each built by `_item` when it is
    read.  It has a length, can be indexed from either end, sliced (into a
    tuple) and iterated any number of times, and compares and hashes as
    the tuple of its records."""

    __slots__ = ()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._item, range(len(self))[i]))
        return self._item(range(len(self))[i])  # negative from the end

    def __iter__(self) -> Iterator:
        return map(self._item, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _View)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


class _Inputs(_View):
    """A generated plan's base states: Z_k(n) on each of the first `count`
    ids of its states."""

    __slots__ = ("_ids", "_k", "_n", "_count")

    def __init__(self, ids: list, k: int, n: int, count: int) -> None:
        self._ids, self._k, self._n, self._count = ids, k, n, count

    def __len__(self) -> int:
        return self._count

    def _item(self, i: int) -> StateRef:
        return StateRef(self._ids[i], self._k, self._n)


class _Cycles(_View):
    """A generated plan's cycles by state position (the base states, then
    cycle i's product at D + i): cycle i joins `left[i]` and `right[i]`."""

    __slots__ = ("_ids", "_left", "_right")

    def __init__(self, ids: list, left: list, right: list) -> None:
        self._ids, self._left, self._right = ids, left, right

    def __len__(self) -> int:
        return len(self._left)

    def _item(self, i: int) -> Cycle:
        ids, left = self._ids, self._left
        return Cycle(ids[left[i]], ids[self._right[i]], ids[len(ids) - len(left) + i])


class _CycleResults(_View):
    """A report's cycle results, each computed when it is read from the
    resolved columns, the states' C(n, k) and the step's beta_sq; `checked`
    holds the cells (n1, n2) the oracle replayed.  The writers read plain
    rows (`rows`), and indexing wraps the same row in a `CycleResult`."""

    __slots__ = ("_resolved", "_norms", "_num", "_den", "_checked")

    def __init__(self, resolved: _Resolved, norms: list[int], beta_sq: Fraction,
                 checked: frozenset) -> None:
        self._resolved, self._norms, self._checked = resolved, norms, checked
        self._num, self._den = beta_sq.numerator, beta_sq.denominator

    def __len__(self) -> int:
        return len(self._resolved.left)

    def rows(self, indexes: range, names: Optional[list] = None) -> Iterator[tuple]:
        """Each cycle's `CycleResult` fields as a plain tuple, for the
        consecutive `indexes`; its states are named from `names` by
        position, the states' ids if None."""
        start, stop = indexes.start, indexes.stop
        sizes, _, left, right = self._resolved[1:5]
        ids = self._resolved.ids if names is None else names
        norms, num, den, checked = self._norms, self._num, self._den, self._checked
        for a, b, s in zip(left[start:stop], right[start:stop],
                           range(len(sizes) - len(left) + start, len(sizes))):
            p, q = num * norms[s], den * norms[a] * norms[b]
            g, n1, n2 = gcd(p, q), sizes[a], sizes[b]
            yield (ids[a], ids[b], ids[s], n1, n2, sizes[s], p // g, q // g,
                   (n1, n2) in checked)

    def _item(self, i: int) -> CycleResult:
        return CycleResult._make(next(self.rows(range(i, i + 1))))


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
    """A valid plan's columns: each state's id, size and dependency depth by
    position (the declared states in order, then cycle i's product at
    D + i, D the number declared), each cycle's operand positions, and the
    final state's."""

    ids: list
    sizes: list
    depth: list
    left: list
    right: list
    final: int


def _z(k: int, n: int) -> str:
    return f"Z_{int_str(k)}({int_str(n)})"


def _resolve(plan: ProtocolPlan) -> _Resolved:
    """The plan's columns.  A valid plan is accepted by whole-array tests:
    k in 1..MAX_K, ids distinct and non-empty, every declared state of the
    plan's k with n >= k, every operand an earlier state consumed once and
    no smaller than 2k, and the final state the target.  Any other plan
    raises InvalidPlanError with the violations `_violations` words."""
    k, inputs, cycles = plan.k, plan.inputs, plan.cycles
    if (type(inputs) is _Inputs and type(cycles) is _Cycles
            and inputs._ids is cycles._ids and not plan.ancillas):
        # A generated plan: its columns give every id and operand position.
        ids, left, right = cycles._ids, cycles._left, cycles._right
        named, ks, sizes = {*ids}, {inputs._k}, [inputs._n] * len(inputs)
    else:
        declared = (*inputs, *plan.ancillas)
        ids = [*map(itemgetter(0), declared), *map(itemgetter(2), cycles)]
        named = dict(zip(ids, range(len(ids))))
        # An id no state has gets position n, which no cycle's position passes.
        left = [*map(named.get, map(itemgetter(0), cycles), repeat(len(ids)))]
        right = [*map(named.get, map(itemgetter(1), cycles), repeat(len(ids)))]
        ks, sizes = {*map(itemgetter(1), declared)}, [*map(itemgetter(2), declared)]
    n, c, two_k, least = len(ids), len(left), 2 * k, min(sizes, default=k)
    d = n - c
    if (1 <= k <= MAX_K and len(named) == n and "" not in named and ks <= {k}
            and least >= k and all(map(lt, left, range(d, n)))
            and all(map(lt, right, range(d, n))) and len({*left, *right}) == 2 * c):
        depth = [0] * d
        for a, b in zip(left, right):
            sizes.append(sizes[a] + sizes[b] - two_k)
            da, db = depth[a], depth[b]
            depth.append((da if da > db else db) + 1)  # `max` costs a call
        final = n - 1 if c else next(
            (s for s in range(len(inputs)) if sizes[s] == plan.target_n), None)
        # With no base state below 2k, no product is either.
        if (final is not None and sizes[final] == plan.target_n
                and (least >= two_k or min(map(sizes.__getitem__, left + right),
                                           default=two_k) >= two_k)):
            return _Resolved(ids, sizes, depth, left, right, final)
    raise InvalidPlanError(_violations(plan))


def _violations(plan: ProtocolPlan) -> list[str]:
    """The violations of a plan `_resolve` does not accept: one pass in plan
    order words every violation, of the plan's k, of each declared state,
    of each cycle's operands and then its produced id, and of the target.
    Messages spell every integer with `int_str`, since a product of two
    declared sizes can pass the `str` digit limit."""
    v: list[str] = []
    k = plan.k
    if k < 1:
        v.append(f"plan k must be >= 1, got {int_str(k)}")
    elif k > MAX_K:
        v.append(f"plan k must be at most {MAX_K}, got {int_str(k)}")
    two_k = 2 * k
    states: dict = {}  # each state's (k, n) by id: a repeated id's last
    for origin, declared in (("input", plan.inputs), ("ancilla", plan.ancillas)):
        for sid, sk, sn in declared:
            if not sid:
                v.append(f"{origin} state with empty id")
            if sid in states:
                v.append(f"duplicate state id {sid!r}")
            states[sid] = (sk, sn)
            if sk != k:
                v.append(f"state {sid!r} has k={int_str(sk)}, plan k={int_str(k)}")
            if sn < 1:
                v.append(f"state {sid!r} has no qubits")
            elif sn < sk:
                v.append(f"state {sid!r} has k={int_str(sk)} > n={int_str(sn)}")
    unresolved, consumed, final = set(), set(), None
    for i, (lid, rid, pid) in enumerate(plan.cycles):
        sizes = []
        for side, op in (("left", lid), ("right", rid)):
            state = states.get(op)
            if state is None:
                # A product of an unresolved cycle was worded with it.
                if op not in unresolved:
                    v.append(f"cycle {i}: {side} operand {op!r} is not an input, "
                             f"ancilla, or earlier product")
                continue
            if state[1] < two_k:
                v.append(f"cycle {i}: {side} operand {_z(*state)} has n < 2k")
            if op in consumed:
                v.append(f"cycle {i}: {side} operand {op!r} already consumed")
            consumed.add(op)
            sizes.append(state[1])
        if not pid:
            v.append(f"cycle {i}: empty produced id")
        if pid in states or pid in unresolved:
            v.append(f"cycle {i}: produced id {pid!r} already in use")
        if len(sizes) < 2:
            unresolved.add(pid)
            final = None
        else:
            final = states[pid] = (k, sizes[0] + sizes[1] - two_k)
    if plan.cycles:
        if final is not None and final[1] != plan.target_n:
            v.append(f"final product {_z(*final)} does not match "
                     f"target {_z(k, plan.target_n)}")
    elif (k, plan.target_n) not in [(r.k, r.n) for r in plan.inputs]:
        v.append("plan with no cycles has no input matching the target")
    return v


def validate_plan(plan: ProtocolPlan) -> list[str]:
    """Every violation found; an empty list means the plan is executable.

    Checks excitation-count consistency, that each declared Z_k(n) has
    1 <= n and k <= n, the n >= 2k operand requirement, that every operand
    names an input, ancilla or earlier product, single consumption, id
    uniqueness, and the target arithmetic.
    """
    try:
        _resolve(plan)
    except InvalidPlanError as exc:
        return exc.violations
    return []


def critical_path(plan: ProtocolPlan) -> list[int]:
    """Qubit counts along the deepest dependency chain, base state first.

    The chain ends at the final state, unless a product the final state does
    not depend on lies deeper; its length is then still the ledger's depth
    plus one.  Raises InvalidPlanError for a plan that does not validate.
    """
    _, sizes, depth, left, right, final = _resolve(plan)
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
    resolved = _resolve(plan)
    ids, sizes, depth, left, right, final = resolved
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
    checked = set()
    if oracle is not None:
        # Checked before any report is written, so a run whose oracle
        # disagrees writes nothing; only the checked cells are kept.
        unchecked = _CycleResults(resolved, norms, beta_sq, frozenset())
        first: dict[tuple[int, int], int] = {}  # each cell's first cycle
        for i, a, b in zip(range(c), left, right):
            first.setdefault((sizes[a], sizes[b]), i)
        for cell, i in first.items():
            problems = oracle(k, *cell, unchecked[i].probability)
            if problems:
                raise PlanExecutionError(
                    i, "oracle disagreement: " + "; ".join(problems))
            if problems is not None:
                checked.add(cell)
    cycles = _CycleResults(resolved, norms, beta_sq, frozenset(checked))
    ins, anc = sum(sizes[:len(plan.inputs)]), sum(sizes[len(plan.inputs):d])
    ledger = ResourceLedger(ins, anc, 2 * k * c, c, ins + anc - 2 * k * c, max(depth))
    return ExecutionReport(cycles, _telescoped(norms, unused, d, beta_sq), ledger,
                           StateRef(ids[final], k, sizes[final]))


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


def _grown_span(k: int, n_target: int) -> int:
    """The span n_target - 2k of a grown plan, once the checks it is built
    after hold: ValueError for k outside 1..MAX_K, n_target below 2k + 1,
    or span - 1 cycles past MAX_CYCLES."""
    _check_generator_domain(k, n_target, "n_target", 2 * k + 1)
    span = n_target - 2 * k
    check_cycle_count(span - 1)
    return span


def _grown_plan(k: int, n_target: int, doubling: bool) -> ProtocolPlan:
    """Reach Z_k(n_target) from Z_k(2k+1) base states: with `doubling`, a
    balanced tree first builds the largest power-of-two span that fits;
    the rest of the span is closed by +1 cycles, one fresh base state each.
    A span of n_target - 2k takes span - 1 cycles either way.  States are
    numbered as they are made, the tree's in post-order: base state j is
    `base{j+1}` at position j, cycle i's product `s{i+1}` at span + i."""
    span = _grown_span(k, n_target)
    top = 1 << (span.bit_length() - 1) if doubling else 1
    # The tree of 2s leaves is the tree of s, its copy on the next s base
    # states and s - 1 products (a base state's position moves by s, a
    # product's by s - 1), and the cycle joining the two tops.
    left, right, root, s = [], [], 0, 1
    while s < top:
        left += [p + s - (p >= span) for p in left]
        right += [p + s - (p >= span) for p in right]
        left.append(root)
        right.append(root + s - (root >= span))
        root, s = span + len(left) - 1, 2 * s
    if top < span:
        left += [root, *range(span + top - 1, 2 * span - 2)]
        right += range(top, span)
    ids = [f"base{j}" for j in range(1, span + 1)] + [f"s{i}" for i in range(1, span)]
    return ProtocolPlan(k, _Inputs(ids, k, 2 * k + 1, span), (),
                        _Cycles(ids, left, right), n_target)


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
