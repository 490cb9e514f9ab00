"""Declarative multi-cycle distillation plans with exact accounting.

A plan is a graph: the declared input and ancilla states are its base
nodes, and each cycle joins two states, named by id, into a third.  One
pass resolves every id to its size, depth and producing cycle and collects
the violations; validation, depth, critical path, ledger, execution and
DOT export all read it.  Execution is purely symbolic and deterministic.
Cycles act on disjoint fresh states (the dataflow rules enforce single
consumption), so the probability that an entire plan succeeds is the
product of its per-cycle success probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .blocks import BlockSum, RegisterId, z_state
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
    "validate_plan",
    "execute_plan",
    "plan_depth",
    "critical_path",
    "gen_exact_plan",
    "gen_incremental_plan",
    "gen_exponential_plan",
]

# oracle(k, n1, n2): the problems found replaying one step on Z_k(n1), Z_k(n2)
# (empty when it agrees), or None when the step is beyond the oracle's reach.
Oracle = Callable[[int, int, int], Optional[list[str]]]


@dataclass(frozen=True, slots=True)
class StateRef:
    """Descriptor of one Z_k(n) state appearing in a plan."""

    id: str
    k: int
    n: int


@dataclass(frozen=True, slots=True)
class Cycle:
    """One distillation cycle, by state id: left + right -> produced."""

    left: str
    right: str
    produced: str


@dataclass(frozen=True)
class ProtocolPlan:
    k: int
    inputs: tuple[StateRef, ...]
    ancillas: tuple[StateRef, ...]
    cycles: tuple[Cycle, ...]
    target: tuple[int, int]  # (k, n)


@dataclass(frozen=True)
class CycleResult:
    left: StateRef
    right: StateRef
    produced: StateRef
    probability: Fraction
    oracle_checked: bool = False


@dataclass(frozen=True)
class ResourceLedger:
    """Exact qubit accounting: output = input + ancilla - 2k * cycles."""

    input_qubits: int
    ancilla_qubits: int
    consumed_qubits: int
    cycles: int
    output_qubits: int
    depth: int


@dataclass(frozen=True)
class ExecutionReport:
    cycles: tuple[CycleResult, ...]
    cumulative_success: Fraction
    ledger: ResourceLedger
    final: StateRef
    final_state: BlockSum


class InvalidPlanError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class PlanExecutionError(RuntimeError):
    def __init__(self, cycle_index: int, message: str):
        self.cycle_index = cycle_index
        super().__init__(f"cycle {cycle_index}: {message}")


@dataclass(frozen=True)
class _Resolved:
    """Declared states and products whose operands resolved, by id.

    `depth` and `producer` hold only products; a base state has depth 0.
    """

    refs: dict[str, StateRef]
    depth: dict[str, int]
    producer: dict[str, Cycle]
    final: Optional[StateRef]
    violations: list[str]


def _z(k: int, n: int) -> str:
    return f"Z_{int_str(k)}({int_str(n)})"


def _resolve(plan: ProtocolPlan) -> _Resolved:
    """One pass over the plan; messages spell every integer with `int_str`,
    since a product of two declared sizes can pass the `str` digit limit."""
    v: list[str] = []
    k = plan.k
    if k < 1:
        v.append(f"plan k must be >= 1, got {int_str(k)}")
    if plan.target[0] != k:
        v.append(f"target excitation count {int_str(plan.target[0])} "
                 f"!= plan k {int_str(k)}")
    refs: dict[str, StateRef] = {}
    for origin, declared in (("input", plan.inputs), ("ancilla", plan.ancillas)):
        for ref in declared:
            if not ref.id:
                v.append(f"{origin} state with empty id")
            if ref.id in refs:
                v.append(f"duplicate state id {ref.id!r}")
            refs[ref.id] = ref
            if ref.k != k:
                v.append(f"state {ref.id!r} has k={int_str(ref.k)}, "
                         f"plan k={int_str(k)}")
            if ref.n < 1:
                v.append(f"state {ref.id!r} has no qubits")
    depth: dict[str, int] = {}
    producer: dict[str, Cycle] = {}
    unresolved: set[str] = set()
    consumed: set[str] = set()
    final: Optional[StateRef] = None
    for i, cyc in enumerate(plan.cycles):
        operands = []
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
            operands.append(ref)
        if not cyc.produced:
            v.append(f"cycle {i}: empty produced id")
        if cyc.produced in refs or cyc.produced in unresolved:
            v.append(f"cycle {i}: produced id {cyc.produced!r} already in use")
        final = None
        if len(operands) < 2:
            unresolved.add(cyc.produced)
            continue
        left, right = operands
        final = StateRef(cyc.produced, k, left.n + right.n - 2 * k)
        refs[final.id] = final
        depth[final.id] = 1 + max(depth.get(left.id, 0), depth.get(right.id, 0))
        producer[final.id] = cyc
    if plan.cycles:
        if final is not None and (final.k, final.n) != plan.target:
            v.append(f"final product {_z(final.k, final.n)} does not match "
                     f"target {_z(*plan.target)}")
    else:
        final = next((r for r in plan.inputs if (r.k, r.n) == plan.target), None)
        if final is None:
            v.append("plan with no cycles has no input matching the target")
    return _Resolved(refs, depth, producer, final, v)


def _resolve_valid(plan: ProtocolPlan) -> _Resolved:
    resolved = _resolve(plan)
    if resolved.violations:
        raise InvalidPlanError(resolved.violations)
    return resolved


def validate_plan(plan: ProtocolPlan) -> list[str]:
    """Every violation found; an empty list means the plan is executable.

    Checks excitation-count consistency, the n >= 2k operand requirement,
    that every operand names an input, ancilla or earlier product, single
    consumption, id uniqueness, and the target arithmetic.
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


def plan_depth(plan: ProtocolPlan) -> int:
    """Longest dependency chain of cycles (0 for a plan with none)."""
    return max(_resolve(plan).depth.values(), default=0)


def critical_path(plan: ProtocolPlan) -> list[int]:
    """Qubit counts along the deepest dependency chain, base state first.

    Raises InvalidPlanError for a plan that does not validate.
    """
    resolved = _resolve_valid(plan)
    depth = resolved.depth
    state = resolved.final
    path = [state.n]
    while state.id in resolved.producer:
        cyc = resolved.producer[state.id]
        pick = (cyc.left if depth.get(cyc.left, 0) >= depth.get(cyc.right, 0)
                else cyc.right)
        state = resolved.refs[pick]
        path.append(state.n)
    path.reverse()
    return path


def execute_plan(plan: ProtocolPlan,
                 oracle: Optional[Oracle] = None) -> ExecutionReport:
    """Run every cycle in order, symbolically, with exact probabilities.

    Raises InvalidPlanError, listing every violation, for a plan that does
    not validate.  With an `oracle`, each cycle is also replayed on it: a
    cycle it reports problems for fails, one it returns None for (beyond
    its reach) stays unchecked.  Errors name the failing cycle index.
    """
    resolved = _resolve_valid(plan)
    refs = resolved.refs
    states: dict[str, BlockSum] = {
        ref.id: z_state(ref.k, ref.n, RegisterId(ref.id, ref.n))
        for ref in (*plan.inputs, *plan.ancillas)}
    results: list[CycleResult] = []
    cumulative = Fraction(1)
    for i, cyc in enumerate(plan.cycles):
        left, right = refs[cyc.left], refs[cyc.right]
        try:
            outcome = distill_step(states.pop(cyc.left), states.pop(cyc.right),
                                   out_label=cyc.produced)
        except (ValueError, DistillationError) as exc:
            raise PlanExecutionError(i, str(exc)) from exc
        problems = None if oracle is None else oracle(plan.k, left.n, right.n)
        if problems:
            raise PlanExecutionError(
                i, "oracle disagreement: " + "; ".join(problems))
        states[cyc.produced] = outcome.post_state
        cumulative *= outcome.success_probability
        results.append(CycleResult(left, right, refs[cyc.produced],
                                   outcome.success_probability,
                                   problems is not None))
    return ExecutionReport(tuple(results), cumulative,
                           _ledger(plan, resolved), resolved.final,
                           states[resolved.final.id])


def _check_generator_domain(k: int, n: int, name: str, minimum: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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
                        (k, n1 + n2))


def gen_incremental_plan(k: int, n_target: int) -> ProtocolPlan:
    """Grow one qubit per cycle from a supply of Z_k(2k+1) base states.

    Cycle i distills the current Z_k(2k+i) with a fresh base state into
    Z_k(2k+i+1); n_target - 2k - 1 cycles in total.  The smallest target,
    n_target = 2k+1, is a base state itself and needs no cycles.
    """
    base_n = 2 * k + 1
    _check_generator_domain(k, n_target, "n_target", base_n)
    steps = n_target - base_n
    bases = tuple(StateRef(f"base{i + 1}", k, base_n)
                  for i in range(max(1, steps + 1)))
    cycles = tuple(Cycle(f"s{i}" if i else "base1", f"base{i + 2}", f"s{i + 1}")
                   for i in range(steps))
    return ProtocolPlan(k, bases, (), cycles, (k, n_target))


def gen_exponential_plan(k: int, n_target: int) -> ProtocolPlan:
    """Double the added-qubit span per layer, then fine-tune by +1 steps.

    Pairing two equal Z_k(2k+s) states yields Z_k(2k+2s), so a balanced
    tree reaches span s = 2**m at dependency depth m using 2**m - 1 cycles.
    The largest power of two not exceeding n_target - 2k is built first
    (doubling has the larger per-cycle yield); any remaining gap is closed
    with incremental cycles, one fresh base state each.  Total cycle count
    is linear in the span; the dependency depth is what stays logarithmic.
    """
    base_n = 2 * k + 1
    _check_generator_domain(k, n_target, "n_target", base_n)
    span = n_target - 2 * k
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

    top = 1 << (span.bit_length() - 1)
    current = build(top)
    for _ in range(span - top):
        current = join(current, fresh_base())
    return ProtocolPlan(k, tuple(bases), (), tuple(cycles), (k, n_target))
