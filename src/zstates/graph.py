"""DOT export of distillation plans.

States are round-rectangle nodes labelled `Z_k(n)`; each projection is an
arrow-shaped polygon node labelled with the 2k qubits it consumes.  Edges
run operand -> projection -> product.  Output is a pure function of the
plan, so repeated exports are byte-identical.  Only plans that validate
can be drawn: product sizes come from resolving the plan's ids.  Sizes are
spelled with `int_str`, so a size past `str`'s digit limit still draws.

Cycle i's projection node is `proj{i}`.  A state whose id starts with
`proj` or `~` is drawn as `~` + id, so no state meets a projection node:
other ids never start with `~`, and the prefix keeps distinct ids distinct.
"""

from __future__ import annotations

from typing import TextIO

from .combinatorics import int_str
from .protocol import (
    Cycle,
    ProtocolPlan,
    StateRef,
    _resolve_valid,
    chunk_ranges,
)

__all__ = ["plan_to_dot"]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def plan_to_dot(plan: ProtocolPlan, out: TextIO) -> None:
    """Write DOT source for a plan to `out`, a chunk of states or cycles at a
    time; raises InvalidPlanError, with nothing written, if it does not
    validate."""
    refs = _resolve_valid(plan).refs
    node = {i: _quote("~" + i if i.startswith(("proj", "~")) else i)
            for i in refs}
    k = int_str(plan.k)  # a valid plan's states all have the plan's k
    consume = _quote(f"consume {int_str(2 * plan.k)}")
    bases, cycles = (*plan.inputs, *plan.ancillas), plan.cycles

    def state(ref: StateRef) -> str:
        return (f"  {node[ref.id]} [shape=box, style=rounded, "
                f"label={_quote(f'Z_{k}({int_str(ref.n)})')}];\n")

    def projection(i: int, cyc: Cycle) -> str:
        proj = _quote(f"proj{i}")
        return (f"  {proj} [shape=rarrow, label={consume}];\n"
                + state(refs[cyc.produced])
                + f"  {node[cyc.left]} -> {proj};\n  {node[cyc.right]} -> "
                f"{proj};\n  {proj} -> {node[cyc.produced]};\n")

    out.write("digraph plan {\n  rankdir=LR;\n")
    for part in chunk_ranges(len(bases)):
        out.write("".join([state(bases[i]) for i in part]))
    for part in chunk_ranges(len(cycles)):
        out.write("".join([projection(i, cycles[i]) for i in part]))
    out.write("}\n")
