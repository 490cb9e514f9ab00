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

from .combinatorics import int_str
from .protocol import ProtocolPlan, _resolve_valid

__all__ = ["plan_to_dot"]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def plan_to_dot(plan: ProtocolPlan) -> str:
    """DOT source for a plan; raises InvalidPlanError if it does not validate."""
    refs = _resolve_valid(plan).refs
    node = {i: _quote("~" + i if i.startswith(("proj", "~")) else i)
            for i in refs}
    k = int_str(plan.k)  # a valid plan's states all have the plan's k
    consume = _quote(f"consume {int_str(2 * plan.k)}")
    lines = ["digraph plan {", "  rankdir=LR;"]
    for ref in (*plan.inputs, *plan.ancillas):
        lines.append(f"  {node[ref.id]} [shape=box, style=rounded, "
                     f"label={_quote(f'Z_{k}({int_str(ref.n)})')}];")
    for i, cyc in enumerate(plan.cycles):
        proj = _quote(f"proj{i}")
        out = refs[cyc.produced]
        lines.append(f"  {proj} [shape=rarrow, label={consume}];")
        lines.append(f"  {node[out.id]} [shape=box, style=rounded, "
                     f"label={_quote(f'Z_{k}({int_str(out.n)})')}];")
        lines.append(f"  {node[cyc.left]} -> {proj};")
        lines.append(f"  {node[cyc.right]} -> {proj};")
        lines.append(f"  {proj} -> {node[out.id]};")
    lines.append("}\n")
    return "\n".join(lines)
