"""DOT export of distillation plans.

States are round-rectangle nodes labelled `Z_k(n)`; each projection is an
arrow-shaped polygon node labelled with the 2k qubits it consumes.  Edges
run operand -> projection -> product.  Output is a pure function of the
plan, so repeated exports are byte-identical.  Only plans that validate
can be drawn: product sizes come from resolving the plan's ids.
"""

from __future__ import annotations

from .protocol import ProtocolPlan, _resolve_valid

__all__ = ["plan_to_dot"]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def plan_to_dot(plan: ProtocolPlan) -> str:
    """DOT source for a plan; raises InvalidPlanError if it does not validate."""
    refs = _resolve_valid(plan).refs
    lines = ["digraph plan {", "  rankdir=LR;"]
    for ref in (*plan.inputs, *plan.ancillas):
        lines.append(f"  {_quote(ref.id)} [shape=box, style=rounded, "
                     f"label={_quote(f'Z_{ref.k}({ref.n})')}];")
    for i, cyc in enumerate(plan.cycles):
        proj = f"proj{i}"
        out = refs[cyc.produced]
        lines.append(f"  {_quote(proj)} [shape=rarrow, "
                     f"label={_quote(f'consume {2 * plan.k}')}];")
        lines.append(f"  {_quote(out.id)} [shape=box, style=rounded, "
                     f"label={_quote(f'Z_{out.k}({out.n})')}];")
        lines.append(f"  {_quote(cyc.left)} -> {_quote(proj)};")
        lines.append(f"  {_quote(cyc.right)} -> {_quote(proj)};")
        lines.append(f"  {_quote(proj)} -> {_quote(out.id)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
