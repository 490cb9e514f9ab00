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
from .protocol import ProtocolPlan, _resolve, chunk_ranges

__all__ = ["plan_to_dot"]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# A state node, and a cycle's projection node, its product and its edges.
_STATE = '  %s [shape=box, style=rounded, label="Z_%s(%s)"];\n'
_CYCLE = ('  "proj%d" [shape=rarrow, label="consume %s"];\n' + _STATE
          + '  %s -> "proj%d";\n  %s -> "proj%d";\n  "proj%d" -> %s;\n')


def plan_to_dot(plan: ProtocolPlan, out: TextIO) -> None:
    """Write DOT source for a plan to `out`, a chunk of states or cycles at a
    time; raises InvalidPlanError, with nothing written, if it does not
    validate."""
    ids, sizes, _, left, right = _resolve(plan)[:5]
    # Ids are tested all at once: only one holding a quote or a backslash
    # needs escapes, and only one starting with `proj` or `~` a prefix.
    joined = "\0" + "\0".join(ids)
    if any(mark in joined for mark in ('"', "\\", "\0proj", "\0~")):
        node = [_quote("~" + i if i.startswith(("proj", "~")) else i) for i in ids]
    else:
        node = list(map('"%s"'.__mod__, ids))
    k = int_str(plan.k)  # a valid plan's states all have the plan's k
    consume, d = int_str(2 * plan.k), len(sizes) - len(left)
    out.write("digraph plan {\n  rankdir=LR;\n")
    for part in chunk_ranges(d):
        out.write("".join([_STATE % (node[s], k, int_str(sizes[s])) for s in part]))
    for part in chunk_ranges(len(left)):
        start, stop = part.start, part.stop
        out.write("".join([
            _CYCLE % (i, consume, node[s], k, int_str(sizes[s]), node[a], i,
                      node[b], i, i, node[s])
            for i, s, a, b in zip(part, range(d + start, d + stop),
                                  left[start:stop], right[start:stop])]))
    out.write("}\n")
