"""Reports and graphs are written a chunk of cycles at a time.

The writers must put out the same bytes as when each report was joined
whole, on either side of every chunk boundary, and hold one chunk, not the
whole report, while they write.
"""

import io
import tracemalloc

import pytest

from test_cli import reference_json, written
from zstates.cli import (
    _frac_str,
    _ledger_items,
    _state_str,
    report_to_json,
    report_to_text,
)
from zstates.combinatorics import int_str
from zstates.graph import _quote, plan_to_dot
from zstates.plandoc import approx_decimal
from zstates.protocol import (
    CHUNK_CYCLES,
    Cycle,
    ProtocolPlan,
    StateRef,
    _resolve_valid,
    execute_plan,
    gen_exponential_plan,
    gen_incremental_plan,
)
from zstates.verify import check_distillation_cell


def joined_text(plan, report):
    """The text report as one string, as it was built before it streamed."""
    lines = [f"plan: k={plan.k} cycles={len(plan.cycles)} "
             f"target=Z_{plan.k}({plan.target_n})"]
    for i, r in enumerate(report.cycles):
        oracle = "  [oracle ok]" if r.oracle_checked else ""
        lines.append(
            f"cycle {i + 1}: {_state_str(r.left)}[{r.left.id}] + "
            f"{_state_str(r.right)}[{r.right.id}] -> "
            f"{_state_str(r.produced)}[{r.produced.id}]  "
            f"p = {_frac_str(r.probability)} "
            f"(~ {approx_decimal(r.probability)}){oracle}")
    lines.append("cumulative success probability: "
                 f"{_frac_str(report.cumulative_success)} "
                 f"(~ {approx_decimal(report.cumulative_success)})")
    lines.append("ledger: " + " ".join(
        [f"{name}={int_str(value)}" for name, value in _ledger_items(report.ledger)]))
    lines.append(f"final: {_state_str(report.final)}\n")
    return "\n".join(lines)


def joined_dot(plan):
    """The DOT source as one string, as it was built before it streamed;
    a product's size is read from the resolved columns, at its position."""
    bases = (*plan.inputs, *plan.ancillas)
    sizes = _resolve_valid(plan).sizes
    node = {i: _quote("~" + i if i.startswith(("proj", "~")) else i)
            for i in [*(r.id for r in bases), *(c.produced for c in plan.cycles)]}
    k = int_str(plan.k)
    consume = _quote(f"consume {int_str(2 * plan.k)}")
    lines = ["digraph plan {", "  rankdir=LR;"]
    for ref in bases:
        lines.append(f"  {node[ref.id]} [shape=box, style=rounded, "
                     f"label={_quote(f'Z_{k}({int_str(ref.n)})')}];")
    for i, cyc in enumerate(plan.cycles):
        proj = _quote(f"proj{i}")
        out = StateRef(cyc.produced, plan.k, sizes[len(bases) + i])
        lines.append(f"  {proj} [shape=rarrow, label={consume}];")
        lines.append(f"  {node[out.id]} [shape=box, style=rounded, "
                     f"label={_quote(f'Z_{k}({int_str(out.n)})')}];")
        lines.append(f"  {node[cyc.left]} -> {proj};")
        lines.append(f"  {node[cyc.right]} -> {proj};")
        lines.append(f"  {proj} -> {node[out.id]};")
    lines.append("}\n")
    return "\n".join(lines)


C = CHUNK_CYCLES


@pytest.mark.parametrize("grow, k, cycles", [
    *[pytest.param(gen_incremental_plan, 1, c, id=str(c))
      for c in (0, 1, C - 1, C, C + 1, 2 * C + 1)],
    *[pytest.param(gen_exponential_plan, k, c, id=f"exponential-k{k}-{c}")
      for k in (2, 3) for c in (C + 1, 2 * C + 1)]])
def test_written_bytes_across_chunk_boundaries(grow, k, cycles):
    """A plan grown by c cycles from Z_k(2k+1) base states has c + 1 of
    them, so the DOT writer's state chunks cross their boundaries here too.
    An exponential plan repeats its doubling cells, and the C(n, k) of a
    cycle's states share divisors, so its probabilities reduce.  With the
    oracle, the cycles of cells within its reach are marked checked and
    the rest are not."""
    plan = grow(k, 2 * k + 1 + cycles)
    assert len(plan.cycles) == cycles
    for oracle in (None, check_distillation_cell):
        report = execute_plan(plan, oracle)
        assert written(report_to_text, plan, report) == joined_text(plan, report)
        assert written(report_to_json, plan, report) == reference_json(plan, report)
    assert written(plan_to_dot, plan) == joined_dot(plan)


@pytest.mark.parametrize("marks", [
    ("plain", "n"), ('q"', "n"), ("b\\", "n"), ("proj", "n"), ("~", "n"),
    ("n", 'q"', "b\\", "proj", "~", "é")])
def test_graph_bytes_with_ids_that_need_quoting_or_a_prefix(marks):
    """A chain of C + 1 cycles whose ids start with, or hold, a quote, a
    backslash, `proj` or `~` writes the bytes each node quoted on its own
    wrote, on either side of the chunk boundary, whether one such id or
    none is in the plan."""
    ids = [f"{marks[i % len(marks)]}{i}" for i in range(2 * C + 3)]
    inputs = tuple(StateRef(i, 1, 3) for i in ids[:C + 2])
    cycles, left = [], ids[0]
    for right, produced in zip(ids[1:C + 2], ids[C + 2:]):
        cycles.append(Cycle(left, right, produced))
        left = produced
    plan = ProtocolPlan(1, inputs, (), tuple(cycles), C + 4)
    assert written(plan_to_dot, plan) == joined_dot(plan)


class Counted(io.TextIOBase):
    """A stream that keeps nothing and counts the characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, s):
        self.chars += len(s)
        return len(s)


def test_text_writer_memory_does_not_grow_with_the_cycles():
    """A text report of 2*10^4 cycles writes about 1.9 MB, yet the writer
    peaks far below that: it holds one chunk of cycle lines at a time."""
    plan = gen_incremental_plan(1, 3 + 2 * 10 ** 4)
    report = execute_plan(plan)
    out = Counted()
    tracemalloc.start()
    try:
        report_to_text(plan, report, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.chars > 1_800_000
    assert peak < 256 * 1024
