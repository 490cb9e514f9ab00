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
    _resolve_valid,
    execute_plan,
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
    """The DOT source as one string, as it was built before it streamed."""
    refs = _resolve_valid(plan).refs
    node = {i: _quote("~" + i if i.startswith(("proj", "~")) else i)
            for i in refs}
    k = int_str(plan.k)
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


C = CHUNK_CYCLES


@pytest.mark.parametrize("cycles", [0, 1, C - 1, C, C + 1, 2 * C + 1])
def test_written_bytes_across_chunk_boundaries(cycles):
    """An incremental k=1 plan of c cycles has c + 1 base states, so the
    DOT writer's state chunks cross their boundaries here too.  With the
    oracle, the first cycles are marked checked and the rest are not."""
    plan = gen_incremental_plan(1, 3 + cycles)
    assert len(plan.cycles) == cycles
    for oracle in (None, check_distillation_cell):
        report = execute_plan(plan, oracle)
        assert written(report_to_text, plan, report) == joined_text(plan, report)
        assert written(report_to_json, plan, report) == reference_json(plan, report)
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
