"""The plan, report and document records: immutable values, compared and
hashed by their fields."""

import pytest

from conftest import fresh_outcome
from zstates.cli import _ledger_items
from zstates.plandoc import PlanDocument, parse_document, render_document
from zstates.protocol import (
    Cycle,
    CycleResult,
    StateRef,
    _resolve,
    execute_plan,
    gen_exact_plan,
    gen_exponential_plan,
    gen_incremental_plan,
)
from zstates.verify import check_distillation_cell


def _document():
    plan = gen_exact_plan(1, 3, 3)
    return parse_document(render_document(PlanDocument(
        k=1, target_n=6, mode="explicit", inputs=plan.inputs,
        ancillas=plan.ancillas, cycles=plan.cycles)))


# Each builds a fresh record, equal in value to the one it built before; a
# name is the record's type, with what sets the record apart after a dash.
RECORDS = {
    "StateRef": lambda: StateRef("a", 1, 3),
    "Cycle": lambda: Cycle("a", "b", "c"),
    "ProtocolPlan": lambda: gen_exact_plan(1, 3, 3),
    "ProtocolPlan-generated": lambda: gen_exponential_plan(1, 9),
    "CycleResult": lambda: execute_plan(gen_exact_plan(1, 3, 3)).cycles[0],
    "ResourceLedger": lambda: execute_plan(gen_exact_plan(1, 3, 3)).ledger,
    "ExecutionReport": lambda: execute_plan(gen_exact_plan(1, 3, 3)),
    "_Resolved": lambda: _resolve(gen_exact_plan(1, 3, 3)),
    "DistillOutcome": lambda: fresh_outcome(1, 3, 3),
    "PlanDocument": _document,
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name.split("-")[0]
    assert a is not b and a == b
    assert a == tuple(getattr(a, field) for field in a._fields)
    if name != "_Resolved":  # its columns are lists, so it has no hash
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], getattr(b, b._fields[-1]))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_record_defaults():
    assert CycleResult("a", "b", "c", 3, 3, 4, 1, 2).oracle_checked is False
    doc = PlanDocument(k=1, target_n=6, mode="incremental")
    assert (doc.n1, doc.n2, doc.inputs, doc.ancillas, doc.cycles) == (
        None, None, (), (), ())


def test_ledger_items_follow_the_report_order():
    ledger = execute_plan(gen_exact_plan(1, 3, 3)).ledger
    assert _ledger_items(ledger) == [
        ("input_qubits", 6), ("ancilla_qubits", 4), ("consumed_qubits", 4),
        ("cycles", 2), ("output_qubits", 6), ("depth", 2)]


SLICES = (slice(0, 1), slice(None), slice(None, None, -1), slice(-2, None),
          slice(5, 1, -2), slice(1, 1), slice(3, 100))


@pytest.mark.parametrize("target", [3, 4, 9])
def test_report_cycles_slice_into_tuples(target):
    """A slice of a report's cycles is the tuple of results it names, on a
    plan of no, one and several cycles, with and without the oracle; the
    whole equals and hashes as the tuple of its results."""
    plan = gen_incremental_plan(1, target)
    for oracle in (None, check_distillation_cell):
        cycles = execute_plan(plan, oracle).cycles
        whole = tuple(cycles)
        assert cycles == whole and whole == cycles and hash(cycles) == hash(whole)
        for s in SLICES:
            assert cycles[s] == whole[s]
            assert type(cycles[s]) is tuple


@pytest.mark.parametrize("target", [3, 4, 9])
@pytest.mark.parametrize("generate", [gen_incremental_plan, gen_exponential_plan])
def test_generated_plan_views_read_as_tuples(generate, target):
    """A generated plan's inputs and cycles are read-only views, on plans of
    no, one and several cycles: they have a length, index from either end
    (IndexError past it), slice into tuples, iterate more than once, and
    compare and hash as their tuple twins, in both directions."""
    plan = generate(1, target)
    for view in (plan.inputs, plan.cycles):
        whole = tuple(view)
        assert tuple(view) == whole and len(view) == len(whole)
        for i in range(-len(whole), len(whole)):
            assert view[i] == whole[i]
        for i in (len(whole), -len(whole) - 1):
            with pytest.raises(IndexError):
                view[i]
        for s in SLICES:
            assert view[s] == whole[s]
            assert type(view[s]) is tuple
        assert view == whole and whole == view and hash(view) == hash(whole)
        assert view != list(whole)
        with pytest.raises(TypeError):
            view[0] = None
