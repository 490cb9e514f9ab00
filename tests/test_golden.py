"""Golden corpus: committed plan documents with frozen expected outcomes.

The expected values were generated once by replaying every cycle on the
brute-force dense expansion and committed; this suite recomputes everything
symbolically and compares exactly, so each number is confirmed by two
independent routes.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from zstates import (
    critical_path,
    document_to_plan,
    execute_plan,
    success_probability,
    validate_plan,
)
from zstates.plandoc import parse_document
from zstates.verify import check_distillation_cell

GOLDEN_DIR = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_dir())


def load_case(name):
    case_dir = GOLDEN_DIR / name
    doc = parse_document((case_dir / "plan.json").read_text(encoding="utf-8"))
    expected = json.loads((case_dir / "expected.json").read_text(encoding="utf-8"))
    return doc, expected


def test_corpus_is_present():
    assert CASES == ["exact_k1_3_3", "exact_k2_5_6", "exp_w10",
                     "incr_w6", "w3_w3_to_w4"]


@pytest.mark.parametrize("name", CASES)
def test_golden_case(name):
    doc, expected = load_case(name)
    plan = document_to_plan(doc)
    assert validate_plan(plan) == []
    report = execute_plan(plan)

    assert report.final.k == expected["final"]["k"]
    assert report.final.n == expected["final"]["n"]

    want_cycles = [Fraction(f["num"], f["den"])
                   for f in expected["per_cycle_probabilities"]]
    assert [c.probability for c in report.cycles] == want_cycles

    cumulative = expected["cumulative_probability"]
    assert report.cumulative_success == Fraction(cumulative["num"], cumulative["den"])

    led = report.ledger
    want_ledger = expected["ledger"]
    assert led.input_qubits == want_ledger["input_qubits"]
    assert led.ancilla_qubits == want_ledger["ancilla_qubits"]
    assert led.consumed_qubits == want_ledger["consumed_qubits"]
    assert led.cycles == want_ledger["cycles"]
    assert led.output_qubits == want_ledger["output_qubits"]
    assert led.depth == want_ledger["depth"]

    assert critical_path(plan) == expected["critical_path"]


@pytest.mark.parametrize("name", CASES)
def test_golden_case_notes_name_their_origin(name):
    _, expected = load_case(name)
    assert expected["note"]
    assert expected["provenance"]


@pytest.mark.parametrize("name", CASES)
def test_golden_checked_cycles_report_the_closed_form(name):
    """Every golden cycle lies within the oracle's reach, and each reports
    the closed form of its cell, on repeats of a checked cell too."""
    plan = document_to_plan(load_case(name)[0])
    report = execute_plan(plan, check_distillation_cell)
    assert all(c.oracle_checked and c.probability
               == success_probability(plan.k, c.n_left, c.n_right)
               for c in report.cycles)
