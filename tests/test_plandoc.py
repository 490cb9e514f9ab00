"""Plan document schema: strict parsing, lossless round trips, decimals."""

import json
from fractions import Fraction

import pytest

from zstates import (
    DocumentError,
    InvalidPlanError,
    PlanDocument,
    approx_decimal,
    document_to_plan,
    gen_exponential_plan,
    parse_document,
    render_document,
    validate_plan,
)


def roundtrip(doc: PlanDocument) -> PlanDocument:
    return parse_document(render_document(doc))


def test_generator_mode_roundtrips():
    for doc in (
        PlanDocument(k=1, target_n=6, mode="exact", n1=3, n2=3),
        PlanDocument(k=2, target_n=9, mode="incremental"),
        PlanDocument(k=1, target_n=10, mode="exponential"),
    ):
        assert roundtrip(doc) == doc


def test_explicit_mode_roundtrip():
    doc = PlanDocument(
        k=1, target_n=4, mode="explicit",
        inputs=(("a", 1, 3), ("b", 1, 3)),
        ancillas=(),
        cycles=(("a", "b", "out"),),
    )
    assert roundtrip(doc) == doc
    plan = document_to_plan(doc)
    assert validate_plan(plan) == []
    assert document_to_plan(roundtrip(doc)) == plan


def test_explicit_document_preserves_any_plan():
    plan = gen_exponential_plan(1, 9)
    doc = PlanDocument(
        k=plan.k, target_n=plan.target_n, mode="explicit",
        inputs=tuple((r.id, r.k, r.n) for r in plan.inputs),
        ancillas=tuple((r.id, r.k, r.n) for r in plan.ancillas),
        cycles=tuple((c.left, c.right, c.produced) for c in plan.cycles),
    )
    assert document_to_plan(roundtrip(doc)) == plan


def test_unknown_fields_rejected():
    doc = json.loads(render_document(PlanDocument(k=1, target_n=6, mode="incremental")))
    doc["surprise"] = 1
    with pytest.raises(DocumentError):
        parse_document(json.dumps(doc))


def test_unknown_nested_fields_rejected():
    text = json.dumps({
        "schema_version": 1, "mode": "explicit", "k": 1, "target_n": 4,
        "inputs": [{"id": "a", "k": 1, "n": 3, "extra": 1}],
        "cycles": [],
    })
    with pytest.raises(DocumentError):
        parse_document(text)


@pytest.mark.parametrize("mutation", [
    {"schema_version": 2},
    {"mode": "unknown"},
    {"k": "1"},
    {"k": True},
    {"target_n": 5.0},
    {"n1": 3},
    {"inputs": []},
    {"verify_with_oracle": 1},
    {"dense_cap": 0},
])
def test_malformed_documents_rejected(mutation):
    base = json.loads(render_document(PlanDocument(k=1, target_n=6, mode="incremental")))
    base.update(mutation)
    with pytest.raises(DocumentError) as info:
        parse_document(json.dumps(base))
    # A document carries no run settings: the oracle is a command line flag.
    if set(mutation) & {"verify_with_oracle", "dense_cap"}:
        assert "unknown fields" in str(info.value)


@pytest.mark.parametrize("text", [
    "[" * 10**5,
    '{"schema_version": 1, "mode": "incremental", "k": 1, "target_n": '
    + "9" * 5000 + "}",
], ids=["deep-nesting", "int-past-digit-limit"])
def test_malformed_text_rejected(text):
    with pytest.raises(DocumentError):
        parse_document(text)


def test_missing_fields_rejected():
    with pytest.raises(DocumentError):
        parse_document(json.dumps({"schema_version": 1, "mode": "exact", "k": 1}))
    with pytest.raises(DocumentError):
        parse_document(json.dumps(
            {"schema_version": 1, "mode": "exact", "k": 1, "target_n": 6}))
    with pytest.raises(DocumentError):
        parse_document("[1, 2]")
    with pytest.raises(DocumentError):
        parse_document("{nope")


def test_exact_mode_target_consistency():
    with pytest.raises(DocumentError):
        parse_document(json.dumps({
            "schema_version": 1, "mode": "exact", "k": 1,
            "target_n": 7, "n1": 3, "n2": 3}))


def test_generator_preconditions_surface_as_build_errors():
    with pytest.raises(InvalidPlanError):
        document_to_plan(PlanDocument(k=1, target_n=2, mode="incremental"))
    with pytest.raises(InvalidPlanError):
        document_to_plan(PlanDocument(k=2, target_n=5, mode="exact", n1=2, n2=3))


def test_explicit_unknown_state_is_a_violation():
    doc = PlanDocument(
        k=1, target_n=4, mode="explicit",
        inputs=(("a", 1, 3),),
        cycles=(("a", "ghost", "out"),),
    )
    assert any("ghost" in v for v in validate_plan(document_to_plan(doc)))


@pytest.mark.parametrize("value, rendered", [
    (Fraction(2, 9), "0.222222"),
    (Fraction(1, 15), "0.0666667"),
    (Fraction(1, 5), "0.2"),
    (Fraction(1), "1"),
    (Fraction(1, 24), "0.0416667"),
])
def test_approx_decimal_six_significant_digits(value, rendered):
    assert approx_decimal(value) == rendered
