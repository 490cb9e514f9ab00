"""Plan document schema: strict parsing, lossless round trips, decimals."""

import json
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def localcontext_decimal(value: Fraction) -> str:
    """`approx_decimal` as it was written with a per-call `localcontext`."""
    with localcontext() as ctx:
        ctx.prec = 6
        ctx.rounding = ROUND_HALF_EVEN
        result = Decimal(value.numerator) / Decimal(value.denominator)
    return str(result)


# Ints from one digit to past `str`'s 4,300-digit limit.
WIDE_INTS = st.builds(lambda m, e: m * 10 ** e + m // 7,
                      st.integers(1, 10 ** 12), st.integers(0, 5000))
# Values halfway between two 6-digit decimals, where the rounding shows.
TIES = st.builds(lambda m, e: Fraction(2 * m + 1, 2) * Fraction(10) ** e,
                 st.integers(10 ** 5, 10 ** 6 - 1), st.integers(-12, 3))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.one_of(st.fractions(), st.builds(Fraction, WIDE_INTS, WIDE_INTS),
                 TIES))
def test_approx_decimal_matches_a_per_call_localcontext(value):
    assert approx_decimal(value) == localcontext_decimal(value)


# ------------------------------------------- whole-array document checks

def per_entry_arrays(obj: dict) -> tuple:
    """The three arrays of an explicit document as the per-entry parser
    checked them, one field of one entry at a time, before arrays were
    checked whole; DocumentError on the first flaw."""
    def expect_int(entry, key, where):
        if type(entry[key]) is not int:
            raise DocumentError(f"{where}.{key} must be an integer")
        return entry[key]

    def expect_str(entry, key, where):
        value = entry[key]
        if not isinstance(value, str) or not value:
            raise DocumentError(f"{where}.{key} must be a non-empty string")
        if not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise DocumentError(f"{where}.{key} holds a lone surrogate, "
                                    f"which UTF-8 cannot encode") from None
        return value

    state = {"id": expect_str, "k": expect_int, "n": expect_int}
    entries = {"inputs": state, "ancillas": state,
               "cycles": dict.fromkeys(("left", "right", "produced"), expect_str)}

    def parse_entry(entry, where, fields):
        if not isinstance(entry, dict):
            raise DocumentError(f"{where} must be an object")
        if entry.keys() != fields.keys():
            unknown = entry.keys() - fields.keys()
            if unknown:
                raise DocumentError(f"{where} has unknown fields: {sorted(unknown)}")
            missing = next(key for key in fields if key not in entry)
            raise DocumentError(f"{where} is missing {missing!r}")
        return tuple([expect(entry, key, where) for key, expect in fields.items()])

    return tuple(tuple([parse_entry(e, f"{key}[{i}]", entries[key])
                        for i, e in enumerate(obj.get(key, []))])
                 for key in entries)


ENTRY_IDS = st.text(st.characters(max_codepoint=127), min_size=1, max_size=3)
STATE_ENTRIES = st.fixed_dictionaries(
    {"id": ENTRY_IDS, "k": st.integers(-2, 9), "n": st.integers(-2, 9)})
CYCLE_ENTRIES = st.fixed_dictionaries(
    {"left": ENTRY_IDS, "right": ENTRY_IDS, "produced": ENTRY_IDS})
ENTRY_FAULTS = ("none", "non-dict", "missing key", "extra key", "bool",
                "float", "empty id", "lone surrogate", "non-ASCII id")


def with_fault(entry: dict, fault: str, field: str, int_field: str):
    """The entry with one fault; `field` is any of its fields, `int_field`
    one of its int fields, if it has any."""
    entry = dict(entry)
    str_field = next(f for f in entry if f not in ("k", "n"))
    if fault == "non-dict":
        return list(entry.values())
    if fault == "missing key":
        del entry[field]
    elif fault == "extra key":
        entry["extra"] = 1
    elif fault in ("bool", "float"):
        entry[int_field] = {"bool": True, "float": 3.0}[fault]
    elif fault == "empty id":
        entry[str_field] = ""
    elif fault == "lone surrogate":
        entry[str_field] += "\ud800"
    elif fault == "non-ASCII id":
        entry[str_field] += "é\U0001d11e"
    return entry


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.lists(STATE_ENTRIES, min_size=1, max_size=5),
       st.lists(STATE_ENTRIES, max_size=5),
       st.lists(CYCLE_ENTRIES, max_size=5),
       st.sampled_from(("inputs", "ancillas", "cycles")),
       st.sampled_from(("first", "middle", "last")),
       st.sampled_from(ENTRY_FAULTS), st.data())
def test_whole_array_checks_match_the_per_entry_parser(
        inputs, ancillas, cycles, key, where, fault, data):
    """With one fault at the first, a middle or the last entry of one array,
    `parse_document` raises the per-entry parser's exact message, or, for a
    fault it accepts (a non-ASCII id), returns the same document."""
    obj = {"schema_version": 1, "mode": "explicit", "k": 1, "target_n": 4,
           "inputs": inputs, "ancillas": ancillas, "cycles": cycles}
    array = obj[key]
    if array:
        i = {"first": 0, "middle": len(array) // 2, "last": len(array) - 1}[where]
        fields = sorted(array[i])
        array[i] = with_fault(array[i], fault, data.draw(st.sampled_from(fields)),
                              data.draw(st.sampled_from(
                                  [f for f in fields if f in ("k", "n")] or fields)))
    try:
        expected = PlanDocument(1, 4, "explicit", None, None, *per_entry_arrays(obj))
    except DocumentError as exc:
        expected = str(exc)
    try:
        got = parse_document(json.dumps(obj))
    except DocumentError as exc:
        got = str(exc)
    assert got == expected
