"""Plan documents: a strict JSON schema shared by the CLI and golden tests.

A document describes a plan and nothing else: how to run it (say, with
the dense oracle) is set on the command line.  Documents round-trip
losslessly, unknown fields are rejected, and exact fractions are encoded
as {"num": ..., "den": ...} objects so no probability ever passes through
floating point.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from typing import Any, NamedTuple, Optional

from .protocol import (
    Cycle,
    InvalidPlanError,
    ProtocolPlan,
    StateRef,
    check_cycle_count,
    gen_exact_plan,
    gen_exponential_plan,
    gen_incremental_plan,
)

__all__ = [
    "SCHEMA_VERSION",
    "MAX_DOCUMENT_BYTES",
    "MODES",
    "DocumentError",
    "PlanDocument",
    "parse_document",
    "render_document",
    "document_to_plan",
    "approx_decimal",
]

SCHEMA_VERSION = 1
# The largest document file read, checked before reading it: an explicit
# incremental plan renders at about 157 bytes a cycle, so a plan of
# `MAX_CYCLES` cycles is about 160 MB, and this leaves 1.6x headroom.
MAX_DOCUMENT_BYTES = 256 * 2 ** 20
# The schema in one table: the fields each mode has beyond the four every
# document has, each mapped to whether the mode requires it, in the order
# their rules are checked.
_MODE_FIELDS = {
    "explicit": {"inputs": True, "ancillas": False, "cycles": True},
    "exact": {"n1": True, "n2": True},
    "incremental": {},
    "exponential": {},
}
MODES = tuple(_MODE_FIELDS)
_COMMON = ("schema_version", "mode", "k", "target_n")
_FIELD_MODE = {key: mode for mode, fields in _MODE_FIELDS.items() for key in fields}


class DocumentError(ValueError):
    """The plan document is malformed."""


class PlanDocument(NamedTuple):
    k: int
    target_n: int
    mode: str
    n1: Optional[int] = None
    n2: Optional[int] = None
    inputs: tuple[tuple[str, int, int], ...] = ()    # (id, k, n)
    ancillas: tuple[tuple[str, int, int], ...] = ()
    cycles: tuple[tuple[str, str, str], ...] = ()    # (left, right, produced)


def _expect_int(obj: dict, key: str, where: str) -> int:
    value = obj[key]
    if type(value) is not int:
        raise DocumentError(f"{where}.{key} must be an integer")
    return value


def _expect_str(obj: dict, key: str, where: str) -> str:
    value = obj[key]
    if not isinstance(value, str) or not value:
        raise DocumentError(f"{where}.{key} must be a non-empty string")
    # JSON can spell a lone surrogate as an escape; no report could write
    # it to a UTF-8 stream.
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise DocumentError(f"{where}.{key} holds a lone surrogate, which "
                                f"UTF-8 cannot encode") from None
    return value


# The entries of each array field: their fields, each with its check.
_STATE = {"id": _expect_str, "k": _expect_int, "n": _expect_int}
_ENTRIES = {"inputs": _STATE, "ancillas": _STATE,
            "cycles": dict.fromkeys(("left", "right", "produced"), _expect_str)}


def _parse_entry(entry: Any, where: str, fields: dict) -> tuple:
    if not isinstance(entry, dict):
        raise DocumentError(f"{where} must be an object")
    if entry.keys() != fields.keys():
        unknown = entry.keys() - fields.keys()
        if unknown:
            raise DocumentError(f"{where} has unknown fields: {sorted(unknown)}")
        missing = next(key for key in fields if key not in entry)
        raise DocumentError(f"{where} is missing {missing!r}")
    return tuple([expect(entry, key, where) for key, expect in fields.items()])


def parse_document(text: str) -> PlanDocument:
    """Parse and strictly validate a plan document; DocumentError on any flaw."""
    # Besides JSONDecodeError, json.loads raises ValueError for an integer
    # past the interpreter's digit limit and RecursionError for deep nesting.
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    unknown = set(obj) - {*_COMMON, *_FIELD_MODE}
    if unknown:
        raise DocumentError(f"unknown fields: {sorted(unknown)}")
    for key in _COMMON:
        if key not in obj:
            raise DocumentError(f"missing field {key!r}")
    version = _expect_int(obj, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {version}")
    mode = _expect_str(obj, "mode", "document")
    if mode not in MODES:
        raise DocumentError(f"mode must be one of {MODES}, got {mode!r}")
    k = _expect_int(obj, "k", "document")
    target_n = _expect_int(obj, "target_n", "document")
    for key, owner in _FIELD_MODE.items():
        if key in obj and owner != mode:
            raise DocumentError(f"field {key!r} is only valid for mode {owner!r}")
    for key, required in _MODE_FIELDS[mode].items():
        if required and key not in obj:
            raise DocumentError(f"mode {mode!r} requires field {key!r}")
    # Only the mode's own fields are present now: every array is typed
    # before any entry is parsed.
    arrays = {key: obj.get(key, []) for key in _ENTRIES}
    for key, array in arrays.items():
        if not isinstance(array, list):
            raise DocumentError(f"document.{key} must be an array")
    inputs, ancillas, cycles = (
        tuple([_parse_entry(e, f"{key}[{i}]", _ENTRIES[key])
               for i, e in enumerate(array)])
        for key, array in arrays.items())
    n1, n2 = (_expect_int(obj, key, "document") if key in obj else None
              for key in ("n1", "n2"))
    if mode == "exact" and n1 + n2 != target_n:
        raise DocumentError("target_n must equal n1 + n2 for mode 'exact'")
    return PlanDocument(k=k, target_n=target_n, mode=mode, n1=n1, n2=n2,
                        inputs=inputs, ancillas=ancillas, cycles=cycles)


def render_document(doc: PlanDocument) -> str:
    """Stable JSON rendering; parse_document(render_document(d)) == d."""
    obj: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "mode": doc.mode,
        "k": doc.k,
        "target_n": doc.target_n,
    }
    if doc.mode == "exact":
        obj["n1"] = doc.n1
        obj["n2"] = doc.n2
    if doc.mode == "explicit":
        obj["inputs"] = [{"id": i, "k": kk, "n": nn} for i, kk, nn in doc.inputs]
        obj["ancillas"] = [{"id": i, "k": kk, "n": nn}
                           for i, kk, nn in doc.ancillas]
        obj["cycles"] = [{"left": left, "right": right, "produced": produced}
                         for left, right, produced in doc.cycles]
    return json.dumps(obj, indent=2) + "\n"


def document_to_plan(doc: PlanDocument) -> ProtocolPlan:
    """Materialize the plan a document describes.

    Generator modes invoke the corresponding generator; precondition
    violations surface as InvalidPlanError, as does a plan of more than
    `MAX_CYCLES` cycles, which the generators refuse before they build one.
    Explicit mode copies the states and the cycles' id triples as they are;
    `validate_plan` reports ids that name no earlier state.
    """
    try:
        if doc.mode == "exact":
            return gen_exact_plan(doc.k, doc.n1, doc.n2)
        if doc.mode == "incremental":
            return gen_incremental_plan(doc.k, doc.target_n)
        if doc.mode == "exponential":
            return gen_exponential_plan(doc.k, doc.target_n)
        check_cycle_count(len(doc.cycles))
    except ValueError as exc:
        raise InvalidPlanError([str(exc)]) from exc
    return ProtocolPlan(doc.k, tuple(StateRef(*s) for s in doc.inputs),
                        tuple(StateRef(*s) for s in doc.ancillas),
                        tuple(Cycle(*c) for c in doc.cycles), doc.target_n)


_APPROX = Context(prec=6, rounding=ROUND_HALF_EVEN)


def approx_decimal(value: Fraction) -> str:
    """Display-only decimal approximation: 6 significant digits, half-even."""
    return str(_APPROX.divide(Decimal(value.numerator),
                              Decimal(value.denominator)))
