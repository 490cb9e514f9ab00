"""Plan documents: a strict JSON schema shared by the CLI and golden tests.

A document describes a plan and nothing else: how to run it (say, with
the dense oracle) is set on the command line.  Documents round-trip
losslessly, unknown fields are rejected, and exact fractions are encoded
as {"num": ..., "den": ...} objects so no probability ever passes through
floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Any, Optional

from .protocol import (
    Cycle,
    ProtocolPlan,
    StateRef,
    gen_exact_plan,
    gen_exponential_plan,
    gen_incremental_plan,
)

__all__ = [
    "SCHEMA_VERSION",
    "MODES",
    "DocumentError",
    "PlanBuildError",
    "PlanDocument",
    "parse_document",
    "render_document",
    "document_to_plan",
    "plan_to_document",
    "frac_to_json",
    "frac_from_json",
    "approx_decimal",
]

SCHEMA_VERSION = 1
MODES = ("explicit", "exact", "incremental", "exponential")

_TOP_KEYS = {"schema_version", "mode", "k", "target_n", "n1", "n2",
             "inputs", "ancillas", "cycles"}
_GENERATOR_ONLY = {"exact": {"n1", "n2"}, "incremental": set(), "exponential": set()}


class DocumentError(ValueError):
    """The plan document is malformed."""


class PlanBuildError(ValueError):
    """The document was well-formed but does not describe a buildable plan."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class PlanDocument:
    k: int
    target_n: int
    mode: str
    n1: Optional[int] = None
    n2: Optional[int] = None
    inputs: tuple[tuple[str, int, int], ...] = ()    # (id, k, n)
    ancillas: tuple[tuple[str, int, int], ...] = ()
    cycles: tuple[tuple[str, str, str], ...] = ()    # (left, right, produced)
    schema_version: int = SCHEMA_VERSION


def _expect_int(obj: dict, key: str, where: str) -> int:
    value = obj[key]
    if type(value) is not int:
        raise DocumentError(f"{where}.{key} must be an integer")
    return value


def _expect_str(obj: dict, key: str, where: str) -> str:
    value = obj[key]
    if not isinstance(value, str) or not value:
        raise DocumentError(f"{where}.{key} must be a non-empty string")
    return value


def _parse_state(entry: Any, where: str) -> tuple[str, int, int]:
    if not isinstance(entry, dict):
        raise DocumentError(f"{where} must be an object")
    unknown = set(entry) - {"id", "k", "n"}
    if unknown:
        raise DocumentError(f"{where} has unknown fields: {sorted(unknown)}")
    for key in ("id", "k", "n"):
        if key not in entry:
            raise DocumentError(f"{where} is missing {key!r}")
    return (_expect_str(entry, "id", where),
            _expect_int(entry, "k", where),
            _expect_int(entry, "n", where))


def _parse_cycle(entry: Any, where: str) -> tuple[str, str, str]:
    if not isinstance(entry, dict):
        raise DocumentError(f"{where} must be an object")
    unknown = set(entry) - {"left", "right", "produced"}
    if unknown:
        raise DocumentError(f"{where} has unknown fields: {sorted(unknown)}")
    for key in ("left", "right", "produced"):
        if key not in entry:
            raise DocumentError(f"{where} is missing {key!r}")
    return (_expect_str(entry, "left", where),
            _expect_str(entry, "right", where),
            _expect_str(entry, "produced", where))


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
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise DocumentError(f"unknown fields: {sorted(unknown)}")
    for key in ("schema_version", "mode", "k", "target_n"):
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

    n1 = n2 = None
    inputs: tuple[tuple[str, int, int], ...] = ()
    ancillas: tuple[tuple[str, int, int], ...] = ()
    cycles: tuple[tuple[str, str, str], ...] = ()
    if mode == "explicit":
        for key in ("n1", "n2"):
            if key in obj:
                raise DocumentError(f"field {key!r} is only valid for mode 'exact'")
        for key in ("inputs", "cycles"):
            if key not in obj:
                raise DocumentError(f"mode 'explicit' requires field {key!r}")
        for key, required_type in (("inputs", list), ("ancillas", list),
                                   ("cycles", list)):
            if key in obj and not isinstance(obj[key], required_type):
                raise DocumentError(f"document.{key} must be an array")
        inputs = tuple(_parse_state(e, f"inputs[{i}]")
                       for i, e in enumerate(obj["inputs"]))
        ancillas = tuple(_parse_state(e, f"ancillas[{i}]")
                         for i, e in enumerate(obj.get("ancillas", [])))
        cycles = tuple(_parse_cycle(e, f"cycles[{i}]")
                       for i, e in enumerate(obj["cycles"]))
    else:
        for key in ("inputs", "ancillas", "cycles"):
            if key in obj:
                raise DocumentError(
                    f"field {key!r} is only valid for mode 'explicit'")
        required = _GENERATOR_ONLY[mode]
        for key in ("n1", "n2"):
            if key in required and key not in obj:
                raise DocumentError(f"mode {mode!r} requires field {key!r}")
            if key not in required and key in obj:
                raise DocumentError(f"field {key!r} is only valid for mode 'exact'")
        if mode == "exact":
            n1 = _expect_int(obj, "n1", "document")
            n2 = _expect_int(obj, "n2", "document")
            if n1 + n2 != target_n:
                raise DocumentError("target_n must equal n1 + n2 for mode 'exact'")
    return PlanDocument(k=k, target_n=target_n, mode=mode, n1=n1, n2=n2,
                        inputs=inputs, ancillas=ancillas, cycles=cycles,
                        schema_version=version)


def render_document(doc: PlanDocument) -> str:
    """Stable JSON rendering; parse_document(render_document(d)) == d."""
    obj: dict[str, Any] = {
        "schema_version": doc.schema_version,
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
    violations surface as PlanBuildError.  Explicit mode copies the states
    and the cycles' id triples as they are; `validate_plan` reports ids
    that name no earlier state.
    """
    if doc.mode == "exact":
        try:
            return gen_exact_plan(doc.k, doc.n1, doc.n2)
        except ValueError as exc:
            raise PlanBuildError([str(exc)]) from exc
    if doc.mode == "incremental":
        try:
            return gen_incremental_plan(doc.k, doc.target_n)
        except ValueError as exc:
            raise PlanBuildError([str(exc)]) from exc
    if doc.mode == "exponential":
        try:
            return gen_exponential_plan(doc.k, doc.target_n)
        except ValueError as exc:
            raise PlanBuildError([str(exc)]) from exc
    return ProtocolPlan(doc.k, tuple(StateRef(*s) for s in doc.inputs),
                        tuple(StateRef(*s) for s in doc.ancillas),
                        tuple(Cycle(*c) for c in doc.cycles),
                        (doc.k, doc.target_n))


def plan_to_document(plan: ProtocolPlan) -> PlanDocument:
    """Serialize any plan as an explicit-mode document."""
    return PlanDocument(
        k=plan.k,
        target_n=plan.target[1],
        mode="explicit",
        inputs=tuple((r.id, r.k, r.n) for r in plan.inputs),
        ancillas=tuple((r.id, r.k, r.n) for r in plan.ancillas),
        cycles=tuple((c.left, c.right, c.produced) for c in plan.cycles),
    )


def frac_to_json(value: Fraction) -> dict[str, int]:
    return {"num": value.numerator, "den": value.denominator}


def frac_from_json(obj: Any) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise DocumentError("fractions must be {'num': ..., 'den': ...} objects")
    num, den = obj["num"], obj["den"]
    if type(num) is not int or type(den) is not int or den <= 0:
        raise DocumentError("fraction parts must be integers with den > 0")
    return Fraction(num, den)


def approx_decimal(value: Fraction, digits: int = 6) -> str:
    """Display-only decimal approximation: 6 significant digits, half-even."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        result = Decimal(value.numerator) / Decimal(value.denominator)
    return str(result)
