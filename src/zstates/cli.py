"""Command line front end.

Subcommands: `plan` (emit a plan document), `run` (execute one with exact
reporting), `graph` (DOT export), `verify` (the brute-force sweeps).
Exit codes: 0 ok, 1 verification failure, 2 bad input or malformed
document, 3 invalid plan, 4 execution error.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Optional, TextIO

from .combinatorics import int_str
from .dense import DENSE_CAP
from .graph import plan_to_dot
from .plandoc import (
    MAX_DOCUMENT_BYTES,
    DocumentError,
    PlanDocument,
    approx_decimal,
    document_to_plan,
    parse_document,
    render_document,
)
from .protocol import (
    CycleResult,
    ExecutionReport,
    InvalidPlanError,
    PlanExecutionError,
    ProtocolPlan,
    ResourceLedger,
    StateRef,
    chunk_ranges,
    execute_plan,
)
from .verify import check_distillation_cell, run_verification

__all__ = ["main", "entry", "report_to_json", "report_to_text"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INVALID_PLAN = 3
EXIT_RUNTIME = 4


class _Exit(Exception):
    """Ends a command with `code` and one stderr line per message."""

    def __init__(self, code: int, *messages: str) -> None:
        super().__init__(*messages)
        self.code, self.messages = code, messages


class _Parser(argparse.ArgumentParser):
    """Ends a parse through `main`: `--help`, once its text is on stdout,
    with exit 0, and a usage error with exit 2 and one stderr line.
    Subparsers are made of the same class."""

    def exit(self, status: int = 0, message: Optional[str] = None):
        raise _Exit(status, *([message.rstrip("\n")] if message else []))

    def error(self, message: str):
        raise _Exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}")


@functools.cache
def _parser() -> _Parser:
    """The command line parser, built once per process."""
    parser = _Parser(
        prog="zstates",
        description="Exact engine for symmetric-state distillation plans.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="generate a plan document on stdout")
    p_plan.add_argument("--mode", required=True,
                        choices=("exact", "incremental", "exponential"))
    p_plan.add_argument("--k", type=int, required=True,
                        help="excitations per state")
    p_plan.add_argument("--n-target", type=int, dest="n_target",
                        help="target qubit count (incremental/exponential)")
    p_plan.add_argument("--n1", type=int, help="first input size (exact mode)")
    p_plan.add_argument("--n2", type=int, help="second input size (exact mode)")

    p_run = sub.add_parser("run", help="execute a plan document")
    p_run.add_argument("plan_file")
    p_run.add_argument("--report", choices=("text", "json"), default="text",
                       help="report format (default: text)")
    p_run.add_argument("--verify-with-oracle", action="store_true",
                       help="replay each distinct cell within the dense "
                            "cap once on the dense expansion")

    p_graph = sub.add_parser("graph", help="emit a DOT graph of a plan")
    p_graph.add_argument("plan_file")

    p_verify = sub.add_parser("verify", help="run the verification sweeps")
    p_verify.add_argument("--max-n", type=int, default=12, dest="max_n")
    p_verify.add_argument("--max-k", type=int, default=3, dest="max_k")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--corrupt-alpha", action="store_true",
                          help="debug: sabotage the projection weights; the "
                               "distillation sweep must then fail")
    return parser


def _frac_str(value: Fraction) -> str:
    """`str(value)`, spelled with :func:`int_str`."""
    if value.denominator == 1:
        return int_str(value.numerator)
    return f"{int_str(value.numerator)}/{int_str(value.denominator)}"


def _state_str(ref: StateRef) -> str:
    return f"Z_{ref.k}({int_str(ref.n)})"


def _ledger_items(ledger: ResourceLedger) -> list[tuple[str, int]]:
    """The ledger's fields and values, in the order both reports print them."""
    return list(ledger._asdict().items())


# A cycle of the JSON report, as `json.dump(..., indent=2)` lays it out.
_JSON_CYCLE = ('    {\n      "index": %d,\n      "left": %s,\n      "right": %s,\n'
               '      "produced": {\n        "id": %s,\n        "k": %d,\n'
               '        "n": %d\n      },\n      "probability": {\n'
               '        "num": %d,\n        "den": %d\n      },\n'
               '      "oracle_checked": %s\n    }')


def _json_cycle(i: int, r: CycleResult) -> str:
    return _JSON_CYCLE % (i, _quote(r.left.id), _quote(r.right.id),
                          _quote(r.produced.id), r.produced.k, r.produced.n,
                          r.probability.numerator, r.probability.denominator,
                          "true" if r.oracle_checked else "false")


def report_to_json(plan: ProtocolPlan, report: ExecutionReport,
                   out: TextIO) -> None:
    """Write the machine-readable report to `out` as `json.dump(..., indent=2)`
    writes it, each probability an exact `num`/`den` pair.  Every chunk is
    formatted before the first is written, so an int past `str`'s digit
    limit raises ValueError with nothing written; the tail is formatted
    first, so it raises before any cycle is formatted."""
    cumulative, final, cycles = report.cumulative_success, report.final, report.cycles
    tail = (f'  "cumulative_probability": {{\n    "num": {cumulative.numerator},'
            f'\n    "den": {cumulative.denominator}\n  }},\n  "ledger": {{\n    '
            + ",\n    ".join([f'"{name}": {value}'
                              for name, value in _ledger_items(report.ledger)])
            + "\n  }\n}\n")
    chunks = [f'{{\n  "schema_version": 1,\n  "k": {plan.k},\n  "final": {{\n'
              f'    "id": {_quote(final.id)},\n    "k": {final.k},\n'
              f'    "n": {final.n}\n  }},\n  "cycles": ']
    for part in chunk_ranges(len(cycles)):
        chunks += [",\n" if part.start else "[\n",
                   ",\n".join([_json_cycle(i, cycles[i]) for i in part])]
    chunks.append(("\n  ],\n" if len(cycles) else "[],\n") + tail)
    out.writelines(chunks)


def _text_cycle(i: int, r: CycleResult) -> str:
    return (f"cycle {i + 1}: {_state_str(r.left)}[{r.left.id}] + "
            f"{_state_str(r.right)}[{r.right.id}] -> "
            f"{_state_str(r.produced)}[{r.produced.id}]  "
            f"p = {_frac_str(r.probability)} (~ {approx_decimal(r.probability)})"
            f"{'  [oracle ok]' if r.oracle_checked else ''}\n")


def report_to_text(plan: ProtocolPlan, report: ExecutionReport,
                   out: TextIO) -> None:
    """Write the human-readable report to `out`, a chunk of cycles at a
    time; decimals are labelled approximate with `~`."""
    cycles = report.cycles
    out.write(f"plan: k={plan.k} cycles={len(plan.cycles)} "
              f"target=Z_{plan.k}({plan.target_n})\n")
    for part in chunk_ranges(len(cycles)):
        out.write("".join([_text_cycle(i, cycles[i]) for i in part]))
    out.write("cumulative success probability: "
              f"{_frac_str(report.cumulative_success)} "
              f"(~ {approx_decimal(report.cumulative_success)})\n"
              "ledger: " + " ".join([f"{name}={int_str(value)}" for name, value
                                     in _ledger_items(report.ledger)])
              + f"\nfinal: {_state_str(report.final)}\n")


def _max_digits(report: ExecutionReport) -> int:
    """Most decimal digits of any int in the JSON report: in its fractions or
    its ledger, whose sums bound every state size, index and k in it."""
    ints = [value for _, value in _ledger_items(report.ledger)]
    for value in (report.cumulative_success, *[r.probability for r in report.cycles]):
        ints += (value.numerator, value.denominator)
    return len(int_str(max(map(abs, ints))))


def _load_plan(path_str: str) -> ProtocolPlan:
    """The plan a document file describes; raises for any flaw on the way."""
    path = Path(path_str)
    try:
        size = path.stat().st_size
        if size > MAX_DOCUMENT_BYTES:
            raise _Exit(EXIT_BAD_INPUT,
                        f"cannot read {path_str}: the file has {size} bytes, "
                        f"more than the limit of {MAX_DOCUMENT_BYTES}")
        with path.open("rb") as fh:
            # `stat` sizes some paths wrongly (a pipe or /dev/zero has size
            # 0), so the read is bounded too.  Asking for `size + 1` bytes
            # first spares a file a buffer as large as the limit.
            data = fh.read(size + 1)
            if len(data) > size:
                data += fh.read(MAX_DOCUMENT_BYTES - size)
        if len(data) > MAX_DOCUMENT_BYTES:
            raise _Exit(EXIT_BAD_INPUT,
                        f"cannot read {path_str}: it holds more than the "
                        f"limit of {MAX_DOCUMENT_BYTES} bytes")
        # Decoded as a text-mode read decodes it, universal newlines included.
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Exit(EXIT_BAD_INPUT, f"cannot read {path_str}: {exc}") from exc
    try:
        doc = parse_document(text)
    except DocumentError as exc:
        raise _Exit(EXIT_BAD_INPUT, f"malformed plan document: {exc}") from exc
    return document_to_plan(doc)


def cmd_plan(args: argparse.Namespace) -> int:
    if args.mode == "exact":
        if args.n1 is None or args.n2 is None:
            raise _Exit(EXIT_BAD_INPUT, "mode 'exact' requires --n1 and --n2")
        if args.n_target is not None and args.n_target != args.n1 + args.n2:
            raise _Exit(EXIT_BAD_INPUT,
                        "--n-target must equal n1 + n2 for mode 'exact'")
        doc = PlanDocument(k=args.k, target_n=args.n1 + args.n2, mode="exact",
                           n1=args.n1, n2=args.n2)
    else:
        if args.n_target is None:
            raise _Exit(EXIT_BAD_INPUT, f"mode {args.mode!r} requires --n-target")
        if args.n1 is not None or args.n2 is not None:
            raise _Exit(EXIT_BAD_INPUT, "--n1/--n2 are only valid for mode 'exact'")
        doc = PlanDocument(k=args.k, target_n=args.n_target, mode=args.mode)
    try:
        document_to_plan(doc)
    except InvalidPlanError as exc:
        # A generator's precondition is on the flags: bad input, not a bad plan.
        raise _Exit(EXIT_BAD_INPUT, *exc.violations) from exc
    sys.stdout.write(render_document(doc))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    plan = _load_plan(args.plan_file)
    report = execute_plan(plan, check_distillation_cell
                          if args.verify_with_oracle else None)
    if args.report == "text":
        report_to_text(plan, report, sys.stdout)
        return EXIT_OK
    try:
        report_to_json(plan, report, sys.stdout)
    except ValueError as exc:
        raise _Exit(EXIT_RUNTIME,
                    f"cannot write the JSON report: an integer in it has "
                    f"{_max_digits(report)} digits, past Python's "
                    f"{sys.get_int_max_str_digits()}-digit limit for "
                    f"writing ints") from exc
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    plan_to_dot(_load_plan(args.plan_file), sys.stdout)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n > DENSE_CAP:
        raise _Exit(EXIT_BAD_INPUT,
                    f"--max-n {args.max_n} exceeds the dense cap {DENSE_CAP}")
    for flag, value, least in (("--max-n", args.max_n, 2),
                               ("--max-k", args.max_k, 1)):
        if value < least:
            raise _Exit(EXIT_BAD_INPUT,
                        f"{flag} {value} is below {least}: the distillation "
                        f"and selection sweeps would have no cells")
    results = run_verification(args.max_n, args.max_k, seed=args.seed,
                               corrupt_alpha=args.corrupt_alpha)
    failed = False
    for res in results:
        status = "pass" if res.passed else "FAIL"
        line = f"{res.name}: {status} ({res.cells} cells"
        if res.failures:
            line += f", {len(res.failures)} failures; first: {res.failures[0]}"
        line += ")"
        print(line)
        failed = failed or not res.passed
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; the only place a failure becomes its exit code and
    its stderr lines."""
    try:
        args = _parser().parse_args(argv)
        command = {"plan": cmd_plan, "run": cmd_run, "graph": cmd_graph,
                   "verify": cmd_verify}[args.command]
        return command(args)
    except _Exit as exc:
        code, messages = exc.code, exc.messages
    except InvalidPlanError as exc:
        code, messages = EXIT_INVALID_PLAN, exc.violations
    except PlanExecutionError as exc:
        code, messages = EXIT_RUNTIME, [str(exc)]
    for message in messages:
        print(message, file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())
