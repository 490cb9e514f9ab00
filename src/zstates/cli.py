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
import math
import sys
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
    approx_ratio,
    check_document_plan,
    document_to_plan,
    parse_document,
    render_document,
)
from .protocol import (
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


def _ratio_str(num: int, den: int) -> str:
    """`str(Fraction(num, den))` of the reduced num/den, spelled with
    :func:`int_str`."""
    return int_str(num) if den == 1 else f"{int_str(num)}/{int_str(den)}"


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
# The same, for ids that JSON writes as they are.
_JSON_PLAIN = _JSON_CYCLE.replace(": %s,", ': "%s",')


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
    # Ids are tested all at once: only a plan with an id JSON escapes (a
    # quote, a backslash, a control or non-ASCII character) quotes each.
    ids = cycles._resolved.ids
    joined = "".join(ids)
    if (joined.isascii() and joined.isprintable() and '"' not in joined
            and "\\" not in joined):
        template, names = _JSON_PLAIN, ids
    else:
        template, names = _JSON_CYCLE, list(map(_quote, ids))
    for part in chunk_ranges(len(cycles)):
        chunks += [",\n" if part.start else "[\n", ",\n".join([
            template % (i, left, right, produced, plan.k, n, num, den,
                        "true" if checked else "false")
            for i, (left, right, produced, _, _, n, num, den, checked)
            in zip(part, cycles.rows(part, names))])]
    chunks.append(("\n  ],\n" if len(cycles) else "[],\n") + tail)
    out.writelines(chunks)


def report_to_text(plan: ProtocolPlan, report: ExecutionReport,
                   out: TextIO) -> None:
    """Write the human-readable report to `out`, a chunk of cycles at a
    time; decimals are labelled approximate with `~`."""
    cycles = report.cycles
    out.write(f"plan: k={plan.k} cycles={len(plan.cycles)} "
              f"target=Z_{plan.k}({plan.target_n})\n")
    z = f"Z_{plan.k}("  # a valid plan's states all have the plan's k
    for part in chunk_ranges(len(cycles)):
        out.write("".join([
            f"cycle {i + 1}: {z}{int_str(n1)})[{left}] + {z}{int_str(n2)})"
            f"[{right}] -> {z}{int_str(n)})[{produced}]  p = "
            f"{_ratio_str(num, den)} (~ {approx_ratio(num, den)})"
            f"{'  [oracle ok]' if checked else ''}\n"
            for i, (left, right, produced, n1, n2, n, num, den, checked)
            in zip(part, cycles.rows(part))]))
    out.write("cumulative success probability: "
              f"{_ratio_str(*report.cumulative_success.as_integer_ratio())} "
              f"(~ {approx_decimal(report.cumulative_success)})\n"
              "ledger: " + " ".join([f"{name}={int_str(value)}" for name, value
                                     in _ledger_items(report.ledger)])
              + f"\nfinal: {_state_str(report.final)}\n")


def _digits(value: int) -> int:
    """`len(str(value))` for an int value >= 0, counted from its bit length
    and one power of ten rather than spelled."""
    if not value:
        return 1
    # The estimate is the digits of 2**(bits - 1) less one, so never past
    # the count even after float rounding; the loop steps it up to the count.
    digits = int((value.bit_length() - 1) * math.log10(2))
    power = 10 ** digits
    while value >= power:
        digits, power = digits + 1, power * 10
    return digits


def _max_digits(report: ExecutionReport) -> int:
    """Most decimal digits of any int in the JSON report: in its fractions or
    its ledger, whose sums bound every state size, index and k in it."""
    ints = [*report.ledger, *report.cumulative_success.as_integer_ratio()]
    for row in report.cycles.rows(range(len(report.cycles))):
        ints += row[6:8]
    return _digits(max(map(abs, ints)))


def _read_text(path_str: str) -> str:
    """The text of a document file, read within the size limit.  Its bytes
    go with this frame, so they are not held while the text is parsed."""
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
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Exit(EXIT_BAD_INPUT, f"cannot read {path_str}: {exc}") from exc


def _load_plan(path_str: str) -> ProtocolPlan:
    """The plan a document file describes; raises for any flaw on the way."""
    try:
        doc = parse_document(_read_text(path_str))
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
        check_document_plan(doc)
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


# Each command: its handler, its help line and the `add_argument` calls of
# its parser, one (name, keywords) pair each, in `--help` order.
_COMMANDS = {
    "plan": (cmd_plan, "generate a plan document on stdout", (
        ("--mode", dict(required=True,
                        choices=("exact", "incremental", "exponential"))),
        ("--k", dict(type=int, required=True, help="excitations per state")),
        ("--n-target", dict(type=int, dest="n_target",
                            help="target qubit count (incremental/exponential)")),
        ("--n1", dict(type=int, help="first input size (exact mode)")),
        ("--n2", dict(type=int, help="second input size (exact mode)")),
    )),
    "run": (cmd_run, "execute a plan document", (
        ("plan_file", {}),
        ("--report", dict(choices=("text", "json"), default="text",
                          help="report format (default: text)")),
        ("--verify-with-oracle", dict(
            action="store_true", help="replay each distinct cell within the "
                                      "dense cap once on the dense expansion")),
    )),
    "graph": (cmd_graph, "emit a DOT graph of a plan", (("plan_file", {}),)),
    "verify": (cmd_verify, "run the verification sweeps", (
        ("--max-n", dict(type=int, default=12, dest="max_n")),
        ("--max-k", dict(type=int, default=3, dest="max_k")),
        ("--seed", dict(type=int, default=0)),
        ("--corrupt-alpha", dict(
            action="store_true", help="debug: sabotage the projection weights; "
                                      "the distillation sweep must then fail")),
    )),
}


@functools.cache
def _parser(command: Optional[str]) -> _Parser:
    """The parser of an argv whose first word is `command`, built once per
    process and command.  It holds that command's subparser alone; for None,
    any other first word, it holds every command's, as top-level help and
    an unknown command's error list them all.  The top level parses alike
    either way: the command word comes first, and its subparser takes every
    argument after it."""
    parser = _Parser(
        prog="zstates",
        description="Exact engine for symmetric-state distillation plans.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (command,) if command else _COMMANDS:
        _, help_line, arguments = _COMMANDS[name]
        subparser = sub.add_parser(name, help=help_line)
        for argument, keywords in arguments:
            subparser.add_argument(argument, **keywords)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; the only place a failure becomes its exit code and
    its stderr lines."""
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _parser(command).parse_args(argv)
        return _COMMANDS[args.command][0](args)
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
