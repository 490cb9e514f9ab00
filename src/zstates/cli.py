"""Command line front end.

Subcommands: `plan` (emit a plan document), `run` (execute one with exact
reporting), `graph` (DOT export), `verify` (the brute-force sweeps).
Exit codes: 0 ok, 1 verification failure, 2 bad input or malformed
document, 3 invalid plan, 4 execution error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .combinatorics import int_str
from .dense import DENSE_CAP
from .graph import plan_to_dot
from .plandoc import (
    DocumentError,
    PlanBuildError,
    PlanDocument,
    approx_decimal,
    document_to_plan,
    frac_to_json,
    parse_document,
    render_document,
)
from .protocol import (
    ExecutionReport,
    InvalidPlanError,
    PlanExecutionError,
    ProtocolPlan,
    StateRef,
    execute_plan,
)
from .verify import check_distillation_cell, run_verification

__all__ = ["main", "entry", "report_to_json", "report_to_text"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INVALID_PLAN = 3
EXIT_RUNTIME = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                       help="replay each cycle within the dense cap on the "
                            "dense expansion")

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


def report_to_json(plan: ProtocolPlan, report: ExecutionReport) -> dict:
    """Machine-readable report; every probability is an exact fraction."""
    return {
        "schema_version": 1,
        "k": plan.k,
        "final": {"id": report.final.id, "k": report.final.k,
                  "n": report.final.n},
        "cycles": [
            {
                "index": i,
                "left": r.left.id,
                "right": r.right.id,
                "produced": {"id": r.produced.id, "k": r.produced.k,
                             "n": r.produced.n},
                "probability": frac_to_json(r.probability),
                "oracle_checked": r.oracle_checked,
            }
            for i, r in enumerate(report.cycles)
        ],
        "cumulative_probability": frac_to_json(report.cumulative_success),
        "ledger": {
            "input_qubits": report.ledger.input_qubits,
            "ancilla_qubits": report.ledger.ancilla_qubits,
            "consumed_qubits": report.ledger.consumed_qubits,
            "cycles": report.ledger.cycles,
            "output_qubits": report.ledger.output_qubits,
            "depth": report.ledger.depth,
        },
    }


def report_to_text(plan: ProtocolPlan, report: ExecutionReport) -> str:
    """Human-readable report; decimals are labelled approximate with `~`."""
    lines = [f"plan: k={plan.k} cycles={len(plan.cycles)} "
             f"target=Z_{plan.target[0]}({plan.target[1]})"]
    for i, r in enumerate(report.cycles):
        oracle = "  [oracle ok]" if r.oracle_checked else ""
        lines.append(
            f"cycle {i + 1}: {_state_str(r.left)}[{r.left.id}] + "
            f"{_state_str(r.right)}[{r.right.id}] -> "
            f"{_state_str(r.produced)}[{r.produced.id}]  "
            f"p = {_frac_str(r.probability)} "
            f"(~ {approx_decimal(r.probability)}){oracle}")
    led = report.ledger
    lines.append("cumulative success probability: "
                 f"{_frac_str(report.cumulative_success)} "
                 f"(~ {approx_decimal(report.cumulative_success)})")
    lines.append(f"ledger: input_qubits={led.input_qubits} "
                 f"ancilla_qubits={led.ancilla_qubits} "
                 f"consumed_qubits={led.consumed_qubits} cycles={led.cycles} "
                 f"output_qubits={led.output_qubits} depth={led.depth}")
    lines.append(f"final: {_state_str(report.final)}")
    return "\n".join(lines) + "\n"


def _max_digits(obj) -> int:
    """Most decimal digits of any int in a JSON-shaped value."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return max(map(_max_digits, obj), default=0)
    return len(int_str(abs(obj))) if type(obj) is int else 0


def _load_plan(path_str: str):
    """Returns (exit_code, plan or None, problem messages)."""
    try:
        text = Path(path_str).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return EXIT_BAD_INPUT, None, [f"cannot read {path_str}: {exc}"]
    try:
        doc = parse_document(text)
    except DocumentError as exc:
        return EXIT_BAD_INPUT, None, [f"malformed plan document: {exc}"]
    try:
        plan = document_to_plan(doc)
    except PlanBuildError as exc:
        return EXIT_INVALID_PLAN, None, exc.violations
    return EXIT_OK, plan, []


def cmd_plan(args: argparse.Namespace) -> int:
    if args.mode == "exact":
        if args.n1 is None or args.n2 is None:
            print("mode 'exact' requires --n1 and --n2", file=sys.stderr)
            return EXIT_BAD_INPUT
        if args.n_target is not None and args.n_target != args.n1 + args.n2:
            print("--n-target must equal n1 + n2 for mode 'exact'",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
        doc = PlanDocument(k=args.k, target_n=args.n1 + args.n2, mode="exact",
                           n1=args.n1, n2=args.n2)
    else:
        if args.n_target is None:
            print(f"mode {args.mode!r} requires --n-target", file=sys.stderr)
            return EXIT_BAD_INPUT
        if args.n1 is not None or args.n2 is not None:
            print("--n1/--n2 are only valid for mode 'exact'", file=sys.stderr)
            return EXIT_BAD_INPUT
        doc = PlanDocument(k=args.k, target_n=args.n_target, mode=args.mode)
    try:
        document_to_plan(doc)
    except PlanBuildError as exc:
        for message in exc.violations:
            print(message, file=sys.stderr)
        return EXIT_BAD_INPUT
    sys.stdout.write(render_document(doc))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    code, plan, problems = _load_plan(args.plan_file)
    if code != EXIT_OK:
        for message in problems:
            print(message, file=sys.stderr)
        return code
    oracle = check_distillation_cell if args.verify_with_oracle else None
    try:
        report = execute_plan(plan, oracle)
    except InvalidPlanError as exc:
        for message in exc.violations:
            print(message, file=sys.stderr)
        return EXIT_INVALID_PLAN
    except PlanExecutionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RUNTIME
    if args.report == "json":
        payload = report_to_json(plan, report)
        try:
            text = json.dumps(payload, indent=2)
        except ValueError:
            print(f"cannot write the JSON report: an integer in it has "
                  f"{_max_digits(payload)} digits, past Python's "
                  f"{sys.get_int_max_str_digits()}-digit limit for writing ints",
                  file=sys.stderr)
            return EXIT_RUNTIME
        sys.stdout.write(text + "\n")
    else:
        sys.stdout.write(report_to_text(plan, report))
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    code, plan, problems = _load_plan(args.plan_file)
    if code != EXIT_OK:
        for message in problems:
            print(message, file=sys.stderr)
        return code
    try:
        dot = plan_to_dot(plan)
    except InvalidPlanError as exc:
        for message in exc.violations:
            print(message, file=sys.stderr)
        return EXIT_INVALID_PLAN
    sys.stdout.write(dot)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n > DENSE_CAP:
        print(f"--max-n {args.max_n} exceeds the dense cap {DENSE_CAP}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "plan":
        return cmd_plan(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "graph":
        return cmd_graph(args)
    return cmd_verify(args)


def entry() -> None:
    raise SystemExit(main())
