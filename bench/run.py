"""zstates benchmark: one closed-loop client calling the CLI in-process.

    python3 bench/run.py --workload exp-doubling --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; zstates is imported from its `src/`.
Every op is `zstates.cli.main(argv)` with stdout captured, timed alone, and
checked against `reference` (which shares no code with zstates).  The timed
ops run in a `worker` process of their own, so its peak memory is the
program's; the golden smoke test and the traced pass run in this process.  With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics from a separate traced pass.
Exit status: 0 when every output agrees with the reference, 1 when any op
fails, 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference
import workloads
from workloads import DocWriter, Op

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3  # before the first round; one more precedes each round
TRACE_ROUNDS = 1


class CheckoutError(RuntimeError):
    """The directory is not a zstates source checkout."""


def load_zstates():
    """Import zstates from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "zstates" / "__init__.py").is_file():
        raise CheckoutError(f"no zstates sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import zstates.cli
    if Path(zstates.__file__).resolve().parent.parent != src:
        raise CheckoutError(f"zstates imported from {zstates.__file__}")
    return zstates.cli


def fresh_import():
    """Drop every loaded zstates module and import the package again."""
    for name in [n for n in sys.modules if n == "zstates" or n.startswith("zstates.")]:
        del sys.modules[name]
    return load_zstates()


@dataclass
class Outcome:
    seconds: float
    problems: list[str]
    stdout: str = ""


class OpError(Exception):
    """cli.main raised; `seconds` is how long it ran first."""

    def __init__(self, seconds: float, message: str):
        super().__init__(message)
        self.seconds = seconds


def call(cli, argv: list[str]):
    """cli.main(argv) with stdout and stderr captured: (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def in_process(cli, invoke=call):
    """A runner timing `invoke(cli, argv)` in this process, after a gc.collect()."""
    def runner(argv: list[str]):
        gc.collect()
        t0 = time.perf_counter()
        try:
            code, out, err = invoke(cli, argv)
        except Exception as exc:
            first = (str(exc).splitlines() or [""])[0]
            raise OpError(time.perf_counter() - t0,
                          f"{type(exc).__name__}: {first}") from None
        return time.perf_counter() - t0, code, out, err
    return runner


class Worker:
    """A `worker.py` process running CLI calls; see that file for the protocol."""

    def __init__(self, work: Path):
        self.out = work / "stdout.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
             str(ROOT / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def reimport(self) -> float:
        """Seconds to import zstates afresh."""
        return self._ask({"import": True})["seconds"]

    def runner(self, fresh: bool):
        """A runner calling the CLI in the worker, on a fresh import if `fresh`."""
        def runner(argv: list[str]):
            reply = self._ask({"argv": argv, "out": str(self.out), "fresh": fresh})
            if "error" in reply:
                raise OpError(reply["seconds"], reply["error"])
            out = self.out.read_text(encoding="utf-8")
            return reply["seconds"], reply["code"], out, reply["err"]
        return runner

    def close(self) -> float:
        """Stop the worker; its peak resident memory in MB."""
        try:
            return self._ask({"exit": True})["peak_rss_kb"] / 1024
        finally:
            with contextlib.suppress(OSError):
                self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def execute(runner, op: Op) -> Outcome:
    """Time one op and check its output; any failure is recorded, never raised."""
    try:
        seconds, code, out, err = runner(op.argv)
    except OpError as exc:  # the op failed; record it and keep the loop going
        return Outcome(exc.seconds, [str(exc)])
    if code != 0:
        first = err.strip().splitlines()[0] if err.strip() else ""
        return Outcome(seconds, [f"exit code {code}: {first}"], out)
    try:
        problems = op.check(out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"[:200]]
    return Outcome(seconds, problems, out)


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction loop; a drift gauge, never a divisor."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 20001):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
    return time.perf_counter() - t0


def golden_smoke(cli) -> list[str]:
    """Replay tests/golden/* read-only; each must match its frozen expectation."""
    golden = ROOT / "tests" / "golden"
    cases = sorted(p for p in golden.glob("*") if (p / "plan.json").is_file())
    if not cases:
        return [f"no golden plans under {golden}"]
    problems = []
    for case in cases:
        expected = json.loads((case / "expected.json").read_text())
        doc = json.loads((case / "plan.json").read_text())
        sched = reference.schedule_of(doc)
        op = Op("run", ["run", str(case / "plan.json"), "--report", "json"],
                lambda out: (reference.check_golden(out, expected)
                             + reference.check_run_json(sched, out)))
        problems += [f"golden {case.name}: {p}"
                     for p in execute(in_process(cli), op).problems]
    return problems


def timed_setup(worker: Worker, warmups: list[Op]) -> tuple[float, list[str]]:
    """A fresh import of zstates plus one warm-up op per op kind on it: the sum of
    their own seconds (garbage collection and output checks fall outside)."""
    seconds = worker.reimport()
    outcomes = [execute(worker.runner(fresh=False), op) for op in warmups]
    return (seconds + sum(o.seconds for o in outcomes),
            [p for o in outcomes for p in o.problems])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "p50": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "p50": q2, "q3": q3}


def denominator_digits(op: Op, out: str) -> int:
    if op.kind != "run":
        return 0
    if op.report == "json":
        return reference.decimal_digits(json.loads(out)["cumulative_probability"]["den"])
    line = next(l for l in out.splitlines() if l.startswith("cumulative success"))
    return len(line.split()[3].partition("/")[2] or "1")


@dataclass
class Tally:
    """Outcomes of a run; for each (kind, slot), the fastest op and its cycles."""

    best: dict[tuple[str, str], tuple[float, int]] = field(default_factory=dict)
    seconds: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    max_digits: int = 0
    setup_seconds: list[float] = field(default_factory=list)
    setup_problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = math.nan

    def add_setup(self, seconds: float, problems: list[str]) -> None:
        self.setup_seconds.append(seconds)
        self.setup_problems += problems

    def add(self, op: Op, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.problems:
            self.failures.append(f"{' '.join(op.argv)}: {outcome.problems[0]}"[:300])
            return
        self.seconds.setdefault(op.kind, []).append(outcome.seconds)
        key = (op.kind, op.slot)
        if key not in self.best or outcome.seconds < self.best[key][0]:
            self.best[key] = (outcome.seconds, op.cycles)
        if op.kind == "run":
            self.max_digits = max(self.max_digits, denominator_digits(op, outcome.stdout))

    def slot_best(self, kind: str) -> list[tuple[float, int]]:
        return [v for (k, _), v in sorted(self.best.items()) if k == kind]


def measure(workload: str, seed: int, seconds: float, writer: DocWriter):
    """Closed loop over rounds until `seconds` have passed.

    The first round always completes, so every slot has an op; later rounds
    stop at the deadline.  The next op starts only after the previous one
    ends and has been checked, on a freshly imported zstates, as a new
    `zstates` process would; the import is not timed.  A timed set-up
    precedes every round, so set-up samples spread over the run like the
    ops do; the calibration loop runs between rounds.
    """
    warmups = workloads.warmup_ops(workload, writer)
    tally, drift = Tally(), [calibrate()]
    worker = Worker(writer.directory)
    try:
        for _ in range(SETUP_REPEATS - 1):
            tally.add_setup(*timed_setup(worker, warmups))
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            tally.add_setup(*timed_setup(worker, warmups))
            for op in workloads.make_round(workload, seed, rounds, writer):
                if rounds and time.perf_counter() >= deadline:
                    break
                tally.add(op, execute(worker.runner(fresh=True), op))
            drift.append(calibrate())
            rounds += 1
    finally:
        tally.peak_rss_mb = worker.close()
    return tally, drift, rounds


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else math.nan


def end_to_end(workload: str, tally: Tally) -> dict[str, float]:
    """Each slot counts once, with its fastest op of the run."""
    runs = tally.slot_best("run")
    side = tally.slot_best("verify" if workload == "oracle" else "graph")
    return {
        "setup_s": statistics.median(tally.setup_seconds),
        "run_s_geomean": geomean([s for s, _ in runs]),
        "graph_or_verify_s_geomean": geomean([s for s, _ in side]),
        "cycles_per_s": (sum(c for _, c in runs) / sum(s for s, _ in runs)
                         if runs else math.nan),
        "peak_rss_mb": tally.peak_rss_mb,
    }


def traced_pass(workload: str, seed: int, writer: DocWriter):
    """Each op of the first TRACE_ROUNDS rounds, untraced then traced.

    A fixed set of rounds (not the deadline) bounds this pass, so every count
    it reports repeats exactly for a given seed.
    """
    import tracer as tracing
    tally, plain, traced = Tally(), 0.0, 0.0
    tr = tracing.Tracer()
    op_id = 0
    for index in range(TRACE_ROUNDS):
        for op in workloads.make_round(workload, seed, index, writer):
            untraced = execute(in_process(fresh_import()), op)
            cli = fresh_import()
            tr.install()
            try:
                outcome = execute(in_process(
                    cli, lambda c, argv: tr.call_op(op_id, call, c, argv)), op)
            finally:
                tr.uninstall()
            if op.report and not outcome.problems:
                tr.counts[f"cli.report_to_{op.report}.bytes"] += len(outcome.stdout)
            tally.add(op, untraced if untraced.problems else outcome)
            plain += untraced.seconds
            traced += outcome.seconds
            op_id += 1
    metrics = tr.summary()
    metrics["trace.overhead"] = traced / plain
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"trace-{workload}-seed{seed}")
    return tally, metrics


def declared(section: str, values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """(value, unit) of each metric BENCHMARK.json lists under `section`;
    zero for a layer that did no work."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_zstates()
    except (CheckoutError, ImportError) as exc:
        print(f"cannot benchmark this directory: {exc}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        writer = DocWriter(work)
        golden_problems = golden_smoke(cli)
        if args.trace:
            tally, summary = traced_pass(args.workload, args.seed, writer)
            metrics = declared("per_layer", summary)
            detail = {"per_layer_all": summary}
        else:
            tally, drift, rounds = measure(args.workload, args.seed,
                                           args.seconds, writer)
            metrics = declared("end_to_end", end_to_end(args.workload, tally))
            detail = {
                "rounds": rounds,
                "op_seconds": {kind: quartiles(v) for kind, v in tally.seconds.items()},
                "slot_best_s": {f"{kind}:{slot}": v[0]
                                for (kind, slot), v in sorted(tally.best.items())},
                "setup_s": quartiles(tally.setup_seconds),
                "calibration_s": quartiles(drift),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(tally.failures)
    setup_problems = golden_problems + tally.setup_problems
    correct = (failed == 0 and tally.attempted > 0 and not setup_problems
               and all(math.isfinite(value) for value, _ in metrics.values()))
    detail.update({
        "workload": args.workload, "seed": args.seed,
        "fail_ratio": failed / max(tally.attempted, 1),
        "failures": tally.failures[:20], "setup_problems": setup_problems[:20],
        "max_cumulative_denominator_digits": tally.max_digits,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
    })
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
