"""Seeded workloads: each round is a list of CLI operations plus their checks.

The program only ever sees the plan documents written here and the argv of
each call; every expected output comes from `reference`.  Each workload has
a fixed grid of slots (k, size); every round runs one document per slot,
its size moved off the grid point by a seeded jitter of up to 3%, in a
seeded order.  Documents therefore differ between seeds and rounds, while
each slot's cost stays put, so a slot's best time over the rounds of a run
is a steady figure even on a host whose speed swings.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

# (k, lowest target_n, highest target_n, grid points): each op costs about
# 0.1-1.8 s on a 2-vCPU x86 host, and the top sizes keep cumulative
# denominators near 3,100-3,400 digits, under CPython's 4,300-digit int->str
# limit.  Grid points are spaced evenly in log(target_n), ends included.
EXP_SIZES = ((1, 300, 4000, 3), (2, 150, 2000, 3), (3, 100, 1000, 3))
INCR_SIZES = ((1, 300, 4000, 3), (2, 200, 2000, 3), (3, 150, 1100, 3),
              (4, 120, 1000, 3), (5, 100, 850, 3))
JITTER = 0.03
# k = 3 is the only k whose cells under the 22-qubit cap reach 10^4-10^5
# amplitudes.  Exponential targets 16..37 all replay cells of about 5*10^4
# amplitudes (38 doubles that), so cost hardly depends on the target, but
# the cycle count does: each slot draws from three neighbouring targets.
ORACLE_K = 3
ORACLE_EXP_SLOTS = ((20, 22), (30, 32))


@dataclass
class Op:
    """One CLI call: `zstates <argv>`; `check(stdout)` lists output problems."""

    kind: str  # "run", "graph" or "verify": the metric it feeds
    argv: list[str]
    check: Callable[[str], list[str]]
    slot: str = ""  # ops of one kind and slot have near-equal cost
    cycles: int = 0
    report: str = ""  # "json" or "text" for run ops


def _grid(rng: random.Random, lo: int, hi: int, points: int) -> list[int]:
    """Log-evenly spaced sizes from lo to hi, each jittered by up to JITTER."""
    sizes = []
    for j in range(points):
        n = lo * (hi / lo) ** (j / (points - 1)) * math.exp(rng.uniform(-JITTER, JITTER))
        sizes.append(min(hi, max(lo, round(n))))
    return sizes


def explicit_incremental_doc(k: int, target_n: int) -> dict:
    """The incremental schedule written out id by id, as a hand-made plan would be."""
    base = 2 * k + 1
    steps = target_n - base
    inputs = [{"id": f"b{i}", "k": k, "n": base} for i in range(steps + 1)]
    cycles, current = [], "b0"
    for i in range(steps):
        cycles.append({"left": current, "right": f"b{i + 1}", "produced": f"g{i}"})
        current = f"g{i}"
    return {"schema_version": 1, "mode": "explicit", "k": k,
            "target_n": target_n, "inputs": inputs, "ancillas": [],
            "cycles": cycles}


class DocWriter:
    """Writes plan documents under one directory with unique names."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def write(self, doc: dict) -> str:
        self.count += 1
        path = self.directory / f"plan{self.count}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return str(path)


def _plan_ops(writer: DocWriter, doc: dict, run_flags: list[str], report: str,
              graph: bool, oracle: bool = False, slot: str = "") -> list[Op]:
    path = writer.write(doc)
    sched = reference.schedule_of(doc)
    check_run = reference.check_run_json if report == "json" else reference.check_run_text
    ops = [Op("run", ["run", path, *run_flags],
              lambda out: check_run(sched, out, oracle=oracle),
              slot=slot, cycles=len(sched.cycles), report=report)]
    if graph:
        ops.append(Op("graph", ["graph", path],
                      lambda out: reference.check_graph(sched, out), slot=slot))
    return ops


def _verify_op(seed: int, max_n: int = 12, max_k: int = 3) -> Op:
    bounds = [] if (max_n, max_k) == (12, 3) else ["--max-n", str(max_n),
                                                   "--max-k", str(max_k)]
    return Op("verify", ["verify", "--seed", str(seed), *bounds],
              lambda out: reference.check_verify(out, max_n, max_k), slot="verify")


def _exp_round(rng: random.Random, writer: DocWriter) -> list[list[Op]]:
    return [_plan_ops(writer, {"schema_version": 1, "mode": "exponential", "k": k,
                               "target_n": n},
                      ["--report", "json"], "json", True, slot=f"k{k}/{j}")
            for k, lo, hi, points in EXP_SIZES
            for j, n in enumerate(_grid(rng, lo, hi, points))]


def _incr_round(rng: random.Random, writer: DocWriter) -> list[list[Op]]:
    return [_plan_ops(writer, explicit_incremental_doc(k, n), [], "text", True,
                      slot=f"k{k}/{j}")
            for k, lo, hi, points in INCR_SIZES
            for j, n in enumerate(_grid(rng, lo, hi, points))]


def _oracle_exact_pairs(k: int) -> list[tuple[int, int]]:
    """(n1, n2) whose two cycles both fit the cap, the second at 16..22 qubits,
    ordered by the amplitudes the oracle replays."""
    pairs = [(n1, second - 2 * k - n1)
             for second in range(max(16, 6 * k), reference.DENSE_CAP + 1)
             for n1 in range(2 * k, second - 4 * k + 1)]
    return sorted(pairs, key=lambda p: sum(
        math.comb(a, k) * math.comb(b, k)
        for a, b in reference.exact_schedule(k, *p).cycles))


def _oracle_round(rng: random.Random, writer: DocWriter) -> list[list[Op]]:
    k = ORACLE_K
    pairs = _oracle_exact_pairs(k)
    n1, n2 = pairs[len(pairs) // 2 + rng.randint(-1, 1)]
    docs = [("exact", {"schema_version": 1, "mode": "exact", "k": k,
                       "target_n": n1 + n2, "n1": n1, "n2": n2})]
    docs += [(f"exp/{j}", {"schema_version": 1, "mode": "exponential", "k": k,
                           "target_n": rng.randint(lo, hi)})
             for j, (lo, hi) in enumerate(ORACLE_EXP_SLOTS)]
    return [[_verify_op(rng.randrange(2 ** 31))]] + [
        _plan_ops(writer, doc, ["--verify-with-oracle"], "text", False,
                  oracle=True, slot=slot) for slot, doc in docs]


ROUNDS = {"exp-doubling": _exp_round, "incr-explicit": _incr_round,
          "oracle": _oracle_round}


def make_round(workload: str, seed: int, index: int, writer: DocWriter) -> list[Op]:
    """Round `index` of a workload: the same (workload, seed, index), the same ops.

    Ops on one document stay together; the documents run in a seeded order.
    """
    rng = random.Random(f"{workload}/{seed}/{index}")
    groups = ROUNDS[workload](rng, writer)
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def warmup_ops(workload: str, writer: DocWriter) -> list[Op]:
    """One small op per op kind of the workload, run untimed during set-up."""
    if workload == "exp-doubling":
        doc = {"schema_version": 1, "mode": "exponential", "k": 1, "target_n": 40}
        return _plan_ops(writer, doc, ["--report", "json"], "json", True)
    if workload == "incr-explicit":
        return _plan_ops(writer, explicit_incremental_doc(2, 30), [], "text", True)
    doc = {"schema_version": 1, "mode": "exact", "k": 2, "target_n": 11,
           "n1": 5, "n2": 6}
    return [_verify_op(0, 6, 1),
            *_plan_ops(writer, doc, ["--verify-with-oracle"], "text", False,
                       oracle=True)]
