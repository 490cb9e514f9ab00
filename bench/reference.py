"""Independent output checker for the benchmark; it imports nothing from zstates.

Every expected number is recomputed here from the paper's closed form with
`math.comb` and `Fraction`, and every schedule is re-derived from its
description, so a defect shared by the engine and its own tests still shows.
Each `check_*` function returns a list of problems; an empty list means the
output agrees with the reference.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

DENSE_CAP = 22  # the qubit ceiling `zstates run --verify-with-oracle` replays under


@dataclass(frozen=True)
class Schedule:
    """What a plan document should produce: sizes per cycle and the ledger."""

    k: int
    target_n: int
    input_sizes: tuple[int, ...]
    ancilla_sizes: tuple[int, ...]
    cycles: tuple[tuple[int, int], ...]  # (n1, n2) operand sizes, in order
    depth: int

    def produced(self, i: int) -> int:
        n1, n2 = self.cycles[i]
        return n1 + n2 - 2 * self.k


def beta_sq(k: int) -> Fraction:
    """Reciprocal squared norm of the projection target with alpha_j = C(k, j)**-2."""
    return 1 / sum(Fraction(1, comb(k, j) ** 2) for j in range(k + 1))


def step_probability(k: int, n1: int, n2: int) -> Fraction:
    """beta_sq(k) * C(n1 + n2 - 2k, k) / (C(n1, k) * C(n2, k))."""
    return beta_sq(k) * comb(n1 + n2 - 2 * k, k) / (comb(n1, k) * comb(n2, k))


def cumulative_probability(k: int, cycles) -> Fraction:
    """Exact product of the per-cycle probabilities, reduced once at the end."""
    steps = [step_probability(k, n1, n2) for n1, n2 in cycles]
    return Fraction(prod(p.numerator for p in steps),
                    prod(p.denominator for p in steps))


def decimal_digits(value: int) -> int:
    """Decimal digit count of a positive int without a str() conversion."""
    digits = max(1, int(value.bit_length() * 0.30102999566398120))
    while 10 ** digits <= value:
        digits += 1
    while digits > 1 and 10 ** (digits - 1) > value:
        digits -= 1
    return digits


def exponential_schedule(k: int, target_n: int) -> Schedule:
    """Balanced doubling tree over the largest power-of-two span, then +1 steps."""
    base = 2 * k + 1
    span = target_n - 2 * k
    top = 1 << (span.bit_length() - 1)
    cycles: list[tuple[int, int]] = []
    bases = 0

    def build(s: int) -> int:
        nonlocal bases
        if s == 1:
            bases += 1
            return base
        left = build(s // 2)
        right = build(s // 2)
        cycles.append((left, right))
        return left + right - 2 * k

    current = build(top)
    for _ in range(span - top):
        bases += 1
        cycles.append((current, base))
        current += 1
    return Schedule(k, target_n, (base,) * bases, (), tuple(cycles),
                    top.bit_length() - 1 + span - top)


def incremental_schedule(k: int, target_n: int) -> Schedule:
    """One fresh Z_k(2k+1) per cycle, growing the current state by one qubit."""
    base = 2 * k + 1
    steps = target_n - base
    cycles = tuple((base + i, base) for i in range(steps))
    return Schedule(k, target_n, (base,) * max(1, steps + 1), (), cycles, steps)


def exact_schedule(k: int, n1: int, n2: int) -> Schedule:
    """Lossless two cycles through one Z_k(4k) ancilla."""
    return Schedule(k, n1 + n2, (n1, n2), (4 * k,),
                    ((4 * k, n1), (n1 + 2 * k, n2)), 2)


def explicit_schedule(doc: dict) -> Schedule:
    """Resolve an explicit document's ids to operand sizes."""
    k = doc["k"]
    size = {s["id"]: s["n"] for s in (*doc["inputs"], *doc.get("ancillas", []))}
    depth = dict.fromkeys(size, 0)
    cycles = []
    for c in doc["cycles"]:
        n1, n2 = size[c["left"]], size[c["right"]]
        cycles.append((n1, n2))
        size[c["produced"]] = n1 + n2 - 2 * k
        depth[c["produced"]] = 1 + max(depth[c["left"]], depth[c["right"]])
    return Schedule(k, doc["target_n"], tuple(s["n"] for s in doc["inputs"]),
                    tuple(s["n"] for s in doc.get("ancillas", [])),
                    tuple(cycles), max(depth.values()) if cycles else 0)


def schedule_of(doc: dict) -> Schedule:
    mode, k, n = doc["mode"], doc["k"], doc["target_n"]
    if mode == "exponential":
        return exponential_schedule(k, n)
    if mode == "incremental":
        return incremental_schedule(k, n)
    if mode == "exact":
        return exact_schedule(k, doc["n1"], doc["n2"])
    return explicit_schedule(doc)


def _check_ledger(sched: Schedule, ledger: dict) -> list[str]:
    k, cycles = sched.k, len(sched.cycles)
    expected = {
        "input_qubits": sum(sched.input_sizes),
        "ancilla_qubits": sum(sched.ancilla_sizes),
        "consumed_qubits": 2 * k * cycles,
        "cycles": cycles,
        "output_qubits": sched.target_n,
        "depth": sched.depth,
    }
    problems = [f"ledger {key}={ledger.get(key)} expected {value}"
                for key, value in expected.items() if ledger.get(key) != value]
    if (ledger.get("output_qubits") != ledger.get("input_qubits", 0)
            + ledger.get("ancilla_qubits", 0) - 2 * k * ledger.get("cycles", 0)):
        problems.append("ledger identity output = input + ancilla - 2k*cycles fails")
    return problems


def _check_cycles(sched: Schedule, produced: list[int],
                  probabilities: list[Fraction], oracle: list[bool] | None,
                  cumulative: Fraction, oracle_expected: bool) -> list[str]:
    if len(produced) != len(sched.cycles):
        return [f"{len(produced)} cycles reported, expected {len(sched.cycles)}"]
    for i, (n1, n2) in enumerate(sched.cycles):
        if produced[i] != sched.produced(i):
            return [f"cycle {i + 1}: produced n={produced[i]}, "
                    f"expected {sched.produced(i)}"]
        if probabilities[i] != step_probability(sched.k, n1, n2):
            return [f"cycle {i + 1}: probability differs from the closed form"]
        if oracle is not None and oracle[i] != (oracle_expected
                                                and n1 + n2 <= DENSE_CAP):
            return [f"cycle {i + 1}: oracle_checked={oracle[i]} unexpected"]
    if cumulative != cumulative_probability(sched.k, sched.cycles):
        return ["cumulative probability differs from the product of closed forms"]
    return []


def check_run_json(sched: Schedule, stdout: str, oracle: bool = False) -> list[str]:
    """A `zstates run --report json` report against the reference schedule."""
    report = json.loads(stdout)
    frac = lambda obj: Fraction(obj["num"], obj["den"])  # noqa: E731
    cycles = report["cycles"]
    problems = _check_cycles(
        sched, [c["produced"]["n"] for c in cycles],
        [frac(c["probability"]) for c in cycles],
        [c["oracle_checked"] for c in cycles],
        frac(report["cumulative_probability"]), oracle)
    problems += _check_ledger(sched, report["ledger"])
    if (report["final"]["k"], report["final"]["n"]) != (sched.k, sched.target_n):
        problems.append(f"final state {report['final']} is not the target")
    return problems


_CYCLE = re.compile(r"cycle \d+: .* -> Z_\d+\((\d+)\)\[[^\]]*\]  p = (\S+) "
                    r"\(~ [^)]*\)(  \[oracle ok\])?$")
_CUMULATIVE = re.compile(r"cumulative success probability: (\S+) \(~ [^)]*\)$")
_LEDGER = re.compile(r"(\w+)=(\d+)")


def check_run_text(sched: Schedule, stdout: str, oracle: bool = False) -> list[str]:
    """The default text report, parsing the exact fractions it prints."""
    lines = stdout.splitlines()
    if len(lines) != len(sched.cycles) + 4:
        return [f"text report has {len(lines)} lines, "
                f"expected {len(sched.cycles) + 4}"]
    produced, probabilities, checked = [], [], []
    for line in lines[1:-3]:
        m = _CYCLE.match(line)
        if m is None:
            return [f"unparsable cycle line {line[:80]!r}"]
        produced.append(int(m.group(1)))
        probabilities.append(Fraction(m.group(2)))
        checked.append(m.group(3) is not None)
    m = _CUMULATIVE.match(lines[-3])
    if m is None:
        return [f"unparsable cumulative line {lines[-3][:80]!r}"]
    problems = _check_cycles(sched, produced, probabilities, checked,
                             Fraction(m.group(1)), oracle)
    if not lines[-2].startswith("ledger: "):
        return problems + ["missing ledger line"]
    ledger = {key: int(value) for key, value in _LEDGER.findall(lines[-2])}
    problems += _check_ledger(sched, ledger)
    if lines[-1] != f"final: Z_{sched.k}({sched.target_n})":
        problems.append(f"final line {lines[-1]!r} is not the target")
    return problems


_DOT_NODE = re.compile(r'  "[^"]*" \[shape=box, style=rounded, label="Z_(\d+)\((\d+)\)"\];$')


def check_graph(sched: Schedule, stdout: str) -> list[str]:
    """DOT export: one node per base state, projection and product, 3 edges per cycle."""
    lines = stdout.splitlines()
    bases = len(sched.input_sizes) + len(sched.ancilla_sizes)
    expected_lines = 3 + bases + 5 * len(sched.cycles)
    if len(lines) != expected_lines or lines[0] != "digraph plan {" or lines[-1] != "}":
        return [f"DOT output has {len(lines)} lines, expected {expected_lines}"]
    sizes = []
    for line in lines[2:2 + bases]:
        m = _DOT_NODE.match(line)
        if m is None:
            return [f"unparsable state node {line[:80]!r}"]
        sizes.append(int(m.group(2)))
    if sizes != [*sched.input_sizes, *sched.ancilla_sizes]:
        return ["base state sizes differ from the schedule"]
    for i in range(len(sched.cycles)):
        head = 2 + bases + 5 * i
        if lines[head] != (f'  "proj{i}" [shape=rarrow, '
                           f'label="consume {2 * sched.k}"];'):
            return [f"cycle {i}: unexpected projection node"]
        m = _DOT_NODE.match(lines[head + 1])
        if m is None or int(m.group(2)) != sched.produced(i):
            return [f"cycle {i}: product node differs from Z_{sched.k}"
                    f"({sched.produced(i)})"]
        if sum(line.endswith(f'"proj{i}";') for line in lines[head + 2:head + 4]) != 2 \
                or not lines[head + 4].startswith(f'  "proj{i}" -> '):
            return [f"cycle {i}: edges do not run operand -> projection -> product"]
    return []


def verify_cell_counts(max_n: int = 12, max_k: int = 3) -> dict[str, int]:
    """Cells each `zstates verify` sweep must report at the given bounds.

    Mirrors the documented bound scaling: Vandermonde to max(max_n, 20),
    norms to max_n + 4, composition and bit-flip to max_n, permutations to
    max_n - 2, and distillation/selection operands to max_n - 4 with totals
    to max_n + 2 (default dense cap, so nothing is clipped).
    """
    operand, total = max(max_n - 4, 2), max_n + 2
    distill = sum(1 for k in range(1, max_k + 1)
                  for n1 in range(2 * k, operand + 1)
                  for n2 in range(2 * k, operand + 1) if n1 + n2 <= total)
    return {
        "vandermonde": sum((n + 1) ** 2 for n in range(max(max_n, 20) + 1)),
        "norm": sum(n + 1 for n in range(max_n + 5)),
        "composition": sum((n + 1) ** 2 for n in range(max_n + 1)),
        "distillation": distill,
        "bit-flip": sum(n + 1 for n in range(max_n + 1)),
        "permutation": sum(n + 1 for n in range(1, max(max_n - 2, 1) + 1)),
        "selection": distill,
    }


def check_verify(stdout: str, max_n: int = 12, max_k: int = 3) -> list[str]:
    """Every sweep line must read `<name>: pass (<expected> cells)`, in order."""
    expected = [f"{name}: pass ({cells} cells)"
                for name, cells in verify_cell_counts(max_n, max_k).items()]
    lines = stdout.splitlines()
    if lines == expected:
        return []
    bad = next((got for got, want in zip(lines, expected) if got != want),
               f"{len(lines)} sweep lines, expected {len(expected)}")
    return [f"verify output differs: {bad[:120]}"]


def check_golden(stdout: str, expected: dict) -> list[str]:
    """A `run --report json` report against a frozen golden expectation."""
    report = json.loads(stdout)
    got = {
        "final": {"k": report["final"]["k"], "n": report["final"]["n"]},
        "per_cycle_probabilities": [c["probability"] for c in report["cycles"]],
        "cumulative_probability": report["cumulative_probability"],
        "ledger": report["ledger"],
    }
    return [f"golden {key} differs" for key in got if got[key] != expected[key]]
