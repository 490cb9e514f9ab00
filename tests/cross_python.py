"""Record what the CLI writes for a fixed list of commands, to check that
two interpreters, or two checkouts, write the same bytes.

    python3 tests/cross_python.py SRC OUT.json

It imports zstates from SRC, a checkout's `src` directory, calls
`zstates.cli.main(argv)` in-process for every command below, and writes
OUT.json: each command with its exit code, its stderr and the sha-256 of
its stdout.  Two runs wrote the same bytes where their files are equal
(`cmp a.json b.json`).  The commands cover the golden plans, generated
plans at k 1-5, explicit plans (hostile ids included), every kind of
invalid plan a document can describe, malformed documents, ids holding a
control or separator character, and help and usage errors; help is
wrapped at 80 columns whatever the terminal.  Only the standard library
is used, so an interpreter without pytest can run it, and pytest does not
collect it.
The documents are written to a temporary directory, the working directory
while the commands run, so no message holds a path that differs between
runs.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def explicit(k, target_n, inputs, cycles, ancillas=()):
    """An explicit plan document from (id, k, n) states and id triples."""
    return {"schema_version": 1, "mode": "explicit", "k": k, "target_n": target_n,
            "inputs": [{"id": i, "k": kk, "n": n} for i, kk, n in inputs],
            "ancillas": [{"id": i, "k": kk, "n": n} for i, kk, n in ancillas],
            "cycles": [{"left": a, "right": b, "produced": p} for a, b, p in cycles]}


def incremental(k, c):
    """The incremental schedule of c cycles, written id by id."""
    inputs = [(f"base{j + 1}", k, 2 * k + 1) for j in range(c + 1)]
    cycles = [(f"s{i}" if i else "base1", f"base{i + 2}", f"s{i + 1}")
              for i in range(c)]
    return explicit(k, 2 * k + 1 + c, inputs, cycles)


def doubling(k, m, name):
    """A doubling tree of 2**m base states, each id passed through `name`."""
    inputs, cycles = [], []

    def build(s):
        if s == 1:
            inputs.append((name(f"b{len(inputs)}"), k, 2 * k + 1))
            return inputs[-1][0]
        pair = build(s // 2), build(s // 2)
        cycles.append((*pair, name(f"p{len(cycles)}")))
        return cycles[-1][2]

    build(2 ** m)
    return explicit(k, 2 * k + 2 ** m, inputs, cycles)


def faults(doc):
    """The document with each fault a plan can have, at its first, middle
    and last cycle or state."""
    k, cycles, states = doc["k"], doc["cycles"], doc["inputs"]
    for at in sorted({0, len(cycles) // 2, len(cycles) - 1}):
        for key, value in (("left", "ghost"), ("right", "ghost"),
                           ("right", cycles[at]["left"]),
                           ("left", "base1" if at else cycles[-1]["produced"]),
                           ("produced", "base1"), ("produced", cycles[0]["produced"]),
                           ("right", cycles[at]["produced"]), ("left", "small")):
            bad = copy.deepcopy(doc)
            bad["cycles"][at][key] = value
            bad["ancillas"] = [{"id": "small", "k": k, "n": 2 * k - 1}]
            yield bad
        if at:  # an earlier product left unresolved, then produced again
            bad = copy.deepcopy(doc)
            bad["cycles"][0]["left"] = "ghost"
            bad["cycles"][at]["produced"] = cycles[0]["produced"]
            yield bad
    for at in sorted({0, len(states) // 2, len(states) - 1}):
        for key, value in (("id", states[-1 - at]["id"]), ("k", k + 1),
                           ("n", 0), ("n", -1), ("k", states[at]["n"] + 1)):
            bad = copy.deepcopy(doc)
            bad["inputs"][at][key] = value
            yield bad
    for key, value in (("target_n", doc["target_n"] + 1), ("k", 0), ("k", 257),
                       ("cycles", [])):
        yield {**doc, key: value}
    bad = copy.deepcopy(doc)  # three faults in one plan
    bad["cycles"][0]["left"], bad["cycles"][-1]["right"] = "ghost", "base1"
    bad["target_n"] += 2
    yield bad


# No document here holds an int past `str`'s digit limit: `json.loads`
# words that refusal itself, and 3.10 words it differently.
MALFORMED = [
    "", "not json", "[]", '{"schema_version": 1}',
    '{"schema_version": 2, "mode": "incremental", "k": 1, "target_n": 5}',
    '{"schema_version": 1, "mode": "spiral", "k": 1, "target_n": 5}',
    '{"schema_version": 1, "mode": "incremental", "k": true, "target_n": 5}',
    '{"schema_version": 1, "mode": "incremental", "k": 1, "target_n": 5, "n1": 2}',
    '{"schema_version": 1, "mode": "exact", "k": 1, "target_n": 5, "n1": 2, "n2": 2}',
    '{"schema_version": 1, "mode": "incremental", "k": 1, "target_n": 5, "x": 0}',
]


# Help, usage errors and first words that name no command.
USAGE = [
    [], ["-h"], ["--help"], ["-h", "run"], ["bogus"], ["ru"], ["RUN"], ["--"],
    ["--", "run", "x"], ["run", "--rep", "json", "x"], ["run", "x", "--bogus"],
    ["run", "x", "--report", "xml"], ["run"], ["graph"], ["graph", "a", "b"],
    ["plan", "--mode", "exact", "--k", "x"], ["plan", "--mode", "exact"],
    ["verify", "--max-n", "five"], ["verify", "--seed"],
    *([command, "--help"] for command in ("plan", "run", "graph", "verify")),
]


def malformed_entries(doc):
    """The document with one malformed entry in each array."""
    for key, index in (("inputs", 0), ("inputs", -1), ("cycles", 0), ("cycles", -1)):
        entry = doc[key][index]
        field = next(iter(entry))
        for value in ({**entry, "extra": 1}, {f: entry[f] for f in list(entry)[1:]},
                      {**entry, field: ""}, {**entry, field: 1.5}, [entry],
                      {**entry, field: "\ud800"}):
            bad = copy.deepcopy(doc)
            bad[key][index] = value
            yield bad
    bad = copy.deepcopy(doc)
    bad["inputs"][0]["n"] = True
    yield bad


def commands(work):
    """(name, argv) for every command, writing each document into `work`."""
    def write(name, doc):
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (work / name).write_text(text, encoding="utf-8")
        return name

    runs = (["run"], ["run", "--report", "json"], ["graph"])
    oracle = (["run", "--verify-with-oracle"],
              ["run", "--report", "json", "--verify-with-oracle"])
    for case in sorted(p.name for p in GOLDEN.iterdir()):
        name = write(f"golden-{case}.json", (GOLDEN / case / "plan.json").read_text())
        for argv in runs + oracle:
            yield [argv[0], name, *argv[1:]]
    for mode in ("incremental", "exponential"):
        for k in range(1, 6):
            for n in sorted({2 * k + 1, 2 * k + 2, 2 * k + 7, 40, 150, 1000, 4000}):
                yield ["plan", "--mode", mode, "--k", str(k), "--n-target", str(n)]
                name = write(f"{mode}-{k}-{n}.json", {
                    "schema_version": 1, "mode": mode, "k": k, "target_n": n})
                for argv in runs + (oracle if n <= 40 else ()):
                    yield [argv[0], name, *argv[1:]]
    for k in range(1, 4):
        for n2 in (2 * k, 3 * k + 1):
            name = write(f"exact-{k}-{n2}.json", {
                "schema_version": 1, "mode": "exact", "k": k, "target_n": 2 * k + n2,
                "n1": 2 * k, "n2": n2})
            for argv in runs + oracle:
                yield [argv[0], name, *argv[1:]]
    for k in range(1, 6):
        for c in (1, 7, 300, 4003):
            name = write(f"explicit-{k}-{c}.json", incremental(k, c))
            for argv in runs:
                yield [argv[0], name, *argv[1:]]
    for i, prefix in enumerate(('q"', "b\\", "proj", "~", "é", "")):
        name = write(f"tree-{i}.json", doubling(2, 6, prefix.__add__))
        for argv in runs:
            yield [argv[0], name, *argv[1:]]
    # Ids holding a control or separator character, at a base state and at
    # a product: the document is refused as it comes in.
    for i, mark in enumerate(("\n", "\x1b[31m", "\u2028")):
        for at in ("b0", "p0"):
            name = write(f"unprintable-{i}-{at}.json",
                         doubling(1, 3, lambda s, at=at, mark=mark: s + mark * (s == at)))
            for argv in runs:
                yield [argv[0], name, *argv[1:]]
    # A doubling tree whose only fault is its target.
    wrong_target = {**doubling(2, 6, str), "target_n": 2 * 2 + 2 ** 6 + 1}
    for i, doc in enumerate([*faults(incremental(2, 6)), wrong_target]):
        name = write(f"invalid-{i}.json", doc)
        yield ["graph", name]
        yield ["run", name, "--report", "json"]
    for i, doc in enumerate([*MALFORMED, *malformed_entries(incremental(1, 4))]):
        yield ["run", write(f"malformed-{i}.json", doc)]
    yield ["run", "missing.json"]
    yield ["plan", "--mode", "incremental", "--k", "0", "--n-target", "5"]
    yield ["verify"]
    yield from USAGE


def main(src, out):
    sys.path.insert(0, str(Path(src).resolve()))
    from zstates.cli import main as cli_main

    work = Path(tempfile.mkdtemp())
    here = os.getcwd()
    os.environ["COLUMNS"] = "80"  # help wraps at the same width on any terminal
    results = []
    try:
        os.chdir(work)
        for argv in commands(work):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main(argv)
            digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
            results.append([argv, code, stderr.getvalue(), digest])
    finally:
        os.chdir(here)
        shutil.rmtree(work)
    Path(out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"{len(results)} commands recorded in {out}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
