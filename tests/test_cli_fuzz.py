"""Bounded fuzz of the command line: every small input ends in an exit code.

Documents come from a small grammar: the four modes and a bad one, values
of the wrong type, missing and foreign fields, empty and duplicate ids, k
in -1..3, sizes in -3..12 and at most four cycles, plus raw texts that are
not JSON, not UTF-8 or nested deeper than the parser goes.  Every size
stays small: nothing yet bounds the work a huge plan asks for before it
starts.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zstates.cli import main

FUZZ = settings(derandomize=True, deadline=None, max_examples=200,
                database=None)
MODES = ["explicit", "exact", "incremental", "exponential", "bogus"]
FIELDS = ["schema_version", "mode", "k", "target_n", "n1", "n2",
          "inputs", "ancillas", "cycles"]
# Hypothesis favours the first value of a list it samples from: the lists
# start with values that make a valid plan, so the run paths are reached.
SMALL_K = st.sampled_from([1, 2, 3, 0, -1])
SIZES = st.sampled_from([*range(3, 13), *range(-3, 3)])
IDS = st.sampled_from(["a", "b", "s0", "s1", "proj0", "~a", ""])
WRONG = st.one_of(st.text(max_size=3), st.booleans(), st.floats(), st.none(),
                  st.lists(st.integers(-3, 3), max_size=2),
                  st.dictionaries(st.sampled_from(["id", "k", "n"]),
                                  st.integers(-3, 3), max_size=2))


def states(k):
    """State entries, most of them with the plan's k."""
    return st.fixed_dictionaries(
        {"id": IDS, "k": st.one_of(st.just(k), SMALL_K), "n": SIZES})


CYCLES = st.fixed_dictionaries({"left": IDS, "right": IDS, "produced": IDS})
RUNS = [["run"], ["run", "--report", "json"], ["run", "--verify-with-oracle"]]


@st.composite
def chain(draw, k):
    """An explicit plan that folds its inputs left to right, often valid."""
    sizes = draw(st.lists(SIZES, min_size=1, max_size=5))
    inputs = [{"id": f"s{i}", "k": k, "n": n} for i, n in enumerate(sizes)]
    cycles, left = [], "s0"
    for i in range(1, len(sizes)):
        cycles.append({"left": left, "right": f"s{i}", "produced": f"p{i}"})
        left = f"p{i}"
    return inputs, cycles, sum(sizes) - 2 * k * len(cycles)


@st.composite
def documents(draw):
    mode = draw(st.sampled_from(MODES))
    k = draw(SMALL_K)
    doc = {"schema_version": draw(st.sampled_from([1, 1, 1, 2])),
           "mode": mode, "k": k, "target_n": draw(SIZES)}
    if mode == "exact":
        doc["n1"], doc["n2"] = draw(SIZES), draw(SIZES)
        if not draw(st.booleans()):
            doc["target_n"] = doc["n1"] + doc["n2"]
    elif mode == "explicit":
        if not draw(st.booleans()):
            doc["inputs"], doc["cycles"], doc["target_n"] = draw(chain(k))
        else:
            doc["inputs"] = draw(st.lists(states(k), max_size=4))
            doc["cycles"] = draw(st.lists(CYCLES, max_size=4))
        doc["ancillas"] = draw(st.lists(states(k), max_size=2))
    for _ in range(draw(st.integers(1, 2)) if draw(st.booleans()) else 0):
        where = doc
        entries = [e for key in ("inputs", "ancillas", "cycles")
                   if isinstance(doc.get(key), list)
                   for e in doc[key] if isinstance(e, dict)]
        if entries and draw(st.booleans()):
            where = draw(st.sampled_from(entries))
        action = draw(st.sampled_from(["drop", "wrong", "add"]))
        if action == "add":
            where[draw(st.sampled_from(FIELDS + ["id", "extra"]))] = draw(
                st.one_of(SIZES, WRONG))
        elif where:
            key = draw(st.sampled_from(sorted(where)))
            if action == "drop":
                del where[key]
            else:
                where[key] = draw(WRONG)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 9:  # a duplicate key: the last one wins
        text = '{"mode": "bogus", ' + text[1:]
    return text.encode()


@st.composite
def texts(draw):
    """A document, most of the time; else bytes that are not one."""
    kind = draw(st.sampled_from(["doc"] * 4 + ["cut", "bytes", "text", "deep"]))
    if kind == "bytes":
        return draw(st.binary(max_size=8))
    if kind == "text":
        return draw(st.text(max_size=8)).encode()
    if kind == "deep":
        depth = draw(st.integers(1, 3000))
        return b"[" * depth + b"]" * depth
    text = draw(documents())
    return text[:draw(st.integers(0, len(text) - 1))] if kind == "cut" else text


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv, lines=None):
    """A code in 0..4; a failure writes no stdout and at least one stderr
    line, or exactly `lines` of them."""
    code, out, err = call(argv)
    assert code in range(5), (argv, code)
    if code:
        assert out == "", (argv, code)
        assert any(line.strip() for line in err.splitlines()), (argv, code)
        assert lines is None or len(err.splitlines()) == lines, (argv, err)
    return code


@pytest.fixture(scope="module")
def plan_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(text=texts(), run=st.sampled_from(RUNS))
@example(text=json.dumps({  # Z_2(1) has no basis string to build
    "schema_version": 1, "mode": "explicit", "k": 2, "target_n": 1,
    "inputs": [{"id": "a", "k": 2, "n": 1}], "cycles": []}).encode(),
    run=["run"])
def test_any_small_document_ends_in_an_exit_code(plan_dir, text, run):
    """Each document is drawn under `graph` and one form of `run`."""
    path = plan_dir / "plan.json"
    path.write_bytes(text)
    for command in (run, ["graph"]):
        assert_clean_exit([*command, str(path)])


@pytest.mark.parametrize("command", [*RUNS, ["graph"]])
def test_unreadable_paths_exit_2(plan_dir, command):
    for path in (plan_dir / "missing.json", plan_dir):
        assert assert_clean_exit([*command, str(path)]) == 2


@settings(FUZZ, max_examples=100)  # the argv space is small
@given(mode=st.sampled_from(["exact", "incremental", "exponential", "bogus"]),
       k=st.one_of(SMALL_K, st.just("x")),
       sizes=st.fixed_dictionaries({}, optional={
           flag: st.one_of(SIZES, st.just("x"))
           for flag in ("--n1", "--n2", "--n-target")}))
def test_any_small_plan_argv_ends_in_an_exit_code(mode, k, sizes):
    argv = ["plan", "--mode", mode, "--k", str(k)]
    for flag, value in sizes.items():
        argv += [flag, str(value)]
    assert_clean_exit(argv, lines=1)
