"""The command line parser: each call builds only its command's part, and
parses every argv as the parser of all four commands did."""

import argparse
import contextlib
import functools
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zstates import cli

COMMANDS = ("plan", "run", "graph", "verify")


@functools.cache
def legacy_parser():
    """The parser `cli` built for every call before it built one command's
    part: the top level and all four subparsers, as they were written."""
    parser = cli._Parser(
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


def captured(call):
    """(value, stdout, stderr) of `call()`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        value = call()
    return value, out.getvalue(), err.getvalue()


def parsed_by_main(argv):
    """(exit code, Namespace or None, stdout, stderr) of `cli.main(argv)`,
    its handlers swapped for one that keeps the Namespace and returns 0."""
    seen = []
    commands = {name: (lambda args: seen.append(args) or 0, *rest)
                for name, (_, *rest) in cli._COMMANDS.items()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_COMMANDS", commands)
        code, out, err = captured(lambda: cli.main(list(argv)))
    return code, (seen or [None])[0], out, err


def parsed_by_legacy(argv):
    """The same, from the parser of all four commands; a parse that ends
    early prints its messages as `main` does."""
    def parse():
        try:
            return 0, legacy_parser().parse_args(list(argv))
        except cli._Exit as exc:
            for message in exc.messages:
                print(message, file=sys.stderr)
            return exc.code, None

    (code, args), out, err = captured(parse)
    return code, args, out, err


ARGVS = [
    [], ["-h"], ["--help"], ["--he"], ["-h", "run"], ["bogus"], ["ru"],
    ["RUN"], ["--"], ["--", "run", "x"], ["-x"], ["", "run"],
    ["run", "--rep", "json", "x"], ["run", "x", "--bogus"], ["run", "x", "y"],
    ["run", "--", "x"], ["run", "x", "--report", "xml"], ["run", "x", "--verify"],
    ["run", "-h", "x"], ["run", "x", "--report=json", "--verify-with-oracle"],
    ["plan", "--mode", "exact", "--k", "x"], ["plan", "--k=1.5", "--mode", "exact"],
    ["plan", "--mode", "spiral", "--k", "1"], ["plan", "--mode", "exact"],
    ["plan", "--mode", "exact", "--k", "1", "--n1", "3", "--n2", "3"],
    ["plan", "--mode", "incremental", "--k", "-2", "--n-target", "9", "--n1", "x"],
    ["verify", "--max-n", "five"], ["verify", "--max-n"], ["verify", "--seed", "-3"],
    ["verify", "--corrupt-alpha=1"], ["verify", "x"], ["verify"],
    ["run"], ["graph"], ["graph", "a", "b"], ["graph", "--bogus", "a"],
    *([command, "--help"] for command in COMMANDS),
    *([command, "-h", "extra"] for command in COMMANDS),
]


@pytest.mark.parametrize("argv", ARGVS, ids=map(" ".join, ARGVS))
def test_argv_parses_as_the_full_parser_parsed_it(argv):
    """Each argv gives the Namespace the parser of all four commands gave,
    or the same exit code, stdout and stderr."""
    assert parsed_by_main(argv) == parsed_by_legacy(argv)


TOKENS = [*COMMANDS, "-h", "--help", "--", "-", "--mode", "--k", "--n-target",
          "--n1", "--n2", "--report", "--rep", "--verify-with-oracle",
          "--verify", "--max-n", "--max-k", "--seed", "--corrupt-alpha",
          "--bogus", "--k=3", "--report=json", "exact", "incremental",
          "exponential", "spiral", "text", "json", "0", "1", "-1", "12", "x",
          "2.5", "plan.json", "", "ru", "RUN"]
words = st.sampled_from(TOKENS) | st.text(max_size=4)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.one_of(st.lists(words, max_size=7),
                 st.builds(lambda command, rest: [command, *rest],
                           st.sampled_from(COMMANDS), st.lists(words, max_size=7))))
def test_drawn_argvs_parse_as_the_full_parser_parsed_them(argv):
    assert parsed_by_main(argv) == parsed_by_legacy(argv)


@pytest.fixture
def built(monkeypatch):
    """The prog of each ArgumentParser built from here on, the cache of
    parsers emptied first."""
    cli._parser.cache_clear()
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return progs


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_builds_its_own_parser_alone(built, command):
    captured(lambda: cli.main([command, "--help"]))
    assert built == ["zstates", f"zstates {command}"]


@pytest.mark.parametrize("argv", [["-h"], [], ["bogus"], ["--"], ["-h", "run"]])
def test_help_and_unknown_words_build_every_parser(built, argv):
    """An argv whose first word names no command, top-level help among
    them, gets the parser of all four commands."""
    captured(lambda: cli.main(argv))
    assert built == ["zstates", *(f"zstates {name}" for name in COMMANDS)]


def test_parser_is_built_once_per_command(built):
    """A command's parser is built on its first call only, and the one
    parser of all commands serves every other argv: stray words add no
    parser to the cache."""
    argvs = [["plan", "--mode", "exact", "--k", "1", "--n1", "3", "--n2", "3"],
             ["run", "missing.json"], ["graph", "missing.json"],
             ["verify", "--max-n", "99"], ["-h"], []]
    codes = [captured(lambda: cli.main(argv))[0] for argv in argvs]
    assert codes == [0, 2, 2, 2, 0, 2]
    assert cli._parser.cache_info().currsize == 5
    del built[:]
    for argv in argvs * 3 + [[word] for word in ("bogus", "ru", "RUN", "--x", "")]:
        captured(lambda: cli.main(argv))
    assert built == []
    assert cli._parser.cache_info().currsize == 5


def test_main_without_argv_reads_sys_argv(monkeypatch):
    """`main()` parses `sys.argv[1:]`: the program name in `sys.argv[0]`,
    even one that names a command, is not parsed."""
    argv = ["plan", "--mode", "exact", "--k", "1", "--n1", "3", "--n2", "3"]
    monkeypatch.setattr(sys, "argv", ["graph", *argv])
    code, out, err = captured(cli.main)
    assert (code, out, err) == captured(lambda: cli.main(argv))
    assert (code, err) == (0, "") and out.startswith("{")
    monkeypatch.setattr(sys, "argv", ["zstates", "bogus"])
    assert captured(cli.main) == (
        2, "", "zstates: error: argument command: invalid choice: 'bogus' "
               "(choose from 'plan', 'run', 'graph', 'verify')\n")
