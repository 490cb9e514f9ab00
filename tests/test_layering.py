"""Imports between the package modules run one way.

The core layers are combinatorics -> blocks -> distill -> protocol ->
plandoc/graph -> cli -> __main__, and each may import only the layers
before it.  The
dense oracle and the verification sweeps sit beside protocol: they may use
the layers below it (verify also uses dense), and of the core only cli may
import them, so the engine never depends on its own checker.  The oracle's
reach is one constant that dense owns; no function takes it as a setting.
The benchmark's tracer rebinds package functions by name, so those names
must exist.  In cli, only `main` turns a failure into stderr lines, and
only the `cmd_*` functions name stdout.
protocol and dense keep no state between calls: the one step derivation
lives for one run, and the oracle's weight masks for one expansion.
Every plan state is the unit Z_k(n) on its id, so protocol reads of blocks
only the sum type, the register id and z_state.
"""

import ast
import importlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zstates"
TRACER = PACKAGE.parent.parent / "bench" / "tracer.py"
LAYERS = [{"combinatorics"}, {"blocks"}, {"distill"}, {"protocol"},
          {"plandoc", "graph"}, {"cli"}, {"__main__"}]
ORACLE = ["dense", "verify"]  # each may import the ones before it
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def allowed_imports(module: str) -> set[str]:
    for i, layer in enumerate(LAYERS):
        if module in layer:
            below = set().union(*LAYERS[:i])
            return (below | set(ORACLE)) if module == "cli" else below
    below_protocol = set().union(*LAYERS[:3])
    return below_protocol | set(ORACLE[:ORACLE.index(module)])


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def relative_imports(module: str) -> set[str]:
    found = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module.split(".")[0]} if node.module
                      else {alias.name for alias in node.names})
    return found


def test_every_module_has_a_place():
    placed = set().union(*LAYERS, ORACLE)
    assert set(MODULES) == placed


@pytest.mark.parametrize("module", MODULES)
def test_imports_follow_the_layers(module):
    assert relative_imports(module) <= allowed_imports(module)


def dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_exists(module):
    tree = parse(module)
    assert set(dunder_all(tree)) <= top_level_names(tree)


def test_package_reexports_only_listed_names():
    unlisted = []
    for node in parse("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = dunder_all(parse(node.module))
            unlisted += [f"{node.module}.{alias.name}" for alias in node.names
                         if alias.name not in listed]
    assert unlisted == []


def test_dense_cap_is_one_constant_of_dense():
    assigned, knobs = set(), []
    for module in [*MODULES, "__init__"]:
        for node in ast.walk(parse(module)):
            if (isinstance(node, ast.Name) and node.id == "DENSE_CAP"
                    and isinstance(node.ctx, ast.Store)):
                assigned.add(module)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                knobs += [f"{module}.{getattr(node, 'name', '<lambda>')}({p.arg})"
                          for p in params if p and p.arg in {"cap", "dense_cap"}]
    assert assigned == {"dense"}
    assert knobs == []


def top_level_users(module: str, used) -> set[str]:
    """Top-level definitions of `module` whose code has a node `used` accepts."""
    return {getattr(node, "name", "<module>") for node in parse(module).body
            if any(map(used, ast.walk(node)))}


def test_only_cli_main_writes_stderr():
    """A command raises; `cli.main` alone turns that into its exit code and
    its stderr lines.  Only `cmd_plan` also catches InvalidPlanError, since a
    generator precondition there is bad input, not an invalid plan."""
    assert top_level_users("cli", lambda n: (
        isinstance(n, ast.Attribute) and n.attr == "stderr"
        or isinstance(n, ast.Name) and n.id == "stderr")) == {"main"}
    assert top_level_users("cli", lambda n: (
        isinstance(n, ast.ExceptHandler) and n.type is not None
        and "InvalidPlanError" in ast.unparse(n.type))) == {"main", "cmd_plan"}


def test_only_commands_name_stdout():
    """The report and graph writers take their stream as an argument; only
    a `cmd_*` function of cli picks `sys.stdout` for them."""
    users = {f"{module}.{name}" for module in MODULES
             for name in top_level_users(module, lambda n: (
                 isinstance(n, ast.Attribute) and n.attr == "stdout"
                 or isinstance(n, ast.Name) and n.id == "stdout"))}
    assert users and all(user.startswith("cli.cmd_") for user in users), users


MUTABLE_VALUES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                  ast.SetComp)
MUTABLE_TYPES = {"list", "dict", "set", "bytearray", "Counter", "defaultdict",
                 "OrderedDict", "deque"}


def name_of(node: ast.AST):
    """What a name, an attribute or an imported alias names, else None."""
    if isinstance(node, ast.alias):
        return node.name
    return getattr(node, "id", None) or getattr(node, "attr", None)


def module_state(module: str) -> tuple[list[str], list[str]]:
    """The module-level containers (`__all__` aside) and the function
    caches of a module: what could carry values from one call into the next."""
    tree = parse(module)
    shared = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if [getattr(t, "id", None) for t in targets] == ["__all__"]:
            continue
        if (isinstance(value, MUTABLE_VALUES) or isinstance(value, ast.Call)
                and name_of(value.func) in MUTABLE_TYPES):
            shared.append(ast.unparse(node))
    caches = [ast.unparse(n) for n in ast.walk(tree)
              if name_of(n) in {"cache", "lru_cache"}]
    return shared, caches


def test_protocol_keeps_no_state_between_calls():
    """`execute_plan` derives the step once per call, so protocol has no
    module-level container and no function cache that could carry an
    outcome from one run into the next."""
    assert module_state("protocol") == ([], [])


def test_dense_keeps_no_state_between_calls():
    """The oracle enumerates weight masks per call: dense has no
    module-level container and no function cache that would grow for the
    life of the process."""
    assert module_state("dense") == ([], [])


def test_protocol_builds_only_unit_states():
    """protocol builds unit states to derive its one step and checks the
    step's outcome itself; it hands the oracle numbers, not states."""
    imported = {}
    for node in ast.walk(parse("protocol")):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    assert imported.get("blocks", set()) <= {"z_state"}
    assert imported.get("distill", set()) <= {"distill_step", "DistillationError"}


def test_plan_modules_import_no_dataclasses():
    """The plan, report and document records are NamedTuples, built by one
    tuple allocation.  Each dataclass costs about 1 ms of `exec` per fresh
    import, and every command pays for the import."""
    importers = [module for module in ("protocol", "distill", "plandoc", "cli")
                 for node in ast.walk(parse(module))
                 if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                 or isinstance(node, ast.Import)
                 and any(alias.name == "dataclasses" for alias in node.names)]
    assert importers == []


def test_bench_tracer_names_exist():
    """A rename fails here rather than in `bench/run.py --trace 1`.  The
    tracer imports only the standard library; it is run, never installed."""
    tracer = runpy.run_path(str(TRACER))
    missing = [f"{module}.{name}"
               for table in (tracer["SPANNED"], tracer["COUNTED"])
               for module, names in table.items() for name in names
               if not hasattr(importlib.import_module(f"zstates.{module}"), name)]
    assert missing == []



REIMPORT = """
import gc, sys, weakref
class Probe: pass
probes = []
for _ in range(3):
    for name in [n for n in sys.modules if n.split(".")[0] == "zstates"]:
        del sys.modules[name]
    import zstates.cli
    for name in [n for n in sys.modules if n.split(".")[0] == "zstates"]:
        sys.modules[name]._probe = probe = Probe()
        probes.append((name, weakref.ref(probe)))
del zstates, probe
for name in [n for n in sys.modules if n.split(".")[0] == "zstates"]:
    del sys.modules[name]
gc.collect()
print(sorted({name for name, ref in probes if ref() is not None}))
"""


def test_reimport_frees_the_previous_import():
    """A process that drops and re-imports the package gets the old import's
    memory back.  A package class inside a module-level typing construct
    would pin every old import, since typing caches what it subscripts."""
    done = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True,
                          text=True, cwd=PACKAGE.parent, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
