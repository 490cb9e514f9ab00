"""Imports between the package modules run one way.

The core layers are combinatorics -> blocks -> distill -> protocol ->
plandoc/graph -> cli -> __main__, and each may import only the layers
before it.  The
dense oracle and the verification sweeps sit beside protocol: they may use
the layers below it (verify also uses dense), and of the core only cli may
import them, so the engine never depends on its own checker.  The oracle's
reach is one constant that dense owns; no function takes it as a setting.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zstates"
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
