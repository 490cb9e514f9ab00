"""Imports between the package modules run one way.

The core layers are combinatorics -> blocks -> distill -> protocol ->
plandoc/graph -> cli -> __main__, and each may import only the layers
before it.  The
dense oracle and the verification sweeps sit beside protocol: they may use
the layers below it (verify also uses dense), and of the core only cli may
import them, so the engine never depends on its own checker.
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


def relative_imports(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
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
