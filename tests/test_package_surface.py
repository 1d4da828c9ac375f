"""The package's public surface and imports, checked without a linter.

Every name in ncergo.__all__ must resolve and be listed once, and no module
under src/ncergo may import a name it never uses: what a removal leaves
behind (an import of a deleted helper, a module nothing calls any more)
shows up here.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import ncergo

PACKAGE = Path(ncergo.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def test_all_names_resolve_once():
    counts = Counter(ncergo.__all__)
    assert [n for n, c in counts.items() if c > 1] == []
    assert [n for n in ncergo.__all__ if not hasattr(ncergo, n)] == []


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        else:
            continue
        if ann is not None:
            yield ann


def _exported(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield node.value


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code, quoted annotations or __all__."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for root in [*_annotations(tree), *_exported(tree)]:
        for n in ast.walk(root):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.add(n.value)
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {n: line for n, line in _bound_names(tree).items() if n not in used}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"
