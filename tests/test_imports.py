"""The runtime imports only the standard library and itself, and the
classical-invariant layers import no homology kernel."""

import ast
import sys
from pathlib import Path

import pytest

import graphhom

SOURCES = sorted(Path(graphhom.__file__).parent.glob("*.py"))


def absolute_imports(path):
    """Top-level module of each absolute import in the file at path."""
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert len(SOURCES) >= 10


def test_runtime_is_stdlib_only():
    allowed = set(sys.stdlib_module_names) | {"graphhom"}
    outside = {
        (path.name, module)
        for path in SOURCES
        for module in absolute_imports(path)
        if module not in allowed
    }
    assert outside == set()


def package_imports(path):
    """Each graphhom module the file at path imports by relative import."""
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module


def reachable(module):
    """Every graphhom module that importing ``module`` loads."""
    paths = {path.stem: path for path in SOURCES}
    seen, todo = set(), [module]
    while todo:
        for nxt in package_imports(paths[todo.pop()]):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


@pytest.mark.parametrize("module", ["grid", "invariants"])
def test_classical_layers_import_no_homology_kernel(module):
    assert reachable(module) & {"khovanov", "linalg"} == set()
