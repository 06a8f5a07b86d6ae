"""The routes that cross-check each other stay separate in the source.

The kernel oracle (``hilbert`` over ``linalg``) and the lattice-path basis
(``paths``) must not reach the Groebner engine or each other through any
chain of package imports, nor the engine reach them: only ``verify`` and the
CLI compare the routes.  Imports are read from the source with ``ast``, so
an import inside a function counts too."""

import ast
from pathlib import Path

import pytest

import quasicov

PACKAGE = Path(quasicov.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imports(module: str) -> set:
    """The package modules that ``module`` imports directly."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names & MODULES


def _reachable(module: str) -> set:
    """The package modules that ``module`` imports, directly or not."""
    seen, todo = set(), [module]
    while todo:
        for name in _imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_imports_are_found():
    assert {"linalg", "qsym", "polynomials", "scalars"} <= _reachable("hilbert")
    assert {"linalg", "qsym", "polynomials"} <= _reachable("groebner")


@pytest.mark.parametrize("module", ["hilbert", "linalg", "paths"])
def test_oracle_and_paths_do_not_reach_groebner(module):
    assert "groebner" not in _reachable(module)


def test_groebner_does_not_reach_the_oracle_or_the_paths():
    assert not {"hilbert", "paths"} & _reachable("groebner")


def test_oracle_and_paths_do_not_reach_each_other():
    assert "paths" not in _reachable("hilbert")
    assert "hilbert" not in _reachable("paths")
