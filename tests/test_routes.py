"""The routes that cross-check each other stay separate in the source.

The kernel oracle (``hilbert`` over ``linalg``) and the lattice-path basis
(``paths``) must not reach the Groebner engine or each other through any
chain of package imports, nor the engine reach them: only ``verify`` and the
CLI compare the routes.  Imports are read from the source with ``ast``, so
an import inside a function counts too.

The traced benchmark (``perfbench/tracing.py``) patches package functions
by name; the last test checks that every name it patches still exists."""

import ast
import importlib
from pathlib import Path

import pytest

import quasicov
from quasicov.scalars import Cyclotomic

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


TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    """``WRAPPED`` from the tracer's source, read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED in {TRACING}")


def test_the_tracer_hook_points_resolve():
    wrapped = _wrapped()
    assert wrapped
    for module, attr, _ in wrapped:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    # ``Tracer.install`` also counts Cyclotomic construction and inversions.
    assert "__init__" in vars(Cyclotomic)
    assert "inverse" in vars(Cyclotomic)
