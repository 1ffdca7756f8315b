"""The package's API: the top level is exactly what the README documents,
geometry defines nothing the library does not use, and every function the
benchmark wraps exists."""

import ast
import importlib
import re
import sys
from pathlib import Path

import biplanekit

README = Path(__file__).resolve().parent.parent / "README.md"


def overview_block() -> str:
    text = README.read_text()
    section = text.split("## Library overview", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_overview_runs():
    exec(compile(overview_block(), "README.md", "exec"), {})


def test_all_equals_documented_names():
    block = overview_block()
    imported = block.split("from biplanekit import (", 1)[1].split(")", 1)[0]
    documented = re.findall(r"\w+", imported)
    assert len(documented) == len(set(documented))
    assert sorted(biplanekit.__all__) == sorted(documented)
    for name in biplanekit.__all__:
        assert getattr(biplanekit, name) is not None


def test_every_geometry_definition_is_used_by_the_library():
    # A predicate the library no longer calls belongs next to the brute
    # references in tests/_helpers.py, not in geometry.  A function or
    # class counts as used when another library module names it in code,
    # the package exports it, or a used geometry definition names it (as
    # validate names its ValidationReport).
    src = Path(biplanekit.__file__).parent

    def names_in(tree: ast.AST) -> set[str]:
        return {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }

    body = ast.parse((src / "geometry.py").read_text()).body
    defs = {
        node.name: names_in(node)
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    named = set(biplanekit.__all__)
    for path in src.glob("*.py"):
        if path.name != "geometry.py":
            named |= names_in(ast.parse(path.read_text()))
    used = defs.keys() & named
    stack = list(used)
    while stack:
        for name in defs[stack.pop()] & defs.keys() - used:
            used.add(name)
            stack.append(name)
    assert sorted(defs.keys() - used) == []


def test_perfbench_trace_targets_exist(monkeypatch):
    # perfbench/run.py wraps these library functions on every run, so a
    # renamed or deleted one would fail every benchmark operation.
    import biplanekit.cli  # noqa: F401  (perfbench wraps cli.run)

    monkeypatch.syspath_prepend(str(README.parent / "perfbench"))
    for name in ("run", "checks", "tracer"):  # perfbench's own modules
        monkeypatch.delitem(sys.modules, name, raising=False)
    run = importlib.import_module("run")
    targets = run.trace_targets(biplanekit)
    assert targets and all(callable(fn) for _, fn, _ in targets)
