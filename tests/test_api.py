"""The package's API: the top level is exactly what the README documents,
the library defines nothing it does not use, and every function the
benchmark wraps exists."""

import ast
import importlib
import re
import sys
from pathlib import Path

import biplanekit

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def perfbench_run(monkeypatch):
    """perfbench/run.py, imported fresh from the benchmark's directory."""
    import biplanekit.cli  # noqa: F401  (perfbench wraps cli.run)

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("run", "checks", "tracer"):  # perfbench's own modules
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("run")


# Classes whose methods and fields are checked one by one.
MEMBER_CHECKED = {"GeometricGraph", "MaximalState", "ParityDSU", "PointSet", "Triangulation"}


def names_in(nodes) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in nodes
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def library_definitions() -> tuple[dict[tuple[str, str], set[str]], set[str]]:
    """Every module-level function and class of the library, and every
    method and field of the member-checked classes, keyed by (module,
    qualified name) with the names its code mentions; and the names that
    statements outside any definition mention."""
    defs: dict[tuple[str, str], set[str]] = {}
    loose: set[str] = set()
    for path in sorted(Path(biplanekit.__file__).parent.glob("*.py")):
        module = path.stem
        rest = []
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                rest.append(node)
                continue
            if node.name not in MEMBER_CHECKED:
                defs[(module, node.name)] = names_in([node])
                continue
            own = [*node.decorator_list, *node.bases]
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                elif isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    name = member.name
                else:
                    own.append(member)
                    continue
                defs[(module, f"{node.name}.{name}")] = names_in([member])
            defs[(module, node.name)] = names_in(own)
        loose |= names_in(rest)
    return defs, loose


def test_every_library_definition_is_used(monkeypatch):
    # Code that only tests reach belongs in tests/_helpers.py, next to the
    # brute references, not in the library.  A definition counts as used
    # when the package exports it, perfbench wraps it or reaches it as an
    # attribute (make_inputs.py calls GeometricGraph.with_edges), it is the
    # command's entry point, or a used definition or a statement outside
    # any definition, in any library module, names it.  Names are matched
    # without their module, so a name shared by two definitions keeps both.
    defs, loose = library_definitions()
    targets = perfbench_run(monkeypatch).trace_targets(biplanekit)
    bench = {
        node.attr
        for path in (ROOT / "perfbench").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    scripts = re.findall(r'"biplanekit\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text())
    named = set(biplanekit.__all__) | {fn.__name__ for _, fn, _ in targets} | set(scripts)
    named |= bench | loose
    by_name: dict[str, list[tuple[str, str]]] = {}
    for key in defs:
        by_name.setdefault(key[1].rpartition(".")[2], []).append(key)
    used: set[tuple[str, str]] = set()
    stack = [key for name in named for key in by_name.get(name, ())]
    while stack:
        key = stack.pop()
        if key in used:
            continue
        used.add(key)
        stack.extend(k for name in defs[key] for k in by_name.get(name, ()))
    assert sorted(".".join(key) for key in defs.keys() - used) == []


def test_perfbench_trace_targets_exist(monkeypatch):
    # perfbench/run.py wraps these library functions on every run, so a
    # renamed or deleted one would fail every benchmark operation.
    targets = perfbench_run(monkeypatch).trace_targets(biplanekit)
    assert targets and all(callable(fn) for _, fn, _ in targets)
