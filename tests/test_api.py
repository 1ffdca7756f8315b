"""The package's API: the top level is exactly what the README documents,
the library defines nothing it does not use, every function the
benchmark wraps exists, the value types keep the frozen-dataclass
contract, and the import loads neither `dataclasses` nor `inspect`."""

import ast
import copy
import importlib
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biplanekit
from biplanekit.analysis import ConnectivityReport, GapReport, OracleResult
from biplanekit.augmentation import AugmentResult, FlipRecord
from biplanekit.constructions import BoundReport, GridFlip, GridGraph
from biplanekit.geometry import Point, PointSet, Strictness, ValidationReport
from biplanekit.graphs import GeometricGraph
from biplanekit.recognition import BiplaneDecomposition, OddCycleWitness, TooManyEdges

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
MEMBER_CHECKED = {"GeometricGraph", "MaximalState", "PointSet", "Triangulation"}


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


def test_only_recognition_and_its_readers_name_the_negative_verdicts():
    # `_recognize` raises NotBiplaneError on a negative verdict, so the
    # modules that call it never dispatch on the verdict types: only
    # recognition (which builds them), the CLI (which prints them) and the
    # package (which exports them) name them.
    naming = set()
    for path in Path(biplanekit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
        if (names_in([tree]) | imported) & {"OddCycleWitness", "TooManyEdges"}:
            naming.add(path.name)
    assert naming == {"recognition.py", "cli.py", "__init__.py"}


def test_perfbench_trace_targets_exist(monkeypatch):
    # perfbench/run.py wraps these library functions on every run, so a
    # renamed or deleted one would fail every benchmark operation.
    targets = perfbench_run(monkeypatch).trace_targets(biplanekit)
    assert targets and all(callable(fn) for _, fn, _ in targets)


# The library's value types: each with the keyword arguments of one instance.
_PS = PointSet.from_coords([(0, 0), (4, 0), (0, 4)])
_G = GeometricGraph(_PS, ((0, 1), (0, 2)))
_DECO = BiplaneDecomposition(((0, 1),), ((0, 2),))
VALUE_TYPES = [
    (PointSet, dict(points=((0, 0), (4, 0), (0, 4)), strictness=Strictness.RELAXED)),
    (GeometricGraph, dict(points=_PS, edges=((0, 1), (0, 2)))),
    (ValidationReport, dict(ok=False, collinear_triple=(0, 1, 2), message="collinear")),
    (BiplaneDecomposition, dict(layer1=((0, 1),), layer2=((0, 2),))),
    (OddCycleWitness, dict(cycle=((0, 2), (1, 3), (2, 4)))),
    (TooManyEdges, dict(n=10, m=45, cap=42)),
    (FlipRecord, dict(edge=(0, 1), clause="cross", recolored_anchor=3, new_edge=(2, 5),
                      merged_faces=(3, 4))),
    (AugmentResult, dict(graph=_G, decomposition=_DECO, red_layer=((0, 1),),
                         blue_layer=((0, 2),), state=None, trace=None)),
    (ConnectivityReport, dict(kappa=1, min_degree=1, witness_cut=(0,))),
    (OracleResult, dict(maximum_edges=2, witness=_G, triangulation_count=1)),
    (GapReport, dict(smallest=2, largest=2, smallest_graph=_G, largest_graph=_G, sizes=(2, 2))),
    (BoundReport, dict(n=8, h=3, min_maximal=20, max_edges_hull=33, max_edges_abs=30,
                       maximum_lower=23)),
    (GridFlip, dict(kind="corner", position=(1, 1), removed=((0, 1),), added=((0, 2),))),
    (GridGraph, dict(k=5, graph=_G, red_edges=frozenset({(0, 1)}),
                     blue_edges=frozenset({(0, 2)}), flips=())),
]


@pytest.mark.parametrize("cls, kwargs", VALUE_TYPES, ids=[c.__name__ for c, _ in VALUE_TYPES])
def test_value_types_compare_hash_and_print_by_their_fields(cls, kwargs):
    # Equal only to an instance of the same type with equal fields, hashed
    # as the tuple of its fields, printed with every field named,
    # immutable, and pickled and copied whole: the contract of a frozen
    # dataclass.
    x = cls(**kwargs)
    fields = tuple(getattr(x, name) for name in kwargs)
    assert x == cls(*kwargs.values()) and not x != cls(**kwargs)
    assert x != fields and fields != x
    assert hash(x) == hash(fields)
    named = ", ".join(f"{name}={value!r}" for name, value in zip(kwargs, fields))
    assert repr(x) == f"{cls.__name__}({named})"
    with pytest.raises(AttributeError):
        setattr(x, next(iter(kwargs)), fields[0])
    with pytest.raises(AttributeError):
        delattr(x, next(iter(kwargs)))
    assert pickle.loads(pickle.dumps(x)) == x == copy.copy(x) == copy.deepcopy(x)


def test_value_type_defaults_and_containers():
    assert ValidationReport(True) == ValidationReport(ok=True, collinear_triple=None, message="ok")
    red = frozenset({(0, 1)})
    assert GridGraph(5, _G, red, red).flips == ()
    assert TooManyEdges(10, 45, 42) != TooManyEdges(10, 45, 43)
    assert repr(_PS) == (
        "PointSet(points=(Point(x=0, y=0), Point(x=4, y=0), Point(x=0, y=4)), "
        "strictness=<Strictness.STRICT: 'strict'>)"
    )
    assert repr(_G) == f"GeometricGraph(points={_PS!r}, edges=((0, 1), (0, 2)))"
    # A point set indexes and counts its points; a graph is no sequence.
    assert len(_PS) == _PS.n == 3 and _PS[1] == Point(4, 0)
    with pytest.raises(TypeError):
        len(_G)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        _G[0]  # type: ignore[index]


IMPORT_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import biplanekit
package = set(sys.modules) - before
import biplanekit.cli
print(" ".join(sorted(package)))
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    # `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`, and its
    # decorations run at import: together they would triple the package's
    # import time.  The child diffs sys.modules, so a module that site has
    # already loaded does not count.  The package imports all its modules
    # up front, so none is deferred to escape the measurement.
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    package, loaded = (set(line.split()) for line in proc.stdout.splitlines())
    own = {m.removeprefix("biplanekit.") for m in package if m.startswith("biplanekit")}
    assert own == {
        "biplanekit", "analysis", "augmentation", "constructions", "fileio", "geometry",
        "graphs", "recognition", "triangulation",
    }
    assert {"biplanekit.cli", "biplanekit.svgrender"} <= loaded
    assert not {"dataclasses", "inspect"} & loaded
