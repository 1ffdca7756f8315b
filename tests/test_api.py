"""The package's top-level API is exactly what the README documents."""

import re
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
