"""Every Python file the workflow runs parses as Python 3.10, the floor
pyproject.toml's requires-python declares. ast.parse checks the grammar
only: a module or function added after 3.10 is not caught here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tools", "perfbench", "tests") for p in (ROOT / d).rglob("*.py"))


def test_sources_found():
    assert any(p.parent.name == "trapkit" for p in SOURCES) and any(p.parent.name == "tools" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
