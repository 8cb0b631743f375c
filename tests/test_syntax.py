"""Every Python file the workflow runs parses as Python 3.10, the floor
pyproject.toml's requires-python declares, and calls none of the standard
library's names added after 3.10 that plain-float code reaches for.
ast.parse checks the grammar only; the scan below checks those names, not
every name added since. A change of behaviour is not a name: from 3.12
sum() of floats is compensated, so no result may rely on sum() rounding
as numpy's sums do (math.fsum rounds alike on every version)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tools", "perfbench", "tests") for p in (ROOT / d).rglob("*.py"))

# module -> its names added after 3.10, with the version that added each
AFTER_3_10 = {
    "math": {"cbrt": "3.11", "exp2": "3.11", "sumprod": "3.12", "fma": "3.13"},
    "itertools": {"batched": "3.12"},
    "operator": {"call": "3.11"},
    "hashlib": {"file_digest": "3.11"},
    "typing": {"Self": "3.11", "Never": "3.11", "assert_never": "3.11", "override": "3.12"},
    "datetime": {"UTC": "3.11"},
    "enum": {"StrEnum": "3.11"},
}
MODULES_AFTER_3_10 = {"tomllib": "3.11"}


def test_sources_found():
    assert any(p.parent.name == "trapkit" for p in SOURCES) and any(p.parent.name == "tools" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _names_after_3_10(tree):
    """(line, dotted name, version) of each use of a denylisted name: as
    module.name after `import module [as alias]`, or imported by name."""
    aliases = {}  # local name -> module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES_AFTER_3_10:
                    found.append((node.lineno, alias.name, MODULES_AFTER_3_10[alias.name]))
                aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES_AFTER_3_10:
            found.append((node.lineno, node.module, MODULES_AFTER_3_10[node.module]))
        elif isinstance(node, ast.ImportFrom) and node.module in AFTER_3_10:
            for alias in node.names:
                if alias.name in AFTER_3_10[node.module]:
                    found.append((node.lineno, f"{node.module}.{alias.name}", AFTER_3_10[node.module][alias.name]))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            added = AFTER_3_10.get(aliases.get(node.value.id), {})
            if node.attr in added:
                found.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}", added[node.attr]))
    return sorted(found)


def test_the_scan_finds_each_form():
    code = (
        "import math\nimport itertools as it\nfrom operator import call\nimport tomllib\n"
        "math.sumprod(a, b)\nit.batched(a, 2)\nmath.fsum(a)\n"
    )
    assert _names_after_3_10(ast.parse(code)) == [
        (3, "operator.call", "3.11"), (4, "tomllib", "3.11"),
        (5, "math.sumprod", "3.12"), (6, "itertools.batched", "3.12"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_calls_no_stdlib_name_added_after_3_10(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _names_after_3_10(tree) == []
