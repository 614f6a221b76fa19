"""Every function and class of ``src/chowcalc`` is reached by the program.

Each ``def`` and ``class`` of the package must be named, as a ``Name``, an
``Attribute`` or an import alias, somewhere in ``src/chowcalc``, ``bench``,
``demos`` or ``perfbench``.  Tests do not count, so code that only a test
reaches is flagged.  Dunder names are called by Python itself and are exempt.
No linter is a dependency, so this walks each module's syntax tree with the
standard library's ``ast``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "chowcalc").glob("*.py"))
READERS = sorted(
    path
    for folder in ("src/chowcalc", "bench", "demos", "perfbench")
    for path in (ROOT / folder).glob("*.py")
    if not path.name.startswith("test_")
)


def defined(source: str) -> dict[str, int]:
    """Each non-dunder ``def`` and ``class`` name, with its first line."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                found[node.name] = min(node.lineno, found.get(node.name, node.lineno))
    return found


def named(source: str) -> set[str]:
    """Every name the source spells: ``Name`` ids, ``Attribute`` attributes
    and the names and aliases of its imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def unreached(source: str, readers: list[str]) -> list[str]:
    """The defs and classes of ``source`` that no text of ``readers`` names."""
    reached = set().union(*map(named, readers))
    return [
        f"{name} (line {line})"
        for name, line in sorted(defined(source).items(), key=lambda item: item[1])
        if name not in reached
    ]


def test_checker_flags_a_def_no_reader_names():
    source = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "class Imported:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def only_tests(self): pass\n"
    )
    reader = "from m import Imported as I\nused()\nI().method()\n"
    assert unreached(source, [source, reader]) == ["unused (line 2)", "only_tests (line 6)"]
    assert unreached(source, [source]) == [
        "used (line 1)", "unused (line 2)", "Imported (line 3)",
        "method (line 5)", "only_tests (line 6)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_def_is_reached_outside_the_tests(path):
    readers = [reader.read_text() for reader in READERS]
    assert unreached(path.read_text(), readers) == []
