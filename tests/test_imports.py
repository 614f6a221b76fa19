"""Every imported name is used: read in its module or listed in ``__all__``.
Only a literal list or tuple of ``__all__`` exempts a name; a computed one
exempts none.

No linter is a dependency, so this walks each module's syntax tree with the
standard library's ``ast``.  ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/chowcalc", "tests", "demos", "bench")
    for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.List, ast.Tuple))
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            exported |= {elt.value for elt in node.value.elts}
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in read and name not in exported
    )


def test_checker_flags_an_unused_name():
    source = "import os\nfrom a import b, c as d\n__all__ = ['b']\n"
    assert unused_imports(source) == ["d (line 2)", "os (line 1)"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("import os\n__all__ = sorted(['os'])\n") == ["os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
