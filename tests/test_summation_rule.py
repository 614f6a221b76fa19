"""One summation rule: every Σ in ``src/chowcalc`` goes through ``ring.sum``,
or through ``ring.dot`` when it is a Σ of products.

A loop that rebinds a name to itself plus or minus a term (``acc = acc + x``,
``acc += x``) copies the growing sum once per step, and a builtin
``sum(terms, zero)`` does the same.  This walks each module's syntax tree with
the standard library's ``ast``.  Subscript targets (the one dict that
``GradedRing.sum`` and ``GradedRing.dot`` add into) are outside its scope.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "chowcalc").glob("*.py"))


def _rebinds_to_itself(node: ast.AST) -> str | None:
    """The name a statement rebinds to itself plus or minus a term, else None."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
        return node.target.id if isinstance(node.target, ast.Name) else None
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return None
    target, value = node.targets[0], node.value
    if not (
        isinstance(target, ast.Name)
        and isinstance(value, ast.BinOp)
        and isinstance(value.op, (ast.Add, ast.Sub))
    ):
        return None
    operands = (value.left, value.right)
    if any(isinstance(x, ast.Name) and x.id == target.id for x in operands):
        return target.id
    return None


def accumulations(source: str) -> list[str]:
    """Each loop accumulation and each two-argument builtin ``sum``, by line."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.While)):
            for inner in ast.walk(node):
                name = _rebinds_to_itself(inner)
                if name is not None:
                    found.add((inner.lineno, f"{name} = {name} ± ... in a loop"))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and len(node.args) + len(node.keywords) >= 2
        ):
            found.add((node.lineno, "sum(..., start)"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_flags_each_accumulation():
    source = (
        "acc = zero\n"
        "for x in xs:\n"
        "    acc = acc + x\n"
        "for x in xs:\n"
        "    for y in ys:\n"
        "        out = out - x * y\n"
        "while xs:\n"
        "    n += xs.pop()\n"
        "total = sum(terms, zero)\n"
    )
    assert accumulations(source) == [
        "line 3: acc = acc ± ... in a loop",
        "line 6: out = out ± ... in a loop",
        "line 8: n = n ± ... in a loop",
        "line 9: sum(..., start)",
    ]


def test_checker_leaves_other_code_alone():
    source = (
        "for k in ks:\n"
        "    work[k] = work[k] + c\n"  # a slot update
        "    term = term * x\n"  # a product
        "    row = [a + b for a, b in pairs]\n"  # a fresh value
        "    value = other + x\n"
        "acc = acc + x\n"  # not in a loop
        "total = sum(x * y for x, y in pairs)\n"
    )
    assert accumulations(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_sum_goes_through_ring_sum(path):
    assert accumulations(path.read_text()) == []
