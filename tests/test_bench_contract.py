"""The benchmark's tracer wraps methods through their owner's own
``__dict__``; a traced method moved into a base class would break it.

``perfbench/spans.py`` is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

from chowcalc.rings import GradedElement

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("chowcalc_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_its_owners_own():
    spans = _load_spans()
    for name, kind, owner, attr in spans.TRACED:
        module, _, cls = owner.partition(":")
        holder = importlib.import_module(module)
        if kind == "class":
            holder = getattr(holder, cls)
        assert attr in vars(holder), name


def test_reflected_product_aliases_the_traced_product():
    assert GradedElement.__rmul__ is GradedElement.__mul__
