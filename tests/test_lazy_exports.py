"""The package's lazy exports: ``from chowcalc import chern`` loads only the
layers it runs, and every public name still reads as its home module's."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chowcalc

ROOT = Path(__file__).resolve().parent.parent
# layers the characteristic-class path never runs, and the record machinery
# only they use
NOT_LOADED = {"chowcalc.blowup", "chowcalc.flop", "chowcalc.projbundle",
              "chowcalc.report", "chowcalc.cli", "dataclasses"}


def _modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter that ran ``code``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = f"{code}\nimport sys\nprint(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_chern_import_loads_no_other_layer():
    bare = _modules_after("pass")  # site hooks load these in every process
    added = _modules_after("from chowcalc import chern") - bare
    assert {m for m in added if m.startswith("chowcalc")} == {
        "chowcalc", "chowcalc.chern", "chowcalc.rings"}
    assert not added & NOT_LOADED


def test_cli_import_loads_no_record_machinery():
    # every layer's records are plain classes, so a fresh ``chow-verify``
    # process loads neither ``dataclasses`` nor the ``inspect`` it imports
    bare = _modules_after("pass")
    added = _modules_after("import chowcalc.cli") - bare
    assert "chowcalc.blowup" in added
    assert not added & {"dataclasses", "inspect"}


def test_every_public_name_is_its_home_modules_object():
    # ``__all__`` is derived from ``_HOME``; a name listed under two homes
    # would keep only the last one there
    assert len(chowcalc.__all__) == sum(map(len, chowcalc._HOMES.values()))
    for name in chowcalc.__all__:
        home = importlib.import_module(f"chowcalc.{chowcalc._HOME[name]}")
        assert getattr(chowcalc, name) is getattr(home, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        chowcalc.nonesuch
    # so ``from chowcalc import <submodule>`` falls through to the import
    assert "chowcalc.blowup" in _modules_after("from chowcalc import blowup as bl")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from chowcalc import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(chowcalc.__all__)
    assert namespace["mukai_vector"] is chowcalc.chern.mukai_vector
