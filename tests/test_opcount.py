"""The opcode-count tool: its JSON line at r = 2, and the same counts from
a fresh interpreter and from this one."""

import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path

OPCOUNT = Path(__file__).resolve().parent.parent / "bench" / "opcount.py"


def _load_opcount():
    spec = importlib.util.spec_from_file_location("chowcalc_opcount", OPCOUNT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_opcount_prints_the_counts_of_one_unit():
    proc = subprocess.run(
        [sys.executable, str(OPCOUNT), "--r", "2"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stdout.splitlines()
    result = json.loads(line)
    assert list(result) == ["r", "python", "bytecodes", "calls", "ok"]
    assert result["r"] == 2 and result["ok"] is True
    assert result["python"] == platform.python_version()
    assert 0 < result["calls"] < result["bytecodes"]
    # counts depend on the source and the interpreter only
    hooks = sys.gettrace(), sys.getprofile()
    again = _load_opcount().count(2)
    assert (again["bytecodes"], again["calls"]) == (result["bytecodes"], result["calls"])
    assert (sys.gettrace(), sys.getprofile()) == hooks  # both restored


def test_opcount_rejects_a_rank_below_one():
    proc = subprocess.run(
        [sys.executable, str(OPCOUNT), "--r", "0"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2 and "--r must be >= 1" in proc.stderr
