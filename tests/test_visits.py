"""The term-visit tool: its JSON line for the flop at r = 4 and r = 8, the
same counts from two fresh children, and the counts themselves, pinned.

The pinned counts move with the source: a change that lowers them lowers
them here as well, and says so in CHANGES.md."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

VISITS = Path(__file__).resolve().parent.parent / "bench" / "visits.py"

# (dot_calls, dot_pairs, dot_visits, sub_calls, sub_terms, eq_calls, eq_terms)
# of foundations and multiplicativity, formal sigmas, at each r
PINNED = {
    4: (198, 320, 343, 25, 72, 210, 438),
    8: (574, 1222, 1903, 81, 446, 742, 2230),
}


def _load_visits():
    spec = importlib.util.spec_from_file_location("chowcalc_visits", VISITS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("r", sorted(PINNED))
def test_visits_are_pinned_and_repeat(r):
    tool = _load_visits()
    result = tool.visits(r)
    assert result == tool.visits(r)  # a second child counts the same
    assert result["r"] == r and result["ok"] is True
    assert tuple(result[key] for key in tool.KEYS) == PINNED[r]
    checks = result["checks"]
    assert list(checks)[:2] == ["context", "foundations.eta_push_table"]
    assert "flop.help_sum_identity" in checks
    for key in tool.KEYS:  # every count is booked to one check or to the context
        assert sum(row[key] for row in checks.values()) == result[key], key


def test_visits_rejects_a_rank_below_one():
    proc = subprocess.run(
        [sys.executable, str(VISITS), "--r", "0"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2 and "--r must be >= 1" in proc.stderr
