"""The headline ladder tool: a smoke test on its first two rungs, a start at
``--r-min``, the headline of a climb on synthetic rungs and why it stopped,
its reference sampling and session normalisation, the row of a failed rung
on a synthetic report, and the diff hash that identifies a dirty tree."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chowcalc.errors import ConsistencyError
from chowcalc.report import Report

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"


def _load_ladder():
    spec = importlib.util.spec_from_file_location("chowcalc_ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_writes_rows_and_headline(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(LADDER), "--out", str(out), "--r-max", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    env = result["env"]
    assert set(env) == {"python", "git_rev", "diff_sha256", "nproc", "session_ref_s"}
    assert result["headline_r"] == 2
    assert result["r_max"] == 2 and result["stop"] == "r_max"
    assert [row["r"] for row in result["rows"]] == [1, 2]
    for row in result["rows"]:
        assert row["ok"] and not row["over_budget"]
        assert row["wall_ref"] == round(row["wall_s"] / row["ref_s"], 3)
        assert row["wall_session_ref"] == round(row["wall_s"] / env["session_ref_s"], 3)
        assert row["projbundle_mul_calls"] > 0
        assert len(row["check_shares"]) == 14
        assert "failed_checks" not in row


def test_ladder_starts_at_r_min(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(LADDER), "--out", str(out), "--r-min", "2", "--r-max", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["r_min"] == 2 and result["headline_r"] == 2
    assert [row["r"] for row in result["rows"]] == [2]
    bad = subprocess.run(
        [sys.executable, str(LADDER), "--out", str(out), "--r-min", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert bad.returncode == 2 and "--r-min must be >= 1, got 0" in bad.stderr


def test_headline_is_the_last_passing_rung():
    climb = _load_ladder().climb

    def rungs(failing: int, over_budget: int):
        def rung_at(r):
            return {"r": r, "ok": r != failing, "over_budget": r == over_budget}
        return rung_at

    rows, headline, _ = climb(rungs(failing=36, over_budget=0), 33, None)
    assert [row["r"] for row in rows] == [33, 34, 35, 36] and headline == 35
    rows, headline, _ = climb(rungs(failing=0, over_budget=33), 33, None)
    assert [row["r"] for row in rows] == [33] and headline is None
    rows, headline, _ = climb(rungs(failing=0, over_budget=0), 5, 6)
    assert [row["r"] for row in rows] == [5, 6] and headline == 6


@pytest.mark.parametrize(
    "ok, over_budget, r_max, stop",
    [
        (True, True, 8, "budget"),  # passed its checks, but past the budget
        (False, True, 8, "budget"),  # timed out
        (False, False, 8, "failed"),  # a failed check, or a child that died
        (True, False, 6, "r_max"),  # capped while every rung passed
    ],
)
def test_climb_says_why_it_stopped(ok, over_budget, r_max, stop):
    # rungs 5 and 6 pass; rung 7 stops the climb unless --r-max stops it first
    def rung_at(r):
        return {"r": r, "ok": ok or r < 7, "over_budget": over_budget and r == 7}

    rows, headline, why = _load_ladder().climb(rung_at, 5, r_max)
    assert headline == 6 and why == stop
    assert [row["r"] for row in rows] == ([5, 6, 7] if r_max == 8 else [5, 6])


def test_reference_is_the_median_of_samples_before_and_after():
    ladder = _load_ladder()
    # a burst of load before the rung: the median ignores it
    samples = iter([9.0, 9.0, 9.0, 0.25, 0.5, 0.75])
    calls = []

    def reference():
        calls.append(1)
        return next(samples)

    row = ladder.rung(1, reference)
    assert len(calls) == 2 * ladder.REFERENCE_SAMPLES
    assert row["ok"] and row["ref_s"] == 4.875
    assert row["wall_ref"] == round(row["wall_s"] / 4.875, 3)


def test_session_ratio_grows_with_wall_time():
    # the kernel slowed between rungs 2 and 3, so wall_ref falls while the
    # wall time grows; one session-wide divisor keeps the rungs in order
    rows = [
        {"r": 1, "wall_s": 1.0, "ref_s": 0.3, "wall_ref": 3.333},
        {"r": 2, "wall_s": 2.0, "ref_s": 0.3, "wall_ref": 6.667},
        {"r": 3, "wall_s": 2.5, "ref_s": 0.5, "wall_ref": 5.0},
        {"r": 4, "wall_s": None, "ref_s": 0.5},  # timed out: no ratio
    ]
    samples = [0.3] * 12 + [0.5] * 12
    assert _load_ladder().session_normalise(rows, samples) == 0.4
    assert [row.get("wall_session_ref") for row in rows] == [2.5, 5.0, 6.25, None]
    assert [row["wall_ref"] for row in rows[:3]] == [3.333, 6.667, 5.0]
    assert _load_ladder().session_normalise([], []) is None


def test_failed_rung_names_each_failing_check():
    def mismatch():
        raise ConsistencyError("top sigma coefficient routes disagree\n  lhs: 1\n  rhs: 2")

    def out_of_memory():
        raise MemoryError()

    report = Report()
    report.run("flop.passes", "passes", lambda: None)
    report.run("flop.sigma_top_cross_route", "fails", mismatch)
    report.run("flop.homogeneity", "dies", out_of_memory)
    row = _load_ladder().summary(report, 2.0, 7)
    assert not row["ok"] and row["projbundle_mul_calls"] == 7
    assert row["failed_checks"] == {
        "flop.sigma_top_cross_route": "top sigma coefficient routes disagree",
        "flop.homogeneity": "MemoryError: ",
    }
    assert set(row["check_shares"]) == {c.name for c in report.checks}


def test_dirty_tree_records_a_hash_of_its_diff(tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t", *args],
            capture_output=True, check=True,
        )

    tracked = tmp_path / "tracked.txt"
    tracked.write_text("one\n")
    git("init", "-q")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "seed")
    diff_sha256 = _load_ladder().diff_sha256
    assert diff_sha256(tmp_path) is None
    tracked.write_text("two\n")
    first = diff_sha256(tmp_path)
    assert re.fullmatch("[0-9a-f]{64}", first)
    tracked.write_text("three\n")
    assert diff_sha256(tmp_path) not in (None, first)
