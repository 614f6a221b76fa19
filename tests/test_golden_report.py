"""Refactor gate: the reports must not change apart from timings.

`chow-verify all` is compared with the golden report kept for the benchmark
(read only here), and the flop ladder must run the same 14 checks at every r.
"""

import json
from pathlib import Path

from chowcalc.cli import main

GOLDEN_ALL = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cli_all.json"


def run_json(argv, capsys) -> dict:
    assert main([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for check in report["checks"]:
        del check["millis"]
    return report


def test_all_report_matches_golden(capsys):
    report = run_json(["all", "--seed", "0"], capsys)
    assert report.pop("seed") == 0
    assert len(report["checks"]) == 78
    assert report == json.loads(GOLDEN_ALL.read_text())


def test_flop_ladder_runs_the_same_checks_at_every_r(capsys):
    report = run_json(["flop", "--r-max", "8"], capsys)
    assert report["ok"] is True
    by_r: dict[str, set] = {}
    for check in report["checks"]:
        prefix, name = check["name"].split(".", 1)
        assert check["status"] == "pass", check
        by_r.setdefault(prefix, set()).add((name, check["anchor"]))
    assert sorted(by_r) == [f"r{r}" for r in range(1, 9)]
    assert len(by_r["r1"]) == 14
    for prefix, checks in by_r.items():
        assert checks == by_r["r1"], prefix
    assert len(report["checks"]) == 8 * 14
