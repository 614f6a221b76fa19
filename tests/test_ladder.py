"""Smoke test of the headline ladder tool, on its first two rungs."""

import json
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"


def test_ladder_writes_rows_and_headline(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(LADDER), "--out", str(out), "--r-max", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert set(result["env"]) == {"python", "git_rev", "nproc"}
    assert result["headline_r"] == 2
    assert [row["r"] for row in result["rows"]] == [1, 2]
    for row in result["rows"]:
        assert row["ok"] and not row["over_budget"]
        assert row["wall_ref"] == round(row["wall_s"] / row["ref_s"], 3)
        assert row["projbundle_mul_calls"] > 0
        assert len(row["check_shares"]) == 14
