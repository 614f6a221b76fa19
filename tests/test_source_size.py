"""Source-size gate: the modules of ``src/chowcalc`` stay within a recorded
line count.

Lines are counted as ROADMAP counts them, ``cat src/chowcalc/*.py | wc -l``:
the newlines of every module.  A change that adds source raises the bound
in the same diff and says so in CHANGES.md; a change that cuts source
lowers it as well.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chowcalc"

# cat src/chowcalc/*.py | wc -l
SRC_LINES = 2288


def test_source_stays_within_its_line_bound():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert 0 < lines <= SRC_LINES, f"src/chowcalc has {lines} lines, bound {SRC_LINES}"
