"""Term visits of one formal flop rung, counted by wrapping, in a child process.

    python3 bench/visits.py --r N

Run it from any directory; it imports chowcalc from the ``src/`` of the
checkout it sits in.  A fresh child interpreter runs ``FlopContext(r)``,
``verify_foundations`` and ``verify_multiplicativity`` on the formal sigmas,
as a rung of ``bench/ladder.py`` does, with three methods of
``chowcalc.rings`` wrapped (``src/`` is never edited):

- ``GradedRing.dot``: calls, pairs, and term visits Σ|x|·|y| over the pairs,
  |x| being the term count of x;
- ``GradedElement.__sub__`` and ``GradedElement.__eq__``: calls, and the term
  volume |x| + |y| of the two operands.

``Report.run`` is wrapped too, so that each count is also booked to the
check that made it; the context build and anything else outside a check is
booked to ``context``.  Wall time on a shared host can change by half
within one session; these counts depend on the source alone.

It prints one JSON line: ``r``, ``ok`` (every check passed), the totals
``dot_calls``, ``dot_pairs``, ``dot_visits``, ``sub_calls``, ``sub_terms``,
``eq_calls`` and ``eq_terms``, and ``checks``, the same counts for each check
in the order they ran.  The exit status is 1 when a check failed.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = ("dot_calls", "dot_pairs", "dot_visits", "sub_calls", "sub_terms", "eq_calls", "eq_terms")


def child(r: int) -> dict:
    """One rung in this interpreter, under the wrappers it installs for good."""
    sys.path.insert(0, str(ROOT / "src"))
    from chowcalc import FlopContext, verify_foundations, verify_multiplicativity
    from chowcalc.report import Report
    from chowcalc.rings import GradedElement, GradedRing, RingElement

    total, checks, current = dict.fromkeys(KEYS, 0), {}, ["context"]

    def book(**counts) -> None:
        for row in (total, checks.setdefault(current[-1], dict.fromkeys(KEYS, 0))):
            for key, n in counts.items():
                row[key] += n

    dot, sub, eq, run = GradedRing.dot, GradedElement.__sub__, RingElement.__eq__, Report.run

    def counted_dot(self, pairs, start=None):
        pairs = list(pairs)
        visits = sum(len(x.terms) * len(y.terms) for x, y in pairs)
        book(dot_calls=1, dot_pairs=len(pairs), dot_visits=visits)
        return dot(self, pairs, start)

    def volume(x, y) -> int:
        return len(x.terms) + len(getattr(y, "terms", ()))

    def counted_sub(self, other):
        book(sub_calls=1, sub_terms=volume(self, other))
        return sub(self, other)

    def counted_eq(self, other):
        book(eq_calls=1, eq_terms=volume(self, other))
        return eq(self, other)

    def booked_run(self, name, anchor, fn):
        current.append(name)
        try:
            return run(self, name, anchor, fn)
        finally:
            current.pop()

    GradedRing.dot = counted_dot
    GradedElement.__sub__ = counted_sub
    GradedElement.__eq__ = counted_eq
    Report.run = booked_run
    ctx = FlopContext(r)
    report = verify_foundations(ctx)
    report.extend(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
    return {"r": r, "ok": report.ok, **total, "checks": checks}


def visits(r: int) -> dict:
    """The counts of one rung, taken in a fresh child interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--r", str(r), "--child"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout.startswith("{"):
        tail = proc.stderr[-400:]
        raise RuntimeError(f"visits child for r = {r} exit {proc.returncode}: {tail}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.r < 1:
        parser.error("--r must be >= 1")
    result = child(args.r) if args.child else visits(args.r)
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
