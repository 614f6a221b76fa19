"""The headline ladder: the largest r whose formal flop verification
(foundations + multiplicativity) finishes within a 60 s budget.

    python3 bench/ladder.py --out BENCH.json [--r-min N] [--r-max N]

Run it from any directory; it imports chowcalc from the ``src/`` of the
checkout it sits in.  For r = r_min, r_min + 1, ... (``--r-min``, default 1)
it runs ``FlopContext(r)``, ``verify_foundations`` and
``verify_multiplicativity`` on the formal sigmas in a fresh child
interpreter, timed inside the child from the context build to the last
check.  It stops at the first r that goes over the budget, fails a check or
dies (a child may map at most 4 GiB), or after ``--r-max``; the headline is
the last r that passed, null if the first rung did not, and ``stop`` says
why the climb ended: ``budget`` (the last rung went over it), ``failed``
(it failed a check or died) or ``r_max`` (every rung passed).  Starting near the
headline spares the host the small rungs, which say nothing about it.

Before and after each r it samples perfbench's ``reference_kernel``
(imported from ``perfbench/run.py``, not copied) three times.  Two ratios
come from these samples:

- ``wall_ref`` divides a rung's wall time by the median of its own six
  samples (``ref_s``).  It compares sessions: the same rung of two runs on a
  shared host whose speed drifts between them.
- ``wall_session_ref`` divides it by the median of every sample of the
  session (``env.session_ref_s``), one divisor for all rows, set after the
  last rung.  It compares rungs: within a session it grows with wall time,
  which ``wall_ref`` need not, since the kernel's speed over minutes does
  not track the flop's.

The parent and its children are pinned to one CPU, as perfbench pins its
units.  The JSON written to ``--out`` holds ``env`` (Python, the git rev
with ``-dirty`` if tracked files differ from it, ``diff_sha256``, the sha256
of ``git diff HEAD --binary`` for such a tree or null for a clean one,
nproc and ``session_ref_s``), one row per r (wall time, both ratios, check
shares, the ``ProjBundleRing.mul`` call count, the child's peak RSS and, on
a failed rung, ``failed_checks``: each failing check's name with the first
line of its witness), ``r_min``, ``r_max`` (null without ``--r-max``),
``stop`` and ``headline_r``.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 60.0
REFERENCE_SAMPLES = 3  # kernel calls before and again after each r, about 0.25 s each
GRACE_S = 10.0  # a child past the budget by this much is stopped
CHILD_MEMORY = 4 << 30  # bytes of address space a child may map


def _reference_kernel():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_kernel


def child(r: int) -> dict:
    """One rung, in this process: wall time, verdict, shares and counts."""
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))
    sys.path.insert(0, str(ROOT / "src"))
    from chowcalc import FlopContext, verify_foundations, verify_multiplicativity
    from chowcalc.projbundle import ProjBundleRing

    calls = [0]
    mul = ProjBundleRing.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    ProjBundleRing.mul = counted
    start = time.perf_counter()
    ctx = FlopContext(r)
    report = verify_foundations(ctx)
    report.extend(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
    return summary(report, time.perf_counter() - start, calls[0])


def summary(report, wall: float, mul_calls: int) -> dict:
    """A rung's row from its report; a failed rung also names each failing
    check with the first line of its witness, as ``failed_checks``."""
    row = {
        "ok": report.ok,
        "wall_s": round(wall, 4),
        "check_shares": {
            c.name: round(c.millis / 1000 / wall, 4) for c in report.checks
        },
        "projbundle_mul_calls": mul_calls,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    if not report.ok:
        row["failed_checks"] = {
            c.name: (c.witness or "").partition("\n")[0]
            for c in report.checks if c.status != "pass"
        }
    return row


def rung(r: int, reference) -> dict:
    """Time r in a fresh child; ``ref_s`` is the median of the reference
    kernel sampled before and after it."""
    samples = [reference() for _ in range(REFERENCE_SAMPLES)]
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(r)],
            capture_output=True, text=True, timeout=BUDGET_S + GRACE_S,
        )
    except subprocess.TimeoutExpired:
        proc = None
    samples += [reference() for _ in range(REFERENCE_SAMPLES)]
    ref = round(statistics.median(samples), 4)
    row = {"r": r, "ref_s": ref}
    if proc is None:
        return {**row, "ok": False, "wall_s": None, "over_budget": True}
    if proc.returncode != 0:  # MemoryError, or a crash: the rung does not count
        error = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {**row, "ok": False, "wall_s": None, "over_budget": False, "error": error}
    row.update(json.loads(proc.stdout))
    row["wall_ref"] = round(row["wall_s"] / ref, 3)
    row["over_budget"] = row["wall_s"] > BUDGET_S
    return row


def climb(rung_at, r_min: int, r_max: int | None) -> tuple[list[dict], int | None, str]:
    """Rows from ``r_min`` up to the first rung that fails or goes over the
    budget, or to ``r_max``; the last r that passed (None if none did); and
    why the climb stopped: ``"budget"`` (a timed-out rung counts here),
    ``"failed"`` or ``"r_max"``."""
    rows, headline, r = [], None, r_min
    while r_max is None or r <= r_max:
        row = rung_at(r)
        rows.append(row)
        print(json.dumps({k: row.get(k) for k in ("r", "ok", "wall_s", "wall_ref")}),
              flush=True)
        if row["over_budget"]:
            return rows, headline, "budget"
        if not row["ok"]:
            return rows, headline, "failed"
        headline, r = r, r + 1
    return rows, headline, "r_max"


def session_normalise(rows: list[dict], samples: list[float]) -> float | None:
    """The median of every reference sample of the session (None for no
    sample); each row with a wall time gets ``wall_session_ref``, its wall
    time over that median."""
    if not samples:
        return None
    session_ref = round(statistics.median(samples), 4)
    for row in rows:
        if row["wall_s"] is not None:
            row["wall_session_ref"] = round(row["wall_s"] / session_ref, 3)
    return session_ref


def git_rev() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def diff_sha256(root: Path = ROOT) -> str | None:
    """sha256 of ``git diff HEAD --binary`` in ``root``: which edits a dirty
    tree carries.  None for a clean tree, or outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "diff", "HEAD", "--binary"],
            capture_output=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return hashlib.sha256(proc.stdout).hexdigest() if proc.stdout else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--r-min", type=int, default=1, help="start at this r (>= 1)")
    parser.add_argument("--r-max", type=int, help="stop after this r")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    if args.r_min < 1:
        parser.error(f"--r-min must be >= 1, got {args.r_min}")
    kernel, samples = _reference_kernel(), []

    def reference() -> float:
        samples.append(kernel())
        return samples[-1]

    rows, headline, stop = climb(lambda r: rung(r, reference), args.r_min, args.r_max)
    result = {
        "env": {
            "python": platform.python_version(),
            "git_rev": git_rev(),
            "diff_sha256": diff_sha256(),
            "nproc": os.cpu_count(),
            "session_ref_s": session_normalise(rows, samples),
        },
        "budget_s": BUDGET_S,
        "r_min": args.r_min,
        "r_max": args.r_max,
        "stop": stop,
        "rows": rows,
        "headline_r": headline,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"headline r = {headline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
