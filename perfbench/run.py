"""chowcalc benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports chowcalc from ``src/`` and
refuses to run without it.  Workloads (see workloads.py):

- ``flop_formal``: FlopContext(12), foundations + multiplicativity, in-process;
- ``cli_all``: ``python -m chowcalc.cli all --format json --seed N``, one child
  at a time;
- ``charclass_cold``: ``mukai_vector(E, T, 8)`` in a fresh child, E and T
  drawn from the seed.

``--trace 0`` times units back to back for S seconds with tracing off and
prints the end-to-end metrics:

- ``setup_s``: median time of a fresh interpreter that imports chowcalc and
  builds the workload's inputs (several per run, spread between the units);
- ``verdict_ref_mean``: the mean wall time of one unit over the mean time
  of a fixed pure-Python reference kernel sampled between the units; the
  raw ``verdict_s_p50`` and ``verdict_s_mean`` in seconds are printed above
  the result line;
- ``peak_rss_mb``: peak resident set of the process running the units (for
  child units, the largest VmHWM a child reports);
- ``pass_ratio``: checks passed over checks attempted (1 - fail ratio);
- ``output_match``: 1 only if every correctness gate held.

``--trace 1`` alternates untraced and traced
in-process units for S seconds, prints the per-layer metrics (counts, and
times as shares of the unit's wall time), checks that
both kinds of unit give identical outputs and that every traced unit gives
identical counts, and writes the spans to ``perfbench/out/``.  Every unit's
output goes through the workload's correctness gate outside the timed
region.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("flop_formal", "cli_all", "charclass_cold")
SETUP_REPS = 5  # fewest fresh interpreters per run; setup_s is their median
MIN_UNITS = 3  # timed units per run, even past --seconds
MIN_TRACED = 2  # traced units per run, so their counts can be compared
REFERENCE_SHARE = 0.25  # reference-kernel time per unit time, at least


def _sparse_product(left: dict, right: dict) -> dict:
    out: dict = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


# Small integer products (the flop_formal shape) and one larger product
# with Fraction coefficients (the charclass_cold shape).
REFERENCE_INPUTS = (
    ({(i % 5, i % 3, i % 7, i % 2): i + 1 for i in range(60)},
     {(i % 4, i % 6, i % 2, i % 5): 2 * i - 7 for i in range(60)}),
    ({(i % 9, i % 8, i % 7, i % 5, i % 11): Fraction(i + 1, i % 7 + 2) for i in range(150)},
     {(i % 3, i % 4, i % 5, i % 2, i % 7): Fraction(2 * i - 7, i % 5 + 1) for i in range(120)}),
)
REFERENCE_ROUNDS = (25, 2)  # about 0.25 s in all
REFERENCE_TERMS = 25 * 2110 + 2 * 15553  # checked on every call


def reference_kernel() -> float:
    """Seconds taken by fixed pure-Python work shaped like sparse products.

    On a shared host the same unit can take a third longer or more from one
    minute to the next, and the kernel slows with it.  Its samples are
    short, so one sample catches either a slow or a fast stretch while a
    unit spans both: means, which weight each stretch by its duration, are
    compared, not medians.  Mean unit time over mean kernel time then stays
    steadier between runs than raw wall time.  It is the
    benchmark's own code, so no change to chowcalc moves it.
    """
    start = time.perf_counter()
    terms = 0
    for (left, right), rounds in zip(REFERENCE_INPUTS, REFERENCE_ROUNDS):
        for _ in range(rounds):
            terms += len(_sparse_product(left, right))
    elapsed = time.perf_counter() - start
    if terms != REFERENCE_TERMS:
        raise RuntimeError(f"reference kernel produced {terms} terms")
    return elapsed


class Tally:
    """Checks attempted and failed, plus every gate problem, over a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def unit(self, fn):
        """Run one unit, time it, gate its output; returns (seconds, output)."""
        wl = self.workload
        self.attempted += wl.checks_per_unit
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:
            elapsed = time.perf_counter() - start
            self.failed += wl.checks_per_unit
            self.problems.append("unit raised: " + traceback.format_exc(limit=3))
            return elapsed, None
        elapsed = time.perf_counter() - start
        failed = sum(1 for _, status, _ in out.checks if status != "pass")
        failed += max(0, wl.checks_per_unit - len(out.checks))
        self.failed += min(failed, wl.checks_per_unit)
        self.problems += wl.gate(out)
        return elapsed, out


def run_timed(wl, workloads, seconds: int):
    """End-to-end metrics with tracing off."""
    tally = Tally(wl)

    def setup():  # a fresh interpreter importing chowcalc and building inputs
        start = time.perf_counter()
        proc = workloads.setup_child(wl.name, wl.seed)
        if proc.returncode != 0:
            tally.problems.append(f"setup child failed: {proc.stderr[-400:]}")
        return time.perf_counter() - start

    setup()  # warms the bytecode cache; users pay that once, not per run
    # Set-up samples and reference-kernel samples are spread between the
    # units, so that they see the same stretch of machine load as the units.
    # Each unit is followed by at least REFERENCE_SHARE of its own time in
    # reference samples.
    setup_times, times, ref_times, child_rss_kb = [], [], [reference_kernel()], [0]
    start = time.perf_counter()
    while len(times) < MIN_UNITS or time.perf_counter() - start < seconds:
        setup_times.append(setup())
        gc.collect()
        elapsed, out = tally.unit(wl.unit)
        times.append(elapsed)
        if out is not None and out.peak_rss_kb is not None:
            child_rss_kb.append(out.peak_rss_kb)
        batch = [reference_kernel()]
        while sum(batch) < REFERENCE_SHARE * elapsed:
            batch.append(reference_kernel())
        ref_times += batch
    while len(setup_times) < SETUP_REPS:
        setup_times.append(setup())
    if wl.subprocess_units:
        peak_rss_mb = max(child_rss_kb) / 1024.0
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.problems += workloads.embedding_probe()
    fail_ratio = tally.failed / tally.attempted
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdict_ref_mean": (statistics.mean(times) / statistics.mean(ref_times), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_ratio": (1.0 - fail_ratio, "ratio"),
        "output_match": (0 if tally.problems else 1, "bool"),
    }
    notes = {
        "verdict_s_p50": f"{statistics.median(times)} s",
        "verdict_s_mean": f"{statistics.mean(times)} s",
        "verdict_n": len(times),
        "verdict_s": [round(t, 4) for t in times],
        "reference_s": [round(t, 4) for t in ref_times],
        "setup_s_all": [round(t, 4) for t in setup_times],
        "fail_ratio": fail_ratio,
    }
    return tally, metrics, notes


def run_traced(wl, workloads, seconds: int):
    """Per-layer metrics from traced in-process units."""
    from spans import Tracer

    tally = Tally(wl)
    tracer = Tracer()
    values = []
    plain, traced, counts, layer_shares, check_shares = [], [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - start < seconds:
        gc.collect()
        elapsed, out = tally.unit(wl.in_process)
        plain.append(elapsed)
        values.append(out and out.value)
        if out is not None:
            seconds_by_check = workloads.flop_check_seconds(out.checks)
            check_shares.append({k: v / elapsed for k, v in seconds_by_check.items()})
        gc.collect()
        tracer.install()
        try:
            tracer.begin_unit()
            elapsed, out = tally.unit(wl.in_process)
            counts.append(tracer.unit_counts())
            layer_shares.append(tracer.unit_shares(elapsed))
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        values.append(out and out.value)
    if len(set(values)) != 1:
        tally.problems.append("traced and untraced units gave different outputs")
    if any(c != counts[0] for c in counts):
        tally.problems.append(f"traced counts differ between units: {counts}")
    tally.problems += workloads.embedding_probe()

    metrics = {}
    for name, value in counts[0].items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    for name in layer_shares[0]:
        metrics[name] = (statistics.median(t[name] for t in layer_shares), "ratio")
    for check in sorted(workloads.FLOP_CHECKS):
        name = "flop." + check.removeprefix("flop.") + ".share"
        value = statistics.median(t[check] for t in check_shares) if check_shares else 0.0
        metrics[name] = (value, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{wl.seed}.csv.gz"
    tracer.write(spans_path)
    notes = {
        "untraced_s": [round(t, 4) for t in plain],
        "traced_s": [round(t, 4) for t in traced],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return tally, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    src = ROOT / "src"
    if not (src / "chowcalc" / "__init__.py").is_file():
        print(f"error: no chowcalc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import chowcalc
    import workloads

    if Path(chowcalc.__file__).resolve().parent != (src / "chowcalc").resolve():
        print(f"error: imported chowcalc from {chowcalc.__file__}", file=sys.stderr)
        return 2

    # One CPU for this process and its children, so that the units and the
    # reference kernel run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = workloads.WORKLOADS[args.workload](args.seed)
    run = run_traced if args.trace else run_timed
    tally, metrics, notes = run(wl, workloads, args.seconds)

    print(f"workload {wl.name} seed {wl.seed} trace {args.trace}")
    print(f"env python {platform.python_version()} nproc {os.cpu_count()} "
          f"chowcalc {chowcalc.__version__}")
    for name, value in notes.items():
        print(f"{name} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for problem in tally.problems:
        print(f"PROBLEM {problem}")
    result = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
