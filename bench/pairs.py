"""Alternating benchmark pairs: two checkouts, one workload, N pairs.

    python3 bench/pairs.py --parent DIR --change DIR --workload NAME \\
        [--workload NAME ...] [--pairs 10] [--out FILE]

Each pair runs ``python3 perfbench/run.py --workload NAME --seed S
--seconds N --trace 0`` once in each checkout (its working directory is the
checkout, so each side runs its own ``perfbench/`` on its own ``src/``),
N being ``run_seconds`` of ``BENCHMARK.json``.  Pair i (counted from 0)
uses seed 1 + i; the parent runs first in even pairs and the change runs
first in odd pairs, so a drift in the host's speed falls on both sides
alike.  A run is read from the last line of its standard output, the JSON
object perfbench prints; a run that exits nonzero or prints no such line
stops the tool with its error.

For each workload and each metric the tool prints the median and the
quartiles of each side, the median's change, and the pairs the change won:
those where it is strictly better, lower or higher as the metric's
``better`` in ``BENCHMARK.json`` says (lower if the metric is not listed).
A gain is shown when the change won at least nine in ten pairs and its
median beats the parent's by more than the parent's interquartile distance.
The JSON written to ``--out`` holds every run and this summary, and in its
``env`` what a cold start depends on: for each checkout, whether
``src/chowcalc/__pycache__`` existed before the first run, and whether
``PYTHONDONTWRITEBYTECODE`` was set (without it, the first run writes the
bytecode that later runs read), and the length of each checkout's path:
cli_all's ``peak_rss_mb`` grows with it, so the tool warns on standard error
when the two lengths differ.  It reads ``BENCHMARK.json`` and nothing under
``perfbench/``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WIN_SHARE = 0.9  # share of pairs the change must win for a gain
FIRST_SEED = 1  # the seed of pair 0


def perfbench_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run in ``checkout``: its metrics, as name -> value."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        tail = (proc.stderr or proc.stdout)[-400:]
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exit {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def bytecode_state(checkout: Path) -> dict:
    """Whether ``checkout`` holds compiled bytecode of ``chowcalc``, and
    whether the runs may write it."""
    return {"pycache": (checkout / "src" / "chowcalc" / "__pycache__").is_dir(),
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def run_pairs(runner, checkouts: dict, workload: str, pairs: int, seconds: int) -> list[dict]:
    """``pairs`` rows of one workload; odd pairs run the change first."""
    rows = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        row = {"pair": i, "seed": FIRST_SEED + i, "first": order[0]}
        for side in order:
            row[side] = runner(checkouts[side], workload, FIRST_SEED + i, seconds)
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(rows: list[dict], better: dict) -> dict:
    """Per metric: each side's quartiles, the pairs the change won, and
    whether that is a gain (see the module docstring)."""
    out = {}
    for name in rows[0]["parent"]:
        lower = better.get(name, "lower") == "lower"
        sides = {}
        for side in SIDES:
            q1, median, q3 = quartiles([row[side][name] for row in rows])
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        won = sum(
            (c < p) if lower else (c > p)
            for p, c in ((row["parent"][name], row["change"][name]) for row in rows)
        )
        gap = sides["parent"]["median"] - sides["change"]["median"]
        gap = gap if lower else -gap
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        out[name] = {
            **sides,
            "better": "lower" if lower else "higher",
            "won": won,
            "pairs": len(rows),
            "gain": won >= WIN_SHARE * len(rows) and gap > spread,
        }
    return out


def benchmark_spec(path: Path) -> tuple[int, dict]:
    """``run_seconds`` of ``BENCHMARK.json``, and metric name -> ``"lower"``
    or ``"higher"``."""
    spec = json.loads(path.read_text())
    metrics = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return spec["run_seconds"], {m["name"]: m["better"] for m in metrics}


def report_lines(workload: str, summary: dict) -> list[str]:
    lines = []
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        rel = f"{(c['median'] / p['median'] - 1) * 100:+.1f}%" if p["median"] else "n/a"
        lines.append(
            f"{workload} {name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f" change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {rel}"
            f" won {s['won']}/{s['pairs']}{' GAIN' if s['gain'] else ''}"
        )
    return lines


def main(argv: list[str] | None = None, runner=perfbench_run) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    seconds, better = benchmark_spec(ROOT / "BENCHMARK.json")
    lengths = {side: len(str(path)) for side, path in checkouts.items()}
    if len(set(lengths.values())) > 1:
        print(f"warning: checkout paths differ in length {lengths}; cli_all's peak_rss_mb"
              " depends on it", file=sys.stderr)
    result = {
        "env": {"python": platform.python_version(),
                **{side: str(path) for side, path in checkouts.items()},
                "path_length": lengths,
                "bytecode": {side: bytecode_state(path) for side, path in checkouts.items()}},
        "pairs": args.pairs, "seconds": seconds, "seed": FIRST_SEED,
        "workloads": {},
    }
    lines = []
    for workload in args.workload:
        try:
            rows = run_pairs(runner, checkouts, workload, args.pairs, seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        summary = summarise(rows, better)
        result["workloads"][workload] = {"runs": rows, "summary": summary}
        lines += report_lines(workload, summary)
    print("\n".join(lines))
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
