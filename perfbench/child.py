"""Programs the benchmark runs in fresh interpreters, and the inputs they build.

    child.py setup <workload> <seed>        import chowcalc, build the inputs
    child.py charclass <seed> <max_deg>     print mukai_vector(E, T, max_deg)
    child.py cli <args...>                  run chowcalc.cli as __main__

This module imports nothing but chowcalc and the standard library, so that a
child's time and memory are chowcalc's own.  The unit programs end by
writing ``peak_rss_kb N`` to standard error: the VmHWM of their own address
space.  getrusage cannot give it, because a child's ru_maxrss starts from
the high-water mark of the parent it was forked from.
"""

import random
import runpy
import sys

from chowcalc import chern
from chowcalc.rings import GradedRing


def cli_argv(seed: int) -> list[str]:
    return ["all", "--format", "json", "--seed", str(seed)]


def charclass_inputs(seed: int):
    """E (rank 3) and T (rank 2) with seeded nonzero integer coefficients."""
    ring = GradedRing(
        [("a1", 1), ("a2", 2), ("a3", 3), ("b1", 1), ("b2", 2)], dim_bound=8
    )
    rng = random.Random(seed)

    def draw(degree: int):
        return ring.element({
            m: rng.choice((-1, 1)) * rng.randint(1, 9)
            for m in ring.monomials_of_degree(degree)
        })

    E = chern.BundleClass(ring, 3, [draw(1), draw(2), draw(3)])
    T = chern.BundleClass(ring, 2, [draw(1), draw(2)])
    return ring, E, T


def report_peak_rss():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                print(f"peak_rss_kb {line.split()[1]}", file=sys.stderr)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        workload, seed = argv[1], int(argv[2])
        if workload == "cli_all":
            from chowcalc import cli

            cli.parse_config(cli_argv(seed))
        elif workload == "charclass_cold":
            charclass_inputs(seed)
        elif workload != "flop_formal":  # its input is fixed by r
            print(f"unknown workload {workload!r}", file=sys.stderr)
            return 2
        return 0
    if mode == "charclass":
        seed, max_deg = int(argv[1]), int(argv[2])
        _, E, T = charclass_inputs(seed)
        print(chern.mukai_vector(E, T, max_deg).value)
        report_peak_rss()
        return 0
    if mode == "cli":  # the same as python -m chowcalc.cli <args...>
        sys.argv = ["chowcalc.cli", *argv[1:]]
        try:
            runpy.run_module("chowcalc.cli", run_name="__main__", alter_sys=True)
        finally:
            report_peak_rss()
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
