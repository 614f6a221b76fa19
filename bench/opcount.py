"""Bytecodes and calls of one benchmark unit, counted by the interpreter.

    python3 bench/opcount.py [--workload NAME] [--r N]

Run it from any directory; it imports chowcalc from the ``src/`` of the
checkout it sits in, and the workloads from its ``perfbench/workloads.py``.
A unit is that workload's ``in_process`` unit, built as
``WORKLOADS[name](1)`` (seed 1 is the first seed of ``bench/pairs.py``):
``flop_formal`` (the default) is ``FlopFormal(1, r)`` with ``--r``
(default 12); ``cli_all`` and ``charclass_cold`` take no rank.  The
workload and its inputs are built, and the unit run once, before counting
starts, as a first run does one-time work (lazy imports, the abc and re
caches) that a second would not; perfbench's cli_all and charclass_cold
units clear ``todd_universal``'s cache themselves.  Then ``sys.settrace``
with ``f_trace_opcodes`` counts every bytecode the unit executes, and
``sys.setprofile`` every call it makes, of a Python function (a generator
resumed counts again) or of a builtin such as ``isinstance``, as cProfile
counts them; the garbage collector is paused meanwhile, so that no gc
callback (Hypothesis installs one) lands in the count.  ``COLUMNS`` and
``LINES`` are fixed while the unit runs, so that argparse's terminal-size
lookup does not move a cli_all count.

It prints one JSON line: for flop_formal ``r``, else ``workload`` and
``seed``; then ``python`` (the version, since bytecode differs between
interpreters), ``bytecodes``, ``calls`` and ``ok``, which is perfbench's
``gate`` on the counted unit's output, taken after counting stops.  When
``ok`` is false the gate's problems go to standard error, one per line, and
the exit status is 1.

For a workload bound by per-operation overhead, these counts are a cost
that does not drift with the host's speed: the same source on the same
Python version gives the same numbers, where wall time on a shared host
can change by half within one session.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # bench/pairs.py's first seed


def count(r: int = 12, workload: str = "flop_formal") -> dict:
    """One ``in_process`` unit of ``workload`` under the opcode tracer: its
    counts and its gate's verdict; the gate's problems go to stderr."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads
    from chowcalc.errors import bounded

    if workload == "flop_formal":
        wl, head = workloads.FlopFormal(SEED, r), {"r": r}
    else:
        wl, head = workloads.WORKLOADS[workload](SEED), {"workload": workload, "seed": SEED}

    counts = {"bytecodes": 0, "calls": 0}

    def trace(frame, event, arg):
        if event == "opcode":
            counts["bytecodes"] += 1
        elif event == "call":
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return trace

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            counts["calls"] += 1

    with mock.patch.dict(os.environ, COLUMNS="80", LINES="24"):
        wl.in_process()
        previous, collecting = (sys.gettrace(), sys.getprofile()), gc.isenabled()
        gc.disable()  # so no gc callback another library installed is counted
        sys.settrace(trace)
        sys.setprofile(profile)
        try:
            out = wl.in_process()
        finally:
            sys.setprofile(previous[1])
            sys.settrace(previous[0])
            if collecting:
                gc.enable()
    problems = wl.gate(out)
    for problem in problems:
        print(bounded(problem), file=sys.stderr)
    return {**head, "python": platform.python_version(), **counts, "ok": not problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=("flop_formal", "cli_all", "charclass_cold"), default="flop_formal")
    parser.add_argument("--r", type=int)
    args = parser.parse_args(argv)
    if args.r is not None and args.workload != "flop_formal":
        parser.error("--r applies to flop_formal only")
    if args.r is not None and args.r < 1:
        parser.error("--r must be >= 1")
    result = count(12 if args.r is None else args.r, args.workload)
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
