"""Bytecodes and calls of one formal flop unit, counted by the interpreter.

    python3 bench/opcount.py [--r N]

Run it from any directory; it imports chowcalc from the ``src/`` of the
checkout it sits in.  One unit is what perfbench's flop_formal workload
times: ``FlopContext(r)`` (``--r``, default 12), ``verify_foundations`` and
``verify_multiplicativity`` on the formal sigmas.  The modules are imported
before counting starts; then ``sys.settrace`` with ``f_trace_opcodes``
counts every bytecode the unit executes, and ``sys.setprofile`` every call
it makes, of a Python function (a generator resumed counts again) or of a
builtin such as ``isinstance``, as cProfile counts them; the garbage
collector is paused meanwhile, so that no gc callback (Hypothesis installs
one) lands in the count.  It prints one JSON line: ``r``, ``python`` (the
version, since bytecode differs between interpreters), ``bytecodes``,
``calls`` and ``ok`` (every check passed); the exit status is 1 when a
check failed.

For a workload bound by per-operation overhead, these counts are a cost
that does not drift with the host's speed: the same source on the same
Python version gives the same numbers, where wall time on a shared host
can change by half within one session.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count(r: int) -> dict:
    """One flop unit at ``r`` under the opcode tracer: its counts and verdict."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from chowcalc import FlopContext, verify_foundations, verify_multiplicativity

    def unit() -> bool:
        ctx = FlopContext(r)
        report = verify_foundations(ctx)
        report.extend(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
        return report.ok

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

    previous, collecting = (sys.gettrace(), sys.getprofile()), gc.isenabled()
    gc.disable()  # so no gc callback another library installed is counted
    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        ok = unit()
    finally:
        sys.setprofile(previous[1])
        sys.settrace(previous[0])
        if collecting:
            gc.enable()
    return {"r": r, "python": platform.python_version(), **counts, "ok": ok}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--r", type=int, default=12)
    args = parser.parse_args(argv)
    if args.r < 1:
        parser.error("--r must be >= 1")
    result = count(args.r)
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
