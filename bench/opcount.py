"""Bytecodes and calls of one benchmark unit, counted by the interpreter.

    python3 bench/opcount.py [--workload NAME] [--r N]

Run it from any directory; it imports chowcalc from the ``src/`` of the
checkout it sits in.  A unit is what perfbench's ``in_process`` unit of the
workload runs:

- ``flop_formal`` (the default): ``FlopContext(r)`` (``--r``, default 12),
  ``verify_foundations`` and ``verify_multiplicativity`` on the formal
  sigmas;
- ``cli_all``: ``cli.main(["all", "--format", "json", "--seed", "1"])``,
  its standard output swallowed;
- ``charclass_cold``: ``mukai_vector(E, T, 8)`` on perfbench's
  ``charclass_inputs(1)``, read from ``perfbench/child.py``.

Seed 1 is the first seed of ``bench/pairs.py``.  The modules are imported
and the inputs built before counting starts; a cli_all or charclass_cold
unit is also run once uncounted, as a first run does one-time work (lazy
imports, the abc and re caches) that a second would not, and then
``todd_universal``'s cache is cleared.  Then ``sys.settrace`` with ``f_trace_opcodes`` counts every bytecode
the unit executes, and ``sys.setprofile`` every call it makes, of a Python
function (a generator resumed counts again) or of a builtin such as
``isinstance``, as cProfile counts them; the garbage collector is paused
meanwhile, so that no gc callback (Hypothesis installs one) lands in the
count.  It prints one JSON line: for flop_formal ``r``, else ``workload`` and
``seed``; then ``python`` (the version, since bytecode differs between
interpreters), ``bytecodes``, ``calls`` and ``ok`` (every check passed, or
for charclass_cold v^2 = ch(E)^2 td(T)); the exit status is 1 when ``ok`` is
false.

For a workload bound by per-operation overhead, these counts are a cost
that does not drift with the host's speed: the same source on the same
Python version gives the same numbers, where wall time on a shared host
can change by half within one session.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # bench/pairs.py's first seed
CHARCLASS_DEGREE = 8


def _flop_unit(r: int):
    """A workload's unit and the verdict on its value, as every maker here
    returns them; a flop unit's value is its report's ``ok``."""
    from chowcalc import FlopContext, verify_foundations, verify_multiplicativity

    def unit() -> bool:
        ctx = FlopContext(r)
        report = verify_foundations(ctx)
        report.extend(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
        return report.ok

    return unit, bool


def _warmed(unit, verdict):
    """``unit`` run once uncounted, so that the one-time work of a first run
    (lazy imports, the abc and re caches) is not counted, and then made cold
    again: ``todd_universal``'s cache cleared, as in a fresh process."""
    from chowcalc import chern

    unit()
    chern.todd_universal.cache_clear()
    return unit, verdict


def _cli_unit():
    from chowcalc import cli

    argv = ["all", "--format", "json", "--seed", str(SEED)]

    def unit() -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv)) == 0

    return _warmed(unit, bool)


def _charclass_unit():
    from chowcalc import chern

    spec = importlib.util.spec_from_file_location(
        "perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    _, E, T = child.charclass_inputs(SEED)

    def unit():
        return chern.mukai_vector(E, T, CHARCLASS_DEGREE)

    def squares(v) -> bool:  # v^2 = ch(E)^2 td(T)
        ch = chern.chern_character(E, CHARCLASS_DEGREE).value
        return v.value * v.value == ch * ch * chern.todd_class(T, CHARCLASS_DEGREE).value

    return _warmed(unit, squares)


def count(r: int = 12, workload: str = "flop_formal") -> dict:
    """One unit of ``workload`` under the opcode tracer: its counts and verdict.
    The terminal size argparse reads is fixed meanwhile, so that a cli_all
    count does not depend on ``COLUMNS``, ``LINES`` or where stdout goes."""
    with mock.patch.dict(os.environ, COLUMNS="80", LINES="24"):
        return _count(r, workload)


def _count(r: int, workload: str) -> dict:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if workload == "flop_formal":
        (unit, verdict), head = _flop_unit(r), {"r": r}
    else:
        make = {"cli_all": _cli_unit, "charclass_cold": _charclass_unit}[workload]
        (unit, verdict), head = make(), {"workload": workload, "seed": SEED}

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
        value = unit()
    finally:
        sys.setprofile(previous[1])
        sys.settrace(previous[0])
        if collecting:
            gc.enable()
    return {**head, "python": platform.python_version(), **counts, "ok": verdict(value)}


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
