"""The benchmark's workloads: seeded inputs, one timed unit, and the
correctness gate applied to each unit's output outside the timed region.

Every gate compares against answers known without chowcalc's own routes
(hand-written polynomials, a golden report, a known-false input), so a check
that stops doing its work shows up as a gate failure, not as a speed-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from chowcalc import blowup, chern, cli, flop
from chowcalc.errors import ConsistencyError

from child import charclass_inputs, cli_argv

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_CLI = BENCH_DIR / "golden" / "cli_all.json"
CHILD_TIMEOUT_S = 120

# The lru-cached function itself; tracing may rebind the module attribute.
TODD_UNIVERSAL = chern.todd_universal

# ------------------------------------------------------------ known answers

# The 14 checks of foundations + multiplicativity.
FLOP_CHECKS = frozenset({
    "foundations.eta_push_table",
    "foundations.e_relation",
    "foundations.quotient_class_push",
    "foundations.twist_chern_routes",
    "foundations.fibre_square",
    "foundations.symmetry",
    "flop.sigma_top_cross_route",
    "flop.term_A_routes",
    "flop.term_B_routes",
    "flop.term_C_routes",
    "flop.t1_identity",
    "flop.help_sum_identity",
    "flop.homogeneity",
    "flop.final_cancellation",
})

CLI_CHECK_COUNT = 78

# Todd polynomials td_1..td_4 in c_1..c_d, keyed by the exponent tuple of
# (c_1, ..., c_d) as todd_universal reports them.
TODD_HAND = {
    1: {(1,): Fraction(1, 2)},
    2: {(2, 0): Fraction(1, 12), (0, 1): Fraction(1, 12)},
    3: {(1, 1, 0): Fraction(1, 24)},
    4: {
        (4, 0, 0, 0): Fraction(-1, 720),
        (2, 1, 0, 0): Fraction(4, 720),
        (0, 2, 0, 0): Fraction(3, 720),
        (1, 0, 1, 0): Fraction(1, 720),
        (0, 0, 0, 1): Fraction(-1, 720),
    },
}

# Coefficients of t / (1 - e^{-t}) through t^8 (Bernoulli numbers over k!).
TODD_SERIES_HAND = (
    Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0), Fraction(-1, 720),
    Fraction(0), Fraction(1, 30240), Fraction(0), Fraction(-1, 1209600),
)

# The known-false probe scales one push-table entry by this factor.
PROBE_SCALE = 2


def push_table_expected(ctx, k: int):
    """eta_*(H^k) on E -> P': 0 below r-1, 1 at r-1, l - c_1 at r."""
    r = ctx.r
    if k <= r - 2:
        return ctx.Pdual.zero
    if k == r - 1:
        return ctx.Pdual.one
    return ctx.l - ctx.Pdual.pullback(ctx.S.gen("c1"))


def embedding_probe() -> list[str]:
    """A corrupted embedding must be rejected with a nonzero witness."""
    data = blowup.linear_blowup(4, 1)
    data.push_table[(1,)] = data.push_table[(1,)] * PROBE_SCALE
    try:
        blowup.BlowupRing(data, validate_samples=5, seed=0)
    except ConsistencyError as exc:
        if exc.witness and "diff 0" not in exc.witness:
            return []
        return [f"probe: corrupted embedding rejected without a witness: {exc}"]
    return ["probe: corrupted embedding accepted"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def child_peak_rss_kb(proc: subprocess.CompletedProcess) -> int | None:
    for line in reversed(proc.stderr.splitlines()):
        if line.startswith("peak_rss_kb "):
            return int(line.split()[1])
    return None


def setup_child(workload: str, seed: int) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports chowcalc and builds the inputs."""
    return run_child([str(BENCH_DIR / "child.py"), "setup", workload, str(seed)])


def flop_check_seconds(checks) -> dict[str, float]:
    """Seconds spent in each of the 14 flop checks, summed over "rN." prefixes."""
    out = {name: 0.0 for name in FLOP_CHECKS}
    for name, _, millis in checks:
        for check in FLOP_CHECKS:
            if name == check or name.endswith("." + check):
                out[check] += millis / 1000.0
    return out


# --------------------------------------------------------------- workloads


@dataclass
class Output:
    """What one unit produced: a comparable value plus gate material."""

    value: object  # compared across traced and untraced units
    checks: list  # (name, status, millis) of every check the unit ran
    extra: object = None
    peak_rss_kb: int | None = None  # of the child that ran the unit


class FlopFormal:
    """FlopContext(r), then foundations and multiplicativity on formal sigmas.

    The input is fully determined by r, so the seed is not used.
    """

    name = "flop_formal"
    subprocess_units = False
    checks_per_unit = len(FLOP_CHECKS)

    def __init__(self, seed: int, r: int = 12):
        self.seed = seed
        self.r = r

    def unit(self) -> Output:
        ctx = flop.FlopContext(self.r)
        report = flop.verify_foundations(ctx)
        sa, sb = ctx.formal_sigmas()
        report.extend(flop.verify_multiplicativity(ctx, sa, sb))
        checks = [(c.name, c.status, c.millis) for c in report.checks]
        value = tuple(sorted((c.name, c.status, c.witness) for c in report.checks))
        return Output(value, checks, ctx)

    in_process = unit

    def gate(self, out: Output) -> list[str]:
        problems = []
        names = {name for name, _, _ in out.checks}
        if names != FLOP_CHECKS or len(out.checks) != len(FLOP_CHECKS):
            problems.append(f"flop: check names {sorted(names)} != expected")
        ctx = out.extra
        for k in range(self.r + 1):
            got = ctx.E.pushforward_power(k)
            if got != push_table_expected(ctx, k):
                problems.append(f"flop: eta_*(H^{k}) = {got}")
        return problems


class CliAll:
    """`chowcalc.cli all --format json --seed <seed>` as __main__, one child."""

    name = "cli_all"
    subprocess_units = True
    checks_per_unit = CLI_CHECK_COUNT

    def __init__(self, seed: int):
        self.seed = seed
        self.argv = cli_argv(seed)
        self.golden = json.loads(GOLDEN_CLI.read_text())

    def _output(self, status: int, text: str) -> Output:
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return Output((status, None), [])
        checks = [(c["name"], c["status"], c["millis"]) for c in report["checks"]]
        stripped = {
            **report,
            "checks": [
                {k: v for k, v in c.items() if k != "millis"} for c in report["checks"]
            ],
        }
        return Output((status, json.dumps(stripped, sort_keys=True)), checks, stripped)

    def unit(self) -> Output:
        proc = run_child([str(BENCH_DIR / "child.py"), "cli", *self.argv])
        out = self._output(proc.returncode, proc.stdout)
        out.peak_rss_kb = child_peak_rss_kb(proc)
        return out

    def in_process(self) -> Output:
        TODD_UNIVERSAL.cache_clear()  # as cold as a fresh process
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(list(self.argv))
        return self._output(status, buf.getvalue())

    def gate(self, out: Output) -> list[str]:
        status, _ = out.value
        if out.extra is None:
            return [f"cli: exit status {status}, no JSON report"]
        report = dict(out.extra)
        problems = []
        if status != 0:
            problems.append(f"cli: exit status {status}")
        if len(report["checks"]) != CLI_CHECK_COUNT:
            problems.append(f"cli: {len(report['checks'])} checks")
        if report.pop("seed", None) != self.seed:
            problems.append("cli: report does not echo the seed")
        if report != self.golden:
            problems.append("cli: report differs from the golden copy")
        return problems


def rank2_todd(T: chern.BundleClass):
    """td(T) for a rank-2 bundle from two formal roots, using the hand series.

    With q the Todd series, td = sum_{i,j} q_i q_j x1^i x2^j, and the
    symmetric sums are x1^i x2^j + x1^j x2^i = e2^j p_{i-j}, where the power
    sums follow p_k = e1 p_{k-1} - e2 p_{k-2}.
    """
    ring, q = T.ring, TODD_SERIES_HAND
    e1, e2 = T.c(1), T.c(2)
    top = len(q) - 1
    p = [ring.one * 2, e1]
    for _ in range(2, top + 1):
        p.append(e1 * p[-1] - e2 * p[-2])
    e2pow = [ring.one]
    for _ in range(top):
        e2pow.append(e2pow[-1] * e2)
    total = ring.zero
    for i in range(top + 1):
        for j in range(min(i, top - i) + 1):
            if i == j:
                total = total + e2pow[i] * (q[i] * q[i])
            else:
                total = total + e2pow[j] * p[i - j] * (q[i] * q[j])
    return total


class CharclassCold:
    """mukai_vector(E, T, max_deg) in a fresh child, Todd tables cold."""

    name = "charclass_cold"
    subprocess_units = True
    checks_per_unit = 1

    def __init__(self, seed: int, max_deg: int = 8):
        self.seed = seed
        self.max_deg = max_deg
        self.ring, self.E, self.T = charclass_inputs(seed)
        self._verified: dict[str, list[str]] = {}

    def unit(self) -> Output:
        proc = run_child([
            str(BENCH_DIR / "child.py"), "charclass", str(self.seed), str(self.max_deg)
        ])
        text = proc.stdout.strip() if proc.returncode == 0 else None
        checks = [("charclass.mukai", "pass" if text else "fail", 0.0)]
        return Output(text, checks, peak_rss_kb=child_peak_rss_kb(proc))

    def in_process(self) -> Output:
        TODD_UNIVERSAL.cache_clear()
        v = chern.mukai_vector(self.E, self.T, self.max_deg)
        return Output(str(v.value), [("charclass.mukai", "pass", 0.0)])

    def gate(self, out: Output) -> list[str]:
        problems = []
        for d, hand in TODD_HAND.items():
            got = {m: c for m, c in TODD_UNIVERSAL(d) if c}
            if got != hand:
                problems.append(f"charclass: todd_universal({d}) = {got}")
        if out.value is None:
            return problems + ["charclass: child failed"]
        if out.value not in self._verified:
            self._verified[out.value] = self._squares(out.value)
        return problems + self._verified[out.value]

    def _squares(self, text: str) -> list[str]:
        """v^2 = ch(E)^2 td(T), with td(T) from the independent rank-2 route."""
        v = self.ring.parse(text)
        ch = chern.chern_character(self.E, self.max_deg).value
        lhs = _upto(v * v, self.max_deg)
        rhs = _upto(ch * ch * rank2_todd(self.T), self.max_deg)
        problems = []
        if v.grade_component(0) != self.ring.one * self.E.rank:
            problems.append("charclass: degree-0 part of v is not rank(E)")
        if lhs != rhs:
            problems.append(f"charclass: v^2 != ch(E)^2 td(T): {lhs - rhs}")
        return problems


def _upto(x, max_deg: int):
    out = x.grade_component(0)
    for d in range(1, max_deg + 1):
        out = out + x.grade_component(d)
    return out


WORKLOADS = {cls.name: cls for cls in (FlopFormal, CliAll, CharclassCold)}
