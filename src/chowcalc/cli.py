"""Command-line front end: build contexts, run suites, emit reports.

Usage examples::

    chow-verify flop --r 2
    chow-verify binomial --r-max 12
    chow-verify blowup --case linear:4,1
    chow-verify blowup --case file:embedding.txt
    chow-verify all --format json --out report.json

``--r N`` runs rank N alone and ``--r-max N`` runs ranks 1..N, in every
suite; giving both is a usage error.

Exit status 0 if every check passed, 1 on any failure, 2 on usage errors
(an ``--out`` path that cannot be opened for writing is one, found before
any check runs).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import random
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction

from . import blowup as bl_mod
from . import chern, flop
from .errors import ConsistencyError, require_equal
from .projbundle import ProjBundleRing, binomial_identity_check
from .report import Report
from .rings import GradedRing, powers

SUITES = ("binomial", "projbundle", "blowup", "charclass", "flop", "all")

USAGE_EXIT = 2
FAIL_EXIT = 1


@dataclass
class SuiteConfig:
    suite: str
    r: int | None = None
    r_max: int | None = None
    trials: int = 5
    seed: int = 0
    dim_bound: int | None = None
    case: str | None = None
    fmt: str = "text"
    out: str | None = None
    # the blow-up --case names, built here so that a bad file is a usage error
    embedding: bl_mod.EmbeddingData | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.fmt not in ("text", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.r is not None and self.r < 1:
            raise ValueError("--r must be >= 1")
        if self.r_max is not None and self.r_max < 1:
            raise ValueError("--r-max must be >= 1")
        if self.r is not None and self.r_max is not None:
            raise ValueError("--r and --r-max are mutually exclusive")
        if self.trials < 1:
            raise ValueError("--trials must be >= 1")
        if self.dim_bound is not None and self.dim_bound < 0:
            raise ValueError("--dim-bound must be >= 0")
        # a report must not echo an option its suite does not read
        if self.case is not None and self.suite not in ("blowup", "all"):
            raise ValueError(f"--case does not apply to the {self.suite} suite")
        readers = ("projbundle", "charclass", "all")
        if self.dim_bound is not None and self.suite not in readers:
            raise ValueError(f"--dim-bound does not apply to the {self.suite} suite")
        if self.suite in ("blowup", "all"):
            self.embedding = _blowup_case(self.case)


# ------------------------------------------------------------------ suites


def _ranks(cfg: SuiteConfig, default: int) -> range:
    """Rank --r alone, else ranks 1..--r-max (1..default when neither is set)."""
    if cfg.r is not None:
        return range(cfg.r, cfg.r + 1)
    return range(1, (cfg.r_max or default) + 1)


def suite_binomial(cfg: SuiteConfig) -> Report:
    report = Report()
    for r in _ranks(cfg, 12):

        def check(r=r):
            ok, failures = binomial_identity_check(r)
            if not ok:
                raise ConsistencyError(
                    f"binomial identity fails at r={r}", witness=str(failures[:3])
                )

        report.run(
            f"binomial.identity_r{r}",
            "alternating binomial double sum collapses to a sign",
            check,
        )
    return report


def suite_projbundle(cfg: SuiteConfig) -> Report:
    report = Report()
    for r in _ranks(cfg, 5):
        F = chern.generic_bundle(r + 1, dim_bound=cfg.dim_bound)
        P = ProjBundleRing(F)

        def push_table(P=P):
            P.check_push_table(-P.bundle.c(1))

        report.run(
            f"projbundle.push_table_r{r}",
            "pushforward of hyperplane powers matches the Segre table",
            push_table,
        )

        def tau_consistency(P=P, r=r):
            P.tau_rows(3 * r)  # raises on route disagreement

        report.run(
            f"projbundle.tau_consistency_r{r}",
            "tau table: recursion route vs reduction route",
            tau_consistency,
        )

        def cotangent(P=P, r=r):
            euler = P.cotangent_chern_via_euler()
            twist = P.cotangent_twist_via_tensor()
            for i in range(r + 1):
                message = f"cotangent c_{i} routes disagree at r={r}"
                require_equal(P.cotangent_chern(i), euler.c(i), message)
                message = f"twisted cotangent c_{i} routes disagree at r={r}"
                require_equal(P.cotangent_twist_chern(i), twist[i], message)

        report.run(
            f"projbundle.cotangent_r{r}",
            "relative cotangent Chern classes, closed form vs Euler sequence",
            cotangent,
        )
    return report


def _blowup_case(case: str | None) -> bl_mod.EmbeddingData:
    """``--case``: ``linear:n,m`` (``linear:4,1`` when unset), or ``file:PATH``,
    a ``load_embedding`` text whose ambient ring has a ``dim_bound``."""
    kind, _, rest = (case or "linear:4,1").partition(":")
    if kind == "linear":
        try:
            n, m = map(int, rest.split(","))
        except ValueError:
            raise ValueError(f"bad case syntax {case!r}, expected linear:n,m") from None
    elif kind != "file":
        raise ValueError(f"unknown blow-up case {case!r}")
    try:  # the builder owns the rules on its input; the case is named here
        if kind == "linear":
            return bl_mod.linear_blowup(n, m)
        with open(rest) as fh:
            data = bl_mod.load_embedding(fh.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad case {case!r}: {exc}") from None
    if data.ambient.dim_bound is None:
        raise ValueError(f"bad case {case!r}: the ambient ring needs a dim_bound")
    return data


def suite_blowup(cfg: SuiteConfig) -> Report:
    report = Report()
    data = cfg.embedding
    n, m = data.ambient.dim_bound, data.center.dim_bound
    bl = bl_mod.BlowupRing(data)
    rng = random.Random(cfg.seed)

    def validate():
        bl_mod.embedding_validate(data, samples=cfg.trials, seed=cfg.seed)

    report.run(
        "blowup.embedding_valid",
        "restriction, projection formula, self-intersection on samples",
        validate,
    )

    def key_formula():
        for d in range(m + 1):
            gamma = data.center.random_homogeneous(rng, d)
            bl_mod.key_formula_check(bl, gamma)

    report.run(
        "blowup.key_formula",
        "pullback of a pushed center class vs exceptional pushforward",
        key_formula,
    )

    def round_trip():
        for d in range(n + 1):
            alpha = data.ambient.random_homogeneous(rng, d)
            message = f"push after pull is not identity at degree {d}"
            require_equal(bl.push(bl.pull(alpha)), alpha, message)

    report.run(
        "blowup.pull_push_identity",
        "pushforward after pullback is the identity on the ambient ring",
        round_trip,
    )

    def associativity():
        trials = max(cfg.trials, 200)
        for _ in range(trials):
            trio = []
            for _ in range(3):
                alpha = data.ambient.random_element(rng, n)
                eps = bl.E.random_element(rng, n)
                trio.append(bl.exc_push(eps) + bl.pull(alpha))
            a, b, c = trio
            ab = a * b
            require_equal(ab * c, a * (b * c), "blow-up product is not associative")
            require_equal(ab, b * a, "blow-up product is not commutative")

    report.run(
        "blowup.ring_laws",
        "associativity and commutativity on seeded random triples",
        associativity,
    )
    return report


def suite_charclass(cfg: SuiteConfig) -> Report:
    report = Report()
    rng = random.Random(cfg.seed)
    S = GradedRing(
        [("x1", 1), ("x2", 2), ("y1", 1), ("y2", 2)],
        dim_bound=8 if cfg.dim_bound is None else cfg.dim_bound,
    )
    E = chern.BundleClass(S, 3, [S.gen("x1"), S.gen("x2"), S.gen("x1") * S.gen("x2")])
    F = chern.BundleClass(S, 2, [S.gen("y1"), S.gen("y2")])

    def chern_segre():
        prod = E.total_chern() * S.sum(chern.segre_classes(E, 8))
        for d in range(1, 9):
            part = prod.grade_component(d)
            require_equal(part, S.zero, f"c(E)s(E) has a nonzero degree-{d} part")

    report.run(
        "charclass.chern_segre_inverse",
        "total Chern times total Segre is 1 through degree 8",
        chern_segre,
    )

    def additivity():
        W = chern.whitney_sum(E, F)
        lhs = chern.chern_character(W, 6)
        rhs = chern.chern_character(E, 6) + chern.chern_character(F, 6)
        require_equal(lhs, rhs, "Chern character is not additive on sums")

    report.run(
        "charclass.ch_additive",
        "Chern character additive on direct sums through degree 6",
        additivity,
    )

    def td_multiplicative():
        W = chern.whitney_sum(E, F)
        lhs = chern.todd_class(W, 6)
        rhs = chern.todd_class(E, 6) * chern.todd_class(F, 6)
        require_equal(lhs, rhs, "Todd class is not multiplicative on sums")

    report.run(
        "charclass.td_multiplicative",
        "Todd class multiplicative on direct sums through degree 6",
        td_multiplicative,
    )

    def sqrt_squares():
        td = chern.todd_class(E, 6)
        root = chern.sqrt_one_series(td)
        require_equal(
            root * root, td, "square root of the Todd class does not square back"
        )

    report.run(
        "charclass.sqrt_todd",
        "square root of the Todd class squares back, through degree 6",
        sqrt_squares,
    )

    def twist_formula():
        ch_E = chern.chern_character(E, 6)  # E is fixed; each line is drawn anew
        for _ in range(cfg.trials):
            line = S.random_homogeneous(rng, 1)
            lhs = chern.chern_character(chern.tensor_by_line(E, line), 6)
            lpow = powers(line, 6)
            exp_l = S.sum(lpow[k] * Fraction(1, math.factorial(k)) for k in range(7))
            rhs = ch_E * chern.CharClass(exp_l, 6)
            require_equal(lhs, rhs, "twist by a line bundle breaks ch")

    report.run(
        "charclass.ch_twist",
        "ch of a line-bundle twist is ch times the exponential",
        twist_formula,
    )
    return report


def suite_flop(cfg: SuiteConfig) -> Report:
    report = Report()
    for r in _ranks(cfg, 3):
        ctx = flop.FlopContext(r)
        report.extend(flop.verify_foundations(ctx), prefix=f"r{r}.")
        sub = flop.verify_multiplicativity(ctx, *ctx.formal_sigmas())
        report.extend(sub, prefix=f"r{r}.")
    return report


SUITE_RUNNERS = {
    "binomial": suite_binomial,
    "projbundle": suite_projbundle,
    "blowup": suite_blowup,
    "charclass": suite_charclass,
    "flop": suite_flop,
}


def run_suite(cfg: SuiteConfig) -> tuple[int, Report]:
    report = Report()
    if cfg.suite == "all":
        names = [s for s in SUITES if s != "all"]
    else:
        names = [cfg.suite]
    for name in names:
        report.extend(SUITE_RUNNERS[name](cfg))
    return (0 if report.ok else FAIL_EXIT), report


# -------------------------------------------------------------------- main


def _load_config_file(path: str) -> dict:
    """Keys as field names (``-`` to ``_``, ``format`` to ``fmt``), each once;
    the values of ``_INT_KEYS`` as ``int``."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = name.strip().replace("-", "_")
            key = "fmt" if key == "format" else key
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {name.strip()!r}")
            value = value.strip()
            try:
                values[key] = int(value) if key in _INT_KEYS else value
            except ValueError:
                msg = f"{name.strip()} must be an integer, got {value!r}"
                raise ValueError(f"{path}:{lineno}: {msg}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chow-verify",
        description="Run exact intersection-theory verification suites.",
    )
    parser.add_argument("suite", nargs="?", choices=SUITES)
    parser.add_argument("--r", type=int)
    parser.add_argument("--r-max", type=int, dest="r_max")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dim-bound", type=int, dest="dim_bound")
    parser.add_argument("--case")
    parser.add_argument("--format", choices=("text", "json"), dest="fmt")
    parser.add_argument("--out")
    parser.add_argument("--config", help="flat key=value file mirroring the flags")
    return parser


_KEYS = tuple(f.name for f in fields(SuiteConfig) if f.init)
_INT_KEYS = {"r", "r_max", "trials", "seed", "dim_bound"}


def parse_config(argv: list[str] | None) -> SuiteConfig:
    args = build_parser().parse_args(argv)
    values = _load_config_file(args.config) if args.config else {}
    for key in _KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if "suite" not in values:
        raise ValueError("no suite selected")
    unknown = set(values) - set(_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return SuiteConfig(**{k: v for k, v in values.items() if v is not None})


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(argv)
        # opened before the run, so an unwritable path costs no checks
        sink = open(cfg.out, "w") if cfg.out else contextlib.nullcontext(sys.stdout)
    except SystemExit as exc:  # argparse's own usage handling
        return USAGE_EXIT if exc.code else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    with sink as fh:
        status, report = run_suite(cfg)
        if cfg.fmt == "json":
            keys = ("suite", "seed", "trials", "case", "dim_bound")
            # case and dim_bound only when set
            meta = {k: getattr(cfg, k) for k in keys if getattr(cfg, k) is not None}
            # "mode" stays in the schema: the flop suite has one, formal, path
            text = report.to_json(mode="formal", **meta)
        else:
            text = report.to_text()
        fh.write(text + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
