"""The Mukai-flop ring tower and the multiplicativity verification.

The tower for a flop of codimension r consists of a base ring CH(S) carrying
the Chern classes c_1..c_{r+1} of a rank-(r+1) bundle F, the two projective
bundles P = P(F) (class h) and P' = P(F dual) (class l), and the exceptional
locus E, presented over P' as the projective bundle of the rank-r bundle
G = Omega_{P'|S} tensor O(1) with relative class H.

Every intermediate identity of the multiplicativity computation is verified
by two independent routes (a raw expansion through pushforward tables, and
the closed form), and the headline check is that the three correction terms
add up exactly to the top sigma coefficient of the product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .chern import BundleClass, dual_bundle
from .errors import ConsistencyError
from .projbundle import PBElement, ProjBundleRing
from .report import Report
from .rings import GradedRing


@dataclass
class SigmaVector:
    """Base-ring coefficients sigma_0..sigma_r of a restricted class."""

    values: tuple

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int):
        return self.values[k]


@dataclass
class CorrectionClass:
    """The argument of the pushforward from P' in a correction term."""

    value: PBElement

    def __add__(self, other: "CorrectionClass") -> "CorrectionClass":
        return CorrectionClass(self.value + other.value)

    def __sub__(self, other: "CorrectionClass") -> "CorrectionClass":
        return CorrectionClass(self.value - other.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CorrectionClass):
            return NotImplemented
        return self.value == other.value


class FlopContext:
    """The ring tower CH(S), CH(P), CH(P'), CH(E) for codimension r."""

    def __init__(
        self,
        r: int,
        mode: str = "formal",
        base: GradedRing | None = None,
        chern_values: list | None = None,
    ):
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        if mode == "formal":
            gens = [(f"c{i}", i) for i in range(1, r + 2)]
            for k in range(r + 1):
                gens.append((f"a{k}", r - k))
            for k in range(r + 1):
                gens.append((f"b{k}", r - k))
            S = GradedRing(gens)
            chern = [S.gen(f"c{i}") for i in range(1, r + 2)]
        elif mode == "numeric":
            if base is None or chern_values is None:
                raise ValueError("numeric mode needs a base ring and Chern values")
            S = base
            chern = list(chern_values)
            if len(chern) != r + 1:
                raise ValueError(f"expected {r + 1} Chern values, got {len(chern)}")
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.r = r
        self.mode = mode
        self.S = S
        self.F = BundleClass(S, r + 1, chern)  # homogeneity validated here
        self.P = ProjBundleRing(S, self.F, hyperplane="h")
        self.Pdual = ProjBundleRing(S, dual_bundle(self.F), hyperplane="l")
        self.l = self.Pdual.h
        # G = Omega_{P'|S} tensor O_{P'}(1), rank r, via the twist formula
        g_chern = [self.Pdual.cotangent_twist_chern(i) for i in range(1, r + 1)]
        self.G = BundleClass(self.Pdual, r, g_chern)
        self.E = ProjBundleRing(self.Pdual, self.G, hyperplane="H")
        self.H = self.E.h

    # ------------------------------------------------------------- helpers

    def sigma(self, values) -> SigmaVector:
        values = tuple(
            self.S.one * v if isinstance(v, (int, Fraction)) else v for v in values
        )
        if len(values) != self.r + 1:
            raise ValueError(f"sigma vector must have length {self.r + 1}")
        return SigmaVector(values)

    def formal_sigmas(self) -> tuple[SigmaVector, SigmaVector]:
        if self.mode != "formal":
            raise ValueError("formal sigma vectors exist only in formal mode")
        sa = self.sigma([self.S.gen(f"a{k}") for k in range(self.r + 1)])
        sb = self.sigma([self.S.gen(f"b{k}") for k in range(self.r + 1)])
        return sa, sb

    def random_sigma(self, rng, coeff_range=(-9, 9)) -> SigmaVector:
        return self.sigma(
            [
                self._random_base(rng, self.r - k, coeff_range)
                for k in range(self.r + 1)
            ]
        )

    def _random_base(self, rng, degree: int, coeff_range):
        if self.mode != "formal":
            return self.S.random_homogeneous(rng, degree, coeff_range)
        # sample in the Chern subring: the sigma generators of the formal
        # base include degree-0 ones, which cannot be enumerated
        if not hasattr(self, "_chern_subring"):
            self._chern_subring = GradedRing(
                [(f"c{i}", i) for i in range(1, self.r + 2)]
            )
            self._chern_images = {
                f"c{i}": self.S.gen(f"c{i}") for i in range(1, self.r + 2)
            }
        draw = self._chern_subring.random_homogeneous(rng, degree, coeff_range)
        return draw.substitute(self._chern_images, self.S)


# --------------------------------------------------------------- operations


def sigma_top_product(
    ctx: FlopContext, sa: SigmaVector, sb: SigmaVector
) -> CorrectionClass:
    """The top sigma coefficient of the product, cross-checked two ways."""
    r = ctx.r
    top = ctx.S.zero
    for k in range(r + 1):
        for j in range(r + 1):
            top = top + sa[k] * sb[j] * ctx.P.tau(k + j, r)
    # independent route: multiply in CH(P) and read the top coefficient
    a = PBElement(ctx.P, sa.values)
    b = PBElement(ctx.P, sb.values)
    direct = (a * b).coeffs[r]
    if top != direct:
        raise ConsistencyError(
            "top sigma coefficient routes disagree", witness=str(top - direct)
        )
    return CorrectionClass(ctx.Pdual.pullback(top))


def _help_sum(ctx: FlopContext, j: int, k: int) -> PBElement:
    """sum_{i<j} (-1)^i l^i eta'_*(H^{k+j-i-1}), through the Segre table of G."""
    out = ctx.Pdual.zero
    lpow = ctx.Pdual.one
    for i in range(j):
        out = out + lpow * ctx.E.pushforward_power(k + j - i - 1) * (-1) ** i
        lpow = lpow * ctx.l
    return out


def help_sum_check(ctx: FlopContext, j: int, k: int) -> None:
    """Alternating pushforward sum vs its closed form in the tau table."""
    lhs = _help_sum(ctx, j, k)
    rhs = (
        ctx.Pdual.pullback(ctx.P.tau(k + j, ctx.r))
        + ctx.l ** j * ctx.Pdual.pullback(ctx.P.tau(k, ctx.r)) * (-1) ** (j + 1)
    )
    if lhs != rhs:
        raise ConsistencyError(
            f"help-sum identity fails at j={j}, k={k}", witness=str(lhs - rhs)
        )


def term_A(ctx: FlopContext, sa: SigmaVector, sb: SigmaVector) -> CorrectionClass:
    """Correction term from the pure pullback products and the first mixed
    product, computed both raw (pushforward expansion) and in closed form."""
    r = ctx.r
    pull = ctx.Pdual.pullback
    closed = ctx.Pdual.zero
    for k in range(r + 1):
        for j in range(r + 1):
            closed = closed + pull(sa[k] * sb[j] * ctx.P.tau(k + j, r))
    lpow = ctx.Pdual.one
    for j in range(r + 1):
        closed = closed + pull(sa[r] * sb[j]) * lpow * (-1) ** (j + 1)
        lpow = lpow * ctx.l
    # raw route: the pre-simplification double sum through eta'_* tables
    raw = ctx.Pdual.zero
    for k in range(r + 1):
        for j in range(r + 1):
            raw = raw + pull(sa[k] * sb[j]) * _help_sum(ctx, j, k)
    if raw != closed:
        raise ConsistencyError(
            "first correction term: raw and closed routes disagree",
            witness=str(raw - closed),
        )
    return CorrectionClass(closed)


def _t1_sum(ctx: FlopContext, j: int, col: int) -> PBElement:
    """sum_n c_{r-n}(G) . pull(tau_{n+j, col}) in CH(P')."""
    out = ctx.Pdual.zero
    for n in range(ctx.r + 1):
        out = out + ctx.G.c(ctx.r - n) * ctx.Pdual.pullback(ctx.P.tau(n + j, col))
    return out


def t1_check(ctx: FlopContext, j: int, q: int) -> None:
    """The generalized alternating-sum identity for the G-Chern sums."""
    lhs = _t1_sum(ctx, j, ctx.r - q)
    rhs = ctx.l ** j * ctx.G.c(q) * (-1) ** j
    if lhs != rhs:
        raise ConsistencyError(
            f"T1 identity fails at j={j}, q={q}", witness=str(lhs - rhs)
        )


def term_B(ctx: FlopContext, sa: SigmaVector, sb: SigmaVector) -> CorrectionClass:
    """Correction term from the second mixed product; the defining sums T1(j)
    and T2 are compared against their closed forms before being used."""
    r = ctx.r
    pull = ctx.Pdual.pullback
    # defining route
    t2_raw = ctx.Pdual.zero
    lpow = ctx.Pdual.one
    for n in range(r + 1):
        t2_raw = t2_raw + lpow * ctx.G.c(r - n) * (-1) ** (n + 1)
        lpow = lpow * ctx.l
    raw = ctx.Pdual.zero
    for j in range(r + 1):
        raw = raw + pull(sa[r] * sb[j]) * _t1_sum(ctx, j, r)
    raw = raw + pull(sa[r] * sb[r]) * t2_raw
    # closed route
    t2_closed = -cotangent_top_expansion(ctx)
    if t2_raw != t2_closed:
        raise ConsistencyError(
            "T2 closed form disagrees with its defining sum",
            witness=str(t2_raw - t2_closed),
        )
    closed = ctx.Pdual.zero
    lpow = ctx.Pdual.one
    for j in range(r + 1):
        closed = closed + pull(sa[r] * sb[j]) * lpow * (-1) ** j
        lpow = lpow * ctx.l
    closed = closed + pull(sa[r] * sb[r]) * t2_closed
    if raw != closed:
        raise ConsistencyError(
            "second correction term: raw and closed routes disagree",
            witness=str(raw - closed),
        )
    return CorrectionClass(closed)


def cotangent_top_expansion(ctx: FlopContext) -> PBElement:
    """c_r of the relative cotangent bundle of P', in expanded form."""
    out = ctx.Pdual.zero
    lpow = ctx.Pdual.one
    for m in range(ctx.r + 1):
        out = out + lpow * ctx.Pdual.pullback(ctx.F.c(ctx.r - m)) * (
            (-1) ** m * (m + 1)
        )
        lpow = lpow * ctx.l
    return out


def term_C(ctx: FlopContext, sa: SigmaVector, sb: SigmaVector) -> CorrectionClass:
    """Correction term from the self-intersection of the pushed top classes;
    the cotangent class expansion is cross-checked against the generic
    cotangent Chern class formula of P'."""
    expansion = cotangent_top_expansion(ctx)
    generic = ctx.Pdual.cotangent_chern(ctx.r)
    if expansion != generic:
        raise ConsistencyError(
            "cotangent class expansion disagrees with the generic formula",
            witness=str(expansion - generic),
        )
    return CorrectionClass(ctx.Pdual.pullback(sa[ctx.r] * sb[ctx.r]) * expansion)


def zstar_correction(ctx: FlopContext, sigma: SigmaVector) -> CorrectionClass:
    """The pushforward-correction summand of the flop correspondence; the
    strict-transform summand is not computable from sigma alone."""
    return CorrectionClass(ctx.Pdual.pullback(sigma[ctx.r]))


# ------------------------------------------------------------ verification


def verify_multiplicativity(
    ctx: FlopContext, sa: SigmaVector, sb: SigmaVector
) -> Report:
    """Check that the three correction terms add up to the top sigma
    coefficient of the product, including every dual-route sub-claim."""
    report = Report()
    box: dict[str, CorrectionClass] = {}

    def store(key, fn):
        def run():
            box[key] = fn(ctx, sa, sb)

        return run

    report.run(
        "flop.sigma_top_cross_route",
        "top sigma coefficient of a product, tau table vs direct product",
        store("rhs", sigma_top_product),
    )
    report.run(
        "flop.term_A_routes",
        "pullback-product correction: pushforward expansion vs closed form",
        store("A", term_A),
    )
    report.run(
        "flop.term_B_routes",
        "mixed-product correction: defining sums vs closed forms",
        store("B", term_B),
    )
    report.run(
        "flop.term_C_routes",
        "self-intersection correction: expansion vs cotangent formula",
        store("C", term_C),
    )

    def t1_all():
        for j in range(ctx.r + 1):
            for q in range(ctx.r + 1):
                t1_check(ctx, j, q)

    report.run(
        "flop.t1_identity",
        "generalized alternating Chern sum identity, all admissible indices",
        t1_all,
    )

    def help_sums():
        for j in range(ctx.r + 1):
            for k in range(2 * ctx.r - j + 1):
                help_sum_check(ctx, j, k)

    report.run(
        "flop.help_sum_identity",
        "alternating pushforward sums vs tau closed form",
        help_sums,
    )

    def homogeneity():
        if not all(
            v.is_homogeneous(ctx.r - k) or v.is_zero()
            for vec in (sa, sb)
            for k, v in enumerate(vec.values)
        ):
            return  # ungraded stress mode: nothing to assert
        missing = [k for k in ("rhs", "A", "B", "C") if k not in box]
        if missing:
            raise ConsistencyError(f"prerequisite terms missing: {missing}")
        for key in ("rhs", "A", "B", "C"):
            value = box[key].value
            if not (value.is_homogeneous(ctx.r) or value.is_zero()):
                raise ConsistencyError(f"term {key} is not homogeneous of degree r")

    report.run(
        "flop.homogeneity",
        "all four correction quantities homogeneous of the same degree",
        homogeneity,
    )

    def final():
        missing = [k for k in ("rhs", "A", "B", "C") if k not in box]
        if missing:
            raise ConsistencyError(f"prerequisite terms missing: {missing}")
        diff = (box["A"] + box["B"] + box["C"] - box["rhs"]).value
        if diff:
            raise ConsistencyError(
                "multiplicativity cancellation fails", witness=str(diff)
            )

    report.run(
        "flop.final_cancellation",
        "sum of the three correction terms equals the product correction",
        final,
    )
    return report


def verify_foundations(ctx: FlopContext) -> Report:
    """Run every foundational identity the multiplicativity proof rests on."""
    report = Report()
    r = ctx.r

    def eta_table():
        for k in range(r + 1):
            via_segre = ctx.E.pushforward_power(k)
            via_reduce = ctx.E.pushforward(ctx.H ** k)
            if via_segre != via_reduce:
                raise ConsistencyError(
                    f"pushforward of H^{k}: Segre and reduction routes disagree",
                    witness=str(via_segre - via_reduce),
                )
        ctx.E.check_push_table(ctx.l - ctx.Pdual.pullback(ctx.F.c(1)))

    report.run(
        "foundations.eta_push_table",
        "pushforward of relative-class powers from E to P'",
        eta_table,
    )

    def relation_consistency():
        one_shot = ctx.E.element([ctx.Pdual.zero] * (r + 1) + [ctx.Pdual.one])
        stepwise = ctx.H ** r * ctx.H
        if one_shot != stepwise:
            raise ConsistencyError(
                "reducing H^{r+1} two ways disagrees",
                witness=str(one_shot - stepwise),
            )

    report.run(
        "foundations.e_relation",
        "defining relation of E reduces consistently",
        relation_consistency,
    )

    def quotient_class_push():
        from .blowup import cw_top

        cw = cw_top(ctx.E)
        if ctx.E.pushforward(cw) != ctx.Pdual.one:
            raise ConsistencyError(
                "top quotient-bundle class does not push forward to 1",
                witness=str(ctx.E.pushforward(cw) - ctx.Pdual.one),
            )

    report.run(
        "foundations.quotient_class_push",
        "top Chern class of the universal quotient pushes to 1",
        quotient_class_push,
    )

    def twist_chern_routes():
        for i in range(r + 1):
            closed = ctx.G.c(i)
            tensor = ctx.Pdual.cotangent_twist_via_tensor(i)
            if closed != tensor:
                raise ConsistencyError(
                    f"twisted cotangent Chern class c_{i} routes disagree",
                    witness=str(closed - tensor),
                )

    report.run(
        "foundations.twist_chern_routes",
        "Chern classes of the twisted relative cotangent bundle, three routes",
        twist_chern_routes,
    )

    def fibre_square():
        if ctx.mode == "formal":
            sa, _ = ctx.formal_sigmas()
        else:
            sa = ctx.random_sigma(random.Random(0))
        acc = ctx.S.zero
        for k in range(r + 1):
            acc = acc + sa[k] * ctx.P.pushforward_power(k)
        lhs = ctx.Pdual.pullback(acc)
        rhs = ctx.Pdual.pullback(sa[r])
        if lhs != rhs:
            raise ConsistencyError(
                "fibre-square pushforward identity fails", witness=str(lhs - rhs)
            )

    report.run(
        "foundations.fibre_square",
        "pushforward through the fibre product picks the top coefficient",
        fibre_square,
    )

    def symmetry():
        # Mirror tower: E presented over P instead of P'.
        gm_chern = [ctx.P.cotangent_twist_chern(i) for i in range(1, r + 1)]
        Em = ProjBundleRing(ctx.P, BundleClass(ctx.P, r, gm_chern), hyperplane="L")
        Em.check_push_table(ctx.P.h - ctx.P.pullback(dual_bundle(ctx.F).c(1)))

    report.run(
        "foundations.symmetry",
        "mirrored tower (dual bundle as center) reproduces the table",
        symmetry,
    )
    return report
