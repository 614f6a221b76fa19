"""The Mukai-flop ring tower and the multiplicativity verification.

The tower for a flop of codimension r consists of a base ring CH(S) carrying
the Chern classes c_1..c_{r+1} of a rank-(r+1) bundle F, the two projective
bundles P = P(F) (class h) and P' = P(F dual) (class l), and the exceptional
locus E, presented over P' as the projective bundle of the rank-r bundle
G = Omega_{P'|S} tensor O(1) with relative class H.

The base is formal: the c_i and both sigma vectors (tuples of base
elements) are free generators, so a pass holds for every specialised base.

Every intermediate identity of the multiplicativity computation is verified
by two independent routes (a raw expansion through pushforward tables, and
the closed form), and the headline check is that the three correction terms
add up exactly to the top sigma coefficient of the product, p_*(sigma.sigma').
That is read as sum_{k,j} sigma_k sigma'_j tau_{k+j,r}, tau's column r being
Segre classes, and as sum_m x_m p_*(h^m) over the convolution slots x_m, each
p_*(h^m) reduced by the defining relation of P.  The two lemma tables, the
alternating Chern sums T1(j) and the eta'_* help sums, each have one owner on
the context, swept row by row by a recurrence: the build checks every cell,
and the raw routes of term_B and term_A read the stored values.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

from .chern import BundleClass, dual_bundle, generic_bundle
from .errors import ConsistencyError, require_equal
from .projbundle import PBElement, ProjBundleRing, cw_top
from .report import Report
from .rings import powers


class FlopContext:
    """The ring tower CH(S), CH(P), CH(P'), CH(E) for codimension r."""

    def __init__(self, r: int):
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        sigmas = [(f"{s}{k}", r - k) for s in "ab" for k in range(r + 1)]
        self.r = r
        self.F = generic_bundle(r + 1, extra=sigmas)
        self.S = self.F.ring
        self.P = ProjBundleRing(self.F)
        self.Pdual = ProjBundleRing(dual_bundle(self.F), hyperplane="l")
        self.l = self.Pdual.h
        # l^0 .. l^r, the one table every sum over powers of l reads
        self.lpow = powers(self.l, r)
        self.E = incidence(self.Pdual, "H")
        self.G = self.E.bundle
        self.H = self.E.h

    # ------------------------------------------------------- checked tables

    def _t1_table(self) -> tuple:
        """T1(j) = sum_n c_{r-n}(G) . pull(tau_{n+j,r}) for j <= r, the sums
        term_B reads.  Row j holds the same sums lhs(j, q) over tau_{n+j,r-q}
        for q <= r, row 0 by definition and row j+1 by the tau recursion as
        lhs(j, q+1) - pull(c_{q+1}(F)) . lhs(j, 0), where lhs(j, r+1) = 0.
        Every cell is checked against (-l)^j c_q(G), q >= 1 swept by -l, q = 0 from lpow."""
        r, tau, pull, zero = self.r, self.P.tau, self.Pdual.pullback, self.Pdual.zero
        row = [
            self.Pdual.dot((self.G.c(r - n), pull(tau(n, r - q))) for n in range(r + 1))
            for q in range(r + 1)
        ]
        swept = [self.G.c(q) for q in range(1, r + 1)]
        sums = []
        for j in range(r + 1):
            for q, (lhs, rhs) in enumerate(zip(row, [self.lpow[j] * (-1) ** j, *swept])):
                require_equal(lhs, rhs, f"T1 identity fails at j={j}, q={q}")
            sums.append(row[0])
            if j < r:
                tail = [*row[1:], zero]
                row = [t - pull(self.F.c(q + 1)) * row[0] for q, t in enumerate(tail)]
                swept = [-(self.l * x) for x in swept]
        return tuple(sums)

    def _help_table(self) -> MappingProxyType:
        """help(j, k) = sum_{i<j} (-1)^i l^i eta'_*(H^{k+j-i-1}) for j, k <= r,
        the entries term_A reads.  Row j is swept from help(0, k) = 0 by
        help(j+1, k) = eta'_*(H^{k+j}) - l . help(j, k), and every k <= 2r - j
        is checked against col[k+j] - (-1)^j l^j col[k], col[k] = pull(tau_{k,r})
        formed once for k <= 2r and (-1)^j l^j once per row."""
        r = self.r
        col = [self.Pdual.pullback(self.P.tau(k, r)) for k in range(2 * r + 1)]
        self.E.segre(r)  # the top class the sweep reads: G's Segre list grows once
        push = self.E.pushforward_power  # eta'_*(H^k), through the Segre table of G
        row = [self.Pdual.zero] * (2 * r + 1)
        table = {}
        for j in range(r + 1):
            lj = self.lpow[j] * (-1) ** j
            for k, lhs in enumerate(row):
                rhs = col[k + j] - lj * col[k]
                require_equal(lhs, rhs, f"help-sum identity fails at j={j}, k={k}")
                if k <= r:
                    table[j, k] = lhs
            if j < r:
                row = [push(k + j) - self.l * row[k] for k in range(2 * r - j)]
        return MappingProxyType(table)

    # each table is built, every cell checked, on first read, then kept
    t1_sums = cached_property(_t1_table)
    help_sums = cached_property(_help_table)

    # ------------------------------------------------------------- helpers

    def sigma(self, values) -> tuple:
        values = tuple(self.S.one * v for v in values)
        if len(values) != self.r + 1:
            raise ValueError(f"sigma vector must have length {self.r + 1}")
        return values

    def formal_sigmas(self) -> tuple[tuple, tuple]:
        return tuple(tuple(self.S.gen(f"{x}{k}") for k in range(self.r + 1)) for x in "ab")


def incidence(pb: ProjBundleRing, hyperplane: str) -> ProjBundleRing:
    """P(G) over pb = P(N), N of rank r + 1, for G = Omega_{pb|S} tensor O(1)
    of rank r, with c_i(G) from the closed twist formula."""
    r = pb.rank - 1
    chern = [pb.cotangent_twist_chern(i) for i in range(1, r + 1)]
    return ProjBundleRing(BundleClass(pb, r, chern), hyperplane=hyperplane)


# --------------------------------------------------------------- operations


def tau_pairing(ctx: FlopContext, sa: tuple, sb: tuple):
    """sum_{k,j} sigma_k sigma'_j tau_{k+j,r} in CH(S), from the tau table,
    read from the top down so that the Segre list behind tau grows once."""
    ks = range(ctx.r, -1, -1)
    return ctx.S.dot((sa[k] * sb[j], ctx.P.tau(k + j, ctx.r)) for k in ks for j in ks)


def l_pairing(ctx: FlopContext, sa: tuple, sb: tuple) -> PBElement:
    """L = sum_j pull(sigma_r sigma'_j) (-1)^j l^j in CH(P')."""
    pull, r = ctx.Pdual.pullback, ctx.r
    return ctx.Pdual.dot((pull(sa[r] * sb[j] * (-1) ** j), ctx.lpow[j]) for j in range(r + 1))


def sigma_top_product(ctx: FlopContext, sa: tuple, sb: tuple) -> PBElement:
    """The top sigma coefficient of the product, cross-checked two ways."""
    top = tau_pairing(ctx, sa, sb)
    # independent route: x_m = sum_{k+j=m} sigma_k sigma'_j against p_*(h^m), m >= r
    r, S, ms = ctx.r, ctx.S, range(ctx.r, 2 * ctx.r + 1)
    slots = [S.dot((sa[k], sb[m - k]) for k in range(m - r, r + 1)) for m in ms]
    pushes = [ctx.P.reduce({m: S.one}, stop=r).get(r, S.zero) for m in ms]
    direct = S.dot(zip(slots, pushes))
    require_equal(top, direct, "top sigma coefficient routes disagree")
    return ctx.Pdual.pullback(top)


def term_A(ctx: FlopContext, sa: tuple, sb: tuple) -> PBElement:
    """Correction term from the pure pullback products and the first mixed
    product, computed both raw (pushforward expansion) and in closed form."""
    ks, pull = range(ctx.r + 1), ctx.Pdual.pullback
    closed = pull(tau_pairing(ctx, sa, sb)) - l_pairing(ctx, sa, sb)
    # raw route: the pre-simplification double sum through eta'_* tables
    raw = ctx.Pdual.dot((pull(sa[k] * sb[j]), ctx.help_sums[j, k]) for k in ks for j in ks)
    require_equal(raw, closed, "first correction term: raw and closed routes disagree")
    return closed


def term_B(ctx: FlopContext, sa: tuple, sb: tuple) -> PBElement:
    """Correction term from the second mixed product; the defining sums T1(j)
    and T2 are compared against their closed forms before being used."""
    r = ctx.r
    pull = ctx.Pdual.pullback
    # defining route
    t2_pairs = ((ctx.lpow[n] * (-1) ** (n + 1), ctx.G.c(r - n)) for n in range(r + 1))
    t2_raw = ctx.Pdual.dot(t2_pairs)
    t1_pairs = ((pull(sa[r] * sb[j]), ctx.t1_sums[j]) for j in range(r + 1))
    raw = ctx.Pdual.dot((*t1_pairs, (pull(sa[r] * sb[r]), t2_raw)))
    # closed route
    t2_closed = -cotangent_top_expansion(ctx)
    require_equal(t2_raw, t2_closed, "T2 closed form disagrees with its defining sum")
    closed = l_pairing(ctx, sa, sb) + pull(sa[r] * sb[r]) * t2_closed
    require_equal(
        raw, closed, "second correction term: raw and closed routes disagree"
    )
    return closed


def cotangent_top_expansion(ctx: FlopContext) -> PBElement:
    """c_r of the relative cotangent bundle of P', in expanded form."""
    r, pull, c = ctx.r, ctx.Pdual.pullback, ctx.F.c
    pairs = ((ctx.lpow[m], pull(c(r - m) * ((-1) ** m * (m + 1)))) for m in range(r + 1))
    return ctx.Pdual.dot(pairs)


def term_C(ctx: FlopContext, sa: tuple, sb: tuple) -> PBElement:
    """Correction term from the self-intersection of the pushed top classes;
    the cotangent class expansion is cross-checked against the generic
    cotangent Chern class formula of P'."""
    expansion = cotangent_top_expansion(ctx)
    generic = ctx.Pdual.cotangent_chern(ctx.r)
    require_equal(
        expansion,
        generic,
        "cotangent class expansion disagrees with the generic formula",
    )
    return ctx.Pdual.pullback(sa[ctx.r] * sb[ctx.r]) * expansion


# ------------------------------------------------------------ verification


def verify_multiplicativity(ctx: FlopContext, sa: tuple, sb: tuple) -> Report:
    """Check that the three correction terms add up to the top sigma
    coefficient of the product, including every dual-route sub-claim."""
    report = Report()
    rhs = report.run(
        "flop.sigma_top_cross_route",
        "top sigma coefficient of a product, tau table vs direct product",
        lambda: sigma_top_product(ctx, sa, sb),
    )
    report.run(
        "flop.t1_identity",
        "generalized alternating Chern sum identity, all admissible indices",
        lambda: ctx.t1_sums,
    )
    report.run(
        "flop.help_sum_identity",
        "alternating pushforward sums vs tau closed form",
        lambda: ctx.help_sums,
    )
    box = {
        "rhs": rhs,
        "A": report.run(
            "flop.term_A_routes",
            "pullback-product correction: pushforward expansion vs closed form",
            lambda: term_A(ctx, sa, sb),
        ),
        "B": report.run(
            "flop.term_B_routes",
            "mixed-product correction: defining sums vs closed forms",
            lambda: term_B(ctx, sa, sb),
        ),
        "C": report.run(
            "flop.term_C_routes",
            "self-intersection correction: expansion vs cotangent formula",
            lambda: term_C(ctx, sa, sb),
        ),
    }

    def terms() -> list[PBElement]:
        """The four terms, in the order of ``box``."""
        missing = [k for k, v in box.items() if v is None]
        if missing:
            raise ConsistencyError(f"prerequisite terms missing: {missing}")
        return list(box.values())

    def homogeneity():
        for key, value in zip(box, terms()):
            if not value.is_homogeneous(ctx.r):
                raise ConsistencyError(f"term {key} is not homogeneous of degree r")

    report.run(
        "flop.homogeneity",
        "all four correction quantities homogeneous of the same degree",
        homogeneity,
    )

    def final():
        rhs, a, b, c = terms()
        require_equal(a + b + c, rhs, "multiplicativity cancellation fails")

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
        hpow = powers(ctx.H, r)
        for k in range(r + 1):
            via_segre = ctx.E.pushforward_power(k)
            via_reduce = ctx.E.pushforward(hpow[k])
            require_equal(
                via_segre,
                via_reduce,
                f"pushforward of H^{k}: Segre and reduction routes disagree",
            )
        ctx.E.check_push_table(ctx.l - ctx.Pdual.pullback(ctx.F.c(1)))

    report.run(
        "foundations.eta_push_table",
        "pushforward of relative-class powers from E to P'",
        eta_table,
    )

    def relation_consistency():
        one_shot = ctx.E.element({r + 1: ctx.Pdual.one})
        stepwise = ctx.H ** r * ctx.H
        require_equal(one_shot, stepwise, "reducing H^{r+1} two ways disagrees")

    report.run(
        "foundations.e_relation",
        "defining relation of E reduces consistently",
        relation_consistency,
    )

    def quotient_class_push():
        require_equal(
            ctx.E.pushforward(cw_top(ctx.E)),
            ctx.Pdual.one,
            "top quotient-bundle class does not push forward to 1",
        )

    report.run(
        "foundations.quotient_class_push",
        "top Chern class of the universal quotient pushes to 1",
        quotient_class_push,
    )

    def twist_chern_routes():
        via_tensor = ctx.Pdual.cotangent_twist_via_tensor()
        for i in range(r + 1):
            message = f"twisted cotangent Chern class c_{i} routes disagree"
            require_equal(ctx.G.c(i), via_tensor[i], message)

    report.run(
        "foundations.twist_chern_routes",
        "Chern classes of the twisted relative cotangent bundle, three routes",
        twist_chern_routes,
    )

    def fibre_square():
        sa, _ = ctx.formal_sigmas()
        acc = ctx.S.dot((sa[k], ctx.P.pushforward_power(k)) for k in range(r + 1))
        lhs = ctx.Pdual.pullback(acc)
        rhs = ctx.Pdual.pullback(sa[r])
        require_equal(lhs, rhs, "fibre-square pushforward identity fails")

    report.run(
        "foundations.fibre_square",
        "pushforward through the fibre product picks the top coefficient",
        fibre_square,
    )

    def symmetry():
        # Mirror tower: E presented over P instead of P'.
        Em = incidence(ctx.P, "L")
        Em.check_push_table(ctx.P.h - ctx.P.pullback(dual_bundle(ctx.F).c(1)))

    report.run(
        "foundations.symmetry",
        "mirrored tower (dual bundle as center) reproduces the table",
        symmetry,
    )
    return report
