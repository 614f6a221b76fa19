"""The Mukai-flop ring tower and the multiplicativity verification.

The tower for a flop of codimension r consists of a base ring CH(S) carrying
the Chern classes c_1..c_{r+1} of a rank-(r+1) bundle F, the two projective
bundles P = P(F) (class h) and P' = P(F dual) (class l), and the exceptional
locus E, presented over P' as the projective bundle of the rank-r bundle
G = Omega_{P'|S} tensor O(1) with relative class H.

The base is formal: CH(S) = Q[c_1..c_{r+1}].  Every quantity checked is
sigma-bilinear, sum_{k,j} sigma_k sigma'_j X_kj with X_kj over CH(S) and
deg sigma_k = r - k; the sigma_k sigma'_j are free over CH(S) (Fulton,
*Intersection Theory*, §3.2), so a :class:`SigmaTable` of the X_kj checks an
identity entrywise, for every specialised base.  Sigma are only formal: each
term returns its checked table, and a numeric sigma is a substitution into it.

Every intermediate identity of the multiplicativity computation is verified
by two independent routes (a raw expansion through pushforward tables, and
the closed form), and the headline check is that the three correction terms
add up exactly to the top sigma coefficient of the product, p_*(sigma.sigma').
Its entry (k, j) is read as tau_{k+j,r}, tau's column r being Segre classes,
and as p_*(h^{k+j}), over the convolution slots m = k + j >= r, each
p_*(h^m) reduced by the defining relation of P.  The two lemma tables, the
alternating Chern sums T1(j) and the eta'_* help sums, each have one owner on
the context, swept row by row by a recurrence: the build checks every cell it
keeps (the help sums' cells past k = r through the one-step identities of
eta'_* that telescope to them), and the raw routes of term_B and term_A read
the stored values.
"""

from __future__ import annotations

import operator
from functools import cached_property, partialmethod
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
        self.r = r
        self.F = generic_bundle(r + 1)
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
        The sweep carries (-1)^j lhs(j, q), so no cell is negated: q = 0 is
        checked against lpow[j], q >= 1 against l^j c_q(G), swept by l, and a
        failing cell's witness is lhs(j, q) - (-l)^j c_q(G)."""
        r, tau, pull, zero = self.r, self.P.tau, self.Pdual.pullback, self.Pdual.zero
        row = [
            self.Pdual.dot((self.G.c(r - n), pull(tau(n, r - q))) for n in range(r + 1))
            for q in range(r + 1)
        ]
        pulled = [pull(self.F.c(q + 1)) for q in range(r + 1)]
        swept = [self.G.c(q) for q in range(1, r + 1)]
        sums = []
        for j in range(r + 1):
            sign = (-1) ** j
            for q, (lhs, rhs) in enumerate(zip(row, [self.lpow[j], *swept])):
                if lhs != rhs:
                    require_equal(lhs * sign, rhs * sign, f"T1 identity fails at j={j}, q={q}")
            sums.append(-row[0] if sign < 0 else row[0])
            if j < r:
                tail = [*row[1:], zero]
                row = [pulled[q] * row[0] - t for q, t in enumerate(tail)]
                swept = [self.l * x for x in swept]
        return tuple(sums)

    def _help_table(self) -> MappingProxyType:
        """help(j, k) = sum_{i<j} (-1)^i l^i eta'_*(H^{k+j-i-1}) for j, k <= r,
        the entries term_A reads, each checked to be col[k+j] - (-l)^j col[k],
        col[k] = pull(tau_{k,r}).  The 2r one-step identities eta'_*(H^m) =
        col[m+1] + l col[m], m < 2r, telescope to the cells with k > r, which
        are never formed.  The row is swept in place by help(j+1, k) =
        eta'_*(H^{k+j}) - l help(j, k), one ``Pdual.sub`` of shift 1 that never
        reaches slot r + 1, and a cell is compared slot by slot: for (-l)^j =
        e l^s, the sign e and s >= 1 read from lpow[j], slot 0 holds
        tau_{k+j,r}, slot s holds -e tau_{k,r} and no other slot is stored; at
        (-l)^0 = 1 the cell is 0.  Any other cell meets ``require_equal``."""
        r, zero, one = self.r, self.S.zero, self.S.one
        col = [self.Pdual.pullback(self.P.tau(k, r)) for k in range(2 * r + 1)]
        self.E.segre(r)  # the top class the checks read: G's Segre list grows once
        push = self.E.pushforward_power  # eta'_*(H^k), through the Segre table of G
        for m in range(2 * r):
            message = f"eta'_* one-step identity fails at m={m}"
            require_equal(col[m + 1] - push(m), -(self.lpow[1] * col[m]), message)
        tau = [x.slots.get(0, zero) for x in col]
        signed = {1: [-t for t in tau[: r + 1]], -1: tau}  # slot s of cell k: -e tau_{k,r}
        row, table = [self.Pdual.zero] * (r + 1), {}
        for j in range(r + 1):
            lj = self.lpow[j] * (-1) ** j
            [(s, u)] = lj.slots.items() if len(lj.slots) == 1 else [(None, zero)]
            e, kept = 1 if u == one else -1 if u == -one else 0, {0, s}
            for k, lhs in enumerate(row):
                slots = lhs.slots
                if s:
                    held = e and slots.keys() <= kept and slots.get(0, zero) == tau[k + j] and (
                        slots.get(s, zero) == signed[e][k])
                else:
                    held = j == 0 and e == 1 and not slots
                if not held:
                    rhs = col[k + j] - lj * col[k]
                    require_equal(lhs, rhs, f"help-sum identity fails at j={j}, k={k}")
                table[j, k] = lhs
            if j < r:
                for k in range(r + 1):
                    row[k] = self.Pdual.sub(push(k + j), row[k], 1)
        return MappingProxyType(table)

    # each table is built, every cell checked, on first read, then kept
    t1_sums = cached_property(_t1_table)
    help_sums = cached_property(_help_table)

    # ------------------------------------------------------------- helpers

    def formal_sigmas(self) -> tuple[None, None]:
        """The formal sigma vectors, None each, the only sigma the checks
        take: a numeric sigma is a substitution into the terms' tables."""
        return None, None


class SigmaTable:
    """sum_{k,j} sigma_k sigma'_j X[k][j] for an (r+1) x (r+1) table X over
    CH(S) or CH(P'), deg sigma_k = r - k, with entrywise ``+``, ``-`` and
    ``==``.  A zero entry is the ring's zero, stored untested, and a zero right
    entry keeps the left one as it is."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(map(tuple, rows))

    def map(self, f) -> "SigmaTable":
        return SigmaTable(map(f, row) for row in self.rows)

    def _zip(self, other: "SigmaTable", op) -> "SigmaTable":
        pairs = zip(self.rows, other.rows)
        return SigmaTable([op(x, y) if y else x for x, y in zip(p, q)] for p, q in pairs)

    __add__ = partialmethod(_zip, op=operator.add)
    __sub__ = partialmethod(_zip, op=operator.sub)
    __neg__ = partialmethod(map, operator.neg)

    def __eq__(self, other) -> bool:
        return isinstance(other, SigmaTable) and self.rows == other.rows

    def __bool__(self) -> bool:
        return any(map(any, self.rows))

    def entries(self):
        """(k, j, X[k][j]) for every entry, the largest (k, j) first."""
        ks = range(len(self.rows) - 1, -1, -1)
        return ((k, j, self.rows[k][j]) for k in ks for j in ks)

    def is_homogeneous(self, d: int) -> bool:
        """Entry (k, j) homogeneous of degree d - (2r - k - j)."""
        shift = d - 2 * (len(self.rows) - 1)
        return all(x.is_homogeneous(shift + k + j) for k, j, x in self.entries())

    def __str__(self) -> str:
        return " + ".join(f"({x}) * a{k}*b{j}" for k, j, x in self.entries() if x) or "0"


def incidence(pb: ProjBundleRing, hyperplane: str) -> ProjBundleRing:
    """P(G) over pb = P(N), N of rank r + 1, for G = Omega_{pb|S} tensor O(1)
    of rank r, with c_i(G) from the closed twist formula."""
    r = pb.rank - 1
    chern = [pb.cotangent_twist_chern(i) for i in range(1, r + 1)]
    return ProjBundleRing(BundleClass(pb, r, chern), hyperplane=hyperplane)


# --------------------------------------------------------------- operations


def _top_row(ctx: FlopContext, row: dict) -> SigmaTable:
    """The table over CH(P') whose row r holds ``row`` (j -> X_rj), zero elsewhere."""
    zero, js = ctx.Pdual.zero, range(ctx.r + 1)
    return SigmaTable([*[[zero] * len(js)] * ctx.r, [row.get(j, zero) for j in js]])


def tau_pairing(ctx: FlopContext) -> SigmaTable:
    """Entry (k, j) is tau_{k+j,r} in CH(S), from the tau table, read from the
    top down so that the Segre list behind tau grows once."""
    r = ctx.r
    col = [ctx.P.tau(m, r) for m in range(2 * r, -1, -1)][::-1]
    return SigmaTable([col[k + j] for j in range(r + 1)] for k in range(r + 1))


def l_pairing(ctx: FlopContext) -> SigmaTable:
    """L: row r holds (-1)^j l^j in CH(P')."""
    return _top_row(ctx, {j: x * (-1) ** j for j, x in enumerate(ctx.lpow)})


def sigma_top_product(ctx: FlopContext) -> SigmaTable:
    """The top sigma coefficient of the product, cross-checked two ways."""
    top = tau_pairing(ctx)
    # independent route: entry (k, j) is p_*(h^m), m = k + j >= r, of the convolution slot m
    r, S = ctx.r, ctx.S
    rows = [[S.zero] * (r + 1) for _ in range(r + 1)]
    for m in range(r, 2 * r + 1):
        push = ctx.P.reduce({m: S.one}, stop=r).get(r, S.zero)
        for k in range(m - r, r + 1):
            rows[k][m - k] = push
    require_equal(top, SigmaTable(rows), "top sigma coefficient routes disagree")
    return top.map(ctx.Pdual.pullback)


def term_A(ctx: FlopContext) -> SigmaTable:
    """Correction term from the pure pullback products and the first mixed
    product, computed both raw (pushforward expansion) and in closed form."""
    ks = range(ctx.r + 1)
    closed = tau_pairing(ctx).map(ctx.Pdual.pullback) - l_pairing(ctx)
    # raw route: the pre-simplification double sum through eta'_* tables
    raw = SigmaTable([ctx.help_sums[j, k] for j in ks] for k in ks)
    require_equal(raw, closed, "first correction term: raw and closed routes disagree")
    return closed


def term_B(ctx: FlopContext) -> SigmaTable:
    """Correction term from the second mixed product; the defining sums T1(j)
    and T2 are compared against their closed forms before being used."""
    r = ctx.r
    # defining route
    t2_pairs = ((ctx.lpow[n] * (-1) ** (n + 1), ctx.G.c(r - n)) for n in range(r + 1))
    t2_raw = ctx.Pdual.dot(t2_pairs)
    t1 = ctx.t1_sums
    raw = _top_row(ctx, {**dict(enumerate(t1)), r: t1[r] + t2_raw})
    # closed route
    t2_closed = -cotangent_top_expansion(ctx)
    require_equal(t2_raw, t2_closed, "T2 closed form disagrees with its defining sum")
    closed = l_pairing(ctx) + _top_row(ctx, {r: t2_closed})
    require_equal(raw, closed, "second correction term: raw and closed routes disagree")
    return closed


def cotangent_top_expansion(ctx: FlopContext) -> PBElement:
    """c_r of the relative cotangent bundle of P', in expanded form."""
    r, pull, c = ctx.r, ctx.Pdual.pullback, ctx.F.c
    pairs = ((ctx.lpow[m], pull(c(r - m) * ((-1) ** m * (m + 1)))) for m in range(r + 1))
    return ctx.Pdual.dot(pairs)


def term_C(ctx: FlopContext) -> SigmaTable:
    """Correction term from the self-intersection of the pushed top classes;
    the cotangent class expansion is cross-checked against the generic
    cotangent Chern class formula of P'."""
    expansion, generic = cotangent_top_expansion(ctx), ctx.Pdual.cotangent_chern(ctx.r)
    message = "cotangent class expansion disagrees with the generic formula"
    require_equal(expansion, generic, message)
    return _top_row(ctx, {ctx.r: expansion})


# ------------------------------------------------------------ verification

# The anchor of every check of verify_foundations and verify_multiplicativity.
ANCHORS = {
    "foundations.eta_push_table": "pushforward of relative-class powers from E to P'",
    "foundations.e_relation": "defining relation of E reduces consistently",
    "foundations.quotient_class_push": "top Chern class of the universal quotient pushes to 1",
    "foundations.twist_chern_routes":
        "Chern classes of the twisted relative cotangent bundle, three routes",
    "foundations.fibre_square": "pushforward through the fibre product picks the top coefficient",
    "foundations.symmetry": "mirrored tower (dual bundle as center) reproduces the table",
    "flop.sigma_top_cross_route":
        "top sigma coefficient of a product, tau table vs direct product",
    "flop.t1_identity": "generalized alternating Chern sum identity, all admissible indices",
    "flop.help_sum_identity": "alternating pushforward sums vs tau closed form",
    "flop.term_A_routes": "pullback-product correction: pushforward expansion vs closed form",
    "flop.term_B_routes": "mixed-product correction: defining sums vs closed forms",
    "flop.term_C_routes": "self-intersection correction: expansion vs cotangent formula",
    "flop.homogeneity": "all four correction quantities homogeneous of the same degree",
    "flop.final_cancellation": "sum of the three correction terms equals the product correction",
}


def _run(report: Report, name: str, check):
    """``report.run`` of the check ``name``, with its anchor."""
    return report.run(name, ANCHORS[name], check)


def verify_multiplicativity(ctx: FlopContext, sa, sb) -> Report:
    """Check that the three correction terms add up to the top sigma
    coefficient of the product, including every dual-route sub-claim.  The
    sigma must be ``ctx.formal_sigmas()``; any other raises ``ValueError``."""
    if sa is not None or sb is not None:
        raise ValueError("sigma must be formal: pass ctx.formal_sigmas()")
    report = Report()
    rhs = _run(report, "flop.sigma_top_cross_route", lambda: sigma_top_product(ctx))
    _run(report, "flop.t1_identity", lambda: ctx.t1_sums)
    _run(report, "flop.help_sum_identity", lambda: ctx.help_sums)
    box = {
        "rhs": rhs,
        "A": _run(report, "flop.term_A_routes", lambda: term_A(ctx)),
        "B": _run(report, "flop.term_B_routes", lambda: term_B(ctx)),
        "C": _run(report, "flop.term_C_routes", lambda: term_C(ctx)),
    }

    def terms() -> list:
        """The four terms, in the order of ``box``."""
        missing = [k for k, v in box.items() if v is None]
        if missing:
            raise ConsistencyError(f"prerequisite terms missing: {missing}")
        return list(box.values())

    def homogeneity():
        for key, value in zip(box, terms()):
            if not value.is_homogeneous(ctx.r):
                raise ConsistencyError(f"term {key} is not homogeneous of degree r")

    def final():
        rhs, a, b, c = terms()
        require_equal(a + b + c, rhs, "multiplicativity cancellation fails")

    _run(report, "flop.homogeneity", homogeneity)
    _run(report, "flop.final_cancellation", final)
    return report


def verify_foundations(ctx: FlopContext) -> Report:
    """Run every foundational identity the multiplicativity proof rests on."""
    r = ctx.r

    def eta_table():
        hpow = powers(ctx.H, r)
        for k in range(r + 1):
            message = f"pushforward of H^{k}: Segre and reduction routes disagree"
            require_equal(ctx.E.pushforward_power(k), ctx.E.pushforward(hpow[k]), message)
        ctx.E.check_push_table(ctx.l - ctx.Pdual.pullback(ctx.F.c(1)))

    def relation_consistency():
        one_shot = ctx.E.element({r + 1: ctx.Pdual.one})
        stepwise = ctx.H ** r * ctx.H
        require_equal(one_shot, stepwise, "reducing H^{r+1} two ways disagrees")

    def quotient_class_push():
        message = "top quotient-bundle class does not push forward to 1"
        require_equal(ctx.E.pushforward(cw_top(ctx.E)), ctx.Pdual.one, message)

    def twist_chern_routes():
        via_tensor = ctx.Pdual.cotangent_twist_via_tensor()
        for i in range(r + 1):
            message = f"twisted cotangent Chern class c_{i} routes disagree"
            require_equal(ctx.G.c(i), via_tensor[i], message)

    def fibre_square():
        # sum_k sigma_k p_*(h^k) = sigma_r, compared coefficient by coefficient of the a_k
        for k in range(r + 1):
            lhs = ctx.Pdual.pullback(ctx.P.pushforward_power(k))
            rhs = ctx.Pdual.one if k == r else ctx.Pdual.zero
            require_equal(lhs, rhs, f"fibre-square pushforward identity fails at a{k}")

    def symmetry():
        # Mirror tower: E presented over P instead of P'.
        Em = incidence(ctx.P, "L")
        Em.check_push_table(ctx.P.h - ctx.P.pullback(dual_bundle(ctx.F).c(1)))

    report = Report()
    _run(report, "foundations.eta_push_table", eta_table)
    _run(report, "foundations.e_relation", relation_consistency)
    _run(report, "foundations.quotient_class_push", quotient_class_push)
    _run(report, "foundations.twist_chern_routes", twist_chern_routes)
    _run(report, "foundations.fibre_square", fibre_square)
    _run(report, "foundations.symmetry", symmetry)
    return report
