"""Acceptance suite: one criterion per test, with explicit time bounds.

Each test prints a single PASS/FAIL line (run pytest with -s or rely on
captured output shown for failures)."""

import random
import time
from fractions import Fraction

import chowcalc.chern as chern_mod
import chowcalc.flop as flop_mod
import chowcalc.projbundle as pb_mod
from chowcalc import (
    BlowupRing,
    BundleClass,
    FlopContext,
    GradedRing,
    ProjBundleRing,
    binomial_identity_check,
    chern_character,
    cw_top,
    key_formula_check,
    linear_blowup,
    segre_classes,
    sqrt_one_series,
    todd_class,
    verify_multiplicativity,
    whitney_sum,
)


def criterion(number, description, bound_seconds, fn):
    start = time.perf_counter()
    try:
        fn()
        elapsed = time.perf_counter() - start
        ok = elapsed < bound_seconds
        verdict = "PASS" if ok else "FAIL"
        print(
            f"{verdict} criterion {number}: {description} "
            f"({elapsed:.2f}s, bound {bound_seconds}s)"
        )
        assert ok, f"criterion {number} exceeded {bound_seconds}s ({elapsed:.2f}s)"
    except AssertionError:
        raise
    except Exception as exc:
        print(f"FAIL criterion {number}: {description} ({exc})")
        raise


def generic_tower(n):
    return ProjBundleRing(chern_mod.generic_bundle(n))


def test_criterion_1_binomial_identity():
    def run():
        for r in range(1, 13):
            ok, failures = binomial_identity_check(r)
            assert ok, failures

    criterion(1, "binomial identity for all r <= 12", 1.0, run)


def test_criterion_2_pushforward_table():
    def run():
        for n in range(1, 7):
            P = generic_tower(n)
            for k in range(n + 1):
                got = P.pushforward_power(k)
                if k <= n - 2:
                    assert got == P.base.zero
                elif k == n - 1:
                    assert got == P.base.one
                else:
                    assert got == -P.bundle.c(1)
                assert P.pushforward(P.h ** k) == got

    criterion(2, "hyperplane pushforward table for ranks <= 6", 1.0, run)


def test_criterion_3_quotient_class_pushes_to_one():
    def run():
        for r in range(1, 6):
            S = GradedRing([(f"n{i}", i) for i in range(1, r + 1)])
            N = BundleClass(S, r, [S.gen(f"n{i}") for i in range(1, r + 1)])
            E = ProjBundleRing(N, hyperplane="xi")
            assert E.pushforward(cw_top(E)) == S.one

    criterion(3, "top quotient Chern class pushes to 1 for r <= 5", 5.0, run)


def test_criterion_4_exceptional_push_table():
    def run():
        for r in range(1, 6):
            ctx = FlopContext(r)
            for k in range(r + 1):
                got = ctx.E.pushforward_power(k)
                if k <= r - 2:
                    assert got == ctx.Pdual.zero
                elif k == r - 1:
                    assert got == ctx.Pdual.one
                else:
                    assert got == ctx.l - ctx.Pdual.pullback(ctx.F.c(1))

    criterion(4, "exceptional-tower pushforward table for r <= 5", 5.0, run)


def test_criterion_5_help_sum_and_t_identities():
    def run():
        for r in range(1, 5):
            ctx = FlopContext(r)
            # each build checks every cell it keeps, j, k <= r (after the 2r
            # one-step identities of eta'_*) and j, q <= r
            assert len(ctx.help_sums) == (r + 1) ** 2
            assert len(ctx.t1_sums) == r + 1
            flop_mod.term_B(ctx)  # includes the T2 route comparison

    criterion(5, "help-sum and alternating Chern-sum identities, r <= 4", 30.0, run)


def test_criterion_6_headline_cancellation():
    def run():
        for r in (1, 2, 3, 4):
            ctx = FlopContext(r)
            sa, sb = ctx.formal_sigmas()
            report = verify_multiplicativity(ctx, sa, sb)
            assert report.ok, report.to_text()

    criterion(6, "multiplicativity cancellation for r in {1,2,3,4}", 300.0, run)


def test_criterion_7_blowup_of_p4_along_a_line():
    def run():
        data = linear_blowup(4, 1)
        bl = BlowupRing(data)
        rng = random.Random(0)
        for d in range(2):
            key_formula_check(bl, data.center.random_homogeneous(rng, d))
        for d in range(5):
            alpha = data.ambient.random_homogeneous(rng, d)
            assert bl.push(bl.pull(alpha)) == alpha
        for _ in range(200):
            trio = []
            for _ in range(3):
                alpha = data.ambient.random_element(rng, 4)
                eps = bl.E.random_element(rng, 4)
                trio.append(bl.pull(alpha) + bl.exc_push(eps))
            a, b, c = trio
            assert (a * b) * c == a * (b * c)

    criterion(
        7, "blow-up of P^4 along a line: key formula and ring laws", 10.0, run
    )


def test_criterion_8_tau_route_consistency():
    def run():
        for n in range(2, 7):  # r = n - 1 <= 5
            P = generic_tower(n)
            P.tau_rows(3 * (n - 1))  # raises on any route disagreement

    criterion(8, "tau table route consistency to depth 3r, r <= 5", 5.0, run)


def test_criterion_9_characteristic_classes():
    def run():
        S = GradedRing(
            [("x1", 1), ("x2", 2), ("x3", 3), ("y1", 1), ("y2", 2)], dim_bound=8
        )
        E = BundleClass(S, 3, [S.gen("x1"), S.gen("x2"), S.gen("x3")])
        F = BundleClass(S, 2, [S.gen("y1"), S.gen("y2")])
        total = E.total_chern() * sum(segre_classes(E, 8), S.zero)
        assert total.grade_component(0) == S.one
        for d in range(1, 9):
            assert not total.grade_component(d)
        W = whitney_sum(E, F)
        assert chern_character(W, 6) == chern_character(E, 6) + chern_character(F, 6)
        assert todd_class(W, 6) == todd_class(E, 6) * todd_class(F, 6)
        td = todd_class(E, 6)
        root = sqrt_one_series(td)
        assert root * root == td

    criterion(9, "characteristic-class laws at the stated degrees", 30.0, run)


# ---------------------------------------------------------------- mutations
#
# Criterion 10: three independent single-point mutations, each of which must
# make the criterion-6 verification fail with a nonzero witness.


# the checks whose routes read tau_{r+1,r} = s_1(F) on one side only
TAU_READERS = {"flop.sigma_top_cross_route", "flop.help_sum_identity", "flop.term_A_routes"}


def run_headline(r=2):
    ctx = FlopContext(r)
    sa, sb = ctx.formal_sigmas()
    return verify_multiplicativity(ctx, sa, sb)


def assert_fails_with_witness(report, readers):
    """The report fails, and every check in ``readers`` with a nonzero witness."""
    assert not report.ok
    failed = (c for c in report.checks if c.status == "fail")
    witnessed = {c.name for c in failed if c.witness not in (None, "", "0")}
    assert readers <= witnessed, witnessed


def test_criterion_10_mutations(monkeypatch):
    def run():
        assert run_headline().ok  # the harness alone passes

        # mutation 1: corrupt one tau-table entry
        orig_tau = ProjBundleRing.tau

        def bad_tau(self, i, j):
            value = orig_tau(self, i, j)
            if i == self.rank and j == self.rank - 1:
                return value + self.base.one
            return value

        monkeypatch.setattr(ProjBundleRing, "tau", bad_tau)
        assert_fails_with_witness(run_headline(), TAU_READERS)
        monkeypatch.undo()

        # mutation 2: corrupt the first Segre class
        orig_segre = chern_mod.segre_classes

        def bad_segre(F, k_max, known=()):
            s = orig_segre(F, k_max, known)
            if len(s) > 1:
                s[1] = s[1] + F.ring.one * Fraction(1)
            return s

        monkeypatch.setattr(pb_mod, "segre_classes", bad_segre)
        report = run_headline()
        assert_fails_with_witness(report, TAU_READERS)
        assert not any("TypeError" in (c.witness or "") for c in report.checks)
        monkeypatch.undo()

        # mutation 3: flip the sign of the second correction term
        orig_term_b = flop_mod.term_B
        bad_term_b = lambda ctx: -orig_term_b(ctx)
        monkeypatch.setattr(flop_mod, "term_B", bad_term_b)
        assert_fails_with_witness(run_headline(), {"flop.final_cancellation"})
        monkeypatch.undo()

        # sanity: with all mutations reverted, the verification passes again
        assert run_headline().ok

    criterion(10, "three seeded mutations are each detected", 60.0, run)
