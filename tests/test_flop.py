import random

import pytest

from chowcalc import (
    FlopContext,
    ProjBundleRing,
    sigma_top_product,
    term_A,
    term_B,
    term_C,
    verify_foundations,
    verify_multiplicativity,
)
from chowcalc.flop import help_sum_check, t1_check


def test_context_validation():
    with pytest.raises(ValueError):
        FlopContext(0)


def test_context_shape():
    ctx = FlopContext(3)
    assert ctx.F.rank == 4
    assert ctx.G.rank == 3
    assert ctx.P.rank == 4 and ctx.Pdual.rank == 4 and ctx.E.rank == 3
    # P' is the bundle of the dual: its Chern classes alternate in sign
    for i in range(1, 5):
        assert ctx.Pdual.bundle.c(i) == ctx.F.c(i) * (-1) ** i


def test_sigma_vector_validation():
    ctx = FlopContext(2)
    with pytest.raises(ValueError):
        ctx.sigma([ctx.S.one])  # wrong length
    sv = ctx.sigma([ctx.S.gen("c2"), ctx.S.gen("c1"), 1])
    assert sv[2] == ctx.S.one


def test_eta_push_table():
    for r in range(1, 6):
        ctx = FlopContext(r)
        for k in range(r + 1):
            got = ctx.E.pushforward_power(k)
            assert got == ctx.E.pushforward(ctx.H ** k)
            if k <= r - 2:
                assert got == ctx.Pdual.zero
            elif k == r - 1:
                assert got == ctx.Pdual.one
            else:
                assert got == ctx.l - ctx.Pdual.pullback(ctx.F.c(1))


def test_sigma_top_product_routes():
    for r in (1, 2, 3):
        ctx = FlopContext(r)
        sa, sb = ctx.formal_sigmas()
        top = sigma_top_product(ctx, sa, sb)
        assert top.is_homogeneous(r)


def test_help_sum_identity():
    for r in (1, 2, 3, 4):
        ctx = FlopContext(r)
        for j in range(r + 1):
            for k in range(2 * r - j + 1):
                help_sum_check(ctx, j, k)


def test_t1_identity_all_indices():
    for r in (1, 2, 3):
        ctx = FlopContext(r)
        for j in range(r + 1):
            for q in range(r + 1):
                t1_check(ctx, j, q)


def test_term_c_rank_one():
    # at r = 1 the top cotangent class is pull(c_1) - 2 l
    ctx = FlopContext(1)
    expected = ctx.Pdual.pullback(ctx.F.c(1)) - 2 * ctx.l
    assert ctx.Pdual.cotangent_chern(1) == expected
    sa, sb = ctx.formal_sigmas()
    value = term_C(ctx, sa, sb)
    assert value == ctx.Pdual.pullback(sa[1] * sb[1]) * expected


def test_headline_cancellation_formal():
    for r in (1, 2, 3):
        ctx = FlopContext(r)
        sa, sb = ctx.formal_sigmas()
        a = term_A(ctx, sa, sb)
        b = term_B(ctx, sa, sb)
        c = term_C(ctx, sa, sb)
        rhs = sigma_top_product(ctx, sa, sb)
        assert a + b + c == rhs


def test_verify_multiplicativity_report():
    ctx = FlopContext(2)
    sa, sb = ctx.formal_sigmas()
    report = verify_multiplicativity(ctx, sa, sb)
    assert report.ok, report.to_text()
    names = {c.name for c in report.checks}
    assert "flop.final_cancellation" in names
    assert all(c.anchor for c in report.checks)


def test_verify_multiplicativity_numeric_sigmas():
    ctx = FlopContext(3)
    rng = random.Random(42)
    for _ in range(3):
        sa = ctx.random_sigma(rng)
        sb = ctx.random_sigma(rng)
        report = verify_multiplicativity(ctx, sa, sb)
        assert report.ok, report.to_text()


def test_verify_foundations():
    for r in (1, 2, 3):
        report = verify_foundations(FlopContext(r))
        assert report.ok, report.to_text()


def test_failure_reported_with_witness():
    ctx = FlopContext(2)
    sa, sb = ctx.formal_sigmas()
    # a deliberately wrong sigma pairing must surface a nonzero witness
    a = term_A(ctx, sa, sb)
    b = term_B(ctx, sa, sb)
    c = term_C(ctx, sa, sb)
    wrong = sigma_top_product(ctx, sa, sa)  # sb swapped out
    diff = a + b + c - wrong
    assert not diff.is_zero()


def test_corrupted_l_power_table_fails_every_reader():
    # ctx.lpow is an input to both routes of each check that reads it, so
    # a corrupted entry must still make each of them fail
    readers = {
        "flop.t1_identity",
        "flop.help_sum_identity",
        "flop.term_A_routes",
        "flop.term_B_routes",
        "flop.term_C_routes",
    }
    for r in (1, 2, 3):
        for k in range(1, r + 1):
            ctx = FlopContext(r)
            c1 = ctx.Pdual.pullback(ctx.F.c(1))
            ctx.lpow[k] = ctx.lpow[k] + c1 * ctx.lpow[k - 1]  # still homogeneous
            report = verify_multiplicativity(ctx, *ctx.formal_sigmas())
            failed = {
                c.name for c in report.checks
                if c.status == "fail" and c.witness not in (None, "", "0")
            }
            assert readers <= failed, (r, k, failed)
        ctx = FlopContext(r)
        assert verify_multiplicativity(ctx, *ctx.formal_sigmas()).ok


def test_twist_chern_routes_detects_corrupted_tensor_route(monkeypatch):
    # G is built from the closed twist formula; the tensor route is the
    # independent one, so corrupting it alone must fail the check
    orig = ProjBundleRing.cotangent_twist_via_tensor

    def bad(self, i):
        value = orig(self, i)
        return value + self.h if i == 1 else value  # still homogeneous

    monkeypatch.setattr(ProjBundleRing, "cotangent_twist_via_tensor", bad)
    ctx = FlopContext(2)
    report = verify_foundations(ctx)
    failed = {c.name: c.witness for c in report.checks if c.status == "fail"}
    assert failed == {"foundations.twist_chern_routes": str(-ctx.l)}
    monkeypatch.undo()
    assert verify_foundations(FlopContext(2)).ok


def test_e_relation_failure_carries_witness(monkeypatch):
    ctx = FlopContext(2)
    orig = ProjBundleRing.element

    def bad(self, coeffs):
        value = orig(self, coeffs)
        return value + self.h if self is ctx.E else value

    monkeypatch.setattr(ProjBundleRing, "element", bad)
    report = verify_foundations(ctx)
    [check] = [c for c in report.checks if c.name == "foundations.e_relation"]
    assert check.status == "fail"
    assert check.witness == str(ctx.H)  # the injected difference
