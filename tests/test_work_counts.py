"""Work-count gate: tower and blow-up products stay within recorded bounds.

Counts are deterministic, so unlike wall time they do not drift between
machines.  A change that lowers a count lowers its bound here as well.
"""

from chowcalc import FlopContext, verify_foundations, verify_multiplicativity
from chowcalc.blowup import BlowupRing
from chowcalc.cli import SuiteConfig, run_suite
from chowcalc.projbundle import ProjBundleRing

# ProjBundleRing.mul calls for FlopContext(4), foundations and multiplicativity
FLOP_R4_TOWER_PRODUCTS = 264
# BlowupRing.mul calls for the blowup suite on linear:4,1
BLOWUP_LINEAR_4_1_PRODUCTS = 1000


def _count_mul(monkeypatch, cls) -> list[int]:
    """Wrap ``cls.mul`` so that each call bumps the returned counter."""
    calls = [0]
    orig = cls.mul

    def counted(self, a, b):
        calls[0] += 1
        return orig(self, a, b)

    monkeypatch.setattr(cls, "mul", counted)
    return calls


def test_flop_tower_products_at_r4(monkeypatch):
    calls = _count_mul(monkeypatch, ProjBundleRing)
    ctx = FlopContext(4)
    report = verify_foundations(ctx)
    report.extend(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
    assert report.ok, report.to_text()
    assert 0 < calls[0] <= FLOP_R4_TOWER_PRODUCTS


def test_blowup_products_on_linear_4_1(monkeypatch):
    calls = _count_mul(monkeypatch, BlowupRing)
    status, report = run_suite(SuiteConfig(suite="blowup", case="linear:4,1"))
    assert status == 0, report.to_text()
    assert 0 < calls[0] <= BLOWUP_LINEAR_4_1_PRODUCTS
