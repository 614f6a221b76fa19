import functools
import operator
import re
import types
from itertools import combinations, combinations_with_replacement
from types import MappingProxyType

import pytest

import chowcalc.chern as chern_mod
import chowcalc.flop as flop_mod
import chowcalc.projbundle as pb_mod
from chowcalc import (
    BundleClass,
    FlopContext,
    GradedRing,
    PBElement,
    ProjBundleRing,
    dual_bundle,
    sigma_top_product,
    term_A,
    term_B,
    term_C,
    verify_foundations,
    verify_multiplicativity,
)
from chowcalc.cli import SuiteConfig, run_suite
from chowcalc.errors import WITNESS_LIMIT, ConsistencyError
from chowcalc.flop import SigmaTable, l_pairing, tau_pairing
from chowcalc.rings import COEFF_RANGE
from conftest import mutated

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # without hypothesis only the property test is left out
    st = None


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
        assert sigma_top_product(ctx).is_homogeneous(r)


def test_help_sum_identity():
    for r in (1, 2, 3, 4):
        ctx = FlopContext(r)
        # the build checks every j, k <= r and the one-step identities that
        # telescope to the cells with k > r
        table = ctx.help_sums
        assert set(table) == {(j, k) for j in range(r + 1) for k in range(r + 1)}
        with pytest.raises(TypeError):
            table[0, 0] = ctx.Pdual.zero  # stored read-only


def test_help_sums_hold_slots_0_and_j_only():
    # so l·help(j, k), j < r, stays below slot r + 1: the sweep's Pdual.sub
    # never reduces
    for r in (1, 2, 3, 4):
        for (j, k), value in FlopContext(r).help_sums.items():
            assert set(value.slots) <= {0, j}, (r, j, k)


def test_t1_identity_all_indices():
    for r in (1, 2, 3):
        ctx = FlopContext(r)
        # the build checks every j, q <= r; the kept q = 0 sums are (-1)^j l^j
        assert ctx.t1_sums == tuple(ctx.lpow[j] * (-1) ** j for j in range(r + 1))


def _reference_segre(F: BundleClass, k_max: int) -> list:
    """s_0..s_{k_max} of F, inverting c(F) with plain products and sums:
    s_m = -(c_1 s_{m-1} + ... + c_m s_0)."""
    s = [F.ring.one]
    for m in range(1, k_max + 1):
        total = F.ring.zero
        for i in range(1, min(m, F.rank) + 1):
            total = total + F.c(i) * s[m - i]
        s.append(-total)
    return s


def _euler_form_failures(r: int) -> list[int]:
    """The k <= 2r + 1 where s_k(G) != pull(s_k(F)) + l . pull(s_{k-1}(F)) in
    CH(P'): the Segre classes of G = Omega_{P'|S}(1) by the relative Euler
    sequence (Fulton, *Intersection Theory*, §3.2 and B.5.8), sharing nothing
    with the series inversion of c(G) behind ``E.segre``."""
    ctx = FlopContext(r)
    pull, top = ctx.Pdual.pullback, 2 * r + 1
    s = [ctx.S.zero, *_reference_segre(ctx.F, top)]  # s[k + 1] = s_k(F), s_{-1} = 0
    return [
        k for k in range(top + 1)
        if ctx.E.segre(k) != pull(s[k + 1]) + ctx.l * pull(s[k])
    ]


# (function, code in it, mutant, the module attributes the mutant replaces)
EULER_FORM_MUTANTS = {
    "segre_drops_its_last_term": (
        chern_mod.segre_classes, "for i in range(1, m + 1)", "for i in range(1, m)",
        [(chern_mod, "segre_classes"), (pb_mod, "segre_classes")],
    ),
    "c1_of_G_doubled": (
        flop_mod.incidence,
        "pb.cotangent_twist_chern(i) for",
        "pb.cotangent_twist_chern(i) * (1 + (i == 1)) for",
        [(flop_mod, "incidence")],
    ),
}


def test_segre_classes_of_g_have_the_euler_form():
    for r in range(1, 9):
        assert _euler_form_failures(r) == [], r


@pytest.mark.parametrize("mutant", sorted(EULER_FORM_MUTANTS))
def test_euler_form_mutant_fails_the_euler_form(monkeypatch, mutant):
    function, old, new, owners = EULER_FORM_MUTANTS[mutant]
    for owner, name in owners:
        monkeypatch.setattr(owner, name, mutated(function, old, new))
    for r in range(1, 6):
        assert _euler_form_failures(r), r


def _splitting_failures(r: int) -> list[tuple[str, int]]:
    """The (route, m), m <= 2r, where tau's column r at c_i -> e_i(x_1..x_{r+1})
    is not (-1)^{m-r} h_{m-r}(x), 0 for m < r: by the splitting principle
    s(F) = prod 1/(1 + x_i) (Fulton, *Intersection Theory*, §3.2), sharing
    nothing with the Segre recursion.  The routes are the tau table and the
    direct route of sigma_top, h^m reduced into slot r."""
    ctx = FlopContext(r)
    X = GradedRing([(f"x{i}", 1) for i in range(1, r + 2)])
    xs = [X.gen(f"x{i}") for i in range(1, r + 2)]

    def monomial_sum(choose, k: int):
        return X.sum(functools.reduce(operator.mul, c, X.one) for c in choose(xs, k))

    images = {f"c{i}": monomial_sum(combinations, i) for i in range(1, r + 2)}
    failures = []
    for m in range(2 * r + 1):
        k = m - r
        h = monomial_sum(combinations_with_replacement, k) * (-1) ** k if k >= 0 else X.zero
        routes = {
            "tau": ctx.P.tau(m, r),
            "reduce": ctx.P.reduce({m: ctx.S.one}, stop=r).get(r, ctx.S.zero),
        }
        failures += [(name, m) for name, x in routes.items() if x.substitute(images, X) != h]
    return failures


def test_tau_column_r_has_the_splitting_form():
    for r in range(1, 5):
        assert _splitting_failures(r) == [], r


def test_segre_recursion_missing_its_last_term_fails_the_splitting_form(monkeypatch):
    function, old, new, owners = EULER_FORM_MUTANTS["segre_drops_its_last_term"]
    for owner, name in owners:
        monkeypatch.setattr(owner, name, mutated(function, old, new))
    for r in range(1, 5):
        failures = _splitting_failures(r)
        # the tau route reads the Segre classes past m = r; the direct route never
        assert failures and {name for name, _ in failures} == {"tau"}, r


def _failed(report) -> dict:
    return {c.name: c.witness for c in report.checks if c.status == "fail"}


def test_substituted_t1_sum_fails_term_b():
    # term_B's raw route reads the stored T1(j); its closed route does not
    ctx = FlopContext(1)
    t1 = list(ctx.t1_sums)
    t1[1] = t1[1] + ctx.l
    ctx.t1_sums = tuple(t1)
    failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
    assert failed["flop.term_B_routes"] == "((1) * l) * a1*b1"
    for r in (1, 2):
        for j in range(r + 1):
            ctx = FlopContext(r)
            t1 = list(ctx.t1_sums)
            t1[j] = t1[j] + ctx.lpow[j] * ctx.Pdual.pullback(ctx.F.c(1))
            ctx.t1_sums = tuple(t1)
            with pytest.raises(ConsistencyError, match="second correction term"):
                term_B(ctx)


def test_substituted_help_sum_fails_term_a():
    # term_A's raw route reads every stored help(j, k); its closed route none
    for r in (1, 2):
        for key in FlopContext(r).help_sums:
            ctx = FlopContext(r)
            table = dict(ctx.help_sums)
            table[key] = table[key] + ctx.lpow[key[0]] * ctx.Pdual.pullback(ctx.F.c(1))
            ctx.help_sums = MappingProxyType(table)
            failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
            assert failed.get("flop.term_A_routes") not in (None, "", "0"), (r, key)
            assert "flop.help_sum_identity" not in failed  # read, not rebuilt


def test_corrupted_segre_class_of_g_fails_the_one_step_identity_it_enters():
    # eta'_*(H^m) = s_{m-r+1}(G): a corrupted s_i(G) first breaks the one-step
    # identity at m = i + r - 1, whose witness is the corruption, negated
    for r in (2, 3, 4):
        for i in range(r + 1):
            ctx = FlopContext(r)
            ctx.E.segre(r)
            ctx.E._segre[i] = ctx.E._segre[i] + ctx.lpow[i]  # still homogeneous
            witness = str(-ctx.lpow[i])
            failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
            assert failed.get("flop.help_sum_identity") == witness != "0", (r, i)
            with pytest.raises(ConsistencyError, match=rf"at m={i + r - 1}: ") as info:
                ctx.help_sums
            assert info.value.witness == witness, (r, i)


@pytest.mark.parametrize("slot", [0, 1, 2], ids=["slot_0", "slot_j", "third_slot"])
def test_a_wrong_slot_of_a_help_cell_fails_the_check(slot):
    # the first step of the sweep, help(1, 0) = eta'_*(H^0) = 0 for r >= 2,
    # returned with l^slot added: slot 0, the slot j = 1 of l^j, or a slot
    # help(1, 0) may not hold.  The cell's one comparison with closed_A sees each of them
    for r in (2, 3):
        ctx, steps = FlopContext(r), []
        sub = ctx.Pdual.sub

        def wrong_first_step(a, y, shift):
            value = sub(a, y, shift)
            if shift != 1:  # a subtraction, not a step of the sweep
                return value
            steps.append(value)
            return value + ctx.lpow[slot] if len(steps) == 1 else value

        ctx.Pdual.sub = wrong_first_step
        with pytest.raises(ConsistencyError, match="fails at j=1, k=0: ") as info:
            ctx.help_sums
        assert info.value.witness == str(ctx.lpow[slot]), (r, slot)


def _install_mutant(monkeypatch, name: str, old: str, new: str) -> None:
    """Replace the table ``FlopContext.<name>`` by a property that builds it
    with a mutated copy of its method, or the function ``flop.<name>`` by a
    mutated copy."""
    attr = vars(FlopContext).get(name)
    if attr is None:
        monkeypatch.setattr(flop_mod, name, mutated(getattr(flop_mod, name), old, new))
    else:
        monkeypatch.setattr(FlopContext, name, property(mutated(attr.func, old, new)))


# (table or flop function, code in it, mutant, checks that must fail, at each
# of these r).  The T1 sweep carries (-1)^j lhs(j, q); the help sweep takes
# l·help(j, k) from eta'_*(H^{k+j}) in one Pdual.sub of shift 1.  At r = 1
# the one step has help(0, k) = 0 to shift, so no mutant of the shift can
# change a value there.  A help cell has one comparison, with entry (k, j) of
# closed_A = pull(tau) - L, the table term_A compares with as well; the help
# check reads (-1)^j from l_pairing, which term_B reads too
SWEEP_MUTANTS = {
    "t1_without_c_term": (
        "t1_sums",
        "pulled[q] * row[0] - t for",
        "-t for",
        {"flop.t1_identity", "flop.term_B_routes"},
        (1, 2, 3),
    ),
    "help_off_by_one": (
        "help_sums",
        "push(k + j)",
        "push(k + j - 1)",
        {"flop.help_sum_identity", "flop.term_A_routes"},
        (1, 2, 3),
    ),
    "help_slot_pass_loses_the_shift": (
        "help_sums",
        "row[k], 1)",
        "row[k], 0)",
        {"flop.help_sum_identity", "flop.term_A_routes"},
        (2, 3),
    ),
    "help_slot_sign_taken_as_plus": (
        "l_pairing",
        "x * (-1) ** j",
        "x",
        {"flop.help_sum_identity", "flop.term_A_routes", "flop.term_B_routes"},
        (1, 2, 3),
    ),
    "closed_A_without_l": (
        "closed_A",
        " - l_pairing(self)",
        "",
        {"flop.help_sum_identity", "flop.term_A_routes"},
        (1, 2, 3),
    ),
    "help_one_step_reads_col_m_for_col_m_plus_1": (
        "help_sums",
        "col[m + 1] - push(m)",
        "col[m] - push(m)",
        {"flop.help_sum_identity", "flop.term_A_routes"},
        (1, 2, 3),
    ),
    "help_sweep_skips_the_last_k": (
        "help_sums",
        "for k in range(r + 1):",
        "for k in range(r):",
        {"flop.help_sum_identity", "flop.term_A_routes"},
        (1, 2, 3),
    ),
}


@pytest.mark.parametrize("mutant", sorted(SWEEP_MUTANTS))
def test_sweep_mutant_fails_its_checks(monkeypatch, mutant):
    table, old, new, readers, ranks = SWEEP_MUTANTS[mutant]
    _install_mutant(monkeypatch, table, old, old)  # the harness alone passes
    ctx = FlopContext(2)
    assert verify_multiplicativity(ctx, *ctx.formal_sigmas()).ok
    monkeypatch.undo()
    _install_mutant(monkeypatch, table, old, new)
    for r in ranks:
        ctx = FlopContext(r)
        failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
        assert readers <= {k for k, w in failed.items() if w not in ("", "0")}, r


def _table_with(ring, r: int, k: int, j: int, x) -> SigmaTable:
    """The table over ``ring`` holding x at entry (k, j) and zero elsewhere."""
    rows = [[ring.zero] * (r + 1) for _ in range(r + 1)]
    rows[k][j] = x
    return SigmaTable(rows)


# (shared table, the ring of its entries, checks that must fail when the
# mutant adds 1 at entry (0, r)): each table is read by one route of each of
# its checks, never by both
PAIRING_MUTANTS = {
    "tau_pairing": (
        lambda ctx: ctx.S,
        {"flop.sigma_top_cross_route", "flop.term_A_routes"},
    ),
    "l_pairing": (
        lambda ctx: ctx.Pdual,
        {"flop.term_A_routes", "flop.term_B_routes"},
    ),
}


@pytest.mark.parametrize("name", sorted(PAIRING_MUTANTS))
def test_pairing_mutant_fails_its_readers(monkeypatch, name):
    ring_of, readers = PAIRING_MUTANTS[name]
    original = getattr(flop_mod, name)
    for scale in (0, 1):  # scale 0 is the harness alone, which passes

        def mutant(ctx, scale=scale):
            ring = ring_of(ctx)
            return original(ctx) + _table_with(ring, ctx.r, 0, ctx.r, ring.one * scale)

        monkeypatch.setattr(flop_mod, name, mutant)
        for r in (1, 2, 3):
            ctx = FlopContext(r)
            failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
            if scale:
                witnessed = {k for k, w in failed.items() if w not in ("", "0")}
                assert readers <= witnessed, (r, failed)
            else:
                assert not failed, r


@pytest.mark.parametrize("drop", [False, True], ids=["harness", "mutant"])
def test_tau_table_dropping_its_top_entry_fails_its_readers(monkeypatch, drop):
    # entry (r, r) of the tau table is s_r(F); the direct route of sigma_top
    # and the raw route of term_A read it from other tables
    original = flop_mod.tau_pairing

    def mutant(ctx):
        table = original(ctx)
        top = table.rows[ctx.r][ctx.r]
        return table - _table_with(ctx.S, ctx.r, ctx.r, ctx.r, top if drop else ctx.S.zero)

    monkeypatch.setattr(flop_mod, "tau_pairing", mutant)
    for r in (1, 2, 3):
        ctx = FlopContext(r)
        failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
        witnessed = {k for k, w in failed.items() if w not in ("", "0")}
        readers = {"flop.sigma_top_cross_route", "flop.term_A_routes"}
        assert (readers <= witnessed) if drop else not failed, (r, failed)


# (code in ProjBundleRing.form, mutant): the direct route of sigma_top
# reduces h^m into slot r through it for m = r..2r; the tau route reads
# rows 0..r only, whose reductions have nothing to reduce
DIRECT_ROUTE_MUTANTS = {
    "drops_the_c1_term": ("max(t + 1, n)", "max(t + 2, n)"),
    "stops_one_slot_early": ("stop - 1, -1)", "stop, -1)"),
}


@pytest.mark.parametrize("mutant", sorted(DIRECT_ROUTE_MUTANTS))
def test_direct_route_mutant_fails_sigma_top(monkeypatch, mutant):
    old, new = DIRECT_ROUTE_MUTANTS[mutant]
    for code in (old, new):  # the harness alone passes
        for r in (1, 2, 3):
            ctx = FlopContext(r)
            form = types.MethodType(mutated(ProjBundleRing.form, old, code), ctx.P)
            monkeypatch.setattr(ctx.P, "form", form)
            failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
            if code == old:
                assert not failed, r
                continue
            # the witness is the nonzero difference of the two routes
            assert failed.get("flop.sigma_top_cross_route") not in (None, "", "0"), r


# (function, code in it, mutant, the module attribute the mutant replaces):
# each corrupts one route of sigma_top alone, so the two routes disagree
SIGMA_TOP_ROUTE_MUTANTS = {
    "segre_drops_the_c1_term": (
        chern_mod.segre_classes, "range(1, m + 1)", "range(2, m + 1)",
        (pb_mod, "segre_classes"),
    ),
    "tau_serves_one_segre_class_low": (
        ProjBundleRing.tau, "self.segre(i - j)", "self.segre(i - j - 1)",
        (ProjBundleRing, "tau"),
    ),
    "convolution_skips_the_pair_0_r": (
        flop_mod.sigma_top_product, "range(m - r, r + 1)", "range(m - r + (m == r), r + 1)",
        (flop_mod, "sigma_top_product"),
    ),
}


@pytest.mark.parametrize("mutant", sorted(SIGMA_TOP_ROUTE_MUTANTS))
def test_sigma_top_route_mutant_fails_sigma_top(monkeypatch, mutant):
    function, old, new, (owner, name) = SIGMA_TOP_ROUTE_MUTANTS[mutant]
    for code in (old, new):  # the harness alone passes
        monkeypatch.setattr(owner, name, mutated(function, old, code))
        for r in (1, 2, 3):
            ctx = FlopContext(r)
            failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
            if code == old:
                assert not failed, r
                continue
            # the witness is the nonzero difference of the two routes
            assert failed.get("flop.sigma_top_cross_route") not in (None, "", "0"), r


# (code in ProjBundleRing.mul, mutant, flop checks that must fail at r = 2, 3,
# blow-up checks that must fail on linear:4,1).  BlowupRing.mul forms -xi·eps
# as a slot shift of its own and normalizes by c_{r-1}(W) slot by slot, so no
# blow-up product takes the h shape; only key_formula's cW·pull(gamma) takes
# the pullback shape.
SHORTCUT_MUTANTS = {
    "h_shift_drops_the_top_slot": (
        "{k + 1: t for k, t in y.slots.items()}",
        "{k + 1: t for k, t in y.slots.items() if k < self.rank - 1}",
        {"flop.t1_identity", "flop.term_B_routes"},
        set(),
    ),
    "h_shift_forgets_the_shift": (
        "{k + 1: t for k, t in y.slots.items()}",
        "{k: t for k, t in y.slots.items()}",
        {"flop.t1_identity", "flop.help_sum_identity"},
        set(),
    ),
    "pullback_scales_only_slot_0": (
        "if (v := t * c)}",
        "if (v := t * c if not k else t)}",
        {"flop.t1_identity", "flop.help_sum_identity"},
        {"blowup.key_formula"},
    ),
}


@pytest.mark.parametrize("mutant", sorted(SHORTCUT_MUTANTS))
def test_tower_shortcut_mutant_fails_its_checks(monkeypatch, mutant):
    old, new, flop_readers, blowup_readers = SHORTCUT_MUTANTS[mutant]
    mul = ProjBundleRing.mul
    for code in (old, new):  # the harness alone passes
        monkeypatch.setattr(ProjBundleRing, "mul", mutated(mul, old, code))
        _, report = run_suite(SuiteConfig(suite="blowup", case="linear:4,1"))
        failed = {k for k, w in _failed(report).items() if w not in ("", "0")}
        assert (blowup_readers <= failed) if code == new else not failed
        for r in (2, 3):
            ctx = FlopContext(r)
            failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
            if code == old:
                assert not failed, r
                continue
            witnessed = {k for k, w in failed.items() if w not in ("", "0")}
            assert flop_readers <= witnessed, (r, failed)


# ((owner, name), code in it, mutant, checks that must fail at r = 1, 2, 3):
# each lets a zero-slot shortcut fire where the slot is not zero.  A zero
# left slot is a missing key, so skipping it and visiting only the right
# slots the left also holds both forget -y; they mutate two places of the
# slot loop every tower subtraction runs through.
ZERO_SLOT_MUTANTS = {
    "reduce_returns_one_slot_past_the_basis": (
        (ProjBundleRing, "reduce"), "< self.rank:", "< self.rank + 1:",
        {"foundations.eta_push_table", "flop.sigma_top_cross_route",
         "flop.t1_identity", "flop.term_B_routes"},
    ),
    "sub_skips_a_zero_left_slot": (
        (ProjBundleRing, "sub"), "slots[k] = -x", "continue",
        {"foundations.symmetry", "flop.help_sum_identity",
         "flop.t1_identity", "flop.term_A_routes"},
    ),
    "sub_drops_a_slot_only_on_the_right": (
        (ProjBundleRing, "sub"), "in y.slots.items():",
        "in [(j, x) for j, x in y.slots.items() if j + shift in a.slots]:",
        {"foundations.symmetry", "flop.help_sum_identity",
         "flop.t1_identity", "flop.term_A_routes"},
    ),
}


@pytest.mark.parametrize("mutant", sorted(ZERO_SLOT_MUTANTS))
def test_zero_slot_mutant_fails_its_checks(monkeypatch, mutant):
    (owner, name), old, new, readers = ZERO_SLOT_MUTANTS[mutant]
    function = vars(owner)[name]
    for code in (old, new):  # the harness alone passes
        monkeypatch.setattr(owner, name, mutated(function, old, code))
        for r in (1, 2, 3):
            ctx = FlopContext(r)
            report = verify_foundations(ctx)
            report.extend(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
            failed = _failed(report)
            assert (readers <= set(failed)) if code == new else not failed, (r, failed)


def test_corrupted_tau_row_fails_t1_identity():
    # the T1 sweep reads every stored tau_P row i <= r, the rest by recursion
    for r in (1, 2, 3):
        for i in range(r + 1):
            ctx = FlopContext(r)
            rows = ctx.P.tau_rows(2 * r)  # built and checked before the corruption
            row = dict(rows[i])
            row[i] = row[i] + ctx.P.base.one  # h^i reduced as 2 h^i, still homogeneous
            ctx.P._tau_rows[i] = MappingProxyType(row)
            failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
            assert failed.get("flop.t1_identity") not in (None, "", "0"), (r, i)


def test_term_c_rank_one():
    # at r = 1 the top cotangent class is pull(c_1) - 2 l
    ctx = FlopContext(1)
    expected = ctx.Pdual.pullback(ctx.F.c(1)) - 2 * ctx.l
    assert ctx.Pdual.cotangent_chern(1) == expected
    value = term_C(ctx)
    assert value == _table_with(ctx.Pdual, 1, 1, 1, expected)  # the sigma_1 sigma'_1 term


def test_headline_cancellation_formal():
    for r in (1, 2, 3):
        ctx = FlopContext(r)
        a, b, c, rhs = term_A(ctx), term_B(ctx), term_C(ctx), sigma_top_product(ctx)
        assert a + b + c == rhs
        assert rhs and not (a + b + c - rhs)  # a table is true when an entry is nonzero


def test_verify_multiplicativity_report():
    ctx = FlopContext(2)
    sa, sb = ctx.formal_sigmas()
    report = verify_multiplicativity(ctx, sa, sb)
    assert report.ok, report.to_text()
    names = {c.name for c in report.checks}
    assert "flop.final_cancellation" in names
    assert all(c.anchor for c in report.checks)


TERMS = (sigma_top_product, term_A, term_B, term_C)


class _Oracle:
    """A tower in which the sigma are generators: CH(S') and CH(P') over
    S' = Q[c_1..c_{r+1}, a_0..a_r, b_0..b_r], the a_k and b_k of degree
    r - k.  It holds the sigma-tagged formulas of tau-pairing, L and the four
    terms computed there, and renders a formal table as sum a_k b_j X_kj."""

    def __init__(self, r: int):
        sigmas = [(f"{x}{k}", r - k) for x in "ab" for k in range(r + 1)]
        self.r, self.T = r, GradedRing([*((f"c{i}", i) for i in range(1, r + 2)), *sigmas])
        T, ks = self.T, range(r + 1)
        F = BundleClass(T, r + 1, [T.gen(f"c{i}") for i in range(1, r + 2)])
        self.P = ProjBundleRing(F)
        self.Pdual = Pd = ProjBundleRing(dual_bundle(F), hyperplane="l")
        a, b = ([T.gen(f"{x}{k}") for k in ks] for x in "ab")
        self.sigmas = [[a[k] * b[j] for j in ks] for k in ks]
        self.tau = T.dot((a[k] * b[j], self.P.tau(k + j, r)) for k in ks for j in ks)
        self.L = Pd.dot((Pd.pullback(a[r] * b[j] * (-1) ** j), Pd.h ** j) for j in ks)
        top = Pd.pullback(a[r] * b[r]) * Pd.cotangent_chern(r)
        rhs = Pd.pullback(self.tau)
        self.terms = {
            sigma_top_product: rhs, term_A: rhs - self.L, term_B: self.L - top, term_C: top,
        }

    def _embed(self, x):
        """x over CH(S) = Q[c] (or CH(P') over it) as the same class over S'."""
        if isinstance(x, PBElement):
            return PBElement(self.Pdual, {k: self._embed(c) for k, c in x.slots.items()})
        pad = (0,) * (2 * self.r + 2)
        return self.T.element({(*x.ring.exponents(e), *pad): c for e, c in x.terms.items()})

    def render(self, table: SigmaTable):
        """sum_{k,j} a_k b_j X_kj in S', or in CH(P') over S'."""
        entries = [(self.sigmas[k][j], self._embed(x)) for k, j, x in table.entries()]
        if isinstance(table.rows[0][0], PBElement):
            entries = [(self.Pdual.pullback(s), x) for s, x in entries]
            return self.Pdual.dot(entries)
        return self.T.dot(entries)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_formal_tables_match_the_sigma_tagged_formulas(r):
    # each formal table, rendered as sum a_k b_j X_kj, is the value the
    # sigma-tagged formula gives in a ring where the sigma are generators
    ctx, oracle = FlopContext(r), _Oracle(r)
    assert oracle.render(tau_pairing(ctx)) == oracle.tau
    assert oracle.render(l_pairing(ctx)) == oracle.L
    for term, expected in oracle.terms.items():
        assert oracle.render(term(ctx)) == expected, term.__name__


@functools.cache
def _formal_setup(r: int):
    """One context per r, its Chern monomials by degree, and the formal
    terms rendered by the oracle."""
    ctx, oracle = FlopContext(r), _Oracle(r)
    monomials = [
        [ctx.S.element({m: 1}) for m in ctx.S.monomials_of_degree(d)] for d in range(r + 1)
    ]
    formal = [oracle.render(term(ctx)) for term in TERMS]
    return ctx, monomials, formal


def _specialise(ctx, value, sa, sb):
    """The rendered formal class ``value`` with c_i -> c_i, a_k -> sa[k] and
    b_k -> sb[k]."""
    images = {f"c{i}": ctx.F.c(i) for i in range(1, ctx.r + 2)}
    for k in range(ctx.r + 1):
        images[f"a{k}"], images[f"b{k}"] = sa[k], sb[k]
    slots = {k: v for k, c in value.slots.items() if (v := c.substitute(images, ctx.S))}
    return PBElement(ctx.Pdual, slots)


if st is not None:

    @settings(max_examples=25)
    @given(r=st.sampled_from([1, 2, 3]), data=st.data())
    def test_specialisation_commutes_with_every_route(r, data):
        # a numeric sigma is a graded substitution into the rendered formal
        # tables; a ring map keeps A + B + C = rhs and the degree r of each
        # term, so a formal pass covers every numeric sigma
        ctx, monomials, formal = _formal_setup(r)

        def draw_sigma():
            values = []
            for k in range(r + 1):
                basis = monomials[r - k]
                coeffs = data.draw(
                    st.lists(st.integers(*COEFF_RANGE),
                             min_size=len(basis), max_size=len(basis))
                )
                values.append(sum((m * c for m, c in zip(basis, coeffs)), ctx.S.zero))
            return values

        sa, sb = draw_sigma(), draw_sigma()
        rhs, a, b, c = (_specialise(ctx, value, sa, sb) for value in formal)
        assert a + b + c == rhs
        for key, value in zip(("rhs", "A", "B", "C"), (rhs, a, b, c)):
            assert value.is_homogeneous(r), key


def test_a_specialised_sigma_is_rejected():
    ctx = FlopContext(2)
    sigma = (ctx.S.gen("c2"), ctx.S.gen("c1"), ctx.S.one)
    for sa, sb in ((None, sigma), (sigma, None), (sigma, sigma)):
        with pytest.raises(ValueError, match=r"ctx\.formal_sigmas\(\)"):
            verify_multiplicativity(ctx, sa, sb)


def test_homogeneity_fails_on_ungraded_sigma(monkeypatch):
    # an ungraded sigma leaves an entry of the wrong degree: the same table,
    # Pdual.one at entry (0, 0) where degree -r is due, added to rhs and to A
    # keeps every route and the cancellation passing
    ctx = FlopContext(2)
    extra = _table_with(ctx.Pdual, ctx.r, 0, 0, ctx.Pdual.one)
    for name in ("sigma_top_product", "term_A"):
        monkeypatch.setattr(flop_mod, name, lambda ctx, f=getattr(flop_mod, name): f(ctx) + extra)
    failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
    assert set(failed) == {"flop.homogeneity"}
    assert re.fullmatch(
        r"term (rhs|A|B|C) is not homogeneous of degree r", failed["flop.homogeneity"]
    )


def test_missing_term_fails_its_readers(monkeypatch):
    import chowcalc.flop as flop_mod

    def crash(ctx):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(flop_mod, "term_A", crash)
    ctx = FlopContext(1)
    report = verify_multiplicativity(ctx, *ctx.formal_sigmas())
    failed = {c.name: c.witness for c in report.checks if c.status == "fail"}
    missing = "prerequisite terms missing: ['A']"
    assert failed == {
        "flop.term_A_routes": "ZeroDivisionError: injected",
        "flop.homogeneity": missing,
        "flop.final_cancellation": missing,
    }


def test_off_by_one_segre_continuation_fails_eta_push_table(monkeypatch):
    import chowcalc.projbundle as projbundle_mod

    orig = projbundle_mod.segre_classes

    def shifted(F, k_max, known=()):
        # each entry past the known prefix takes its predecessor's value
        out = orig(F, k_max, known)
        return out[: len(known)] + out[len(known) - 1 : -1] if known else out

    monkeypatch.setattr(projbundle_mod, "segre_classes", shifted)
    for r in (1, 2, 3):
        failed = _failed(verify_foundations(FlopContext(r)))
        assert failed.get("foundations.eta_push_table") not in (None, "", "0"), r


def test_verify_foundations():
    for r in (1, 2, 3):
        report = verify_foundations(FlopContext(r))
        assert report.ok, report.to_text()


def test_long_witness_keeps_its_leading_terms(monkeypatch):
    # a doubled tau route at r = 8 leaves the whole pairing as the witness
    ctx = FlopContext(8)
    full = str(flop_mod.tau_pairing(ctx))
    assert len(full) > WITNESS_LIMIT
    original = flop_mod.tau_pairing
    monkeypatch.setattr(flop_mod, "tau_pairing", lambda ctx: original(ctx) + original(ctx))
    failed = _failed(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
    witness = failed["flop.sigma_top_cross_route"]
    tail = f" ... ({len(full) - WITNESS_LIMIT} more characters)"
    assert witness == full[:WITNESS_LIMIT] + tail
    # the leading sigma term first: sigma_8 sigma'_8, whose coefficient is s_8(F)
    assert witness.startswith("(1 * c1^8 + -7 * c1^6*c2 + 6 * c1^5*c3 + ")


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

    def bad(self):
        value = orig(self)
        value[1] = value[1] + self.h  # still homogeneous
        return value

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
