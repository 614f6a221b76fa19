import operator
import random
import time
import types

import pytest

from chowcalc import (
    BundleClass,
    ConsistencyError,
    GradedRing,
    PBElement,
    ProjBundleRing,
    binomial_identity_check,
    binomial_identity_sum,
    segre_classes,
)
from chowcalc.blowup import BlowupRing, linear_blowup
from chowcalc.chern import generic_bundle
from chowcalc.cli import SuiteConfig, run_suite
from chowcalc.flop import FlopContext, verify_foundations, verify_multiplicativity
from conftest import mutated

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # without hypothesis only the property tests are left out
    st = None


def generic_tower(n: int, dim_bound=None) -> ProjBundleRing:
    """P(F) for a rank-n bundle with independent generic Chern classes."""
    return ProjBundleRing(generic_bundle(n, dim_bound=dim_bound))


def test_rank_validation():
    S = GradedRing([("c1", 1)])
    F = BundleClass(S, 1, [S.gen("c1")])
    other = GradedRing([("c1", 1)])
    assert ProjBundleRing(F).base is S
    for base in (S, other):  # the base is the bundle's ring, never an argument
        with pytest.raises(TypeError):
            ProjBundleRing(base, F)


def test_defining_relation():
    P = generic_tower(3)
    h = P.h
    c = P.bundle
    lhs = h ** 3
    rhs = -(
        P.pullback(c.c(1)) * h * h + P.pullback(c.c(2)) * h + P.pullback(c.c(3))
    )
    assert lhs == rhs


def _push_form_reduce(P, coeffs) -> tuple:
    """The reference reduction: each slot k >= n, from the top down, pushes
    -c_j(F) * slot k into slot k - j for j = 1..n."""
    n = P.rank
    work = list(coeffs) + [P.base.zero] * max(0, n - len(coeffs))
    for k in range(len(work) - 1, n - 1, -1):
        for j in range(1, n + 1):
            work[k - j] = work[k - j] - P.bundle.c(j) * work[k]
    return tuple(work[:n])


def _dense(P, slots: dict) -> tuple:
    """The coefficients of h^0 .. h^{n-1} in a slot dict, zeros filled in."""
    return tuple(slots.get(k, P.base.zero) for k in range(P.rank))


def _brute_force_product(P, a, b) -> tuple:
    """The reference product: every raw convolution slot, then one reduction."""
    raw = [P.base.zero] * (2 * P.rank - 1)
    for i, ai in enumerate(_dense(P, a.slots)):
        for j, bj in enumerate(_dense(P, b.slots)):
            raw[i + j] = raw[i + j] + ai * bj
    return _push_form_reduce(P, raw)


def _two_level_tower() -> ProjBundleRing:
    """A rank-2 bundle over P(F), F of rank 3: products in it run ``dot`` on
    a projective-bundle base."""
    P = generic_tower(3)
    G = BundleClass(P, 2, [P.h + P.pullback(P.bundle.c(1)), P.h * P.h])
    return ProjBundleRing(G, hyperplane="k")


def test_mul_matches_brute_force_reduction():
    P = generic_tower(4)
    rng = random.Random(7)
    for _ in range(20):
        a = P.random_element(rng, 3)
        b = P.random_element(rng, 3)
        assert _dense(P, (a * b).slots) == _brute_force_product(P, a, b)


if st is not None:

    TOWERS = {f"rank {n}": (lambda n=n: generic_tower(n)) for n in range(2, 7)}
    TOWERS["two-level"] = _two_level_tower

    @pytest.mark.parametrize("tower", sorted(TOWERS))
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32), stop=st.integers(0, 5), length=st.integers(0, 13))
    def test_tower_kernel_matches_the_push_form_reference(tower, seed, stop, length):
        # mul against the raw convolution and the old push-form reduction, and
        # reduce(c, stop) against the tail of the full reduction, on random
        # elements of each tower
        P, rng = TOWERS[tower](), random.Random(seed)
        a, b = P.random_element(rng, 2), P.random_element(rng, 2)
        assert _dense(P, (a * b).slots) == _brute_force_product(P, a, b)
        coeffs = [P.base.random_element(rng, 2) for _ in range(length)]
        slots, stop = {k: c for k, c in enumerate(coeffs) if c}, min(stop, P.rank - 1)
        full = P.reduce(slots)
        assert P.reduce(slots, stop) == {k: c for k, c in full.items() if k >= stop}
        assert _dense(P, full) == _push_form_reduce(P, coeffs)


def _sparse_element(P, pool, rng) -> PBElement:
    """A random element of P whose slots are each zero about half the time;
    a slot is a sum of two products of base elements drawn from ``pool``."""

    def draw():
        x, y, z = (rng.choice(pool) for _ in range(3))
        return x * y * rng.randint(-9, 9) + z * rng.randint(-9, 9)

    return P.element({k: draw() for k in range(P.rank) if rng.random() < 0.5})


def _flop_e_tower():
    """E over P' for r = 2, a tower over a tower, with base elements drawn from
    l and pulled-back Chern classes."""
    ctx = FlopContext(2)
    pulled = (ctx.Pdual.pullback(ctx.S.gen(g)) for g in ("c1", "c2", "c3"))
    return ctx.E, [ctx.Pdual.one, ctx.l, *pulled]


def _generic_tower_3():
    """P(F) over Q[c1..c3], with base elements drawn from 1 and the c_i."""
    P = generic_tower(3)
    return P, [P.base.one, *map(P.base.gen, P.base.generator_names)]


if st is not None:

    SLOT_TOWERS = {"P(F)": _generic_tower_3(), "E of FlopContext(2)": _flop_e_tower()}

    def _stored(P, slots: dict) -> tuple:
        """The slot-dict invariant: keys in 0..n-1, no zero value; the slots
        returned dense for the references."""
        assert all(0 <= k < P.rank and c for k, c in slots.items()), slots
        return _dense(P, slots)

    @pytest.mark.parametrize("tower", sorted(SLOT_TOWERS))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_slot_arithmetic_matches_the_dot_kernel(tower, seed):
        # every operation on stored slots keeps the invariant and gives the
        # dense references' value; -, a - h·b, unary -, h·a and pull(c)·a
        # also give the value formed through the convolution of ``dot``
        (P, pool), rng = SLOT_TOWERS[tower], random.Random(seed)
        a, b = _sparse_element(P, pool, rng), _sparse_element(P, pool, rng)
        c, minus = P.pullback(rng.choice(pool) * rng.randint(-9, 9)), P.one * -1
        da, db, zero = _dense(P, a.slots), _dense(P, b.slots), P.base.zero
        long = [rng.choice([zero, *pool]) * rng.randint(-9, 9) for _ in range(2 * P.rank + 1)]
        d = rng.randint(0, 3)
        cases = [
            (a - b, _push_form_reduce(P, [x - y for x, y in zip(da, db)])),
            (P.sub(a, b, 1),
             _push_form_reduce(P, [x - y for x, y in zip([*da, zero], [zero, *db])])),
            (-a, _push_form_reduce(P, [-x for x in da])),
            (3 * a, _push_form_reduce(P, [x * 3 for x in da])),
            (0 * a, _push_form_reduce(P, [])),
            (P.h * a, _brute_force_product(P, P.h, a)),
            (c * a, _brute_force_product(P, c, a)),
            (P.sum([a, b, -a]), _push_form_reduce(P, db)),
            (a.grade_component(d), tuple(x.grade_component(d - k) for k, x in enumerate(da))),
            (P.element(dict(enumerate(long))), _push_form_reduce(P, long)),
        ]
        slots = {k: x for k, x in enumerate(long) if x}
        cases.append((PBElement(P, P.reduce(slots)), _push_form_reduce(P, long)))
        draw = random.Random(seed)  # E's base P' draws too: CH(S) has no degree-0 generator
        draws = [P.base.random_element(draw, 2) for _ in range(P.rank)]
        cases.append((P.random_element(random.Random(seed), 2), tuple(draws)))
        for value, expected in cases:
            assert _stored(P, value.slots) == expected
        assert a - b == P.dot(((a, P.one), (b, minus)))
        assert P.sub(a, b, 1) == P.dot(((a, P.one), (P.h, -b)))
        assert -a == P.dot(((a, minus),))
        assert P.h * a == P.dot(((P.h, a),))
        assert c * a == P.dot(((c, a),))
        assert P.reduce(a.slots) == P.dot(((a, P.one),)).slots


def test_shortcut_products_match_the_convolution(monkeypatch):
    # h·y is a shift and one reduce step, pull(c)·y scales y slot by slot:
    # both give the raw convolution's product, and neither calls ``dot``
    rng = random.Random(5)
    for P in [*map(generic_tower, range(1, 6)), _two_level_tower()]:
        y, c = P.random_element(rng, 2), P.base.random_element(rng, 2)
        pairs = [(P.h, y), (y, P.h), (P.pullback(c), y), (y, P.pullback(c))]
        expected = [_brute_force_product(P, a, b) for a, b in pairs]
        monkeypatch.setattr(P, "dot", None)  # a call would raise TypeError
        assert [_dense(P, P.mul(a, b).slots) for a, b in pairs] == expected, P


def test_zero_slots_and_zero_subtrahends_are_passed_through():
    P = generic_tower(3)
    x = P.pullback(P.base.gen("c1"))
    assert list((x * 5).slots) == [0] and list((P.h * x).slots) == [1]
    assert (x - x).slots == {} and P.mul(P.zero, P.h) is P.zero
    g = P.base.gen("c2")
    assert g - P.base.zero is g


def test_pushforward_table():
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
        # the table agrees with reducing h^k and pushing the element
        for k in range(2 * n):
            assert P.pushforward(P.h ** k) == P.pushforward_power(k)


def _segre_pushforward(P, a):
    """The pushforward as the Segre sum sum_k a_k s_{k-(n-1)}(F)."""
    n = P.rank
    return sum((c * P.segre(k - (n - 1)) for k, c in a.slots.items()), P.base.zero)


def _random_formal(ring, rng):
    """Random element of a tower, inhomogeneous in every coefficient slot:
    small integer combinations of 1 and three base generators."""
    if isinstance(ring, GradedRing):
        out = ring.one * rng.randint(-3, 3)
        for name in rng.sample(ring.generator_names, 3):
            out = out + ring.gen(name) * rng.randint(-3, 3)
        return out
    return ring.element({k: _random_formal(ring.base, rng) for k in range(ring.rank)})


def test_segre_extends_its_cached_list(monkeypatch):
    import chowcalc.projbundle as pb_mod

    orig = pb_mod.segre_classes
    prefixes = []

    def recording(F, k_max, known=()):
        prefixes.append((k_max, len(known)))
        return orig(F, k_max, known)

    monkeypatch.setattr(pb_mod, "segre_classes", recording)
    P = generic_tower(3)
    for k in (1, 2, 2, 5, 9):
        assert P.segre(k) == orig(P.bundle, k)[k]
    # each call starts from every class already held, and none repeats
    assert prefixes == [(1, 1), (2, 2), (5, 3), (9, 6)]


def test_pushforward_is_the_segre_sum():
    rng = random.Random(11)
    for n in range(1, 6):
        P = generic_tower(n)
        for _ in range(10):
            a = P.random_element(rng, 3)
            assert P.pushforward(a) == _segre_pushforward(P, a)
    E = FlopContext(2).E
    for _ in range(10):
        a = _random_formal(E, rng)
        assert E.rank - 1 in a.slots  # the top coefficient is exercised
        assert E.pushforward(a) == _segre_pushforward(E, a)


def test_projection_formula():
    P = generic_tower(3)
    rng = random.Random(1)
    for _ in range(20):
        s = P.base.random_element(rng, 3)
        a = P.random_element(rng, 3)
        assert P.pushforward(P.pullback(s) * a) == s * P.pushforward(a)


def test_pullback_is_a_ring_map():
    P = generic_tower(3)
    rng = random.Random(2)
    for _ in range(20):
        s = P.base.random_element(rng, 3)
        t = P.base.random_element(rng, 3)
        assert P.pullback(s * t) == P.pullback(s) * P.pullback(t)
        assert P.pullback(s + t) == P.pullback(s) + P.pullback(t)


def test_tau_kronecker_rows():
    P = generic_tower(4)  # r = 3
    for i in range(4):
        for j in range(4):
            expected = P.base.one if i == j else P.base.zero
            assert P.tau(i, j) == expected


def test_tau_first_nontrivial_row():
    n = 4
    P = generic_tower(n)
    # row r+1 = n: tau_{n,j} = -c_{n-j}
    for j in range(n):
        assert P.tau(n, j) == -P.bundle.c(n - j)


def test_tau_routes_agree_deep():
    for n in range(2, 7):
        P = generic_tower(n)
        rows = P.tau_rows(3 * (n - 1))  # raises ConsistencyError on mismatch
        assert len(rows) == 3 * (n - 1) + 1


@pytest.mark.parametrize("r", range(1, 7))
def test_tau_table_is_segre_duality(r):
    # tau_{i,m} = sum_{k=0}^{n-1-m} c_k(F) s_{i-m-k}(F) (Fulton §3.1-3.2): the
    # table, built by recursion and checked against reduction, against the
    # Segre recursion of chern, which neither route reads.  At m = n-1, i >= n
    # tau serves s_{i-n+1} itself; the next test pins it to the built rows.
    n = r + 1
    P = generic_tower(n)
    c, s = P.bundle.c, segre_classes(P.bundle, 3 * n)
    for i in range(3 * n):
        for m in range(n):
            terms = [(c(k), s[i - m - k]) for k in range(n - m) if i - m - k >= 0]
            assert P.tau(i, m) == P.base.dot(terms), (i, m)


@pytest.mark.parametrize("r", range(1, 7))
def test_served_tau_column_matches_the_built_rows(r):
    # tau(i, n-1) past the basis rows comes from the Segre classes; the rows,
    # built by recursion and checked against reduction, hold the same column
    n = r + 1
    P = generic_tower(n)
    for i in range(3 * n):
        assert P.tau(i, n - 1) == P.tau_rows(i)[i].get(n - 1, P.base.zero), i


def test_tau_column_builds_no_row_past_the_basis():
    P = generic_tower(4)
    assert [P.tau(i, 3) for i in range(4, 7)] == [P.segre(k) for k in (1, 2, 3)]
    assert len(P.tau_rows(3)) == len(P._tau_rows) == 4


def test_tau_reduction_route_catches_a_dropped_relation_term(monkeypatch):
    # the pull-form reduce without its s = t + n term, -c_n(F) * slot t + n
    old = "min(t + n, top)"
    for new in (old, "min(t + n - 1, top)"):  # the harness alone passes
        P = generic_tower(4)
        monkeypatch.setattr(P, "reduce", types.MethodType(mutated(ProjBundleRing.reduce, old, new), P))
        if new == old:
            assert len(P.tau_rows(6)) == 7
            continue
        with pytest.raises(ConsistencyError, match="recursion/reduction mismatch"):
            P.tau_rows(6)


def test_relation_stores_only_nonzero_chern_classes():
    # CH(E) of linear:4,1 lies over the center P^1, where u^2 = 0 kills c_2(N)
    # and c_3(N) of N = O(1)^3: the relation keeps -c_1(N) alone
    E = BlowupRing(linear_blowup(4, 1)).E
    assert E._minus_c == {1: -E.bundle.c(1)}
    P = generic_tower(4)
    assert P._minus_c == {j: -P.bundle.c(j) for j in range(1, 5)}


def _failed(report) -> set:
    return {c.name for c in report.checks if c.status == "fail"}


@pytest.mark.parametrize("mutate", [False, True], ids=["harness", "mutant"])
def test_relation_dropping_a_nonzero_chern_class_fails_its_readers(monkeypatch, mutate):
    # the filter of the stored relation also drops -c_1(F), which is nonzero;
    # the tau recursion reads c_j(F) itself, so its reduction route disagrees
    old = "if (c := bundle.c(j))}"
    new = "if (c := bundle.c(j)) and j > 1}" if mutate else old
    monkeypatch.setattr(ProjBundleRing, "__init__", mutated(ProjBundleRing.__init__, old, new))
    _, report = run_suite(SuiteConfig(suite="projbundle"))
    tau_checks = {c.name for c in report.checks if "tau_consistency" in c.name}
    assert tau_checks and _failed(report) == (tau_checks if mutate else set())
    _, report = run_suite(SuiteConfig(suite="blowup", case="linear:4,1"))
    assert _failed(report) == ({"blowup.ring_laws"} if mutate else set())
    readers = {"foundations.eta_push_table", "flop.sigma_top_cross_route", "flop.t1_identity"}
    for r in (1, 2, 3):
        ctx = FlopContext(r)
        report = verify_foundations(ctx)
        report.extend(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
        assert (readers <= _failed(report)) if mutate else not _failed(report), r


def test_tau_rows_are_read_only_views():
    P = generic_tower(3)
    before = [[P.tau(i, j) for j in range(3)] for i in range(6)]
    rows = P.tau_rows(5)
    rows[4] = {j: P.base.one for j in range(3)}
    rows.append(None)
    with pytest.raises(TypeError):
        rows[2][0] = P.base.one
    assert [[P.tau(i, j) for j in range(3)] for i in range(6)] == before
    assert len(P.tau_rows(5)) == 6


def test_tau_homogeneity():
    P = generic_tower(4)
    for i in range(10):
        for j in range(4):
            v = P.tau(i, j)
            assert v.is_homogeneous(i - j)


def test_tau_out_of_range_columns():
    P = generic_tower(3)
    assert P.tau(2, -1) == P.base.zero
    assert P.tau(2, 3) == P.base.zero


def test_cotangent_chern_against_euler_sequence():
    for n in range(2, 7):
        P = generic_tower(n)
        euler = P.cotangent_chern_via_euler()
        assert euler.rank == n
        for i in range(n):
            assert P.cotangent_chern(i) == euler.c(i)


def test_cotangent_twist_against_tensor_formula():
    for n in range(1, 7):
        P = generic_tower(n)
        twist = P.cotangent_twist_via_tensor()
        assert len(twist) == n
        for i in range(n):
            assert P.cotangent_twist_chern(i) == twist[i]


def test_binomial_identity_exhaustive():
    start = time.perf_counter()
    for r in range(1, 13):
        ok, failures = binomial_identity_check(r)
        assert ok, failures
    assert time.perf_counter() - start < 1.0


def test_binomial_identity_sum_values():
    assert binomial_identity_sum(4, 3, 1) == 1
    assert binomial_identity_sum(4, 3, 2) == -1
    assert binomial_identity_sum(7, 5, 5) == 1


def test_element_coercion():
    P = generic_tower(2)
    c1 = P.bundle.c(1)
    # a base element enters the bundle ring only through the pullback p^*,
    # an integer only as a scale factor
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((c1, P.h), (P.h, c1)):
            with pytest.raises(TypeError):
                op(a, b)
    for op in (operator.add, operator.sub):
        for a, b in ((P.h, 1), (1, P.h)):
            with pytest.raises(TypeError):
                op(a, b)
    assert (c1 == P.pullback(c1)) is False
    assert (P.h * 2).slots == {1: 2 * P.base.one}
    assert 2 * P.h == P.h + P.h


def test_grade_component_and_homogeneity():
    P = generic_tower(3)
    x = P.pullback(P.bundle.c(2)) + P.h
    assert x.grade_component(1) == P.h
    assert x.grade_component(2) == P.pullback(P.bundle.c(2))
    assert not any(x.is_homogeneous(d) for d in range(4))
    assert (P.h * P.h).is_homogeneous(2)


def test_nested_tower():
    # a projective bundle over a projective bundle still satisfies the laws
    P = generic_tower(2)
    G = BundleClass(P, 2, [P.h, P.h * P.h])
    Q = ProjBundleRing(G, hyperplane="k")
    rng = random.Random(3)
    for _ in range(10):
        a = Q.random_element(rng, 2)
        b = Q.random_element(rng, 2)
        assert a * b == b * a
        assert Q.pushforward(Q.pullback(P.h) * a) == P.h * Q.pushforward(a)


@pytest.mark.parametrize(
    "reject, token",
    [
        (lambda P, Q: P.dot([(P.h, P.h), (P.h, Q.h)]), "different projective-bundle ring"),
        (lambda P, Q: P.cotangent_chern(-1), "got -1"),
        (lambda P, Q: P.cotangent_twist_chern(-2), "got -2"),
        (lambda P, Q: binomial_identity_check(-1), "got -1"),
    ],
    ids=["dot-pair", "cotangent", "cotangent-twist", "binomial"],
)
def test_projbundle_inputs_are_rejected_by_name(reject, token):
    with pytest.raises(ValueError, match=token):
        reject(generic_tower(3), generic_tower(3))
