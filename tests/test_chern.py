import math
import random
from fractions import Fraction

import pytest

import chowcalc.chern as chern_mod
import chowcalc.projbundle as pb_mod
from chowcalc import (
    BundleClass,
    CharClass,
    GradedRing,
    ProjBundleRing,
    binomial,
    chern_character,
    dual_bundle,
    mukai_vector,
    power_sums,
    segre_classes,
    sqrt_one_series,
    tensor_by_line,
    todd_class,
    whitney_sum,
)
from chowcalc.chern import todd_universal
from chowcalc.cli import SuiteConfig, run_suite
from conftest import mutated


@pytest.fixture
def ring():
    return GradedRing([("a", 1), ("b", 2), ("c", 3), ("l", 1)], dim_bound=8)


@pytest.fixture
def bundle(ring):
    return BundleClass(ring, 3, [ring.gen("a"), ring.gen("b"), ring.gen("c")])


def test_binomial_outside_range():
    assert binomial(5, 2) == 10
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    assert binomial(0, 0) == 1


def test_bundle_validation(ring):
    with pytest.raises(ValueError):
        BundleClass(ring, 0, [])
    with pytest.raises(ValueError):
        # wrong number of classes
        BundleClass(ring, 2, [ring.gen("a")])
    with pytest.raises(ValueError):
        # c_2 not homogeneous of degree 2
        BundleClass(ring, 2, [ring.gen("a"), ring.gen("a")])


def test_chern_conventions(bundle, ring):
    assert bundle.c(0) == ring.one
    assert bundle.c(4) == ring.zero
    assert bundle.c(-1) == ring.zero


def test_segre_inverts_chern(bundle, ring):
    s = segre_classes(bundle, 8)
    prod = bundle.total_chern() * sum(s[1:], s[0])
    assert prod.grade_component(0) == ring.one
    for d in range(1, 9):
        assert not prod.grade_component(d)


def test_segre_of_line_bundle_is_geometric_series(ring):
    # s(L) = 1 / (1 + l) = 1 - l + l^2 - ...
    l = ring.gen("l")
    L = BundleClass(ring, 1, [l])
    s = segre_classes(L, 6)
    for k in range(7):
        assert s[k] == l ** k * (-1) ** k


def test_dual_is_an_involution(bundle):
    dd = dual_bundle(dual_bundle(bundle))
    assert all(dd.c(i) == bundle.c(i) for i in range(4))


def test_tensor_by_line_trivial_rank_two(ring):
    l = ring.gen("l")
    F = BundleClass(ring, 2, [ring.zero, ring.zero])
    T = tensor_by_line(F, l)
    assert T.c(1) == 2 * l
    assert T.c(2) == l * l


def test_tensor_by_line_then_untwist(bundle, ring):
    l = ring.gen("l")
    assert all(
        tensor_by_line(tensor_by_line(bundle, l), -l).c(i) == bundle.c(i)
        for i in range(4)
    )


def test_tensor_rejects_inhomogeneous(bundle, ring):
    with pytest.raises(ValueError):
        tensor_by_line(bundle, ring.gen("b"))


def test_whitney_sum_total_chern(bundle, ring):
    F = BundleClass(ring, 1, [ring.gen("l")])
    W = whitney_sum(bundle, F)
    assert W.rank == 4
    assert W.total_chern() == bundle.total_chern() * F.total_chern()


def test_power_sums_on_split_bundle(ring):
    # for a sum of two line bundles with roots a, l: p_k = a^k + l^k
    a, l = ring.gen("a"), ring.gen("l")
    F = whitney_sum(BundleClass(ring, 1, [a]), BundleClass(ring, 1, [l]))
    p = power_sums(F, 5)
    for k in range(1, 6):
        assert p[k] == a ** k + l ** k


def test_chern_character_of_line_bundle(ring):
    l = ring.gen("l")
    ch = chern_character(BundleClass(ring, 1, [l]), 6)
    for k in range(7):
        assert ch.component(k) == l ** k * Fraction(1, math.factorial(k))


def test_chern_character_degree_two(bundle):
    # ch_2 = (c_1^2 - 2 c_2) / 2
    ch = chern_character(bundle, 4)
    expected = (bundle.c(1) ** 2 - 2 * bundle.c(2)) * Fraction(1, 2)
    assert ch.component(2) == expected


def test_chern_character_additive(bundle, ring):
    F = BundleClass(ring, 2, [ring.gen("l"), ring.gen("b")])
    lhs = chern_character(whitney_sum(bundle, F), 6)
    rhs = chern_character(bundle, 6) + chern_character(F, 6)
    assert lhs == rhs


def _todd_series(k_max: int) -> list[Fraction]:
    """t / (1 - e^{-t}) up to t^k_max, by long division of 1 by
    q = (1 - e^{-t}) / t = sum_m (-1)^m t^m / (m+1)!."""
    q = [Fraction((-1) ** m, math.factorial(m + 1)) for m in range(k_max + 1)]
    ts = []
    for m in range(k_max + 1):
        ts.append(Fraction(m == 0) - sum(ts[i] * q[m - i] for i in range(m)))
    return ts


def test_todd_series_reference_values(ring):
    # td(L) = 1 + l/2 + l^2/12 + 0 l^3 - l^4/720 + ... for L = O(l)
    l = ring.gen("l")
    td = todd_class(BundleClass(ring, 1, [l]), 6)
    expected = [1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720)]
    for k, coeff in enumerate(expected):
        assert td.component(k) == l ** k * coeff


def test_todd_low_degree_formulas(bundle):
    td = todd_class(bundle, 3)
    c1, c2, c3 = bundle.c(1), bundle.c(2), bundle.c(3)
    assert td.component(1) == c1 * Fraction(1, 2)
    assert td.component(2) == (c1 * c1 + c2) * Fraction(1, 12)
    assert td.component(3) == c1 * c2 * Fraction(1, 24)


def test_todd_universal_contract():
    # Pairs keyed by exponent tuples over (c1, c2, c3, c4), cached by lru_cache.
    assert callable(todd_universal.cache_clear)
    assert dict(todd_universal(4)) == {
        (4, 0, 0, 0): Fraction(-1, 720),
        (2, 1, 0, 0): Fraction(4, 720),
        (0, 2, 0, 0): Fraction(3, 720),
        (1, 0, 1, 0): Fraction(1, 720),
        (0, 0, 0, 1): Fraction(-1, 720),
    }


@pytest.mark.parametrize("n", range(1, 9))
def test_hirzebruch_riemann_roch_on_projective_space(n):
    # chi(P^n, O(k)) = C(n + k, n) = integral of e^{kH} td(T_{P^n}), where
    # c(T) = (1 + H)^{n+1}; e^{kH} is summed directly, not through ch.
    ring = GradedRing([("H", 1)], dim_bound=n)
    H = ring.gen("H")
    T = BundleClass(ring, n, [H ** i * binomial(n + 1, i) for i in range(1, n + 1)])
    td = todd_class(T, n).value
    for k in range(-1, 4):
        exp_kH = ring.zero
        for j in range(n + 1):
            exp_kH = exp_kH + H ** j * Fraction(k ** j, math.factorial(j))
        top = (exp_kH * td).grade_component(n)
        assert top == H ** n * binomial(n + k, n)


def test_todd_of_line_bundle_matches_series(ring, bundle):
    # td(L) = sum_k ts_k c_1(L)^k, for L = O(l) on the graded base ring and
    # for L = O(h) on P(F), whose ring is not a GradedRing; ts comes from the
    # long division above, which chowcalc does not compute
    ts = _todd_series(6)
    for l in (ring.gen("l"), ProjBundleRing(bundle).h):
        td = todd_class(BundleClass(l.ring, 1, [l]), 6)
        for k in range(7):
            assert td.component(k) == l ** k * ts[k]


def test_todd_multiplicative(bundle, ring):
    F = BundleClass(ring, 2, [ring.gen("l"), ring.gen("b")])
    assert todd_class(whitney_sum(bundle, F), 6) == todd_class(bundle, 6) * todd_class(
        F, 6
    )


def test_sqrt_one_series_example(ring):
    x = ring.gen("a")
    a = CharClass(ring.one + 2 * x, 4)
    root = sqrt_one_series(a)
    assert root.component(1) == x
    assert root.component(2) == x * x * Fraction(-1, 2)
    assert root * root == a


def test_sqrt_squares_back_randomly(ring):
    rng = random.Random(4)
    for _ in range(10):
        val = ring.one + sum(
            (ring.random_homogeneous(rng, d) for d in range(1, 7)), ring.zero
        )
        a = CharClass(val, 6)
        root = sqrt_one_series(a)
        assert root * root == a


@pytest.mark.parametrize("dim_bound", [None, 3, 6, 8])
def test_charclass_cuts_at_max_deg_as_its_components_sum(dim_bound):
    # the one-pass cut on the keys' degree field against the component sum,
    # on rings bounded below, at and above max_deg and on an unbounded ring
    ring = GradedRing([("a", 1), ("b", 2), ("l", 1)], dim_bound=dim_bound)
    rng = random.Random(7)
    x, y = (ring.one + ring.random_element(rng, 4) for _ in range(2))
    full = x * y
    for max_deg in range(6):
        product = (CharClass(x, max_deg) * CharClass(y, max_deg)).value
        assert product == ring.sum(full.grade_component(d) for d in range(max_deg + 1))
        assert product.ring is ring and all(product.terms.values())


def test_charclass_cuts_tower_classes_by_their_components(bundle):
    # P(F) has no packed keys: its classes are cut component by component
    h = ProjBundleRing(bundle).h
    x = CharClass(h.ring.one + h, 1)
    assert (x * x).value == h.ring.one + h * 2


def test_charclass_repr_and_equality(ring):
    x = CharClass(ring.gen("a"), 3)
    assert repr(x) == "CharClass(value=<1 * a>, max_deg=3)"
    assert x == CharClass(ring.gen("a"), 3) != CharClass(ring.gen("a"), 4)
    assert x.__eq__(ring.gen("a")) is NotImplemented
    with pytest.raises(AttributeError):
        x.extra = 1  # slotted: value and max_deg only


def test_sqrt_requires_unit(ring):
    with pytest.raises(ValueError):
        sqrt_one_series(CharClass(ring.gen("a"), 3))


def test_mukai_vector_of_trivial_line_bundle(ring):
    # v(O) on a surface-like tangent with c_1 = 0: sqrt(td) = 1 + c_2/24 + ...
    b = ring.gen("b")
    trivial = BundleClass(ring, 1, [ring.zero])
    tangent = BundleClass(ring, 2, [ring.zero, b])
    v = mukai_vector(trivial, tangent, 2)
    assert v.component(0) == ring.one
    assert v.component(1) == ring.zero
    assert v.component(2) == b * Fraction(1, 24)


def test_ch_of_twist_is_ch_times_exp(bundle, ring):
    l = ring.gen("l")
    lhs = chern_character(tensor_by_line(bundle, l), 6)
    exp_l = ring.one
    power = ring.one
    for k in range(1, 7):
        power = power * l
        exp_l = exp_l + power * Fraction(1, math.factorial(k))
    assert lhs == chern_character(bundle, 6) * CharClass(exp_l, 6)


@pytest.mark.parametrize("k_max", [-1, -4])
def test_segre_classes_reject_a_negative_degree_by_name(bundle, k_max):
    with pytest.raises(ValueError, match=f"got {k_max}"):
        segre_classes(bundle, k_max)


@pytest.mark.parametrize("function", [chern_character, todd_class, mukai_vector])
@pytest.mark.parametrize("max_deg", [-1, -4])
def test_characteristic_classes_reject_a_negative_degree_by_name(bundle, function, max_deg):
    args = (bundle, bundle, max_deg) if function is mukai_vector else (bundle, max_deg)
    with pytest.raises(ValueError, match=f"got {max_deg}"):
        function(*args)


@pytest.mark.parametrize("mutate", [False, True], ids=["harness", "mutant"])
def test_segre_recursion_missing_its_last_term_fails_the_segre_readers(
    monkeypatch, mutate
):
    # s_m = -sum_{i=1}^{m-1} c_i s_{m-i}: the c_m term is dropped

    old = "for i in range(1, m + 1)"
    mutant = mutated(segre_classes, old, "for i in range(1, m)" if mutate else old)
    monkeypatch.setattr(chern_mod, "segre_classes", mutant)
    monkeypatch.setattr(pb_mod, "segre_classes", mutant)
    status, report = run_suite(SuiteConfig(suite="all"))
    failed = {c.name for c in report.checks if c.status == "fail"}
    if not mutate:
        assert status == 0 and not failed
        return
    readers = ["foundations.eta_push_table", "foundations.symmetry"]
    readers += ["flop.help_sum_identity", "flop.term_A_routes"]
    expected = {f"r{r}.{name}" for r in (1, 2, 3) for name in readers}
    expected |= {f"projbundle.push_table_r{r}" for r in (1, 2, 3)}
    assert expected | {"charclass.chern_segre_inverse"} <= failed


@pytest.mark.parametrize("mutate", [False, True], ids=["harness", "mutant"])
def test_todd_class_from_log_q_fails_the_todd_oracles(monkeypatch, mutate):
    # g = log q instead of -log q, q = (1 - e^{-t}) / t
    old = "g = [-x for x in _log_unit_series(q)]"
    new = "g = _log_unit_series(q)" if mutate else old
    mutant = mutated(todd_class, old, new)
    monkeypatch.setattr(chern_mod, "todd_class", mutant)  # read by todd_universal
    monkeypatch.setitem(globals(), "todd_class", mutant)  # read by the HRR test
    oracles = [test_todd_universal_contract]
    hrr = test_hirzebruch_riemann_roch_on_projective_space
    oracles += [lambda n=n: hrr(n) for n in range(1, 9)]
    todd_universal.cache_clear()
    try:
        for oracle in oracles:
            if mutate:
                with pytest.raises(AssertionError):
                    oracle()
            else:
                oracle()
    finally:
        todd_universal.cache_clear()


@pytest.mark.parametrize("mutate", [False, True], ids=["harness", "mutant"])
def test_rational_kernel_missing_one_rescale_fails_the_todd_readers(monkeypatch, mutate):
    # on a ring marked rational, dot leaves its first pair over that pair's
    # own d_x·d_y instead of the common denominator D
    old = "scaled(x, den // dy), scaled(y, dy)) for x, y, dy in listed]"
    new = "scaled(x, den // dy if i else denominator(x)), scaled(y, dy))"
    new += " for i, (x, y, dy) in enumerate(listed)]"
    mutant = mutated(GradedRing._numerators, old, new if mutate else old)
    monkeypatch.setattr(GradedRing, "_numerators", mutant)
    status, report = run_suite(SuiteConfig(suite="all"))
    failed = {c.name for c in report.checks if c.status == "fail"}
    hrr_failed = set()
    for n in range(1, 9):
        try:
            test_hirzebruch_riemann_roch_on_projective_space(n)
        except AssertionError:
            hrr_failed.add(n)
    if not mutate:
        assert status == 0 and not failed and not hrr_failed
        return
    # ch, its twist and c(E)·s(E) add products over one denominator, which
    # the mutant leaves right; the Todd recurrence, its square root and
    # Riemann-Roch on P^n for n >= 3 mix denominators within one dot
    assert failed == {"charclass.td_multiplicative", "charclass.sqrt_todd"}
    assert hrr_failed == set(range(3, 9))
