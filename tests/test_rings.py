import itertools
import operator
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from chowcalc import (
    BlowupRing,
    BundleClass,
    ConsistencyError,
    FlopContext,
    GradedRing,
    PBElement,
    ProjBundleRing,
    linear_blowup,
)
from chowcalc.blowup import BlowupClass
from chowcalc.chern import generic_bundle
from chowcalc.report import Report
from chowcalc.rings import COEFF_RANGE, FIELD_BITS, GradedElement, RingElement, powers

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # without hypothesis only the property test is left out
    st = None


@pytest.fixture
def ring():
    return GradedRing([("x", 1), ("y", 2), ("z", 1)])


def test_ring_make_from_spec():
    R = GradedRing([("t", 1)], dim_bound=3)
    t = R.gen("t")
    assert t ** 3 == t * t * t
    assert not t ** 4


def test_construction_rejects_bad_generators():
    with pytest.raises(ValueError):
        GradedRing([("x", 1), ("x", 2)])  # duplicate name
    with pytest.raises(ValueError):
        GradedRing([("x", -1)])
    with pytest.raises(ValueError):
        GradedRing([("not an identifier", 1)])


def test_basic_arithmetic(ring):
    x, y, z = ring.gen("x"), ring.gen("y"), ring.gen("z")
    assert (x + z) * (x - z) == x * x - z * z
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert x * 0 == ring.zero
    assert ring.one * 5 + x == x + ring.one * 5
    assert -(x - z) == z - x
    assert (Fraction(1, 2) * x) * 2 == x


def test_ring_mismatch_raises(ring):
    other = GradedRing([("x", 1)])
    with pytest.raises(ValueError):
        ring.gen("x") + other.gen("x")


def test_truncation_by_dim_bound():
    R = GradedRing([("t", 1)], dim_bound=2)
    t = R.gen("t")
    assert not (t ** 3)
    assert (t ** 2) * t == R.zero
    # truncation is idempotent with arithmetic
    assert (t + t ** 2) * (t + t ** 2) == t ** 2
    # a generator above the bound is truncated however it is built
    Z = GradedRing([("t", 1)], dim_bound=0)
    assert Z.gen("t") == Z.gen("t") * 1 == Z.zero
    assert str(Z.gen("t")) == "0"


# the largest exponent a packed key holds; one more sets the field's guard bit
TOP_EXPONENT = 2 ** (FIELD_BITS - 1) - 1


def test_pack_rejects_an_exponent_at_the_guard_bit():
    R = GradedRing([("x", 1), ("s", 0)])
    for exps in [(TOP_EXPONENT + 1, 0), (0, TOP_EXPONENT + 1), (-1, 0)]:
        with pytest.raises(ValueError, match=re.escape(str(exps))):
            R.pack(exps)
        with pytest.raises(ValueError, match=re.escape(str(exps))):
            R.element({exps: 1})
    assert R.exponents(R.pack((TOP_EXPONENT, TOP_EXPONENT))) == (TOP_EXPONENT, TOP_EXPONENT)


def test_product_past_the_guard_bit_raises():
    half = (TOP_EXPONENT + 1) // 2
    R = GradedRing([("x", 1)])
    x = R.element({(half,): 1})
    with pytest.raises(ValueError, match="overflow"):
        x * x
    assert x * R.element({(half - 1,): 1}) == R.element({(TOP_EXPONENT,): 1})
    # in either field, and on a bounded ring through a degree-0 generator
    for exps in [(half, 0), (0, half)]:
        for bound in (None, 3):
            y = GradedRing([("s", 0), ("t", 0)], dim_bound=bound).element({exps: 1})
            with pytest.raises(ValueError, match="overflow"):
                y * y
            # dot, whichever pair overflows and whatever it starts from
            ring = y.ring
            with pytest.raises(ValueError, match="overflow"):
                ring.dot([(ring.one, y), (y, y)], start=ring.one)
    with pytest.raises(ValueError, match="overflow"):
        R.dot([(x, x), (R.one, R.one)])


def test_a_bound_that_reaches_the_guard_still_raises():
    # a bound of at least 2**(FIELD_BITS - 1) lets a kept exponent reach the
    # guard bit, as no bound and a degree-0 generator do above
    half = (TOP_EXPONENT + 1) // 2
    for bound in (2 * half, 3 * half):
        R = GradedRing([("x", 1)], dim_bound=bound)
        x = R.element({(half,): 1})
        with pytest.raises(ValueError, match="overflow"):
            x * x
        with pytest.raises(ValueError, match="overflow"):
            R.dot([(R.one, x), (x, x)], start=R.one)
    # one below: x^half squared is past the bound, skipped, and never kept
    R = GradedRing([("x", 1), ("y", 2)], dim_bound=2 * half - 1)
    x = R.element({(half, 0): 1})
    assert x * x == R.zero


def test_sum_stores_a_new_key_as_it_is():
    # no int + Fraction for a key the running sum does not hold yet
    R = GradedRing([("x", 1), ("y", 1)], dim_bound=3)
    x, y = R.gen("x") * Fraction(1, 3), R.gen("y") * Fraction(2, 5)
    total = R.sum([x, y, -x])
    assert total == y and total.terms[R.pack((0, 1))] is y.terms[R.pack((0, 1))]
    assert R.pack((1, 0)) not in total.terms  # a cancelled key is dropped


def test_combine_is_a_sum_of_scaled_rows():
    R = GradedRing([("x", 1), ("y", 1)], dim_bound=3)
    x, y = R.gen("x"), R.gen("y")
    rows = [(x + y, 2), (x * y, -1), (x - y, 2), (y, 0)]
    assert R.combine(rows) == R.sum(a * c for a, c in rows) == 4 * x - x * y
    assert not R.rational  # whole coefficients leave the ring unmarked
    assert R.combine([(x, Fraction(1, 2)), (x, Fraction(1, 2))]) == x and R.rational
    with pytest.raises(ValueError, match="different rings"):
        R.combine([(GradedRing([("x", 1)]).gen("x"), 1)])


def test_guard_trip_inside_a_check_is_a_failed_entry():
    R = GradedRing([("x", 1)])
    x = R.element({((TOP_EXPONENT + 1) // 2,): 1})
    with pytest.raises(ValueError) as raised:
        x * x
    report = Report()
    assert report.run("overflow", "x^(2^14) squared", lambda: x * x) is None
    [entry] = report.checks
    assert entry.status == "fail"
    assert entry.witness == f"ValueError: {raised.value}"


def test_grade_components_resum(ring):
    rng = random.Random(5)
    a = ring.random_element(rng, 5)
    total = ring.zero
    for d in range(0, 6):
        part = a.grade_component(d)
        assert part.is_homogeneous(d)
        total = total + part
    assert total == a


def test_degree_and_homogeneity(ring):
    x, y = ring.gen("x"), ring.gen("y")
    assert (x * y).is_homogeneous(3)
    assert not any((x + y).is_homogeneous(d) for d in range(4))
    assert ring.zero.is_homogeneous(0)


def test_substitute_is_a_homomorphism(ring):
    target = GradedRing([("u", 1)])
    u = target.gen("u")
    images = {"x": u, "y": u * u, "z": 2 * u}
    rng = random.Random(9)
    for _ in range(25):
        a = ring.random_element(rng, 4)
        b = ring.random_element(rng, 4)
        fa = a.substitute(images, target)
        fb = b.substitute(images, target)
        assert (a + b).substitute(images, target) == fa + fb
        assert (a * b).substitute(images, target) == fa * fb


def test_substitute_missing_image(ring):
    target = GradedRing([("u", 1)])
    with pytest.raises(KeyError):
        ring.gen("y").substitute({"x": target.gen("u")}, target)


def test_ring_laws_on_random_triples(ring):
    rng = random.Random(0)
    for _ in range(300):
        a = ring.random_element(rng, 3)
        b = ring.random_element(rng, 3)
        c = ring.random_element(rng, 3)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_homogeneous_times_homogeneous(ring):
    rng = random.Random(3)
    for _ in range(50):
        a = ring.random_homogeneous(rng, 2)
        b = ring.random_homogeneous(rng, 3)
        prod = a * b
        assert prod.is_homogeneous(5)


def test_serialization_round_trip(ring):
    rng = random.Random(11)
    for _ in range(50):
        a = ring.random_element(rng, 4)
        text = str(a)
        assert str(ring.parse(text)) == text
        assert ring.parse(text) == a
    assert str(ring.zero) == "0"
    assert ring.parse("0") == ring.zero


if st is not None:

    @st.composite
    def rings_and_elements(draw):
        """A ring with random generator names and degrees, with or without a
        dimension bound, and an element with rational coefficients."""
        names = draw(st.lists(
            st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True),
            min_size=1, max_size=4, unique=True,
        ))
        degrees = draw(st.lists(st.integers(0, 3), min_size=len(names),
                                max_size=len(names)))
        bound = draw(st.none() | st.integers(0, 6))
        ring = GradedRing(zip(names, degrees), dim_bound=bound)
        exponents = st.tuples(*[st.integers(0, 3)] * len(names))
        coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        terms = draw(st.dictionaries(exponents, coefficient, max_size=8))
        return ring, ring.element(terms)

    @settings(max_examples=200)
    @given(rings_and_elements())
    def test_parse_inverts_str(ring_and_element):
        ring, x = ring_and_element
        text = str(x)
        assert ring.parse(text) == x
        assert str(ring.parse(text)) == text

    @settings(max_examples=100)
    @given(st.data())
    def test_int_and_whole_fraction_coefficients_agree(data):
        # after a division, whole coefficients can be Fractions; they must
        # mix with int ones exactly, in value and in print
        bound = data.draw(st.none() | st.integers(0, 6))
        ring = GradedRing([("x", 1), ("y", 2), ("z", 0)], dim_bound=bound)
        exponents = st.tuples(*[st.integers(0, 3)] * 3)

        def twins():
            terms = data.draw(st.dictionaries(exponents, st.integers(-20, 20), max_size=6))
            as_int = ring.element(terms)
            as_fraction = as_int * Fraction(1, 2) * 2
            assert all(type(c) is int for c in as_int.terms.values())
            assert all(type(c) is Fraction for c in as_fraction.terms.values())
            return as_int, as_fraction

        a, b = twins(), twins()
        values = [p * q + p - 3 * q for p in a for q in b]
        assert all(v == values[0] for v in values)
        assert len({str(v) for v in values}) == 1


    @settings(max_examples=100)
    @given(st.data())
    def test_packed_keys_keep_exponents_degree_order_and_grades(data):
        # round trip, key order against (degree, exponents) order, and
        # grade_component against a filter by degrees summed here, on mixed
        # degrees with one of degree 0, exponents up to the guard bit
        degrees = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        bound = data.draw(st.none() | st.integers(0, 6))
        ring = GradedRing(
            [("z", 0), *((f"x{i}", d) for i, d in enumerate(degrees))], dim_bound=bound
        )
        exponent = st.integers(0, 3) | st.integers(0, TOP_EXPONENT)
        exps = data.draw(st.lists(st.tuples(*[exponent] * ring.nvars), max_size=8, unique=True))
        keys = [ring.pack(e) for e in exps]
        assert [ring.exponents(k) for k in keys] == exps
        summed = {e: sum(map(operator.mul, e, ring.degrees)) for e in exps}
        assert [ring.exponents(k) for k in sorted(keys)] == sorted(
            exps, key=lambda e: (summed[e], e)
        )
        x = ring.element({e: 1 for e in exps})
        for d in {*summed.values(), data.draw(st.integers(0, 10))}:
            wanted = {e for e, deg in summed.items() if deg == d and (bound is None or d <= bound)}
            assert {ring.exponents(k) for k in x.grade_component(d).terms} == wanted
            assert x.grade_component(d).is_homogeneous(d)

    def _tuple_terms(x) -> dict:
        """The terms of x keyed by exponent tuples, as ``element`` takes them."""
        return {x.ring.exponents(key): c for key, c in x.terms.items()}

    def _merged(term_dicts) -> Counter:
        """The reference sum: every coefficient added into one Counter."""
        merged = Counter()
        for terms in term_dicts:
            merged.update(terms)
        return merged

    @settings(max_examples=100)
    @given(st.data())
    def test_sum_matches_the_merged_coefficient_dict(data):
        # ring.sum against ring.element of the merged dict, with and without
        # a dimension bound, and slot by slot in a projective bundle
        bound = data.draw(st.none() | st.integers(0, 6))
        S = GradedRing([("x", 1), ("y", 2), ("z", 0)], dim_bound=bound)
        exponents = st.tuples(*[st.integers(0, 3)] * 3)
        coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        element = st.dictionaries(exponents, coefficient, max_size=6).map(S.element)
        xs = data.draw(st.lists(element, max_size=6))
        assert S.sum(xs).terms == S.element(_merged(map(_tuple_terms, xs))).terms
        P = ProjBundleRing(BundleClass(S, 2, [S.gen("x"), S.gen("y")]))
        pairs = data.draw(st.lists(st.tuples(element, element), max_size=6))
        ys = [P.element(dict(enumerate(pair))) for pair in pairs]
        merged = (_merged(_tuple_terms(y.slots.get(k, S.zero)) for y in ys) for k in range(2))
        slots = map(S.element, merged)
        assert P.sum(ys).slots == {k: x for k, x in enumerate(slots) if x}


    def _truncated(ring, counter) -> dict:
        """The reference truncation: zeros and terms above the bound dropped,
        with degrees summed here rather than by the ring."""
        bound = ring.dim_bound
        return {
            e: c for e, c in counter.items()
            if c and (bound is None or sum(map(operator.mul, e, ring.degrees)) <= bound)
        }

    @settings(max_examples=100)
    @given(st.data())
    def test_bounded_kernel_matches_the_full_product_truncated(data):
        # product, scalar product and sum against the full Counter result with
        # zeros and terms above the bound dropped, on mixed degrees with one
        # of degree 0, which the bound ignores
        degrees = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        bound = data.draw(st.none() | st.integers(0, 6))
        ring = GradedRing(
            [("z", 0), *((f"x{i}", d) for i, d in enumerate(degrees))], dim_bound=bound
        )
        exponents = st.tuples(*[st.integers(0, 3)] * ring.nvars)
        coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        raw = data.draw(st.lists(st.dictionaries(exponents, coefficient, max_size=6),
                                 min_size=2, max_size=5))
        xs = [ring.element(terms) for terms in raw]
        full = Counter()
        for e1, c1 in raw[0].items():
            for e2, c2 in raw[1].items():
                full[tuple(map(operator.add, e1, e2))] += c1 * c2
        reference = ring.element(_truncated(ring, full))
        assert (xs[0] * xs[1]).terms == reference.terms
        c = data.draw(st.sampled_from([0, 1, -3]) | coefficient)
        scaled = Counter({e: k * c for e, k in raw[0].items()})
        reference = ring.element(_truncated(ring, scaled))
        assert (xs[0] * c).terms == reference.terms
        reference = ring.element(_truncated(ring, _merged(raw)))
        assert ring.sum(xs).terms == reference.terms

    @pytest.mark.parametrize("bound", [None, 4])
    @settings(max_examples=100)
    @given(data=st.data())
    def test_dot_is_start_plus_the_sum_of_products(bound, data):
        # the fused kernel against start + ring.sum of one product per pair,
        # on a free ring and on a dim_bound ring
        ring = GradedRing([("z", 0), ("x", 1), ("y", 2)], dim_bound=bound)
        exponents = st.tuples(*[st.integers(0, 3)] * 3)
        coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        element = st.dictionaries(exponents, coefficient, max_size=6).map(ring.element)
        pairs = data.draw(st.lists(st.tuples(element, element), max_size=5))
        start = data.draw(st.none() | element)
        products = ring.sum(x * y for x, y in pairs)
        expected = products if start is None else start + products
        assert ring.dot(pairs, start).terms == expected.terms
        assert ring.dot(iter(pairs), start).terms == expected.terms  # one pass

    @pytest.mark.parametrize("bound", [None, 4])
    @settings(max_examples=100)
    @given(data=st.data())
    def test_rational_ring_matches_a_fraction_reference(bound, data):
        # on a ring marked rational: dot over one common denominator, the
        # one-pass - and _scaled against Counters of Fractions, truncated here
        ring = GradedRing([("z", 0), ("x", 1), ("y", 2)], dim_bound=bound)
        ring.one * Fraction(1, 3)
        assert ring.rational
        exponents = st.tuples(*[st.integers(0, 3)] * 3)
        coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        raw = st.dictionaries(exponents, coefficient, max_size=6)
        raw_pairs = data.draw(st.lists(st.tuples(raw, raw), max_size=5))
        raw_start = data.draw(st.none() | raw)
        full = Counter(raw_start or {})
        for a, b in raw_pairs:
            for (e1, c1), (e2, c2) in itertools.product(a.items(), b.items()):
                full[tuple(map(operator.add, e1, e2))] += c1 * c2
        pairs = [(ring.element(a), ring.element(b)) for a, b in raw_pairs]
        start = None if raw_start is None else ring.element(raw_start)
        a, b = data.draw(raw), data.draw(raw)
        c = data.draw(st.sampled_from([0, 1, -3]) | coefficient)
        x, y = ring.element(a), ring.element(b)
        difference = Counter(a)
        difference.subtract(b)
        dot = ring.dot(pairs, start)
        for got, reference in [
            (dot, full),
            (x - y, difference),
            (x * c, Counter({e: k * c for e, k in a.items()})),
        ]:
            assert _tuple_terms(got) == _truncated(ring, reference)
            assert all(k and e < ring._limit for e, k in got.terms.items())  # canonical
        assert all(type(k) is int for k in dot.terms.values() if k.denominator == 1)


@pytest.mark.parametrize(
    "text, token",
    [
        ("w", "'w'"),  # unknown generator
        ("2*x", "'2'"),  # coefficient glued to a monomial
        ("1/0 * x", "'1/0'"),
        ("x^k", "'k'"),
        ("x^-1", "'-1'"),
        ("x^2^3", "'2^3'"),
        ("x^²", "bad exponent '²'"),  # a digit to str.isdigit, not to int()
        ("", "empty term in ''"),
        ("  ", "empty term in ''"),
        ("x +  + y", "empty term in 'x +  + y'"),
    ],
)
def test_parse_rejects_malformed_text(ring, text, token):
    with pytest.raises(ValueError, match=re.escape(token)):
        ring.parse(text)


def test_rational_coefficients_allowed_by_default(ring):
    a = ring.gen("x") * Fraction(3, 7)
    assert any(c.denominator != 1 for c in a.terms.values())


def _coefficients(x):
    """Every base-ring coefficient of a graded, tower or blow-up element."""
    if hasattr(x, "terms"):
        return list(x.terms.values())
    if hasattr(x, "slots"):
        return [c for part in x.slots.values() for c in _coefficients(part)]
    return _coefficients(x.ambient) + _coefficients(x.exceptional)


def test_products_without_division_keep_int_coefficients():
    ctx = FlopContext(3)
    entries = [entry for row in ctx.P.tau_rows(6) for entry in row.values()]
    bl, x = _blowup_class()
    for value in [*entries, x * x, x * x * x, bl.E.h * x.exceptional]:
        assert all(type(c) is int for c in _coefficients(value)), value


def test_whole_fractions_are_stored_as_int(ring):
    for x in (
        ring.one * Fraction(4, 2),
        ring.parse("2 * x"),
        ring.element({(1, 0, 0): Fraction(4, 2)}),
        ring.gen("x") * Fraction(4, 2),
    ):
        [c] = x.terms.values()
        assert type(c) is int and c == 2, x


def _enumerated(degrees, d) -> list:
    """Monomials of degree d in lexicographic order, enumerated afresh."""
    ranges = (range(d // deg + 1) for deg in degrees)
    return [m for m in itertools.product(*ranges)
            if sum(map(operator.mul, m, degrees)) == d]


def test_monomials_of_degree():
    R = GradedRing([("x", 1), ("y", 2)])
    assert len(list(R.monomials_of_degree(4))) == 3  # x^4, x^2 y, y^2
    Q = GradedRing([("x", 1), ("y", 1)])  # same names, other degrees
    for d in range(6):
        for ring in (R, Q, R):  # kept per ring, and read again whole
            assert list(ring.monomials_of_degree(d)) == _enumerated(ring.degrees, d)
    assert list(R.monomials_of_degree(2)) != list(Q.monomials_of_degree(2))
    zero_degree = GradedRing([("s", 0)])
    for _ in range(2):
        with pytest.raises(ValueError):
            list(zero_degree.monomials_of_degree(1))


@pytest.mark.parametrize("degrees", [(2, 3), (1, 2, 3), (3, 1, 2)])
def test_monomials_of_degree_match_the_brute_force_filter(degrees):
    # the last exponent is solved for, not searched; the order stays the
    # lexicographic order of the filter
    ring = GradedRing([(f"x{i}", deg) for i, deg in enumerate(degrees)])
    for d in range(16):
        assert list(ring.monomials_of_degree(d)) == _enumerated(degrees, d), d


def test_seeded_draws_are_unchanged():
    # degree-3 monomials are drawn, consuming the generator, then truncated
    R = GradedRing([("x", 1), ("y", 2), ("z", 1)], dim_bound=2)
    expected = "9 * x^2 + 6 * x*z + 2 * y + -5 * z^2 + 8 * x + 9 * z + -2"
    for _ in range(2):
        assert str(R.random_element(random.Random(3), 3)) == expected
    # mixed generator degrees, both samplers, draws above the bound: the
    # strings a ring that packed every monomial on every draw printed
    R = GradedRing([("x", 1), ("y", 2), ("z", 3)], dim_bound=5)
    expected = [
        "5 * x^4 + 5 * x^2*y + 8 * x*z + 5 * y^2",
        "5 * x^5 + 3 * x^3*y + -8 * x^2*z + 8 * x*y^2 + -7 * y*z + -5 * x^4"
        " + 5 * x*z + -6 * y^2 + -4 * x^3 + 6 * x*y + 7 * z + -4 * x^2 + -3 * y"
        " + 9 * x + 7",
        "5 * x^5 + 1 * x^3*y + 5 * x^2*z + -9 * x*y^2 + -2 * y*z",
    ]
    for _ in range(2):
        rng = random.Random(11)
        drawn = [
            R.random_homogeneous(rng, 4),
            R.random_element(rng, 6),
            R.random_homogeneous(rng, 5),
        ]
        assert [str(x) for x in drawn] == expected


@pytest.mark.parametrize(
    "make",
    [
        lambda: GradedRing([("t", 1)], dim_bound=4),
        lambda: GradedRing([("x", 1), ("y", 2), ("z", 3)], dim_bound=5),
        lambda: GradedRing([("x", 1), ("y", 2)]),
    ],
    ids=["one-generator-bounded", "weighted-bounded", "unbounded"],
)
def test_draws_follow_the_randint_stream(make):
    # the samplers draw by rng.choice over COEFF_RANGE; a reference drawing
    # each coefficient by randint(*COEFF_RANGE) gets the same values and
    # leaves the generator in the same state
    ring = make()

    def reference(rng, degrees) -> GradedElement:
        keys = [ring.pack(m) for d in degrees for m in ring.monomials_of_degree(d)]
        return ring.element({ring.exponents(e): rng.randint(*COEFF_RANGE) for e in keys})

    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        for d in range(7):
            assert ring.random_element(ours, d) == reference(theirs, range(d + 1)), (seed, d)
            assert ring.random_homogeneous(ours, d) == reference(theirs, [d]), (seed, d)
        assert ours.getstate() == theirs.getstate(), seed


def test_consistency_error_carries_witness():
    err = ConsistencyError("boom", witness="2*x")
    assert err.witness == "2*x"


def _graded_element():
    R = GradedRing([("x", 1), ("y", 2)], dim_bound=6)
    return R, R.gen("x") + R.gen("y") * 2 - R.one


def _projbundle_element():
    S = GradedRing([("c1", 1), ("c2", 2)], dim_bound=4)
    P = ProjBundleRing(BundleClass(S, 2, [S.gen("c1"), S.gen("c2")]))
    return P, P.h + P.pullback(S.gen("c1") - S.one * 3)


def _blowup_class():
    bl = BlowupRing(linear_blowup(4, 1))
    return bl, bl.pull(bl.data.ambient.gen("t")) + bl.exc_push(bl.E.h)


MAKERS = pytest.mark.parametrize(
    "make",
    [_graded_element, _projbundle_element, _blowup_class],
    ids=["graded", "projbundle", "blowup"],
)


@MAKERS
def test_derived_operators(make):
    ring, x = make()
    assert x
    assert ring.one and not ring.zero
    assert x ** 3 == x * x * x
    assert x ** 0 == ring.one
    assert powers(x, 3) == [ring.one, x, x * x, x * x * x]
    with pytest.raises(ValueError):
        x ** -1
    assert not (x - x)


@MAKERS
def test_reflected_subtraction(make):
    # 3 - x needs 3 as a ring element; there is no __rsub__, so a number
    # is refused under - and + on either side, and enters only through *
    ring, x = make()
    for other in (1, Fraction(1, 2)):
        for op in (operator.add, operator.sub):
            for a, b in ((x, other), (other, x)):
                with pytest.raises(TypeError):
                    op(a, b)
    assert (ring.one * 3 - x) + x == ring.one * 3
    assert x * 2 == 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x


@MAKERS
def test_coercion_protocol(make):
    # no ring map is implicit: a number enters through *, a class of an
    # underlying ring through a pullback; every other operand is refused
    ring, x = make()
    _, foreign = make()  # same class, second ring
    below = [R.one for R in _graded_rings(ring) if R is not ring]  # base, ambient, center
    for other in (1, Fraction(1, 2), "a", *below):
        assert (x == other) is False and (other == x) is False and x != other
    for other in ("a", *below):
        for op in (operator.add, operator.sub, operator.mul):
            for a, b in ((x, other), (other, x)):
                with pytest.raises(TypeError):
                    op(a, b)
    for op in (operator.add, operator.sub, operator.mul, operator.eq):
        for a, b in ((x, foreign), (foreign, x)):
            with pytest.raises(ValueError, match="different rings"):
                op(a, b)


@MAKERS
def test_sum_of_nothing_is_zero_and_foreign_summands_raise(make):
    ring, x = make()
    _, y = make()  # same kind, second ring
    assert ring.sum([]) == ring.zero
    assert ring.sum(iter([x, x, -x])) == x
    assert ring.sum([x, ring.one]) == x + ring.one
    for summands in ([y], [x, y], [3]):  # the first summand is checked too
        with pytest.raises(ValueError, match="different rings"):
            ring.sum(summands)


def test_the_element_protocol_lives_in_ring_element():
    for cls in (PBElement, BlowupClass):
        assert not {"__add__", "__mul__", "__rmul__", "__eq__"} & set(vars(cls))
    for cls in (GradedElement, PBElement, BlowupClass):  # no reflected + or -
        assert not hasattr(cls, "__radd__") and not hasattr(cls, "__rsub__")
    # bound by name in GradedElement's own dict, where perfbench's tracer reads them
    own = GradedElement.__dict__
    assert own["__add__"] is RingElement.__add__
    assert own["__mul__"] is own["__rmul__"] is RingElement.__mul__


def test_equality_compares_every_part_of_the_state():
    P, _ = _projbundle_element()
    assert P.h != P.zero  # slot 1 differs, slot 0 agrees
    P = ProjBundleRing(generic_bundle(4))
    x, hpow = P.pullback(P.base.gen("c1")) + P.h, powers(P.h, 3)
    for top in (hpow[3], hpow[3] * P.pullback(P.base.gen("c2"))):  # slot 3, the top, alone differs
        assert x != x + top and x + top != x
    assert x + hpow[3] == hpow[3] + x  # equal values, distinct objects
    bl, _ = _blowup_class()
    assert bl.exc_push(bl.E.h) != bl.zero  # the exceptional part differs, the ambient agrees


def _graded_rings(ring) -> list:
    """The graded rings under a graded, tower or blow-up ring."""
    if isinstance(ring, GradedRing):
        return [ring]
    if isinstance(ring, ProjBundleRing):
        return _graded_rings(ring.base)
    return [ring.data.ambient, *_graded_rings(ring.E)]


SAME_RING_OPS = (operator.eq, operator.add, operator.mul, operator.sub)


@MAKERS
def test_equality_within_one_class_and_ring_skips_coercion(monkeypatch, make):
    # so do +, * and -: an operand of the same class and ring goes to the ring
    ring, x = make()
    y, three = x * 1, ring.one * 3  # equal to x and to 3 * one, built before the patch
    expected = {op: op(x, y) for op in SAME_RING_OPS}
    monkeypatch.setattr(type(x), "_refused", None)  # a call would raise TypeError
    assert x == y and y == x and three != x
    for op in SAME_RING_OPS:
        assert op(x, y) == expected[op] and op(y, x) == expected[op], op.__name__
    assert x - x == ring.zero and x * three == x + x + x


@MAKERS
def test_a_foreign_operand_of_the_same_class_never_reaches_the_ring(monkeypatch, make):
    ring, x = make()
    _, foreign = make()  # same class, second ring
    for name in ("sum", "mul"):  # a call would raise TypeError
        monkeypatch.setattr(type(ring), name, None)
    for op in SAME_RING_OPS:
        for a, b in ((x, foreign), (foreign, x), (ring.zero, foreign)):
            with pytest.raises(ValueError, match="different rings"):
                op(a, b)


@MAKERS
def test_numbers_scale_as_exact_coefficients(make):
    # an int goes straight to _scaled; True and Fraction(3, 1) are whole, so
    # they scale as 1 and 3 and mark nothing; Fraction(1, 2) marks the ring
    ring, x = make()
    for c, whole in ((True, 1), (Fraction(3, 1), 3)):
        for got in (x * c, c * x):
            assert got == x * whole, c
            assert all(type(k) is int for k in _coefficients(got)), c
    assert not any(R.rational for R in _graded_rings(ring))
    half = x * Fraction(1, 2)
    assert half == Fraction(1, 2) * x and half + half == x
    assert any(type(k) is Fraction for k in _coefficients(half))
    assert any(R.rational for R in _graded_rings(ring))


@pytest.mark.parametrize(
    "reject, token",
    [
        (lambda R, x, y: GradedRing([("x", 1)], dim_bound=-1), "got -1"),
        (lambda R, x, y: R.dot([(x, x)], start=y), "different rings"),
        (lambda R, x, y: R.dot([(x, x), (x, y)]), "different rings"),
    ],
    ids=["dim_bound", "dot-start", "dot-pair"],
)
def test_ring_inputs_are_rejected_by_name(reject, token):
    R, x = _graded_element()
    _, y = _graded_element()  # same kind, second ring
    with pytest.raises(ValueError, match=token):
        reject(R, x, y)
