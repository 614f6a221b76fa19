import math
import random
import re
from fractions import Fraction

import pytest

from chowcalc import (
    BlowupRing,
    BundleClass,
    ConsistencyError,
    EmbeddingData,
    GradedRing,
    PBElement,
    cw_top,
    embedding_validate,
    key_formula_check,
    linear_blowup,
    load_embedding,
)
from chowcalc.cli import SuiteConfig, run_suite
from conftest import mutated
from test_local_model import RANKS, local_model_text

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # without hypothesis only the property test is left out
    st = None


@pytest.fixture
def data41():
    return linear_blowup(4, 1)


@pytest.fixture
def bl41(data41):
    return BlowupRing(data41)


def test_linear_blowup_validates(data41):
    embedding_validate(data41, samples=25, seed=0)  # raises on any failure


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        linear_blowup(4, 4)
    with pytest.raises(ValueError):
        linear_blowup(4, -1)
    with pytest.raises(ValueError):
        linear_blowup(3, 5)


def test_corrupted_push_table_rejected(data41):
    t = data41.ambient.gen("t")
    bad_table = dict(data41.push_table)
    bad_table[(1,)] = 2 * t ** 4  # wrong multiple breaks the projection formula
    from chowcalc import EmbeddingData

    bad = EmbeddingData(
        data41.ambient,
        data41.center,
        data41.pull_images,
        bad_table,
        data41.normal,
    )
    with pytest.raises(ConsistencyError) as exc:
        embedding_validate(bad, samples=25, seed=0)
    assert exc.value.witness.startswith("projection formula fails: diff ")
    assert "diff 0" not in exc.value.witness


# A weighted ambient ring (s of degree 2) around a weighted center: push is
# multiplication by w = t^2 + s and c_2(N) = i^*w, which satisfies the
# projection and self-intersection formulas.
WEIGHTED = """
[ambient]
generators: t:1, s:2
dim_bound: 4
[center]
generators: u:1, v:2
dim_bound: 2
[pull]
t = u
s = v
[push]
1 = t^2 + s
u = t^3 + t*s
u^2 = t^4 + t^2*s
v = t^2*s + s^2
[normal]
rank = 2
c1 = 2 * u
c2 = u^2 + v
"""

EMBEDDINGS = {
    f"linear:{n},{m}": (lambda n=n, m=m: linear_blowup(n, m))
    for n, m in [(2, 0), (3, 1), (4, 1), (5, 2), (6, 0)]
}
EMBEDDINGS["weighted"] = lambda: load_embedding(WEIGHTED)


def test_weighted_embedding_validates():
    embedding_validate(load_embedding(WEIGHTED), samples=25, seed=0)


def _spelt(data) -> tuple:
    """An embedding as text, so that two loads of it compare equal."""
    return (
        repr(data.ambient),
        repr(data.center),
        {g: str(x) for g, x in data.pull_images.items()},
        {m: str(x) for m, x in data.push_table.items()},
        [str(c) for c in data.normal.chern],
    )


def test_weighted_embedding_loads_with_either_separator():
    # "generators = t:1, s:2" splits at its first separator, the "="
    equals = re.sub(r"^(\w+): ", r"\1 = ", WEIGHTED, flags=re.MULTILINE)
    assert equals.count("generators = ") == equals.count("dim_bound = ") == 2
    assert _spelt(load_embedding(equals)) == _spelt(load_embedding(WEIGHTED))


def test_a_large_center_bound_is_rejected_by_its_missing_push_entries():
    # all 160,801 center monomials up to degree 800 are enumerated, one
    # leaf each; the first missing [push] entries are named and the rest
    # counted, so the message stays short
    assert WEIGHTED.count("dim_bound: 2") == 1
    prefix = re.escape("center monomials ['u*v', 'u^3', 'v^2'")
    with pytest.raises(ValueError, match=prefix) as exc:
        load_embedding(WEIGHTED.replace("dim_bound: 2", "dim_bound: 800"))
    assert len(str(exc.value)) <= 2100
    assert str(exc.value).endswith("(160797 missing)")


if st is not None:

    @pytest.mark.parametrize("embedding", sorted(EMBEDDINGS))
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32), count=st.integers(1, 4))
    def test_pull_table_matches_substitution(embedding, seed, count):
        # i^* read from the table equals substituting the generator images,
        # on a cold table and again once the first pass has filled it
        data, rng = EMBEDDINGS[embedding](), random.Random(seed)
        bound = data.ambient.dim_bound
        alphas = [
            data.ambient.random_element(rng, rng.randint(0, bound)) for _ in range(count)
        ]
        assert not data.pull_table
        for alpha in alphas + alphas:
            assert data.pull(alpha) == alpha.substitute(data.pull_images, data.center)
        assert data.pull_table.keys() == set().union(*(a.terms for a in alphas))

    # Characters an edit may insert: those of WEIGHTED and a few it lacks.
    # The only digits are 0 and 1, so two edits leave the center's
    # dim_bound at most 211: checking the push table enumerates every
    # center monomial up to it, in time cubic in the bound.
    EDIT_CHARS = sorted(set(WEIGHTED) - set("23456789") | set("[]#-/01"))

    @settings(max_examples=300)
    @given(
        edits=st.lists(
            st.tuples(
                st.integers(0, len(WEIGHTED)),
                st.integers(0, 3),
                st.sampled_from(["", *EDIT_CHARS]),
            ),
            max_size=2,
        )
    )
    def test_edited_embedding_text_loads_or_raises_value_error(edits):
        # each edit cuts up to 3 characters at a position and inserts one
        text = WEIGHTED
        for pos, cut, char in edits:
            text = text[:pos] + char + text[pos + cut :]
        try:
            load_embedding(text)
        except ValueError:
            pass


    @pytest.mark.parametrize("embedding", sorted(EMBEDDINGS))
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32), den=st.sampled_from([1, 2, 3, 6]))
    def test_one_pass_maps_equal_substitution_and_a_sum_of_scaled_rows(embedding, seed, den):
        # i^* against substitute, i_* against Σ c·push_table[m] through
        # ring.sum; den > 1 brings Fraction coefficients in, and a map marks
        # its target ring rational exactly when a non-integer c enters it
        for source in ("ambient", "center"):
            data, rng = EMBEDDINGS[embedding](), random.Random(seed)
            ring = getattr(data, source)
            x = ring.random_element(rng, ring.dim_bound)
            x = ring.element({ring.exponents(e): Fraction(c, den) for e, c in x.terms.items()})
            fractional = any(type(c) is Fraction for c in x.terms.values())
            target = data.center if source == "ambient" else data.ambient
            assert ring.rational == fractional and not target.rational
            if source == "ambient":
                got = data.pull(x)
                assert target.rational == fractional
                want = x.substitute(data.pull_images, target)
            else:
                got = data.push(x)
                assert target.rational == fractional
                rows = ((data.push_table[ring.exponents(e)], c) for e, c in x.terms.items())
                want = target.sum(image * c for image, c in rows)
            assert got.ring is target and got == want
            assert all(got.terms.values())  # zeros dropped


def test_pull_on_an_unbounded_ambient_ring():
    data = load_embedding(WEIGHTED.replace("dim_bound: 4\n", ""))
    t, s = data.ambient.gen("t"), data.ambient.gen("s")
    alpha = t ** 9 * s + 3 * s - 2 * t + data.ambient.one * 5
    assert data.ambient.dim_bound is None
    assert str(data.pull(alpha)) == "3 * v + -2 * u + 5"
    assert data.pull(alpha) == alpha.substitute(data.pull_images, data.center)
    with pytest.raises(ValueError, match="different rings"):
        data.pull(data.center.one)


@pytest.mark.parametrize(
    "name, foreign",
    [
        ("pull", lambda data: data.center.gen("u")),
        ("pull", lambda data: GradedRing([("t", 1)], dim_bound=4).gen("t")),
        ("push", lambda data: data.ambient.gen("t")),
        ("push", lambda data: GradedRing([("u", 1)], dim_bound=1).gen("u")),
    ],
    ids=["pull-center", "pull-lookalike", "push-ambient", "push-lookalike"],
)
def test_embedding_maps_reject_an_element_of_another_ring(data41, name, foreign):
    # i^* takes ambient classes and i_* center classes; a table read would
    # decode a foreign key as if it were its own
    with pytest.raises(ValueError, match="elements belong to different rings"):
        getattr(data41, name)(foreign(data41))


@pytest.mark.parametrize(
    "case, exps, law",
    [
        (None, (0,), "i^* not multiplicative"),
        # the first sample's b has no t term, so i^*(ab) = i^*(a) i^*(b) there
        ("linear:5,2", (2,), "projection formula fails"),
    ],
    ids=["linear:4,1 at 1", "linear:5,2 at t^2"],
)
def test_doubled_pull_table_entry_is_caught(case, exps, law, monkeypatch):
    # i^* of one monomial doubled (on P^1, u^2 = 0, so there the entry of 1
    # is doubled): i^* is no longer multiplicative, embedding validation
    # rejects it with a nonzero witness, and so does the blow-up suite
    import chowcalc.blowup as bl_mod

    n, m = (4, 1) if case is None else (5, 2)
    orig = bl_mod.linear_blowup

    def corrupted(n, m):
        data = orig(n, m)
        monomial = data.ambient.element({exps: 1})
        data.pull_table[data.ambient.pack(exps)] = data.pull(monomial) * 2
        return data

    data = corrupted(n, m)
    root = data.ambient.element({tuple(e // 2 for e in exps): 1})  # 1, or t
    assert data.pull(root * root) != data.pull(root) * data.pull(root)
    with pytest.raises(ConsistencyError) as exc:
        embedding_validate(data, samples=5, seed=0)
    assert exc.value.witness.startswith(f"{law}: diff ")
    assert "diff 0" not in exc.value.witness
    monkeypatch.setattr(bl_mod, "linear_blowup", corrupted)
    status, report = run_suite(SuiteConfig(suite="blowup", case=case))
    failed = {c.name: c.witness for c in report.checks if c.status == "fail"}
    assert status == 1
    assert failed["blowup.embedding_valid"] == exc.value.witness


# (function, code, mutant) of the -xi·ea·eb pairs of BlowupRing.mul, one
# slot up and negated, and of the normalization by c_{r-1}(W) that exc_push
# and mul share: c_{r-1}(W) is monic in xi, so eta, slot r-1, leaves the
# exceptional part whole; the mutant keeps it there as well
PRODUCT_MUTANTS = {
    "shift-loses-its-sign": ("BlowupRing.mul", "x = -x", "x = x"),
    "shift-forgets-the-plus-one": ("BlowupRing.mul", "i + j + 1", "i + j"),
    "normalization-skips-a-cw-slot": (
        "BlowupRing._normalized", "slots.pop(self.E.rank - 1, None)", "slots.get(self.E.rank - 1)"),
}
# the normalization skips the lowest stored slot of c_{r-1}(W) below r-1;
# on a point center c_{r-1}(W) = xi^{r-1} has none, so it is no product mutant
LOWER_CW_SLOT_MUTANT = (
    "BlowupRing.__init__", "in self.cW.slots.items() if",
    "in list(self.cW.slots.items())[1:] if")


def _mutate(monkeypatch, function: str, old: str, new: str) -> None:
    owner, name = function.split(".")
    owner = {"GradedRing": GradedRing, "BlowupRing": BlowupRing}[owner]
    monkeypatch.setattr(owner, name, mutated(getattr(owner, name), old, new))


def _failed_blowup_checks(case: str) -> tuple[int, dict]:
    status, report = run_suite(SuiteConfig(suite="blowup", case=case))
    return status, {c.name: c.witness for c in report.checks if c.status == "fail"}


@pytest.mark.parametrize(
    "function, old, new, failing",
    [
        ("GradedRing.combine", "k *= c", "pass", {"blowup.embedding_valid", "blowup.ring_laws"}),
        ("GradedRing.combine", "for x, c in rows:", "for x, c in list(rows)[1:]:",
         {"blowup.embedding_valid", "blowup.ring_laws"}),
        ("BlowupRing.mul", "(b.restriction, a.exceptional)", "(a.restriction, a.exceptional)",
         {"blowup.ring_laws"}),
        (*PRODUCT_MUTANTS["shift-forgets-the-plus-one"], {"blowup.ring_laws"}),
        (*PRODUCT_MUTANTS["normalization-skips-a-cw-slot"],
         {"blowup.key_formula", "blowup.ring_laws"}),
        (*LOWER_CW_SLOT_MUTANT, {"blowup.key_formula", "blowup.ring_laws"}),
    ],
    ids=["map-ignores-c", "map-skips-a-row", "mul-restricts-a-twice",
         "shift-forgets-the-plus-one", "normalization-skips-a-cw-slot",
         "normalization-skips-a-lower-cw-slot"],
)
def test_blowup_mutants_fail_the_suite_on_linear_4_1(function, old, new, failing, monkeypatch):
    # the one-pass linear map of i^* and i_*, the cached restrictions, the
    # -xi·ea·eb pairs and the shared normalization of BlowupRing.mul: each
    # mutant fails the named checks with a nonzero witness
    _mutate(monkeypatch, function, old, new)
    status, failed = _failed_blowup_checks("linear:4,1")
    assert status == 1 and set(failed) == failing
    assert all(w and "diff 0" not in w and w != "0" for w in failed.values())


def test_a_shift_that_loses_its_sign_fails_ring_laws_on_linear_6_3(monkeypatch):
    # With E·E = j_*(lam·e·e'), the two bracketings of three exceptional
    # classes differ by j_* of (eta^*c_r(N) - lam·c_{r-1}(W))·eta^*eta_*(lam·e·e')·e''
    # and its permutations.  The Whitney formula makes that factor 0 at
    # lam = -xi and 2·eta^*c_r(N) at lam = xi, so a lost sign is still a ring
    # wherever c_r(N) = 0: on linear:n,m with m < r (c_r(N) = u^r), which
    # includes linear:4,1.  There only the closed forms below see it; on
    # linear:6,3, c_3(N) = u^3 is not 0 and the samples see it.
    _mutate(monkeypatch, *PRODUCT_MUTANTS["shift-loses-its-sign"])
    status, failed = _failed_blowup_checks("linear:6,3")
    assert status == 1 and set(failed) == {"blowup.ring_laws"}
    assert all(w and w != "0" for w in failed.values())


def test_cw_rank_one_is_one():
    data = linear_blowup(2, 1)  # codimension 1: W has rank 0, c_0 = 1
    bl = BlowupRing(data)
    assert bl.cW == bl.E.one


def test_cw_pushes_to_one_formal():
    # over a formal center with generic normal bundle, eta_*(c_{r-1}(W)) = 1
    for r in range(1, 6):
        S = GradedRing([(f"n{i}", i) for i in range(1, r + 1)])
        N = BundleClass(S, r, [S.gen(f"n{i}") for i in range(1, r + 1)])
        from chowcalc import ProjBundleRing

        E = ProjBundleRing(N, hyperplane="xi")
        assert E.pushforward(cw_top(E)) == S.one


def test_key_formula(bl41, data41):
    rng = random.Random(0)
    for d in range(2):
        key_formula_check(bl41, data41.center.random_homogeneous(rng, d))


def test_push_pull_identity(bl41, data41):
    rng = random.Random(1)
    for d in range(5):
        alpha = data41.ambient.random_homogeneous(rng, d)
        assert bl41.push(bl41.pull(alpha)) == alpha


def test_exceptional_self_intersection(bl41):
    # j_*e . j_*e' = j_*(-xi e e')
    rng = random.Random(2)
    for _ in range(20):
        e1 = bl41.E.random_element(rng, 3)
        e2 = bl41.E.random_element(rng, 3)
        lhs = bl41.exc_push(e1) * bl41.exc_push(e2)
        rhs = bl41.exc_push(-bl41.E.h * e1 * e2)
        assert lhs == rhs


CLOSED_FORMS = ("vanishing", "degree", "self_intersection", "center_class")


def _closed_form_holds(n: int, m: int, identity: str) -> bool:
    """Closed forms on the blow-up of P^n along a linear P^m, an oracle that
    does not restate ``BlowupRing.mul``.  H is the pulled-back hyperplane, E
    the exceptional divisor and the integral the t^n coefficient of the
    pushforward to P^n.  H - E pulls back the hyperplane of P^{n-m-1} under
    the projection from P^m, so (H - E)^{n-m} = 0 and the degree of
    (H - E)^{n-m-1} H^{m+1} is 1; E^n integrates to (-1)^{n-1} s_m(N) over
    P^m, with N = O(1)^{n-m} and s_m(N) = (-1)^m C(n-1, m); and the class of
    the center, i_*(1), is t^{n-m}."""
    bl = BlowupRing(linear_blowup(n, m))
    t = bl.data.ambient.gen("t")
    H, E = bl.pull(t), bl.exc_push(bl.E.one)

    def integral(x) -> int:
        pushed = bl.push(x)
        assert pushed.is_homogeneous(n)
        return pushed.terms.get(bl.data.ambient.pack((n,)), 0)

    forms = {
        "vanishing": lambda: (H - E) ** (n - m) == bl.zero,
        "degree": lambda: integral((H - E) ** (n - m - 1) * H ** (m + 1)) == 1,
        "self_intersection": lambda: (
            integral(E ** n) == (-1) ** (n - 1) * (-1) ** m * math.comb(n - 1, m)),
        "center_class": lambda: bl.data.push(bl.data.center.one) == t ** (n - m),
    }
    return forms[identity]()


@pytest.mark.parametrize("identity", CLOSED_FORMS)
@pytest.mark.parametrize("n, m", [(2, 0), (3, 0), (3, 1), (4, 1), (5, 2), (6, 0)])
def test_linear_blowup_closed_forms(n, m, identity):
    assert _closed_form_holds(n, m, identity)


@pytest.mark.parametrize("mutate", [False, True], ids=["harness", "mutant"])
@pytest.mark.parametrize("n", [2, 6])
def test_map_skipping_a_row_fails_the_closed_forms_on_a_point(n, mutate, monkeypatch):
    # A combine that skips its first row (the map-skips-a-row mutant above)
    # sends every class of a point center to 0 under i^* and i_*.  Zero maps
    # satisfy every sampled law, so the blowup suite still passes on
    # linear:n,0; every closed form but the degree fails.
    if mutate:
        skip = mutated(GradedRing.combine, "for x, c in rows:", "for x, c in list(rows)[1:]:")
        monkeypatch.setattr(GradedRing, "combine", skip)
    status, report = run_suite(SuiteConfig(suite="blowup", case=f"linear:{n},0"))
    assert status == 0, report.to_text()
    held = {identity: _closed_form_holds(n, 0, identity) for identity in CLOSED_FORMS}
    assert held == {identity: not mutate or identity == "degree" for identity in CLOSED_FORMS}


@pytest.mark.parametrize("mutant", sorted(PRODUCT_MUTANTS))
def test_product_mutants_fail_the_closed_forms_on_a_point(mutant, monkeypatch):
    # on linear:6,0 the samples may miss a mutant (a lost sign is still a
    # ring there); (H - E)^6 = 0 and the value of ∫E^6 do not
    _mutate(monkeypatch, *PRODUCT_MUTANTS[mutant])
    held = {identity: _closed_form_holds(6, 0, identity) for identity in CLOSED_FORMS}
    assert held == {"vanishing": False, "degree": True,
                    "self_intersection": False, "center_class": True}


def _whitney_holds(bl: BlowupRing) -> bool:
    """eta^*c_r(N) = -xi·c_{r-1}(W) in CH(E), an oracle that does not share
    the blow-up's normalization: the Whitney formula for
    0 -> O(-1) -> eta^*N -> W -> 0 (Fulton §3.2) gives
    c_r(eta^*N) = (1 - xi)·c(W) in degree r, and c_r(W) = 0 as W has rank r - 1."""
    r = bl.E.rank
    return bl.E.pullback(bl.data.normal.c(r)) == -(bl.E.h * bl.cW)


WHITNEY_CASES = {
    f"linear:{n},{m}": (lambda n=n, m=m: linear_blowup(n, m))
    for n in range(1, 7) for m in range(n)
}
WHITNEY_CASES["weighted"] = EMBEDDINGS["weighted"]


@pytest.mark.parametrize("case", sorted(WHITNEY_CASES))
def test_cw_satisfies_the_whitney_formula(case):
    assert _whitney_holds(BlowupRing(WHITNEY_CASES[case]()))


def _cw_is_monic(E, cw=cw_top) -> bool:
    """Slot r-1 of c_{r-1}(W) is 1: the normalization reads only the slots
    below it and sends slot r-1 of a class whole through i_*."""
    return cw(E).slots.get(E.rank - 1) == E.base.one


MONIC_CASES = {
    **WHITNEY_CASES,
    **{f"local-model:{r}": (lambda r=r: load_embedding(local_model_text(r))) for r in RANKS},
}


@pytest.mark.parametrize("case", sorted(MONIC_CASES))
def test_cw_has_one_in_its_top_slot(case):
    assert _cw_is_monic(BlowupRing(MONIC_CASES[case]()).E)


def _doubled_top_slot(E):
    cw = cw_top(E)
    return PBElement(E, {**cw.slots, E.rank - 1: cw.slots[E.rank - 1] * 2})


@pytest.mark.parametrize("case", ["linear:4,1", "linear:5,2", "linear:6,3"])
def test_a_doubled_top_slot_of_cw_fails_the_key_formula(case, monkeypatch):
    # the normalization no longer reads slot r-1 of c_{r-1}(W), so the ring
    # laws hold with it doubled; key_formula's cW·pull(gamma) reads it, and
    # the monic check above sees it
    import chowcalc.blowup as bl_mod

    assert not _cw_is_monic(BlowupRing(WHITNEY_CASES[case]()).E, _doubled_top_slot)
    monkeypatch.setattr(bl_mod, "cw_top", _doubled_top_slot)
    status, failed = _failed_blowup_checks(case)
    assert status == 1 and set(failed) == {"blowup.key_formula"}
    assert all(w and "diff 0" not in w and w != "0" for w in failed.values())


@pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (5, 2), (6, 2)])
def test_a_corrupted_cw_passes_the_key_formula_but_not_the_whitney_formula(
    n, m, monkeypatch
):
    # cW + 5·xi^{r-2}·pull(u) still pushes to 1, and key_formula reads the
    # same cW on both sides (the normalization and cW·pull(gamma)), so it
    # holds by construction; on linear:3,1 the whole suite passes.  The
    # Whitney formula does not read the normalization and fails.
    import chowcalc.blowup as bl_mod

    def corrupted(E):
        return cw_top(E) + E.element({E.rank - 2: E.base.gen("u") * 5})

    monkeypatch.setattr(bl_mod, "cw_top", corrupted)
    status, failed = _failed_blowup_checks(f"linear:{n},{m}")
    assert "blowup.key_formula" not in failed
    if (n, m) == (3, 1):
        assert status == 0
    assert not _whitney_holds(BlowupRing(linear_blowup(n, m)))


def test_mul_matches_pullback_on_ambient_classes(bl41, data41):
    rng = random.Random(3)
    for _ in range(20):
        a = data41.ambient.random_element(rng, 4)
        b = data41.ambient.random_element(rng, 4)
        assert bl41.pull(a) * bl41.pull(b) == bl41.pull(a * b)


def test_ring_laws_on_seeded_triples(bl41, data41):
    rng = random.Random(4)
    for _ in range(200):
        trio = []
        for _ in range(3):
            alpha = data41.ambient.random_element(rng, 4)
            eps = bl41.E.random_element(rng, 4)
            trio.append(bl41.pull(alpha) + bl41.exc_push(eps))
        a, b, c = trio
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_delta_decompose_round_trip(bl41):
    rng = random.Random(5)
    for _ in range(20):
        eps = bl41.E.random_element(rng, 3)
        cls = bl41.exc_push(eps)
        assert bl41.exc_push(cls.exceptional) == cls - bl41.pull(cls.ambient)


def graded_rank(bl, data, degree, rng, samples=40):
    """Dimension of CH^degree of the blow-up over the rationals."""
    vectors = []
    for _ in range(samples):
        alpha = data.ambient.random_homogeneous(rng, degree)
        # classes pushed in from E raise degree by one
        eps = bl.E.random_element(rng, degree).grade_component(degree - 1)
        cls = bl.pull(alpha) + bl.exc_push(eps)
        # coordinates: ambient coefficient + exceptional basis coefficients
        coords = [cls.ambient.terms.get(data.ambient.pack((degree,)), Fraction(0))]
        for k in range(bl.E.rank):
            base_deg = degree - 1 - k  # -1 has no monomial: its coordinate is 0
            coeff = cls.exceptional.slots.get(k, data.center.zero)
            key = data.center.pack((base_deg,)) if base_deg >= 0 else None
            coords.append(coeff.terms.get(key, Fraction(0)))
        vectors.append(coords)
    # Gaussian elimination over Fraction
    rank = 0
    cols = len(vectors[0])
    row_idx = 0
    for col in range(cols):
        pivot = None
        for i in range(row_idx, len(vectors)):
            if vectors[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        vectors[row_idx], vectors[pivot] = vectors[pivot], vectors[row_idx]
        pv = vectors[row_idx][col]
        for i in range(len(vectors)):
            if i != row_idx and vectors[i][col]:
                factor = vectors[i][col] / pv
                vectors[i] = [
                    a - factor * b for a, b in zip(vectors[i], vectors[row_idx])
                ]
        row_idx += 1
        rank += 1
    return rank


def test_graded_ranks_of_blown_up_p4(bl41, data41):
    # blow-up of P^4 along a line: Betti-type ranks 1, 2, 3, 2, 1
    rng = random.Random(6)
    expected = [1, 2, 3, 2, 1]
    got = [graded_rank(bl41, data41, d, rng) for d in range(5)]
    assert got == expected


def test_load_embedding_round_trip():
    text = """
    # a line inside P^3
    [ambient]
    generators: t:1
    dim_bound: 3
    [center]
    generators: u:1
    dim_bound: 1
    [pull]
    t = u
    [push]
    1 = t^2
    u = t^3
    [normal]
    rank = 2
    c1 = 2 * u
    c2 = 0
    """
    data = load_embedding(text)
    assert data.normal.rank == 2
    embedding_validate(data, samples=25, seed=0)  # raises on any failure
    bl = BlowupRing(data)
    rng = random.Random(7)
    key_formula_check(bl, data.center.random_homogeneous(rng, 1))


LINE_IN_P3 = """
[ambient]
generators: t:1
dim_bound: 3
[center]
generators: u:1
dim_bound: 1
[pull]
t = u
[push]
1 = t^2
u = t^3
[normal]
rank = 2
c1 = 2 * u
c2 = 0
"""


@pytest.mark.parametrize(
    "old, new, token",
    [
        ("[center]", "[middle]", "[center]"),  # missing section
        ("generators: t:1", "generators: t", "'t'"),  # degree missing
        ("generators: t:1", "gens: t:1", "'generators'"),
        ("dim_bound: 3", "dim_bound: three", "'three'"),
        ("rank = 2", "rank = two", "'two'"),
        ("c2 = 0", "c3 = 0", "'c2'"),
        ("t = u", "t = v", "'v'"),  # unknown center generator
        ("t = u", "s = u", "'s'"),  # unknown ambient generator
        ("u = t^3", "u = 1/0 * t^3", "'1/0'"),
        ("u = t^3", "2*u = t^3", "'2'"),
        ("u = t^3", "", "'u'"),  # push table misses a center monomial
        ("dim_bound: 1", "", "'dim_bound'"),  # center without a bound
        # a repeated key or header is rejected, not silently overwritten
        ("dim_bound: 3", "dim_bound: 3\ndim_bound: 2", "'dim_bound' in section [ambient]"),
        ("t = u", "t = u\nt = 0", "'t' in section [pull]"),
        ("u = t^3", "u = t^3\nu = t^2", "'u' in section [push]"),
        ("u = t^3", "u = t^3\nu^1 = t^2", "'u^1' in section [push]"),
        ("[normal]", "[push]\n[normal]", "repeated section header [push]"),
        # an unknown section or key is rejected, not silently ignored
        ("dim_bound: 3", "dim_bond: 3", "'dim_bond' in section [ambient]"),
        ("c2 = 0", "c2 = 0\nc3 = u", "'c3' in section [normal]"),
        ("[normal]", "[extra]\nx = 1\n[normal]", "unknown section [extra]"),
        ("generators: u:1", "generators: u:1\ngenerator: u:1", "'generator' in section"),
        ("t = u", "t = u\nstray", "cannot parse line 'stray'"),
        ("generators: t:1", "generators: t:1, s:1", "ambient generators ['s']"),
        ("u = t^3", "2 * u = t^3", "single monomial: '2 * u'"),
    ],
)
def test_load_embedding_names_the_bad_token(old, new, token):
    assert old in LINE_IN_P3
    with pytest.raises(ValueError, match=re.escape(token)):
        load_embedding(LINE_IN_P3.replace(old, new))


def test_load_embedding_rejects_garbage():
    with pytest.raises(ValueError):
        load_embedding("stray line before any section")


def _normal_over_ambient(data):
    t = data.ambient.gen("t")
    rank = data.normal.rank
    return BundleClass(data.ambient, rank, [t ** i for i in range(1, rank + 1)])


@pytest.mark.parametrize(
    "reject, token",
    [
        (
            lambda data, bl: EmbeddingData(data.ambient, data.center, data.pull_images,
                                           data.push_table, _normal_over_ambient(data)),
            "not GradedRing(t:1, dim<=4)",
        ),
        (
            lambda data, bl: embedding_validate(
                EmbeddingData(GradedRing([("t", 1)]), data.center, data.pull_images,
                              data.push_table, data.normal), samples=1
            ),
            "not GradedRing(t:1)",
        ),
        (
            lambda data, bl: bl.mul(bl.one, BlowupRing(linear_blowup(4, 1)).one),
            "different blow-up",
        ),
    ],
    ids=["normal-ring", "unbounded", "foreign-class"],
)
def test_blowup_inputs_are_rejected_by_name(reject, token, data41, bl41):
    with pytest.raises(ValueError, match=re.escape(token)):
        reject(data41, bl41)
