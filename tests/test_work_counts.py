"""Work-count gate: tower and blow-up products, the monomial degrees the
graded kernel computes, the polynomial substitutions and restrictions of
the blow-up, and the characteristic-class passes stay within recorded
bounds.

Counts are deterministic, so unlike wall time they do not drift between
machines.  A change that lowers a count lowers its bound here as well.
``perfbench/child.py`` is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

from chowcalc import FlopContext, chern, projbundle, verify_foundations, verify_multiplicativity
from chowcalc.blowup import BlowupRing, EmbeddingData
from chowcalc.cli import SuiteConfig, run_suite
from chowcalc.projbundle import ProjBundleRing
from chowcalc.rings import GradedElement, GradedRing, RingElement

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

# ProjBundleRing.mul calls for FlopContext(4), foundations and multiplicativity;
# the Segre classes of every tower take one ProjBundleRing.dot per degree, a
# sigma-bilinear term is a table, so no term is multiplied by pull(sigma_r
# sigma'_r), and the help sweep takes l·help(j, k) from eta'_*(H^{k+j}) in one
# pass over the slots and compares each cell with term_A's closed table, with
# no product; its 2r one-step identities take l·col[m] once each
FLOP_R4_TOWER_PRODUCTS = 63
# ProjBundleRing.reduce calls for the same run: h·y reduces once, pull(c)·y
# not at all, a product with a zero factor is zero at once, T1's right-hand
# side is swept by l, a help step reduces only when help(j, k) holds
# slot r, and a ProjBundleRing.dot that reaches slot n runs the relation loop
# ``form`` on its pair lists itself
FLOP_R4_REDUCTIONS = 57
# GradedElement.__sub__ calls for the same run: a tower difference subtracts
# only its stored right slots, the help sweep forms pull(tau_{k,r}) once and
# steps only the cells with k <= r
FLOP_R4_GRADED_SUBTRACTIONS = 25
# GradedElement.__bool__ calls for the same run: tower elements store only
# their nonzero slots, so only a computed slot is tested, and a tau row is a
# slot dict, so the next row tests none of its entries before it reduces them;
# a sigma table stores its zero entries untested, and adds a zero right entry
# by keeping the left one; the T1 sweep pulls each c_{q+1}(F) back (a zero
# test) once, not once per row, and the help sweep forms no cell with k > r
FLOP_R4_ZERO_TESTS = 413
# RingElement._refused calls for the same run, and for ``all --seed 1``: no
# ring map is implicit, so every operand is of the same class and ring, or a
# number under *
FLOP_R4_COERCIONS = 0
# GradedRing.dot calls for the same run: the sigma-bilinear terms are tables
# of their (k, j) coefficients, so a product by sigma_k sigma'_j is an index,
# and a help cell is compared with an entry of term_A's closed table, with no
# (-l)^j·col[k]; a tower product that reaches slot n forms each slot below it
# in one dot with its relation pairs, not a product dot and a reduction dot
FLOP_R4_GRADED_DOTS = 188
# the largest term count of a GradedElement built in the same run: the tower
# runs over Q[c_1..c_5] alone, so no sigma-tagged sum is formed
FLOP_R4_MAX_TERMS = 5
# GradedRing.dot calls for the same run whose every pair has a zero factor:
# a tower product with a zero factor is zero without a base product, and a
# tau row pulls c_j(F)·tau_{i-1,r} only when tau_{i-1,r} is nonzero
FLOP_R4_ZERO_FACTOR_PRODUCTS = 0
# chern.segre_classes calls for the same run: each reader asks for its top
# class first, so each tower's Segre list grows once per reading check (P by
# tau_pairing, E by eta_push_table and the help sweep, the mirror tower once)
FLOP_R4_SEGRE_EXTENSIONS = 4
# BlowupRing.mul calls for the blowup suite on linear:4,1
BLOWUP_LINEAR_4_1_PRODUCTS = 1000
# ProjBundleRing.mul calls in CH(E) for the same suite: none per blow-up
# product, which lists the base pairs of every exceptional term slot by slot
# (-xi·ea·eb one slot up) and forms them with the normalization by
# c_{r-1}(W) in one ProjBundleRing.form; the two left are key_formula's
# cW·pull(gamma)
BLOWUP_LINEAR_4_1_TOWER_PRODUCTS = 2
# ProjBundleRing.reduce calls in CH(E) for the same suite: none per blow-up
# product or exc_push, which list their base pairs slot by slot and run the
# relation loop ``ProjBundleRing.form`` on them directly; the two left build
# c_{r-1}(W) for each BlowupRing
BLOWUP_LINEAR_4_1_REDUCTIONS = 2
# GradedRing.dot calls for the same suite: the base products themselves, one
# per formed exceptional slot (its own pairs, its relation pairs and, below
# slot r - 1, the normalization's -c_k(W)·eta together) and per ambient
# product.  The tower entry points no longer see them, so they are pinned here
BLOWUP_LINEAR_4_1_GRADED_DOTS = 5657
# GradedElement.__sub__ calls for the same suite: the normalization takes
# c_k·eta from slot k inside a base.dot, with no slot-wise subtraction
BLOWUP_LINEAR_4_1_GRADED_SUBTRACTIONS = 0
# GradedRing.dot calls for the same suite whose every pair has a zero factor.
# The center P^1 kills c_2(N) and c_3(N), and the relation of CH(E) stores
# only -c_1(N), so reduce makes none.  i^*'s powers of u stop at u^2 = 0, and
# substitute drops a term with a zero factor, so the 5 left are products of
# embedding_validate's samples
BLOWUP_LINEAR_4_1_ZERO_FACTOR_PRODUCTS = 5
# GradedRing.pack calls, each computing one monomial degree.  Only pack
# computes a degree, once per monomial entering from outside; products, sums
# and grade reads take it from the key's top field, and seeded draws read
# keys each ring packed once per degree.  The Todd recurrence runs in the
# bundle's own ring, so mukai_vector(E, T, 8) on charclass_inputs(1) packs
# nothing.  The flop packs one key per generator c_1..c_5 of its base.
MUKAI_VECTOR_DEGREES = 0
BLOWUP_LINEAR_4_1_DEGREES = 12
FLOP_R4_DEGREES = 5
# GradedElement.substitute calls for the blowup suite on linear:4,1: i^* reads
# a table on ambient monomials, and substitutes each of t^0..t^4 once
BLOWUP_LINEAR_4_1_SUBSTITUTIONS = 5
# EmbeddingData.pull calls for the same suite: each class restricts its
# ambient part once, whatever number of products it enters (1,000 classes
# multiplied), plus four per sample of embedding_validate (5 samples)
BLOWUP_LINEAR_4_1_PULLS = 1020
# GradedRing.sum calls for the same suite: i^* and i_* extend their tables
# in one dict each, so no map scales a row or sums the scaled rows
BLOWUP_LINEAR_4_1_GRADED_SUMS = 1808
# GradedElement._scaled calls for the same suite: a map's rows are scaled
# inside its one dict, not one element each
BLOWUP_LINEAR_4_1_SCALINGS = 13
# chern.chern_character calls for the charclass suite at its default 5
# trials: ch(E) is formed once for ch_twist, ch(E (x) L) once per line
CHARCLASS_CHERN_CHARACTERS = 9
# GradedElement.grade_component calls of mukai_vector(E, T, 8): the square
# root reads degrees 0..8 once each; CharClass does not re-truncate on a
# ring whose bound already cuts at max_deg
MUKAI_VECTOR_GRADE_COMPONENTS = 9
# GradedElement.grade_component calls for the charclass suite (seed 1): a
# CharClass on a ring bounded above max_deg (8 against 6) is cut in one pass
# over its keys, not summed from max_deg + 1 components
CHARCLASS_GRADE_COMPONENTS = 15


def _count_calls(monkeypatch, cls, name) -> list[int]:
    """Wrap the method ``cls.name`` so that each call bumps the returned counter."""
    calls = [0]
    orig = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _flop_r4() -> None:
    ctx = FlopContext(4)
    report = verify_foundations(ctx)
    report.extend(verify_multiplicativity(ctx, *ctx.formal_sigmas()))
    assert report.ok, report.to_text()


def _blowup_linear_4_1() -> None:
    status, report = run_suite(SuiteConfig(suite="blowup", case="linear:4,1"))
    assert status == 0, report.to_text()


def test_flop_tower_products_at_r4(monkeypatch):
    calls = _count_calls(monkeypatch, ProjBundleRing, "mul")
    _flop_r4()
    assert 0 < calls[0] <= FLOP_R4_TOWER_PRODUCTS


def test_tower_reductions_at_r4(monkeypatch):
    calls = _count_calls(monkeypatch, ProjBundleRing, "reduce")
    _flop_r4()
    assert 0 < calls[0] <= FLOP_R4_REDUCTIONS


def test_graded_subtractions_of_flop_at_r4(monkeypatch):
    calls = _count_calls(monkeypatch, GradedElement, "__sub__")
    _flop_r4()
    assert 0 < calls[0] <= FLOP_R4_GRADED_SUBTRACTIONS


def test_zero_tests_of_flop_at_r4(monkeypatch):
    calls = _count_calls(monkeypatch, GradedElement, "__bool__")
    _flop_r4()
    assert 0 < calls[0] <= FLOP_R4_ZERO_TESTS


def test_coercions_of_flop_at_r4(monkeypatch):
    calls = _count_calls(monkeypatch, RingElement, "_refused")
    _flop_r4()
    assert calls[0] <= FLOP_R4_COERCIONS
    status, report = run_suite(SuiteConfig(suite="all", seed=1))
    assert status == 0, report.to_text()
    assert calls[0] <= FLOP_R4_COERCIONS


def test_graded_products_of_flop_at_r4(monkeypatch):
    calls = _count_calls(monkeypatch, GradedRing, "dot")
    _flop_r4()
    assert 0 < calls[0] <= FLOP_R4_GRADED_DOTS


def test_largest_graded_element_of_flop_at_r4(monkeypatch):
    init, largest = GradedElement.__init__, [0]

    def recorded(self, ring, terms):
        largest[0] = max(largest[0], len(terms))
        init(self, ring, terms)

    monkeypatch.setattr(GradedElement, "__init__", recorded)
    _flop_r4()
    assert 0 < largest[0] <= FLOP_R4_MAX_TERMS


def _count_zero_factor_products(monkeypatch) -> tuple[list[int], list[int]]:
    """Wrap ``GradedRing.dot``: the first counter bumps on each call, the
    second on each call whose every pair has a zero factor."""
    dot, products, zero_factor = GradedRing.dot, [0], [0]

    def counted(self, pairs, start=None):
        pairs = list(pairs)
        products[0] += 1
        zero_factor[0] += bool(pairs) and all(not (x and y) for x, y in pairs)
        return dot(self, pairs, start)

    monkeypatch.setattr(GradedRing, "dot", counted)
    return products, zero_factor


def test_zero_factor_products_of_flop_at_r4(monkeypatch):
    products, zero_factor = _count_zero_factor_products(monkeypatch)
    _flop_r4()
    assert products[0] > 0 and zero_factor[0] <= FLOP_R4_ZERO_FACTOR_PRODUCTS


def test_segre_extensions_of_flop_at_r4(monkeypatch):
    calls = _count_calls(monkeypatch, projbundle, "segre_classes")
    _flop_r4()
    assert 0 < calls[0] <= FLOP_R4_SEGRE_EXTENSIONS


def test_flop_builds_no_tau_row_past_the_basis_at_r4():
    # tau's column r past row r comes from the Segre classes, and T1 reads
    # rows 0..r only, so CH(P) keeps the basis rows and nothing more
    r = 4
    ctx = FlopContext(r)
    assert verify_multiplicativity(ctx, *ctx.formal_sigmas()).ok
    assert len(ctx.P._tau_rows) == r + 1


@pytest.mark.parametrize(
    "make_bundle",
    [lambda: chern.generic_bundle(4), lambda: FlopContext(4).G],
    ids=["graded", "projbundle"],
)
def test_segre_classes_take_one_dot_per_degree(monkeypatch, make_bundle):
    F = make_bundle()
    ring_type = type(F.ring)
    dots, muls, sums = (_count_calls(monkeypatch, ring_type, n) for n in ("dot", "mul", "sum"))
    chern.segre_classes(F, 8)
    assert (dots[0], muls[0], sums[0]) == (8, 0, 0)


def test_formal_sigmas_make_no_graded_product(monkeypatch):
    # the base is Q[c_1..c_{r+1}] alone; the formal sigma are no ring elements
    ctx = FlopContext(4)
    assert ctx.S.generator_names == tuple(f"c{i}" for i in range(1, 6))
    calls = _count_calls(monkeypatch, GradedRing, "dot")
    ctx.formal_sigmas()
    assert calls[0] == 0


def test_blowup_products_on_linear_4_1(monkeypatch):
    calls = _count_calls(monkeypatch, BlowupRing, "mul")
    _blowup_linear_4_1()
    assert 0 < calls[0] <= BLOWUP_LINEAR_4_1_PRODUCTS


def test_tower_products_on_blowup_linear_4_1(monkeypatch):
    calls = _count_calls(monkeypatch, ProjBundleRing, "mul")
    _blowup_linear_4_1()
    assert 0 < calls[0] <= BLOWUP_LINEAR_4_1_TOWER_PRODUCTS


def test_tower_reductions_on_blowup_linear_4_1(monkeypatch):
    calls = _count_calls(monkeypatch, ProjBundleRing, "reduce")
    _blowup_linear_4_1()
    assert 0 < calls[0] <= BLOWUP_LINEAR_4_1_REDUCTIONS


def test_graded_products_of_blowup_linear_4_1(monkeypatch):
    calls = _count_calls(monkeypatch, GradedRing, "dot")
    _blowup_linear_4_1()
    assert 0 < calls[0] <= BLOWUP_LINEAR_4_1_GRADED_DOTS


def test_graded_subtractions_of_blowup_linear_4_1(monkeypatch):
    calls = _count_calls(monkeypatch, GradedElement, "__sub__")
    _blowup_linear_4_1()
    assert calls[0] <= BLOWUP_LINEAR_4_1_GRADED_SUBTRACTIONS


def test_zero_factor_products_of_blowup_linear_4_1(monkeypatch):
    products, zero_factor = _count_zero_factor_products(monkeypatch)
    _blowup_linear_4_1()
    assert products[0] > 0 and zero_factor[0] <= BLOWUP_LINEAR_4_1_ZERO_FACTOR_PRODUCTS


def _charclass_inputs(seed: int):
    spec = importlib.util.spec_from_file_location("chowcalc_bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.charclass_inputs(seed)


def test_monomial_degrees_of_mukai_vector(monkeypatch):
    _, E, T = _charclass_inputs(1)
    chern.todd_universal.cache_clear()  # cold, whatever ran before
    calls = _count_calls(monkeypatch, GradedRing, "pack")
    chern.mukai_vector(E, T, 8)
    assert calls[0] == MUKAI_VECTOR_DEGREES


def test_mukai_vector_builds_no_ring_and_packs_no_monomial(monkeypatch):
    _, E, T = _charclass_inputs(1)
    chern.todd_universal.cache_clear()
    rings = _count_calls(monkeypatch, GradedRing, "__init__")
    packs = _count_calls(monkeypatch, GradedRing, "pack")
    chern.mukai_vector(E, T, 8)
    assert rings[0] == packs[0] == 0


def test_only_a_ring_holding_a_fraction_is_marked_rational(monkeypatch):
    # dot runs over a common denominator only on a marked ring; the flop and
    # the blow-up work over the integers, and so run the plain loop
    init, built = GradedRing.__init__, []

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(GradedRing, "__init__", recorded)
    for run in (_flop_r4, _blowup_linear_4_1):
        built.clear()
        run()
        assert built and not any(ring.rational for ring in built), run.__name__
    ring, E, T = _charclass_inputs(1)
    assert not ring.rational
    chern.mukai_vector(E, T, 8)
    assert ring.rational


def test_monomial_degrees_of_blowup_linear_4_1(monkeypatch):
    calls = _count_calls(monkeypatch, GradedRing, "pack")
    _blowup_linear_4_1()
    assert 0 < calls[0] <= BLOWUP_LINEAR_4_1_DEGREES


def test_substitutions_of_blowup_linear_4_1(monkeypatch):
    calls = _count_calls(monkeypatch, GradedElement, "substitute")
    _blowup_linear_4_1()
    assert 0 < calls[0] <= BLOWUP_LINEAR_4_1_SUBSTITUTIONS


def test_monomial_degrees_of_flop_at_r4(monkeypatch):
    calls = _count_calls(monkeypatch, GradedRing, "pack")
    _flop_r4()
    assert 0 < calls[0] <= FLOP_R4_DEGREES


def test_restrictions_of_blowup_linear_4_1(monkeypatch):
    # i^* runs once per class multiplied, however many products it enters
    calls = _count_calls(monkeypatch, EmbeddingData, "pull")
    mul, multiplied = BlowupRing.mul, {}

    def recorded(self, a, b):
        multiplied.update({id(a): a, id(b): b})  # held, so no id is reused
        return mul(self, a, b)

    monkeypatch.setattr(BlowupRing, "mul", recorded)
    _blowup_linear_4_1()
    assert 0 < calls[0] <= BLOWUP_LINEAR_4_1_PULLS
    # embedding_validate pulls four classes per sample
    assert calls[0] - 4 * SuiteConfig(suite="blowup").trials <= len(multiplied)


def test_embedding_maps_call_no_graded_sum(monkeypatch):
    # a sum inside i^* or i_* is counted unless it is the substitution that
    # fills an i^* table entry on first use
    depth, nested, sums = [0], [0], [0]

    def entering(cls, name, counter):
        orig = getattr(cls, name)

        def wrapped(self, *args):
            counter[0] += 1
            try:
                return orig(self, *args)
            finally:
                counter[0] -= 1

        monkeypatch.setattr(cls, name, wrapped)

    entering(EmbeddingData, "pull", depth)
    entering(EmbeddingData, "push", depth)
    entering(GradedElement, "substitute", nested)
    orig_sum = GradedRing.sum

    def counted(self, elements):
        sums[0] += bool(depth[0] and not nested[0])
        return orig_sum(self, elements)

    monkeypatch.setattr(GradedRing, "sum", counted)
    _blowup_linear_4_1()
    assert sums[0] == 0


def test_graded_sums_of_blowup_linear_4_1(monkeypatch):
    calls = _count_calls(monkeypatch, GradedRing, "sum")
    _blowup_linear_4_1()
    assert 0 < calls[0] <= BLOWUP_LINEAR_4_1_GRADED_SUMS


def test_scalings_of_blowup_linear_4_1(monkeypatch):
    calls = _count_calls(monkeypatch, GradedElement, "_scaled")
    _blowup_linear_4_1()
    assert 0 < calls[0] <= BLOWUP_LINEAR_4_1_SCALINGS


def test_chern_characters_of_the_charclass_suite(monkeypatch):
    calls, ch = [0], chern.chern_character

    def counted(F, max_deg):
        calls[0] += 1
        return ch(F, max_deg)

    monkeypatch.setattr(chern, "chern_character", counted)
    status, report = run_suite(SuiteConfig(suite="charclass", seed=1))
    assert status == 0, report.to_text()
    assert 0 < calls[0] <= CHARCLASS_CHERN_CHARACTERS


def test_grade_components_of_mukai_vector(monkeypatch):
    _, E, T = _charclass_inputs(1)
    chern.todd_universal.cache_clear()
    calls = _count_calls(monkeypatch, GradedElement, "grade_component")
    chern.mukai_vector(E, T, 8)
    assert 0 < calls[0] <= MUKAI_VECTOR_GRADE_COMPONENTS


def test_grade_components_of_the_charclass_suite(monkeypatch):
    calls = _count_calls(monkeypatch, GradedElement, "grade_component")
    status, report = run_suite(SuiteConfig(suite="charclass", seed=1))
    assert status == 0, report.to_text()
    assert 0 < calls[0] <= CHARCLASS_GRADE_COMPONENTS
