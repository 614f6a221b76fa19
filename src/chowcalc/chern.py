"""Formal characteristic-class calculus on bundles given by Chern classes.

A bundle is its rank plus the list c_1..c_rank of Chern classes living in
some ring; everything here (Segre classes, duals, line-bundle twists, Chern
character, Todd class, series square roots, Mukai vectors) is computed
exactly from those classes: Segre classes with one ``ring.dot`` per degree,
the Chern character and the Todd class (through g = -log q) from the Newton
power sums of the Chern roots, in the bundle's own ring.  The universal Todd
polynomials are the Todd class of :func:`generic_bundle`, whose Chern
classes are free generators.  The functions are generic over the
coefficient ring: any ring handle exposing ``zero``, ``one``, ``sum`` and
``dot`` (every Σ of more than two terms goes through one of them, ``dot``
when it is a Σ of products) whose elements support ``+``, ``-``, ``*`` and
``grade_component`` works, so they apply equally to free graded rings and
to projective-bundle Chow rings.  Powers of the line class of
:func:`tensor_by_line` come from :func:`rings.powers`, which starts at
``x.ring.one``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .rings import GradedElement, GradedRing, powers


def binomial(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


class BundleClass:
    """A formal vector bundle: rank plus Chern classes c_1..c_rank."""

    def __init__(self, ring, rank: int, chern):
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        chern = tuple(chern)
        if len(chern) != rank:
            raise ValueError(f"expected {rank} Chern classes, got {len(chern)}")
        for i, ci in enumerate(chern, start=1):
            if not ci.is_homogeneous(i):
                raise ValueError(f"c_{i} is not homogeneous of degree {i}")
        self.ring = ring
        self.rank = rank
        self.chern = chern

    def c(self, i: int):
        """c_i with the conventions c_0 = 1 and c_i = 0 for i > rank."""
        if i == 0:
            return self.ring.one
        if 1 <= i <= self.rank:
            return self.chern[i - 1]
        return self.ring.zero

    def total_chern(self):
        return self.ring.sum((self.ring.one, *self.chern))

    def __repr__(self) -> str:
        return f"BundleClass(rank={self.rank}, c={list(self.chern)!r})"


def generic_bundle(rank: int, dim_bound: int | None = None) -> BundleClass:
    """The bundle whose Chern classes are the free generators c1..c{rank}
    (c_i of degree i) of a new :class:`GradedRing`."""
    ring = GradedRing([(f"c{i}", i) for i in range(1, rank + 1)], dim_bound)
    return BundleClass(ring, rank, [ring.gen(n) for n in ring.generator_names])


class CharClass:
    """An inhomogeneous class trusted up to degree ``max_deg``."""

    __slots__ = ("value", "max_deg")

    def __init__(self, value, max_deg: int):
        self.value = value
        self.max_deg = max_deg

    def __repr__(self) -> str:
        return f"CharClass(value={self.value!r}, max_deg={self.max_deg!r})"

    def component(self, d: int):
        return self.value.grade_component(d)

    def __add__(self, other: "CharClass") -> "CharClass":
        max_deg = min(self.max_deg, other.max_deg)
        return CharClass(_truncate(self.value + other.value, max_deg), max_deg)

    def __sub__(self, other: "CharClass") -> "CharClass":
        max_deg = min(self.max_deg, other.max_deg)
        return CharClass(_truncate(self.value - other.value, max_deg), max_deg)

    def __mul__(self, other: "CharClass") -> "CharClass":
        max_deg = min(self.max_deg, other.max_deg)
        return CharClass(_truncate(self.value * other.value, max_deg), max_deg)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharClass):
            return NotImplemented
        return self.max_deg == other.max_deg and self.value == other.value


def _truncate(x, max_deg: int):
    """x up to degree ``max_deg``; x itself when its ring's bound cuts there.
    A graded element is cut in one pass over its keys, whose top field is
    the degree; any other element is summed from its components."""
    ring = x.ring
    bound = getattr(ring, "dim_bound", None)
    if bound is not None and bound <= max_deg:
        return x
    if isinstance(x, GradedElement):
        top = max_deg + 1 << ring._degree_shift
        return GradedElement(ring, {e: c for e, c in x.terms.items() if e < top})
    return ring.sum(x.grade_component(d) for d in range(max_deg + 1))


# ----------------------------------------------------------- basic calculus


def _log_unit_series(coeffs: list[Fraction]) -> list[Fraction]:
    """Logarithm g of a rational power series f with f_0 = 1 (so g_0 = 0)."""
    assert coeffs[0] == 1
    log = [Fraction(0)]
    for m in range(1, len(coeffs)):
        acc = sum(i * log[i] * coeffs[m - i] for i in range(1, m))
        log.append(coeffs[m] - Fraction(acc, m))
    return log


def segre_classes(F: BundleClass, k_max: int, known=()) -> list:
    """Segre classes s_0..s_{k_max}, inverse of the total Chern class:
    s_m = -sum_{i=1}^{m} c_i s_{m-i}, one ``F.ring.dot`` per degree;
    ``known``, a list s_0..s_m already computed, is extended."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    s = list(known) or [F.ring.one]
    for m in range(len(s), k_max + 1):
        s.append(-F.ring.dot((F.c(i), s[m - i]) for i in range(1, m + 1)))
    return s


def dual_bundle(F: BundleClass) -> BundleClass:
    """c_j of the dual bundle is (-1)^j c_j."""
    return BundleClass(
        F.ring, F.rank, [F.chern[j - 1] * ((-1) ** j) for j in range(1, F.rank + 1)]
    )


def tensor_by_line(F: BundleClass, l) -> BundleClass:
    """Chern classes of F tensored with a line bundle of first Chern class l."""
    if not l.is_homogeneous(1):
        raise ValueError("line class must be homogeneous of degree 1")
    n = F.rank
    lpow = powers(l, n)
    chern = [
        F.ring.dot((F.c(j) * binomial(n - j, i - j), lpow[i - j]) for j in range(i + 1))
        for i in range(1, n + 1)
    ]
    return BundleClass(F.ring, n, chern)


def whitney_sum(E: BundleClass, F: BundleClass) -> BundleClass:
    """Direct sum: ranks add, total Chern classes multiply."""
    rank = E.rank + F.rank
    chern = [
        E.ring.dot((E.c(i), F.c(k - i)) for i in range(k + 1))
        for k in range(1, rank + 1)
    ]
    return BundleClass(E.ring, rank, chern)


def power_sums(F: BundleClass, k_max: int) -> list:
    """Power sums of the Chern roots via Newton's identities (p_0 = rank)."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    p = [F.ring.one * F.rank]
    for k in range(1, k_max + 1):
        mixed = ((F.c(i) * (-1) ** (i - 1), p[k - i]) for i in range(1, k))
        p.append(F.ring.dot(mixed, F.c(k) * ((-1) ** (k - 1) * k)))
    return p


def chern_character(F: BundleClass, max_deg: int) -> CharClass:
    """ch(F) = rank + sum_k p_k / k! up to ``max_deg``."""
    p = power_sums(F, max_deg)
    terms = (p[k] * Fraction(1, math.factorial(k)) for k in range(1, max_deg + 1))
    return CharClass(F.ring.sum((p[0], *terms)), max_deg)


# ----------------------------------------------------------------- genera


@lru_cache(maxsize=None)
def todd_universal(d: int) -> tuple:
    """Degree-d Todd polynomial as (exponents over c_1..c_d, coefficient) pairs:
    the degree-d part of the Todd class of ``generic_bundle(d)``."""
    F = generic_bundle(d, dim_bound=d)
    td = todd_class(F, d).component(d)
    return tuple((F.ring.exponents(e), c) for e, c in td.terms.items())


def todd_class(F: BundleClass, max_deg: int) -> CharClass:
    """Todd class of F up to ``max_deg``, computed in ``F.ring``.

    The Todd genus is multiplicative, so log td(F) = sum_k g_k p_k(F) with
    g = log(t / (1 - e^{-t})) = -log q for q = (1 - e^{-t}) / t, and p_k the
    power sums of the Chern roots (Hirzebruch, *Topological Methods in
    Algebraic Geometry*, §1).  Exponentiating degree by degree gives td_0 = 1
    and m td_m = sum_{k=1}^{m} k g_k p_k td_{m-k}, which holds in any
    commutative ring.
    """
    p = power_sums(F, max_deg)
    q = [Fraction((-1) ** m, math.factorial(m + 1)) for m in range(max_deg + 1)]
    g = [-x for x in _log_unit_series(q)]
    td = [F.ring.one]
    for m in range(1, max_deg + 1):
        td.append(F.ring.dot((p[k] * (k * g[k] / m), td[m - k]) for k in range(1, m + 1)))
    return CharClass(F.ring.sum(td), max_deg)


def sqrt_one_series(a: CharClass) -> CharClass:
    """Unique square root with constant term 1, degree by degree."""
    max_deg = a.max_deg
    ring = a.value.ring
    if a.value.grade_component(0) != ring.one:
        raise ValueError("degree-0 part must be 1")
    comps = [ring.one]
    for d in range(1, max_deg + 1):
        square = ring.dot((comps[i], comps[d - i]) for i in range(1, d))
        comps.append((a.value.grade_component(d) - square) * Fraction(1, 2))
    return CharClass(ring.sum(comps), max_deg)


def mukai_vector(F: BundleClass, tangent: BundleClass, max_deg: int) -> CharClass:
    """ch(F) times the square root of the Todd class of the tangent bundle."""
    return chern_character(F, max_deg) * sqrt_one_series(todd_class(tangent, max_deg))
