"""Exact graded-commutative polynomial rings over the rationals.

Elements are sparse polynomials in named generators with assigned degrees,
with `int` coefficients until a division makes a `fractions.Fraction` (whole
inputs are stored as `int`), and all generators commute.  Terms are kept in
canonical form: nonzero, and of total degree at most an optional dimension
bound.  ``GradedRing._canonical`` drops zeros and terms above the bound for
terms from outside; ``-``, unary ``-``, scaling, ``sum`` and ``combine``
(Σ c·x over elements x and numbers c) keep canonical operands' keys.  The
one product kernel, ``GradedRing.dot``, adds Σ x·y into one dict, skipping
a pair whose degrees add up past the bound, so it too drops only zeros;
``GradedRing.mul`` is its one-pair case.  A ring is marked ``rational``,
for good, once a non-integer coefficient enters it (``element``, ``parse``,
``_scaled`` or ``combine``); ``dot`` on a marked ring multiplies integer
numerators over one common denominator, so a pair costs no ``Fraction``
gcd.  An integer ring runs the plain loop, which still handles a
``Fraction`` exactly: a missed mark costs only speed.  ``RingElement`` owns
``+`` (the ring's ``sum``), ``*`` (its ``mul``) and ``==`` for every
element class, on operands of one ring only: a number enters as
``ring.one * c``, never by implicit coercion.  Each ring keeps the packed
keys of a degree's monomials once enumerated, in enumeration order; seeded
draws read them.

Each monomial is one ``int`` key, made by ``GradedRing.pack`` (the one way
in) and read by ``GradedRing.exponents`` (the one way out): the weighted
degree above ``FIELD_BITS``-wide exponent fields, first generator most
significant.  A product adds keys, int order is (degree, exponents) order,
and a field's top bit is a guard: ``pack`` and the product raise
``ValueError`` on an exponent that reaches it.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping

Exponents = tuple[int, ...]
Coefficient = int | Fraction


# Coefficients of sampled elements are drawn uniformly from this range, each
# as ``rng.choice(_DRAWS)``: ``randint``'s one ``_randbelow`` draw, cheaper.
COEFF_RANGE = (-9, 9)
_DRAWS = range(COEFF_RANGE[0], COEFF_RANGE[1] + 1)

# Width of one exponent field of a packed key; its top bit is the guard.
FIELD_BITS = 16


def exact(c) -> Coefficient:
    """The number c as a coefficient: an ``int`` when whole, else a ``Fraction``."""
    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def powers(x, n: int) -> list:
    """The table x^0 .. x^n, starting at ``x.ring.one``, multiplied left to
    right; once a power is zero, the rest repeat it with no product."""
    table = [x.ring.one]
    for _ in range(n):
        table.append(table[-1] * x if table[-1] else table[-1])
    return table


class RingElement:
    """``+`` (``ring.sum``), ``*`` (``ring.mul``, or ``_scaled`` by an ``int``
    or a ``Fraction``), ``==`` (of ``_state()``), ``-``, powers and repr.  An
    operand is an element of the same class and ring; ``_refused`` answers
    any other.  A subclass supplies ``_state``, ``_scaled``, unary ``-`` and
    ``str``."""

    __slots__ = ()

    def _refused(self, other):
        """An operand that is not an element of this ring: ``ValueError`` for
        the same class, else ``NotImplemented``.  No ring map is implicit:
        numbers enter through ``*``, base classes through a pullback."""
        if isinstance(other, type(self)):
            raise ValueError("elements belong to different rings")
        return NotImplemented

    def __add__(self, other):
        if type(other) is not type(self) or other.ring is not self.ring:
            return self._refused(other)
        return self.ring.sum((self, other))

    def __mul__(self, other):
        if type(other) is type(self) and other.ring is self.ring:
            return self.ring.mul(self, other)
        if type(other) is int:
            return self._scaled(other)
        if isinstance(other, (int, Fraction)):
            return self._scaled(exact(other))
        return self._refused(other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self) or other.ring is not self.ring:
            return self._refused(other)
        return self._state() == other._state()

    def __sub__(self, other):
        return self + (-other)

    def __pow__(self, n: int):
        """self ** n as one * self * ... * self, multiplied left to right."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return powers(self, n)[n]

    def __repr__(self) -> str:
        return f"<{self}>"


class GradedRing:
    """A free graded-commutative polynomial ring with rational coefficients."""

    def __init__(
        self,
        generators: Iterable[tuple[str, int]],
        dim_bound: int | None = None,
    ):
        gens = tuple((str(name), int(deg)) for name, deg in generators)
        names = [name for name, _ in gens]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator name in {names}")
        for name, deg in gens:
            if not name.isidentifier():
                raise ValueError(f"generator name {name!r} is not an identifier")
            if deg < 0:
                raise ValueError(f"generator {name} has negative degree {deg}")
        if dim_bound is not None and dim_bound < 0:
            raise ValueError(f"dim_bound must be >= 0, got {dim_bound}")
        self.generator_names = tuple(names)
        self.degrees = tuple(deg for _, deg in gens)
        self.dim_bound = dim_bound
        self.rational = False  # set once a non-integer coefficient enters
        self.nvars = len(gens)
        self._index = {name: i for i, name in enumerate(names)}
        self._keys: dict[int, tuple[int, ...]] = {}  # packed monomials, per degree
        self._degree_shift = FIELD_BITS * self.nvars
        self._shifts = tuple(range(self._degree_shift - FIELD_BITS, -1, -FIELD_BITS))
        self._guard = sum(1 << FIELD_BITS - 1 << s for s in self._shifts)
        # keys e1 + e2 < _limit are kept; unbounded, it tops any two guarded keys
        top = sum(self.degrees) << FIELD_BITS if dim_bound is None else dim_bound
        self._limit = top + 1 << self._degree_shift
        self.zero = GradedElement(self, {})
        self.one = GradedElement(self, {0: 1})

    # -------------------------------------------------------------- basics

    def gen(self, name: str) -> "GradedElement":
        i = self._index[name]
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self._canonical({self.pack(exps): 1})

    def _marked(self, c: Coefficient) -> Coefficient:
        """c, entering this ring; a non-integer marks the ring ``rational``."""
        if not isinstance(c, int):
            self.rational = True
        return c

    def element(self, terms: Mapping[Exponents, object]) -> "GradedElement":
        """Build an element from an exponents -> coefficient mapping."""
        out: dict[int, Coefficient] = {}
        for exps, coeff in terms.items():
            key = self.pack(tuple(int(e) for e in exps))
            coeff = self._marked(exact(coeff))
            if coeff:
                out[key] = out.get(key, 0) + coeff
        return self._canonical(out)

    def pack(self, exps: Exponents) -> int:
        """The key of the monomial with exponent tuple ``exps``."""
        if len(exps) != self.nvars or not all(0 <= e < 1 << FIELD_BITS - 1 for e in exps):
            raise ValueError(
                f"bad exponent tuple {exps}: {self.nvars} in [0, 2**{FIELD_BITS - 1}) needed"
            )
        key = sum(e * d for e, d in zip(exps, self.degrees))  # the degree field
        for e in exps:
            key = key << FIELD_BITS | e
        return key

    def exponents(self, key: int) -> Exponents:
        """The exponent tuple of a packed key; inverse of ``pack``."""
        mask = (1 << FIELD_BITS) - 1
        return tuple(key >> s & mask for s in self._shifts)

    def monomial_str(self, exps: Exponents) -> str:
        """A monomial as ``str`` writes it, with ``"1"`` for the constant one."""
        names = self.generator_names
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        return "*".join(factors) or "1"

    def sum(self, elements: Iterable["GradedElement"]) -> "GradedElement":
        """One dict for all summands, zeros dropped once; empty gives ``zero``."""
        terms: dict[int, Coefficient] = {}
        for x in elements:
            if getattr(x, "ring", None) is not self:
                raise ValueError("elements belong to different rings")
            if terms:
                for e, c in x.terms.items():  # a new key's c is stored as it is
                    terms[e] = terms[e] + c if e in terms else c
            else:
                terms = dict(x.terms)  # the first summand is copied whole
        return GradedElement(self, {e: c for e, c in terms.items() if c})

    def combine(self, rows: Iterable[tuple]) -> "GradedElement":
        """Σ c·x over ``(x, c)`` rows, c a number, in one dict as ``sum``
        builds it; a non-integer c marks the ring ``rational``."""
        terms: dict[int, Coefficient] = {}
        for x, c in rows:
            if x.ring is not self:
                raise ValueError("elements belong to different rings")
            c = self._marked(c)
            for e, k in x.terms.items():
                k *= c
                terms[e] = terms[e] + k if e in terms else k
        return GradedElement(self, {e: c for e, c in terms.items() if c})

    def dot(self, pairs: Iterable[tuple], start=None) -> "GradedElement":
        """``start`` + Σ x·y over ``pairs`` in one dict, zeros dropped once (no
        key passes the bound); a guard bit reached by a product key raises
        ``ValueError``.  On a ``rational`` ring (read once) the loop runs on
        ``_numerators``."""
        if start is not None and start.ring is not self:
            raise ValueError("elements belong to different rings")
        den = 1
        if self.rational:
            pairs, start, den = self._numerators(pairs, start)
        terms = {} if start is None else dict(start.terms)
        limit = self._limit
        for x, y in pairs:
            if x.ring is not self or y.ring is not self:
                raise ValueError("elements belong to different rings")
            right = y.terms.items()
            for e1, c1 in x.terms.items():
                room = limit - e1
                for e2, c2 in right:
                    if e2 < room:
                        e = e1 + e2
                        terms[e] = terms.get(e, 0) + c1 * c2
        if terms and self._guard & functools.reduce(operator.or_, terms):
            raise ValueError(f"exponent overflow past 2**{FIELD_BITS - 1} in {self!r}")
        if den != 1:
            return GradedElement(self, {e: exact(Fraction(c, den)) for e, c in terms.items() if c})
        return GradedElement(self, {e: c for e, c in terms.items() if c})

    def _numerators(self, pairs: Iterable[tuple], start):
        """The pairs and ``start`` rescaled to integer coefficients, and the
        denominator D they share: the lcm of start's and of each pair's
        d_x·d_y.  x·y = (x·D/d_y)·(y·d_y) / D, and d_x divides D/d_y."""

        def denominator(x) -> int:
            return math.lcm(*[c.denominator for c in x.terms.values()])

        def scaled(x, m: int) -> "GradedElement":  # m a multiple of x's denominator
            terms = x.terms.items()
            return GradedElement(self, {e: c.numerator * (m // c.denominator) for e, c in terms})

        listed = []
        for x, y in pairs:
            if x.ring is not self or y.ring is not self:
                raise ValueError("elements belong to different rings")
            listed.append((x, y, denominator(y)))
        den = math.lcm(1 if start is None else denominator(start),
                       *[denominator(x) * dy for x, _, dy in listed])
        pairs = [(scaled(x, den // dy), scaled(y, dy)) for x, y, dy in listed]
        return pairs, None if start is None else scaled(start, den), den

    def mul(self, x: "GradedElement", y: "GradedElement") -> "GradedElement":
        return self.dot(((x, y),))

    def _canonical(self, terms: dict[int, Coefficient]) -> "GradedElement":
        """The element with these terms, zeros and terms above the bound dropped."""
        limit = self._limit
        return GradedElement(self, {e: c for e, c in terms.items() if c and e < limit})

    def __repr__(self) -> str:
        gens = ", ".join(
            f"{n}:{d}" for n, d in zip(self.generator_names, self.degrees)
        )
        bound = "" if self.dim_bound is None else f", dim<={self.dim_bound}"
        return f"GradedRing({gens}{bound})"

    # ------------------------------------------------------------ sampling

    def monomials_of_degree(self, d: int) -> tuple[Exponents, ...]:
        """All monomials of weighted degree exactly d (positive-degree rings)."""
        if any(deg == 0 for deg in self.degrees):
            raise ValueError("monomial enumeration needs all generator degrees >= 1")

        def rec(i: int, remaining: int, prefix: tuple[int, ...]):
            if i == self.nvars:
                if remaining == 0:
                    yield prefix
                return
            deg = self.degrees[i]
            if i < self.nvars - 1:
                exps = range(remaining // deg + 1)
            else:  # the last exponent is solved for, not searched
                exps = (remaining // deg,) if remaining % deg == 0 else ()
            for e in exps:
                yield from rec(i + 1, remaining - e * deg, prefix + (e,))

        return tuple(rec(0, d, ()))

    def _keys_of_degree(self, d: int) -> tuple[int, ...]:
        """The packed keys of ``monomials_of_degree(d)``, in its order,
        enumerated on the first call for d and kept by the ring."""
        if d not in self._keys:
            self._keys[d] = tuple(map(self.pack, self.monomials_of_degree(d)))
        return self._keys[d]

    def random_homogeneous(self, rng, degree: int) -> "GradedElement":
        return self._canonical({e: rng.choice(_DRAWS) for e in self._keys_of_degree(degree)})

    def random_element(self, rng, max_degree: int) -> "GradedElement":
        keys = (e for d in range(max_degree + 1) for e in self._keys_of_degree(d))
        return self._canonical({e: rng.choice(_DRAWS) for e in keys})

    # ------------------------------------------------------------- parsing

    def parse(self, text: str) -> "GradedElement":
        """Inverse of ``str(element)`` for the canonical serialization.

        Malformed text raises ``ValueError`` naming the offending token.
        """
        text = text.strip()
        if text == "0":
            return self.zero
        terms: dict[int, Coefficient] = {}
        for chunk in text.split(" + "):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"empty term in {text!r}")
            if " * " in chunk:
                coeff_str, mono_str = chunk.split(" * ", 1)
                coeff = self._marked(_parse_coefficient(coeff_str))
            else:
                try:
                    coeff, mono_str = self._marked(_parse_coefficient(chunk)), None
                except ValueError:
                    coeff, mono_str = 1, chunk  # bare monomial
            exps = [0] * self.nvars
            for factor in mono_str.split("*") if mono_str else ():
                name, caret, exponent = factor.strip().partition("^")
                if caret and not (exponent.isascii() and exponent.isdigit()):
                    raise ValueError(f"bad exponent {exponent!r} in {factor!r}")
                if name not in self._index:
                    raise ValueError(f"unknown generator {name!r} in {text!r}")
                exps[self._index[name]] += int(exponent) if caret else 1
            key = self.pack(tuple(exps))
            terms[key] = terms.get(key, 0) + coeff
        return self._canonical(terms)


def _parse_coefficient(token: str) -> Coefficient:
    try:
        return exact(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad coefficient {token!r}") from None


class GradedElement(RingElement):
    """An element of a :class:`GradedRing` in canonical form."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: dict[int, Coefficient]):
        self.ring = ring
        self.terms = terms

    # ----------------------------------------------------------- structure

    def __bool__(self) -> bool:
        return bool(self.terms)

    def grade_component(self, d: int) -> "GradedElement":
        shift = self.ring._degree_shift
        return GradedElement(
            self.ring, {e: c for e, c in self.terms.items() if e >> shift == d}
        )

    def is_homogeneous(self, d: int) -> bool:
        # the degree is a key's top field, so every key lies in d's range
        # when the least and the greatest do
        shift, terms = self.ring._degree_shift, self.terms
        return not terms or d << shift <= min(terms) and max(terms) < d + 1 << shift

    # ---------------------------------------------------------- arithmetic

    def _state(self) -> dict:
        return self.terms

    def _scaled(self, c: Coefficient) -> "GradedElement":
        # a nonzero c keeps every key and makes no coefficient zero
        c = self.ring._marked(c)
        return GradedElement(self.ring, {e: k * c for e, k in self.terms.items()} if c else {})

    # Bound here by name: perfbench's tracer reads both from this class's
    # own ``__dict__``.
    __add__ = RingElement.__add__
    __mul__ = __rmul__ = RingElement.__mul__

    def __neg__(self):
        return GradedElement(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not GradedElement or other.ring is not self.ring:
            return self._refused(other)
        if not other.terms:  # elements are never mutated, so self may be shared
            return self
        terms = dict(self.terms)
        for e, c in other.terms.items():  # both canonical: every key is below the bound
            if value := terms.get(e, 0) - c:
                terms[e] = value
            else:  # c is nonzero, so e was a key of self
                del terms[e]
        return GradedElement(self.ring, terms)

    # -------------------------------------------------------- substitution

    def substitute(self, images: Mapping[str, object], target) -> object:
        """Evaluate the polynomial at ``images`` inside the ring ``target``.

        Images are required only for generators that actually occur; the
        result is canonical in the target ring.  ``target`` may be any ring
        handle with ``one`` and ``sum`` whose elements multiply; each image
        is an element of it, and its powers come from :func:`powers`.
        """
        ring = self.ring
        rows = [(ring.exponents(key), c) for key, c in self.terms.items()]
        table = {}  # generator index -> powers of its image
        for i in range(ring.nvars):
            top = max((e[i] for e, _ in rows), default=0)
            if top:
                name = ring.generator_names[i]
                if name not in images:
                    raise KeyError(f"no image for generator {name!r}")
                table[i] = powers(images[name], top)

        factors = [(c, [pows[e[i]] for i, pows in table.items() if e[i]]) for e, c in rows]
        return target.sum(  # a term with a zero factor is dropped, not multiplied
            functools.reduce(operator.mul, fs, target.one * c) for c, fs in factors if all(fs)
        )

    # ------------------------------------------------------- serialization

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ring = self.ring
        parts = []
        for key, coeff in sorted(self.terms.items(), reverse=True):  # keys are distinct
            mono = ring.monomial_str(ring.exponents(key))
            parts.append(str(coeff) if mono == "1" else f"{coeff} * {mono}")
        return " + ".join(parts)
