"""Exact graded-commutative polynomial rings over the rationals.

Elements are sparse polynomials in named generators with assigned degrees,
with `int` coefficients until a division makes a `fractions.Fraction` (whole
inputs are stored as `int`), and all generators commute.  Terms are kept in
canonical form: nonzero, and of total degree at most an optional dimension
bound.  The bound is applied to terms entering from outside (``element``,
``parse``, ``gen``, the random draws) and in the product, which skips a pair
whose degrees add up past it; ``sum`` and scalar ``*`` only drop zeros.  ``+``
is the two-element case of ``GradedRing.sum``, which adds any number in one
dict.  Each ring keeps the monomials of a degree once enumerated.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Exponents = tuple[int, ...]
Coefficient = int | Fraction


# Coefficients of sampled elements are drawn uniformly from this range.
COEFF_RANGE = (-9, 9)


def exact(c) -> Coefficient:
    """The number c as a coefficient: an ``int`` when whole, else a ``Fraction``."""
    c = c if isinstance(c, int) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def powers(x, n: int) -> list:
    """The table x^0 .. x^n, starting at ``x.ring.one``, multiplied left to right."""
    table = [x.ring.one]
    for _ in range(n):
        table.append(table[-1] * x)
    return table


class RingElement:
    """Coercion, subtraction, powers and repr, derived once from a subclass's
    ``ring.one``, ``ring.scalar``, ``+``, unary ``-``, ``*`` and ``str``."""

    __slots__ = ()

    def _coerce(self, other):
        """``other`` in this ring: same class needs the same ring (else
        ``ValueError``), a number becomes ``ring.scalar``, else None."""
        if isinstance(other, type(self)):
            if other.ring is not self.ring:
                raise ValueError("elements belong to different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return None

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

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
        self.nvars = len(gens)
        self._index = {name: i for i, name in enumerate(names)}
        self._monomials: dict[int, tuple[Exponents, ...]] = {}
        self.zero = GradedElement(self, {})
        self.one = GradedElement(self, {(0,) * self.nvars: 1})

    # -------------------------------------------------------------- basics

    def gen(self, name: str) -> "GradedElement":
        i = self._index[name]
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self._canonical({exps: 1})

    def scalar(self, c) -> "GradedElement":
        return self._nonzero({(0,) * self.nvars: exact(c)})

    def element(self, terms: Mapping[Exponents, object]) -> "GradedElement":
        """Build an element from an exponents -> coefficient mapping."""
        out: dict[Exponents, Coefficient] = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            coeff = exact(coeff)
            if coeff:
                out[exps] = out.get(exps, 0) + coeff
        return self._canonical(out)

    def monomial_str(self, exps: Exponents) -> str:
        """A monomial as ``str`` writes it, with ``"1"`` for the constant one."""
        names = self.generator_names
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        return "*".join(factors) or "1"

    def monomial_degree(self, exps: Exponents) -> int:
        return sum(e * d for e, d in zip(exps, self.degrees))

    def sum(self, elements: Iterable["GradedElement"]) -> "GradedElement":
        """One dict for all summands, canonicalised once; empty gives ``zero``."""
        terms: dict[Exponents, Coefficient] = {}
        for x in elements:
            if getattr(x, "ring", None) is not self:
                raise ValueError("elements belong to different rings")
            if terms:
                for e, c in x.terms.items():
                    terms[e] = terms.get(e, 0) + c
            else:
                terms = dict(x.terms)  # the first summand is copied whole
        return self._nonzero(terms)

    def _canonical(self, terms: dict[Exponents, Coefficient]) -> "GradedElement":
        """Terms from outside the ring: zeros and terms above the bound dropped."""
        bound = self.dim_bound
        clean = {
            exps: coeff
            for exps, coeff in terms.items()
            if coeff and (bound is None or self.monomial_degree(exps) <= bound)
        }
        return GradedElement(self, clean)

    def _nonzero(self, terms: dict[Exponents, Coefficient]) -> "GradedElement":
        """Terms from canonical operands, so within the bound: zeros dropped."""
        return GradedElement(self, {e: c for e, c in terms.items() if c})

    def __repr__(self) -> str:
        gens = ", ".join(
            f"{n}:{d}" for n, d in zip(self.generator_names, self.degrees)
        )
        bound = "" if self.dim_bound is None else f", dim<={self.dim_bound}"
        return f"GradedRing({gens}{bound})"

    # ------------------------------------------------------------ sampling

    def monomials_of_degree(self, d: int) -> tuple[Exponents, ...]:
        """All monomials of weighted degree exactly d (positive-degree rings),
        enumerated on the first call for d and kept by the ring."""
        if d in self._monomials:
            return self._monomials[d]
        if any(deg == 0 for deg in self.degrees):
            raise ValueError("monomial enumeration needs all generator degrees >= 1")

        def rec(i: int, remaining: int, prefix: tuple[int, ...]):
            if i == self.nvars:
                if remaining == 0:
                    yield prefix
                return
            deg = self.degrees[i]
            for e in range(remaining // deg + 1):
                yield from rec(i + 1, remaining - e * deg, prefix + (e,))

        self._monomials[d] = tuple(rec(0, d, ()))
        return self._monomials[d]

    def monomials_up_to(self, d: int) -> Iterator[Exponents]:
        for k in range(d + 1):
            yield from self.monomials_of_degree(k)

    def random_homogeneous(self, rng, degree: int) -> "GradedElement":
        terms = {m: rng.randint(*COEFF_RANGE) for m in self.monomials_of_degree(degree)}
        return self._canonical(terms)

    def random_element(self, rng, max_degree: int) -> "GradedElement":
        terms = {m: rng.randint(*COEFF_RANGE) for m in self.monomials_up_to(max_degree)}
        return self._canonical(terms)

    # ------------------------------------------------------------- parsing

    def parse(self, text: str) -> "GradedElement":
        """Inverse of ``str(element)`` for the canonical serialization.

        Malformed text raises ``ValueError`` naming the offending token.
        """
        text = text.strip()
        if text == "0":
            return self.zero
        terms: dict[Exponents, Coefficient] = {}
        for chunk in text.split(" + "):
            chunk = chunk.strip()
            if " * " in chunk:
                coeff_str, mono_str = chunk.split(" * ", 1)
                coeff = _parse_coefficient(coeff_str)
            else:
                try:
                    coeff, mono_str = _parse_coefficient(chunk), None
                except ValueError:
                    coeff, mono_str = 1, chunk  # bare monomial
            if mono_str is None:
                key = (0,) * self.nvars
            else:
                exps = [0] * self.nvars
                for factor in mono_str.split("*"):
                    name, caret, exponent = factor.strip().partition("^")
                    if caret and not exponent.isdigit():
                        raise ValueError(f"bad exponent {exponent!r} in {factor!r}")
                    if name not in self._index:
                        raise ValueError(f"unknown generator {name!r} in {text!r}")
                    exps[self._index[name]] += int(exponent) if caret else 1
                key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        return self._canonical(terms)


def _degree_zero(exps: Exponents) -> int:
    return 0


def _parse_coefficient(token: str) -> Coefficient:
    try:
        return exact(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad coefficient {token!r}") from None


class GradedElement(RingElement):
    """An element of a :class:`GradedRing` in canonical form."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: dict[Exponents, Coefficient]):
        self.ring = ring
        self.terms = terms

    # ----------------------------------------------------------- structure

    def __bool__(self) -> bool:
        return bool(self.terms)

    def grade_component(self, d: int) -> "GradedElement":
        deg = self.ring.monomial_degree
        return GradedElement(
            self.ring, {e: c for e, c in self.terms.items() if deg(e) == d}
        )

    def is_homogeneous(self, d: int) -> bool:
        deg = self.ring.monomial_degree
        return all(deg(e) == d for e in self.terms)

    # ---------------------------------------------------------- arithmetic

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return GradedElement(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = exact(other)
            return self.ring._nonzero({e: k * c for e, k in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring
        bound = ring.dim_bound
        if bound is None:  # no bound: every degree reads 0 and every pair is kept
            deg, bound = _degree_zero, 0
        else:
            deg = ring.monomial_degree
        add = operator.add
        terms: dict[Exponents, Coefficient] = {}
        right = [(deg(e2), e2, c2) for e2, c2 in other.terms.items()]
        for e1, c1 in self.terms.items():
            room = bound - deg(e1)
            for d2, e2, c2 in right:
                if d2 <= room:
                    e = tuple(map(add, e1, e2))
                    terms[e] = terms.get(e, 0) + c1 * c2
        return ring._nonzero(terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    # -------------------------------------------------------- substitution

    def substitute(self, images: Mapping[str, object], target) -> object:
        """Evaluate the polynomial at ``images`` inside the ring ``target``.

        Images are required only for generators that actually occur; the
        result is canonical in the target ring.  ``target`` may be any ring
        handle with ``one`` and ``sum`` whose elements multiply; each image
        is an element of it, and its powers come from :func:`powers`.
        """
        ring = self.ring
        table = {}  # generator index -> powers of its image
        for i in range(ring.nvars):
            top = max((e[i] for e in self.terms), default=0)
            if top:
                name = ring.generator_names[i]
                if name not in images:
                    raise KeyError(f"no image for generator {name!r}")
                table[i] = powers(images[name], top)

        def term(exps, coeff):
            factors = (pows[exps[i]] for i, pows in table.items() if exps[i])
            return functools.reduce(operator.mul, factors, target.one * coeff)

        return target.sum(term(e, c) for e, c in self.terms.items())

    # ------------------------------------------------------- serialization

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        deg = self.ring.monomial_degree
        ordered = sorted(self.terms.items(), key=lambda kv: (deg(kv[0]), kv[0]), reverse=True)
        parts = []
        for exps, coeff in ordered:
            mono = self.ring.monomial_str(exps)
            parts.append(str(coeff) if mono == "1" else f"{coeff} * {mono}")
        return " + ".join(parts)
