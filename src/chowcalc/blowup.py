"""Chow rings of blow-ups along smoothly embedded projective centers.

A blow-up of X along P is described by an :class:`EmbeddingData`: ring
models for CH(X) and CH(P), i^* (generator images, and a table on monomials
filled once per entry), i_* (a table on monomials), and the normal bundle N;
both maps extend their table linearly, in one ``GradedRing.combine`` each.
A class is a pair (ambient part, exceptional part) with the exceptional part
in CH(E) = CH(P(N)) of zero pushforward to the center; its ambient part is
restricted once.  A product lists its base pairs slot by slot: i^*a·eb,
i^*b·ea, and E·E = -xi·ea·eb (E's normal bundle is O(-1)) one slot up.  One
top-down ``E.form``, shared with ``exc_push``, then forms each slot in one base
product with its relation pairs and, below slot r-1, the pair -c_k(W)·eta of
the normalization by c_{r-1}(W) (Fulton, Thm 6.7).  That reads only the slots
of c_{r-1}(W) below r-1: it is monic in xi, so eta, slot r-1, goes whole to i_*.
"""

from __future__ import annotations

import random
import re

from .chern import BundleClass, binomial
from .errors import ConsistencyError, bounded, require_equal
from .projbundle import PBElement, ProjBundleRing, cw_top
from .rings import GradedElement, GradedRing, RingElement


def key_formula_check(bl: "BlowupRing", gamma: GradedElement) -> None:
    """Pulling back a pushed-forward center class must equal pushing the
    cW-twisted pullback in from the exceptional divisor."""
    lhs = bl.pull(bl.data.push(gamma))
    rhs = bl.exc_push(bl.cW * bl.E.pullback(gamma))
    require_equal(lhs, rhs, "key formula fails")


class EmbeddingData:
    """A regular embedding P -> X presented algebraically; its codimension
    is the rank of the normal bundle."""

    def __init__(self, ambient: GradedRing, center: GradedRing, pull_images: dict,
                 push_table: dict[tuple[int, ...], GradedElement], normal: BundleClass):
        if normal.ring is not center:
            raise ValueError(f"normal bundle must live over the center, not {normal.ring}")
        self.ambient, self.center, self.normal = ambient, center, normal
        self.pull_images, self.push_table = pull_images, push_table
        self.pull_table: dict[int, GradedElement] = {}  # i^* by packed monomial, for ``pull``

    def pull(self, alpha: GradedElement) -> GradedElement:
        """i^*: ``pull_table`` extended linearly, each new monomial substituted once."""
        if alpha.ring is not self.ambient:
            raise ValueError("elements belong to different rings")
        table = self.pull_table
        for e in alpha.terms.keys() - table.keys():
            table[e] = GradedElement(self.ambient, {e: 1}).substitute(self.pull_images, self.center)
        return self.center.combine((table[e], c) for e, c in alpha.terms.items())

    def push(self, gamma: GradedElement) -> GradedElement:
        """i_*: extend the monomial table linearly."""
        if gamma.ring is not self.center:
            raise ValueError("elements belong to different rings")
        table = self.push_table  # read live: tuple keys, edits included
        try:
            rows = [(table[self.center.exponents(e)], c) for e, c in gamma.terms.items()]
        except KeyError as missing:
            raise KeyError(f"pushforward table has no entry for monomial {missing}") from None
        return self.ambient.combine(rows)


def embedding_validate(data: EmbeddingData, samples: int, seed: int = 0) -> None:
    """Sample-check the homomorphism, projection and self-intersection laws;
    the first failure raises ``ConsistencyError`` with the law as witness."""
    rng = random.Random(seed)
    amb_deg = data.ambient.dim_bound
    cen_deg = data.center.dim_bound
    if amb_deg is None or cen_deg is None:
        unbounded = data.ambient if amb_deg is None else data.center
        raise ValueError(f"validation sampling needs dimension-bounded rings, not {unbounded}")
    c_top = data.normal.c(data.normal.rank)

    def law(name: str, lhs, rhs):
        if lhs != rhs:
            raise ConsistencyError(
                "embedding data rejected", witness=f"{name}: diff {lhs - rhs}"
            )

    for _ in range(samples):
        a = data.ambient.random_element(rng, amb_deg)
        b = data.ambient.random_element(rng, amb_deg)
        g = data.center.random_element(rng, cen_deg)
        g2 = data.center.random_element(rng, cen_deg)
        law("i^* not multiplicative", data.pull(a * b), data.pull(a) * data.pull(b))
        law("projection formula fails", data.push(data.pull(a) * g), a * data.push(g))
        law(
            "self-intersection fails",
            data.push(g) * data.push(g2),
            data.push(g * g2 * c_top),
        )


def linear_blowup(n: int, m: int) -> EmbeddingData:
    """A linear subspace P^m inside P^n, with N = O(1)^(n-m)."""
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    ambient = GradedRing([("t", 1)], dim_bound=n)
    center = GradedRing([("u", 1)], dim_bound=m)
    t, u = ambient.gen("t"), center.gen("u")
    r = n - m
    push_table = {(k,): t ** (k + r) for k in range(m + 1)}
    normal = BundleClass(
        center, r, [u ** i * binomial(r, i) for i in range(1, r + 1)]
    )
    return EmbeddingData(ambient, center, {"t": u}, push_table, normal)


class BlowupRing:
    """Arithmetic on the blow-up of X along P, in normalized coordinates."""

    def __init__(self, data: EmbeddingData, validate_samples: int = 0, seed: int = 0):
        self.data = data
        self.E = ProjBundleRing(data.normal, hyperplane="xi")
        self.cW = cw_top(self.E)  # c_{r-1} of the universal quotient bundle
        # -c_k(W) below its top slot r - 1, which is 1: the normalization's pairs
        self._fold = {k: -c for k, c in self.cW.slots.items() if k < self.E.rank - 1}
        self.zero = self.pull(data.ambient.zero)
        self.one = self.pull(data.ambient.one)
        if validate_samples:
            embedding_validate(data, validate_samples, seed)

    # ------------------------------------------------------------- classes

    def pull(self, alpha: GradedElement) -> "BlowupClass":
        """phi^*: ambient part alpha, no exceptional part."""
        return BlowupClass(self, alpha, self.E.zero)

    def push(self, a: "BlowupClass") -> GradedElement:
        """phi_*: the ambient part (the exceptional part pushes to zero)."""
        return a.ambient + self.data.push(self.E.pushforward(a.exceptional))

    def exc_push(self, eps: PBElement) -> "BlowupClass":
        """j_*: push a class on E into the blow-up, in normalized form."""
        if eps.ring is not self.E:
            raise ValueError("elements belong to different rings")
        return self._normalized(dict(eps.slots), {}, self.E.rank - 1)

    def _normalized(self, work: dict, pending: dict, top: int, pairs=()) -> "BlowupClass":
        """phi^*(Σ a·b over ambient ``pairs``) + j_*(``work`` + ``pending``) in
        normalized form, the ambient part in one ``dot`` after i_*(eta)."""
        slots = self.E.form(work, pending, top, 0, self._fold)
        eta = slots.pop(self.E.rank - 1, None)
        ambient = self.data.ambient.zero if eta is None else self.data.push(eta)
        ambient = self.data.ambient.dot(pairs, ambient) if pairs else ambient
        return BlowupClass(self, ambient, PBElement(self.E, slots))

    def sum(self, elements) -> "BlowupClass":
        """Ambient and exceptional parts, each through its own ring's ``sum``."""
        elements = list(elements)
        if any(getattr(x, "ring", None) is not self for x in elements):
            raise ValueError("elements belong to different rings")
        ambient = self.data.ambient.sum(x.ambient for x in elements)
        return BlowupClass(self, ambient, self.E.sum(x.exceptional for x in elements))

    def mul(self, a: "BlowupClass", b: "BlowupClass") -> "BlowupClass":
        if a.ring is not self or b.ring is not self:
            raise ValueError("classes belong to a different blow-up")
        # phi^*a.phi^*b, and the base pairs of i^*a·eb, i^*b·ea and -xi·ea·eb
        pending, right = {}, b.exceptional.slots.items()
        for rho, eps in ((a.restriction, b.exceptional), (b.restriction, a.exceptional)):
            if rho:
                for j, y in eps.slots.items():
                    pending.setdefault(j, []).append((rho, y))
        for i, x in a.exceptional.slots.items():
            x = -x
            for j, y in right:
                pending.setdefault(i + j + 1, []).append((x, y))
        return self._normalized({}, pending, max(pending, default=0), ((a.ambient, b.ambient),))


class BlowupClass(RingElement):
    """phi^*(ambient) + j_*(exceptional), with eta_*(exceptional) = 0."""

    def __init__(self, ring: BlowupRing, ambient: GradedElement, exceptional: PBElement):
        self.ring, self.ambient, self.exceptional = ring, ambient, exceptional

    _restriction = None

    @property
    def restriction(self) -> GradedElement:
        """i^* of the ambient part, in the center, formed on first read."""
        if self._restriction is None:
            self._restriction = self.ring.data.pull(self.ambient)
        return self._restriction

    def _state(self) -> tuple:
        return (self.ambient, self.exceptional)

    def _scaled(self, c) -> "BlowupClass":
        return BlowupClass(self.ring, self.ambient._scaled(c), self.exceptional._scaled(c))

    def __neg__(self) -> "BlowupClass":
        return BlowupClass(self.ring, -self.ambient, -self.exceptional)

    def __bool__(self) -> bool:
        return bool(self.ambient) or bool(self.exceptional)

    def __str__(self) -> str:
        return f"ambient: {self.ambient}; exceptional: {self.exceptional}"


# --------------------------------------------------------- declarative I/O


def load_embedding(text: str) -> EmbeddingData:
    """Parse an embedding from a declarative description.

    Sections ``[ambient]``, ``[center]``, ``[pull]``, ``[push]``, ``[normal]``.
    Ring sections take ``generators: name:deg, ...`` and ``dim_bound: k``
    (required for the center: push must cover every center monomial);
    pull maps ambient generators to center expressions; push maps center
    monomials to ambient expressions; normal takes ``rank`` and ``c1``..``cr``.
    An entry is split at its first ``:`` or ``=``.
    Lines starting with ``#`` are ignored; a repeated or unknown header or key raises.
    """
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current in sections:
                raise ValueError(f"repeated section header [{current}]")
            sections[current] = {}
            continue
        if current is None:
            raise ValueError(f"content before any section: {line!r}")
        parts = re.split("[:=]", line, maxsplit=1)
        if len(parts) == 1:
            raise ValueError(f"cannot parse line {line!r}")
        key, value = (part.strip() for part in parts)
        if key in sections[current]:
            raise ValueError(f"duplicate key {key!r} in section [{current}]")
        sections[current][key] = value

    def section(name: str, keys=None) -> dict[str, str]:
        if name not in sections:
            raise ValueError(f"missing section [{name}]")
        unknown = [k for k in sections[name] if keys is not None and k not in keys]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in section [{name}]")
        return sections[name]

    def entry(name: str, key: str) -> str:
        entries = section(name)
        if key not in entries:
            raise ValueError(f"section [{name}] has no {key!r} entry")
        return entries[key]

    def parse(ring: GradedRing, text: str, where: str) -> GradedElement:
        """``ring.parse(text)``; a malformed text names the entry ``where``."""
        try:
            return ring.parse(text)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    def build_ring(name: str, bound: str | None) -> GradedRing:
        gens = []
        for part in entry(name, "generators").split(","):
            gname, sep, deg = part.partition(":")
            if not sep:
                raise ValueError(f"generator {part.strip()!r} is not name:degree")
            gens.append((gname.strip(), int(deg)))
        section(name, ("generators", "dim_bound"))  # a missing entry is named first
        return GradedRing(gens, dim_bound=None if bound is None else int(bound))

    ambient = build_ring("ambient", section("ambient").get("dim_bound"))
    center = build_ring("center", entry("center", "dim_bound"))
    pull = section("pull", ambient.generator_names)
    missing = [g for g in ambient.generator_names if g not in pull]
    if missing:
        raise ValueError(f"[pull] has no entry for ambient generators {missing}")
    pull_images = {k: parse(center, v, f"[pull] entry {k!r}") for k, v in pull.items()}
    push_table = {}
    for mono_str, value in section("push").items():
        mono = parse(center, mono_str, f"[push] key {mono_str!r}")
        if len(mono.terms) != 1 or next(iter(mono.terms.values())) != 1:
            raise ValueError(f"push key must be a single monomial: {mono_str!r}")
        exps = center.exponents(next(iter(mono.terms)))
        if exps in push_table:  # the same monomial spelt two ways
            raise ValueError(f"duplicate key {mono_str!r} in section [push]")
        push_table[exps] = parse(ambient, value, f"[push] entry {mono_str!r}")
    monomials = (m for d in range(center.dim_bound + 1) for m in center.monomials_of_degree(d))
    missing = [m for m in monomials if m not in push_table]
    if missing:  # the first ten are named, the rest counted
        names = bounded(str([center.monomial_str(m) for m in missing[:10]]))
        raise ValueError(
            f"[push] has no entry for center monomials {names} ({len(missing)} missing)"
        )
    rank = int(entry("normal", "rank"))
    chern = [parse(center, entry("normal", f"c{i}"), f"[normal] entry 'c{i}'")
             for i in range(1, rank + 1)]
    section("normal", ["rank", *(f"c{i}" for i in range(1, rank + 1))])
    unknown = sorted(set(sections) - {"ambient", "center", "pull", "push", "normal"})
    if unknown:
        raise ValueError(f"unknown section [{unknown[0]}]")
    normal = BundleClass(center, rank, chern)
    return EmbeddingData(ambient, center, pull_images, push_table, normal)
