"""Chow rings of projective bundles as free modules over the base.

For a bundle F of rank n over a base S, CH(P(F)) is the free CH(S)-module
with basis 1, h, ..., h^{n-1}, h the relative hyperplane class.  One format,
a dict k -> nonzero coefficient of h^k, holds an element's slots, the input
of ``element``, each read-only tau row and the relation (-c_j(F) only for
c_j(F) != 0), so a zero slot is never tested, multiplied or copied.
``ProjBundleRing.dot`` is the one product kernel: the base products of every
pair of stored slots go into their convolution slot, one ``base.dot`` per
slot, and ``reduce`` forms each slot once, top down, by the defining relation
h^n = -sum_j pull(c_j(F)) h^{n-j}; a dict with nothing at or above h^n it
returns as it is.  ``mul`` first tries two shapes (Fulton, *Intersection
Theory*, §3.2): h·y is y shifted one slot up plus one reduction step, pull(c)·y
is y scaled slot by slot; a zero factor gives zero.  ``sub(a, y, shift)``,
a - h^shift·y, is the one slot loop of every subtraction in a tower.
``reduce(…, stop)`` forms only the slots from ``stop`` up.  As p_*(h^k) =
s_{k-n+1}(F) is 0 for k < n-1 and 1 at k = n-1, the pushforward of a reduced
element is its top coefficient.  The h-power table tau_{i,j} (reduced h^i) is
built row by row by the c_j(F) recursion, each row checked against the
reduction of h * h^{i-1}; its column n-1 past row n-1 is p_*(h^i) =
s_{i-n+1}(F) (Fulton §3.1), read from the Segre classes without a row.  The
base may be a projective-bundle ring too: towers such as E over P' nest.
"""

from __future__ import annotations

from types import MappingProxyType

from .chern import BundleClass, binomial, dual_bundle, segre_classes, tensor_by_line
from .errors import require_equal
from .rings import RingElement


class ProjBundleRing:
    """CH(P(F)) for a bundle F presented by its Chern classes, over F's ring."""

    def __init__(self, bundle: BundleClass, *, hyperplane: str = "h"):
        self.base = base = bundle.ring
        self.bundle = bundle
        self.rank = bundle.rank  # rank of F; the fibre is P^{rank-1}
        self.hyperplane = hyperplane
        n = self.rank
        self.zero = PBElement(self, {})
        self.one = self.pullback(base.one)
        self._minus_c = {j: -c for j in range(1, n + 1) if (c := bundle.c(j))}
        self.h = self.element({1: base.one})
        self._segre: list = [base.one]
        self._tau_rows: list = [MappingProxyType({0: base.one})]

    # ------------------------------------------------------------ elements

    def element(self, coeffs: dict) -> "PBElement":
        """Build an element from a mapping k -> coefficient of h^k; k >= n is reduced."""
        return PBElement(self, self.reduce({k: c for k, c in coeffs.items() if c}))

    def pullback(self, a) -> "PBElement":
        """Ring pullback from the base: a in slot 0."""
        return PBElement(self, {0: a} if a else {})

    def random_element(self, rng, max_degree: int) -> "PBElement":
        draw = self.base.random_element
        return PBElement(self, {k: c for k in range(self.rank) if (c := draw(rng, max_degree))})

    def sum(self, elements) -> "PBElement":
        """Sum slot by slot, each stored slot through the base ring's ``sum``."""
        by_slot: dict = {}
        for x in elements:
            if getattr(x, "ring", None) is not self:
                raise ValueError("elements belong to different rings")
            for k, c in x.slots.items():
                by_slot.setdefault(k, []).append(c)
        return PBElement(self, {k: v for k, cs in by_slot.items() if (v := self.base.sum(cs))})

    def reduce(self, slots: dict, stop: int = 0) -> dict:
        """Slots stop..n-1 of ``slots`` (k >= 0 -> nonzero coefficient of h^k)
        reduced: each slot t >= stop, top down, gets -c_{s-t}(F)·slot s over
        stored s and stored -c_{s-t}(F), t < s <= t + n, s >= n, in one
        ``base.dot``, and is kept only if nonzero.  A dict with nothing at or
        above slot n is already reduced and returned as it is."""
        n, minus_c = self.rank, self._minus_c
        top = max(slots, default=0)
        if top < n:
            return {k: c for k, c in slots.items() if k >= stop} if stop else slots
        work = dict(slots)
        for t in range(top - 1, stop - 1, -1):
            pulled = range(max(t + 1, n), min(t + n, top) + 1)
            pairs = [(minus_c[s - t], work[s]) for s in pulled if s in work and s - t in minus_c]
            if pairs and (value := self.base.dot(pairs, work.pop(t, None))):
                work[t] = value
        return {k: c for k, c in work.items() if stop <= k < n}

    def dot(self, pairs, start: "PBElement | None" = None) -> "PBElement":
        """``start`` + Σ a·b over ``pairs`` (``start`` enters as start·1), one
        ``base.dot`` per convolution slot, reduced once."""
        pairs = pairs if start is None else (*pairs, (start, self.one))
        base, slots = self.base, {}
        for a, b in pairs:
            if a.ring is not self or b.ring is not self:
                raise ValueError("elements belong to a different projective-bundle ring")
            right = b.slots.items()
            for i, x in a.slots.items():
                for j, y in right:
                    slots.setdefault(i + j, []).append((x, y))
        return PBElement(self, self.reduce({k: v for k, p in slots.items() if (v := base.dot(p))}))

    def sub(self, a: "PBElement", y: "PBElement", shift: int) -> "PBElement":
        """a - h^shift·y, y's slot j taken from a's slot j + shift in one pass;
        reduced only when y holds slot n - shift, the one that reaches slot n."""
        slots = dict(a.slots)
        for j, x in y.slots.items():
            k = j + shift
            if k not in slots:
                slots[k] = -x
            elif value := slots[k] - x:
                slots[k] = value
            else:
                del slots[k]
        return PBElement(self, self.reduce(slots) if self.rank - shift in y.slots else slots)

    def mul(self, a: "PBElement", b: "PBElement") -> "PBElement":
        if a.ring is not self or b.ring is not self:
            raise ValueError("elements belong to a different projective-bundle ring")
        if not (a.slots and b.slots):
            return self.zero
        for x, y in ((a, b), (b, a)):
            if x is self.h:
                return PBElement(self, self.reduce({k + 1: t for k, t in y.slots.items()}))
            if len(x.slots) == 1 and 0 in x.slots:
                c = x.slots[0]
                return PBElement(self, {k: v for k, t in y.slots.items() if (v := t * c)})
        return self.dot(((a, b),))

    # ------------------------------------------------- pushforward / Segre

    def segre(self, k: int):
        """s_k(F), with s_k = 0 for k < 0."""
        if k < 0:
            return self.base.zero
        if len(self._segre) <= k:
            self._segre = segre_classes(self.bundle, k, self._segre)
        return self._segre[k]

    def pushforward(self, a: "PBElement"):
        """Projection pushforward sum_k a_k s_{k-(n-1)}(F): for k < n only
        s_0 = 1 survives, so it is the coefficient of h^{n-1}."""
        return a.slots.get(self.rank - 1, self.base.zero)

    def pushforward_power(self, k: int):
        """Pushforward of h^k computed directly from the Segre classes."""
        return self.segre(k - (self.rank - 1))

    def check_push_table(self, top) -> None:
        """Pushforwards of h^0..h^n (n the rank): 0 below n-1, 1 at n-1, ``top`` at n.

        The caller supplies ``top`` in its own terms; deriving it from c_1(F)
        would restate the Segre route and make the top entry vacuous.
        """
        n = self.rank
        expected = [self.base.zero] * (n - 1) + [self.base.one, top]
        for k in range(n + 1):
            message = f"pushforward table wrong at {self.hyperplane}^{k}"
            require_equal(self.pushforward_power(k), expected[k], message)

    # ----------------------------------------------------------- tau table

    def tau_rows(self, i_max: int) -> list:
        """Rows i <= i_max of tau, each a read-only slot dict j -> nonzero tau_{i,j}.

        Row i is built from the stored row i-1 two ways (the coefficient
        recursion driven by c_j(F), and basis reduction of h times it), and
        the two must agree; row i-1 was itself checked one step earlier.
        """
        n, r, zero = self.rank, self.rank - 1, self.base.zero
        while len(self._tau_rows) <= i_max:
            i = len(self._tau_rows)
            prev = self._tau_rows[-1]
            row = {k + 1: x for k, x in prev.items() if k < r}
            if r in prev:  # c_{n-j}(F)·prev[r] only when there is something to pull
                c, top = self.bundle.c, prev[r]
                row = {j: x for j in range(n) if (x := row.get(j, zero) - c(n - j) * top)}
            reduced = self.reduce({k + 1: x for k, x in prev.items()})
            for j in range(n):
                message = f"tau_{{{i},{j}}} recursion/reduction mismatch"
                require_equal(row.get(j, zero), reduced.get(j, zero), message)
            self._tau_rows.append(MappingProxyType(row))
        return self._tau_rows[: i_max + 1]

    def tau(self, i: int, j: int):
        """tau_{i,j}, zero outside 0 <= j <= n-1; tau_{i,n-1} for i >= n is
        s_{i-n+1}(F), read from the Segre classes, so no row past n-1 is built."""
        if j < 0 or j >= self.rank:
            return self.base.zero
        if j == self.rank - 1 and i >= self.rank:
            return self.segre(i - j)
        return self.tau_rows(i)[i].get(j, self.base.zero)

    # ------------------------------------------------- cotangent formulas

    def cotangent_chern(self, i: int) -> "PBElement":
        """c_i of the relative cotangent bundle, in closed form."""
        if i < 0:
            raise ValueError(f"i must be >= 0, got {i}")
        n, c, sign = self.rank, self.bundle.c, (-1) ** i
        return self.element({m: c(i - m) * (binomial(n - i + m, m) * sign) for m in range(i + 1)})

    def cotangent_chern_via_euler(self) -> BundleClass:
        """Oracle route: the bundle pull(F dual) tensor O(-1) of the Euler
        sequence, whose Chern classes are those of the relative cotangent."""
        pulled = [self.pullback(c) for c in dual_bundle(self.bundle).chern]
        return tensor_by_line(BundleClass(self, self.rank, pulled), -self.h)

    def cotangent_twist_chern(self, i: int) -> "PBElement":
        """c_i of the cotangent bundle twisted by O(1), in closed form."""
        if i < 0:
            raise ValueError(f"i must be >= 0, got {i}")
        dual = dual_bundle(self.bundle)
        return self.element({m: dual.c(i - m) * (-1) ** m for m in range(i + 1)})

    def cotangent_twist_via_tensor(self) -> list:
        """Oracle route: c_0..c_{n-1} of Omega(1), twisting the closed-form
        cotangent classes with tensor_by_line."""
        n = self.rank
        if n == 1:
            return [self.one]
        omega = [self.cotangent_chern(k) for k in range(1, n)]
        twisted = tensor_by_line(BundleClass(self, n - 1, omega), self.h)
        return [twisted.c(i) for i in range(n)]

    def __repr__(self) -> str:
        return f"ProjBundleRing(rank={self.rank}, {self.hyperplane}, base={self.base!r})"


class PBElement(RingElement):
    """Element of CH(P(F)): ``slots`` is a slot dict with every key in 0..n-1."""

    __slots__ = ("ring", "slots")

    def __init__(self, ring: ProjBundleRing, slots: dict):
        self.ring = ring
        self.slots = slots

    # ----------------------------------------------------------- structure

    def __bool__(self) -> bool:
        return bool(self.slots)

    def grade_component(self, d: int) -> "PBElement":
        slots = self.slots.items()
        return PBElement(self.ring, {k: v for k, c in slots if (v := c.grade_component(d - k))})

    def is_homogeneous(self, d: int) -> bool:
        return all(c.is_homogeneous(d - k) for k, c in self.slots.items())

    # ---------------------------------------------------------- arithmetic

    def _state(self) -> dict:
        return self.slots

    def _scaled(self, c) -> "PBElement":
        return PBElement(self.ring, {k: x._scaled(c) for k, x in self.slots.items()} if c else {})

    def __sub__(self, other):
        if type(other) is not PBElement or other.ring is not self.ring:
            return self._refused(other)
        return self.ring.sub(self, other, 0)

    def __neg__(self):
        return PBElement(self.ring, {k: -c for k, c in self.slots.items()})

    def __str__(self) -> str:
        h = self.ring.hyperplane
        parts = []
        for k in sorted(self.slots):
            mono = "1" if k == 0 else (h if k == 1 else f"{h}^{k}")
            parts.append(f"({self.slots[k]}) * {mono}")
        return " + ".join(parts) if parts else "0"


def cw_top(pb: ProjBundleRing) -> PBElement:
    """Top Chern class of the universal quotient W = pullback(N) / O(-1)
    on P(N), where N is the bundle the projective bundle is built from.

    W is dual to Omega(1), so c_{r-1}(W) = (-1)^{r-1} c_{r-1}(Omega(1))."""
    return pb.cotangent_twist_chern(pb.rank - 1) * (-1) ** (pb.rank - 1)


# ------------------------------------------------------- binomial identity


def binomial_identity_sum(r: int, i: int, k: int) -> int:
    """T^r_{i,k} = sum_j (-1)^{j+k} C(r-j, i-j) C(r+1-k, j-k)."""
    return sum(
        (-1) ** (j + k) * binomial(r - j, i - j) * binomial(r + 1 - k, j - k)
        for j in range(k, i + 1)
    )


def binomial_identity_check(r: int) -> tuple[bool, list[str]]:
    """Check T^r_{i,k} = (-1)^{i+k} for 0 <= k <= i <= r, plus the recursion
    step T^r_{i+1,k+1} = T^r_{i,k} for i < r.  Returns (ok, failures)."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    failures = []
    for i in range(r + 1):
        for k in range(i + 1):
            value = binomial_identity_sum(r, i, k)
            if value != (-1) ** (i + k):
                failures.append(f"T^{r}_{{{i},{k}}} = {value} != {(-1) ** (i + k)}")
            if i < r:
                step = binomial_identity_sum(r, i + 1, k + 1)
                if step != value:
                    failures.append(
                        f"T^{r}_{{{i + 1},{k + 1}}} = {step} != T^{r}_{{{i},{k}}} = {value}"
                    )
    return (not failures, failures)
