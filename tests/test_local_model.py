"""The Mukai flop on its local model, over a point: X = T^*P^r blown up
along its zero section P = P^r, as a ``load_embedding`` text.

CH(X) = Q[t]/t^{r+1}, CH(P) = Q[u]/u^{r+1}, i^*t = u, N = Omega_{P^r} with
c(N) = (1 - u)^{r+1}, and i_*1 = c_r(N) read in CH(X), (-1)^r (r+1) t^r,
while i_* of every u^k, k >= 1, is past degree r and zero.  The blow-up is
also Bl_{P'} X' for the dual side, and phi'^*h' = D = -phi^*t - E: on E,
the incidence in P x P', phi^*t restricts to h and phi'^*h' to l, and
O_E(E) = O(-1, -1) makes xi = -E|_E = h + l, so both sides restrict to l.
The flop correspondence Z = Gamma + P x P' (Fulton, *Intersection Theory*,
Ch. 16) then sends h'^k to phi_*(D^k) + [k = r] i_*1, which must be (-t)^k
for every k <= r.  At r = 1 the blow-up is the identity and D = t."""

import pytest

from chowcalc.blowup import BlowupRing, load_embedding
from chowcalc.chern import binomial
from chowcalc.rings import powers

RANKS = range(1, 9)


def local_model_text(r: int) -> str:
    """The embedding of P^r as the zero section of T^*P^r."""
    push = "\n".join(f"u^{k} = 0" for k in range(1, r + 1))
    chern = "\n".join(
        f"c{i} = {binomial(r + 1, i) * (-1) ** i} * u^{i}" for i in range(1, r + 1)
    )
    return f"""
[ambient]
generators: t:1
dim_bound: {r}
[center]
generators: u:1
dim_bound: {r}
[pull]
t = u
[push]
1 = {(-1) ** r * (r + 1)} * t^{r}
{push}
[normal]
rank = {r}
{chern}
"""


def local_model_failures(r: int, e_sign=-1, t_sign=-1, correction=1) -> list[int]:
    """The k <= r where phi_*(D^k) + correction [k = r] i_*1 != (-t)^k, for
    D = t_sign phi^*t + e_sign E, and r + 1 if D^{r+1} != 0."""
    data = load_embedding(local_model_text(r))
    bl = BlowupRing(data)
    t = data.ambient.gen("t")
    D = bl.pull(t * t_sign) + bl.exc_push(bl.E.one) * e_sign
    Dk, expected = powers(D, r + 1), powers(-t, r)
    i_one = data.push(data.center.one) * correction
    failures = [
        k for k in range(r + 1)
        if bl.push(Dk[k]) + (i_one if k == r else data.ambient.zero) != expected[k]
    ]
    return failures + [r + 1] * bool(Dk[r + 1])


# the sign of E in D, the sign of t in D, and the P x P' term: dropped or
# with its sign flipped
MUTANTS = {
    "e_sign_flipped": {"e_sign": 1},
    "t_sign_flipped": {"t_sign": 1},
    "correction_dropped": {"correction": 0},
    "correction_sign_flipped": {"correction": -1},
}


def test_local_model_text_loads_the_zero_section():
    data = load_embedding(local_model_text(3))
    t, u = data.ambient.gen("t"), data.center.gen("u")
    assert data.push(data.center.one) == t ** 3 * -4
    assert data.normal.c(3) == u ** 3 * -4  # c_3(Omega_{P^3}) = -4 u^3
    assert data.pull(t) == u


@pytest.mark.parametrize("r", RANKS)
def test_flop_correspondence_sends_powers_of_h_dual_to_powers_of_minus_t(r):
    assert local_model_failures(r) == [], r


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_local_model_mutant_fails_at_every_rank(mutant):
    for r in RANKS:
        assert local_model_failures(r, **MUTANTS[mutant]), r
