"""Binomial-series sums against an mpmath oracle, up to the convergence edge.

The series c * sum_j a^j b^(k-j) at lengths rho0 r^k is summed at alpha =
domain_sup(q) - gap for q in GRID_Q and gap in GRID_GAP, with bases equal,
unequal (x = lo/hi = 1/2) and nearly equal (x = 1 - 1e-6).

The oracle is independent of ``lqspec._series``: in 20-digit mpmath it sums
the first terms one by one and the rest by Euler-Maclaurin summation, as
``mpmath.nsum(..., method="euler-maclaurin")`` does, but with the integral
taken by ``mpmath.quad`` on pieces split at the scales of the terms and the
derivatives from Cauchy's formula.  Plain ``nsum`` fails here (it returns
a negative sum at q = 200): near the edge the terms peak at k ~ q / gap.

Each of S, Sq and Sa must match to 1e-12 relative, or to the inputs'
conditioning where that is larger: the relative change of the exact sums
when the float inputs move by a few roundings, dominated by the rounding
of mu = q ln hi - alpha ln r, whose relative effect on the sums is about
(q + 1) |delta mu| / |mu|.
"""

from __future__ import annotations

import math

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lqspec import _series
from lqspec.matrix import _SERIES_TOL, binomial_family

GRID_Q = (0.0, 0.5, 2.0, 30.0, 200.0)
GRID_GAP = (1e-1, 1e-3, 1e-5, 1e-7, 1e-9)
HI, RHO0, R = 0.5, 0.5, 0.5
LO = {"equal": HI, "unequal": HI / 2.0, "nearly-equal": HI * (1.0 - 1e-6)}
MAX_TERMS = 40  # per evaluation, anywhere on the grid (which needs at most 17)
EPS = 2.0**-52


def _oracle(lo, q, alpha):
    """c-free sums of T, T ln w and -T ln L, where T = (w/c)^q L^-alpha."""
    with mp.workdps(20):
        q, alpha = mp.mpf(q), mp.mpf(alpha)
        lhi, lr0, lr = mp.log(HI), mp.log(RHO0), mp.log(R)
        mu = q * lhi - alpha * lr
        lx = mp.log(mp.mpf(lo) / HI)
        if lx == 0:
            def lh(k):
                return mp.log(k + 1)
        else:
            l1x = mp.log(-mp.expm1(lx))

            def lh(k):
                return mp.log(-mp.expm1((k + 1) * lx)) - l1x

        def terms(k):  # T, T ln w and -T ln L at k (complex k too)
            lw = k * lhi + lh(k)
            ll = lr0 + k * lr
            t = mp.exp(q * lw - alpha * ll)
            return t, t * lw, -t * ll

        n0 = int(8 * q) + 40  # beyond n0 every log-derivative of a term is below 1/8
        head = [mp.fsum(col) for col in zip(*(terms(k) for k in range(n0)))]
        # The integral of the tail, in u = |mu| (t - n0): the terms vary on
        # the scale of t itself (cuts at t = n0 4^i), rise like u^q at most,
        # turn where h saturates (u ~ |mu| / delta) and fall like e^-u; past
        # u = 3 (q + 1) + 120 they are below e^-80 of the peak.
        end = 3 * (q + 1) + 120
        cuts = {mp.mpf(0), q + 1, 3 * (q + 1) + 40, end}
        cuts |= {-mu * n0 * 4**i for i in range(1, 40) if -mu * n0 * 4**i < 1}
        if lx < 0:
            cuts |= {c for c in (mu / lx * n for n in (0.1, 1, 10)) if c < end}
        cuts = sorted(cuts)
        # Euler-Maclaurin corrections at n0 from Taylor coefficients: Cauchy's
        # formula on a circle of radius 4, by the trapezoidal rule.
        npts, radius = 48, 4
        ring = [terms(n0 + radius * mp.expjpi(mp.mpf(2 * j) / npts)) for j in range(npts)]
        at_n0 = terms(n0)
        out = []
        for i in range(3):
            integral = mp.quad(lambda u: terms(n0 + u / -mu)[i], cuts,
                               method="gauss-legendre") / -mu
            tail = integral + at_n0[i] / 2
            for m in range(1, 5):
                d = 2 * m - 1
                taylor = mp.fsum(v[i] * mp.expjpi(mp.mpf(-2 * j * d) / npts)
                                 for j, v in enumerate(ring)) / (npts * radius**d)
                tail -= mp.bernoulli(2 * m) / (2 * m) * taylor.real  # B_2m/(2m)! f^(d)
            out.append(head[i] + tail)
        return out, mu


def _case_id(case):
    q, gap, kind = case
    return f"q={q:g}-gap={gap:g}-{kind}"


CASES = [(q, gap, kind) for kind in LO for q in GRID_Q for gap in GRID_GAP]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_series_matches_mpmath_oracle(case):
    q, gap, kind = case
    lo = LO[kind]
    alpha = q - gap  # domain_sup(q) = q ln hi / ln r = q
    (s0, sw, sl), mu = _oracle(lo, q, alpha)
    # Scale c so that S is near 1: the sums stay in range at q = 200.
    c = 0.5 if q == 0.0 else math.exp(-float(mp.log(s0)) / q)
    fam = binomial_family(c, HI, lo, RHO0, R)
    assert fam.domain_sup(q) == q
    got = fam.evaluate(q, alpha, grads=True)
    cq = mp.mpf(c) ** q
    want = (cq * s0, cq * (mp.log(c) * s0 + sw), cq * sl)
    cond = 8.0 * EPS * (
        (q + 2.0) * (abs(q * math.log(HI)) + abs(alpha * math.log(R))) / float(-mu)
        + abs(q * math.log(c)) + abs(alpha * math.log(RHO0)) + q + 1.0
    )
    tol = max(1e-12, cond)
    for name, g, w in zip(("S", "Sq", "Sa"), got, want):
        assert abs(g - w) <= tol * abs(w), (name, g, float(w), tol)


@pytest.mark.parametrize("kind", list(LO))
def test_series_terms_are_bounded_on_the_grid(kind):
    # The work per evaluation does not grow as the gap closes.
    lo = LO[kind]
    hi_lo = math.log(HI) - math.log(lo)
    delta = -math.log1p((lo - HI) / HI) if lo != HI else 0.0
    assert delta == pytest.approx(hi_lo, rel=1e-6)
    for q in GRID_Q:
        for gap in GRID_GAP:
            mu = q * math.log(HI) - (q - gap) * math.log(R)
            ln_amp = (q + 1.0) * math.log(-mu) - math.lgamma(q + 1.0)  # keeps S in range
            *_, terms = _series.binomial_sums(q, mu, delta, ln_amp, _SERIES_TOL)
            assert terms <= MAX_TERMS, (q, gap, terms)


def test_series_paths_agree_where_they_meet():
    # Direct, binomial-tail and expansion sums of one series agree.
    for q in (0.0, 0.5, 3.0, 40.0):
        for mu in (-0.3, -1.5):
            for delta in (0.0, 0.01, 0.2):
                want = _series._direct(q, mu, delta, 0.0, _SERIES_TOL)[:3]
                others = []
                if _series._expansion_converges(q, mu, delta):
                    others.append(_series._expansion(q, mu, delta, 0.0, _SERIES_TOL))
                if delta:
                    others.append(_series._binomial_tail(q, mu, delta, 0.0, _SERIES_TOL))
                assert others
                for got in others:
                    for g, w in zip(got[:3], want):
                        assert g == pytest.approx(w, rel=1e-12), (q, mu, delta)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    q=st.floats(0.0, 60.0),
    mu=st.floats(-2.0, -0.02),
    delta=st.one_of(st.just(0.0), st.floats(1e-9, 0.25)),
)
def test_expansion_matches_direct_sums(q, mu, delta):
    # Wherever the expansion may be chosen, it agrees with the direct sum,
    # whose stopping rule is a proved geometric bound; for delta > 0 this
    # checks the asymptotic expansion's stopping rule.
    assume(_series._expansion_converges(q, mu, delta))
    want = _series._direct(q, mu, delta, 0.0, _SERIES_TOL)[:3]
    got = _series._expansion(q, mu, delta, 0.0, _SERIES_TOL)[:3]
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12)
