"""Plain-float sums of the binomial-weight series, at a cost bounded in the gap.

A ``matrix.BinomialSum`` series has the terms

    T_k = exp(ln_amp + mu k) h_k^q,   h_k = sum_{j<=k} x^j,  x = e^(-delta),  k >= 0,

where x = lo/hi <= 1 is the ratio of its two bases and mu < 0 is the log of
the ratio that governs convergence.  ``binomial_sums`` returns the three sums
S = sum T_k, S1 = sum k T_k and SH = sum T_k ln h_k, from which the series
value and its partials in q and alpha follow, each with a truncation error
of at most ``tol`` relative to the sum.  The number of terms does not grow
as mu approaches 0 (the convergence edge).  There are three paths:

- **direct**: sum k = 0, 1, ... until the geometric majorant of the rest,
  whose ratio h_(k+1)/h_k decreases in k, is below ``tol``.  Used when
  |mu| is large enough that this takes few terms.
- **binomial tail** (delta > 0): sum k < K = ceil(ln(4 max(q, 1)) / delta)
  directly; beyond K expand (1 - x^(k+1))^q binomially,
      sum_j binom(q, j) (-x)^j (e^mu x^j)^K / (1 - e^mu x^j),
  with 1 - e^mu x^j from ``expm1``.  Since q x^(K+1) <= 1/4, the j-terms
  shrink by a factor of at least 3/8 each, so the first omitted one bounds
  the rest.
- **polylog expansion** (delta <= 1/4, small |nu| with nu = mu - q delta/2):
  with t = k + 1 the sum is e^(-mu) (delta/(1 - x))^q times
  sum_t t^q g(t), g(t) = e^(nu t) (sinh(delta t/2)/(delta t/2))^q, and
      sum_t t^q g(t) = int_0^inf t^q g(t) dt + sum_n c_n zeta(-q - n),
  where g = sum_n c_n t^n.  For delta = 0 this is Wood's expansion of
  Li_(-q)(e^mu) (D. C. Wood, *The computation of polylogarithms*, Kent
  TR 15-92, 1992), convergent for |mu| < 2 pi, and the integral is
  Gamma(q+1) |mu|^(-q-1).  For delta > 0 the integral is the Beta function
  B(-mu/delta, q+1)/delta^(q+1), and the expansion is asymptotic, with
  terms that shrink geometrically long before n ~ 4 pi^2 / delta; it stops
  when a majorant of the next term, times the geometric factor of the
  majorants, is below ``tol``.

The zeta values at negative arguments come from the functional equation and
Euler-Maclaurin sums of zeta(sigma), sigma > 1 (or of zeta(-q) itself for
the first term when q < 1/2); all in ``math``.
"""

from __future__ import annotations

import math

from .errors import NoConvergence

# Bernoulli numbers B_2, B_4, ..., B_20.
_B2M = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
        43867 / 798, -174611 / 330)
_B2M_FACT = tuple(b / math.factorial(2 * m) for m, b in enumerate(_B2M, 1))  # B_2m/(2m)!
_LN_2PI = math.log(2.0 * math.pi)

_EXPANSION_MAX_DELTA = 0.25  # the sinh factor's series has radius 2 pi / delta in t
_EXPANSION_MAX_TERMS = 150
# Rough costs of an expansion, in direct terms, for choosing between them:
# each zeta(q + 1 + n) below 24 takes several Euler-Maclaurin corrections.
_EXPANSION_COST_SMALL_Q = 200.0
_EXPANSION_COST_LARGE_Q = 60.0


def binomial_sums(q: float, mu: float, delta: float, ln_amp: float, tol: float):
    """(S, S1, SH, terms) for the T_k above; mu < 0, delta >= 0, q >= 0.

    ``terms`` counts the terms summed: k-terms, j-terms or n-terms.
    """
    n_direct = (q + 30.0 + 8.0 * math.sqrt(q + 1.0)) / -mu
    if (n_direct > (_EXPANSION_COST_SMALL_Q if q < 23.0 else _EXPANSION_COST_LARGE_Q)
            and _expansion_converges(q, mu, delta)):
        return _expansion(q, mu, delta, ln_amp, tol)
    if delta > 0.0 and math.log(4.0 * max(q, 1.0)) / delta + 10.0 < n_direct:
        return _binomial_tail(q, mu, delta, ln_amp, tol)
    return _direct(q, mu, delta, ln_amp, tol)


def _expansion_converges(q: float, mu: float, delta: float) -> bool:
    """Whether the expansion's terms fall geometrically after at most ~30.

    Its n-th term grows like (q+1)_n / n! (|nu| / 2 pi)^n, which peaks near
    n = (q+1) y / (1-y), y = |nu| / 2 pi.
    """
    nu = 0.5 * q * delta - mu
    return delta <= _EXPANSION_MAX_DELTA and nu <= min(2.0, 60.0 * math.pi / (q + 31.0))


def _direct(q, mu, delta, ln_amp, tol, stop=None):
    """Sum k < stop, or until the majorant of the rest is below tol."""
    exp, log, expm1 = math.exp, math.log, math.expm1
    ln_1mx = log(-expm1(-delta)) if delta else 0.0
    s = s1 = sh = 0.0
    k, lh = 0, 0.0  # lh = ln h_k = ln((1 - x^(k+1)) / (1 - x)), ln(k + 1) for x = 1
    while k != stop:
        t = exp(ln_amp + mu * k + q * lh)
        s += t
        s1 += k * t
        sh += lh * t
        lh_next = log(-expm1(-delta * (k + 2))) - ln_1mx if delta else log(k + 2.0)
        d = lh_next - lh
        if stop is None and mu + q * d < 0.0:
            # T_(k+i) <= t eta^i, and ln h_(k+i) <= lh + i d (ln h is concave in k).
            eta = exp(mu + q * d)
            g1 = eta / (1.0 - eta)
            g2 = g1 / (1.0 - eta)
            if (t * g1 <= tol * s and t * (k * g1 + g2) <= tol * s1
                    and t * (lh * g1 + d * g2) <= tol * sh):
                return s, s1, sh, k + 1
        k, lh = k + 1, lh_next
    return s, s1, sh, k


def _binomial_tail(q, mu, delta, ln_amp, tol):
    big_k = math.ceil(math.log(4.0 * max(q, 1.0)) / delta)
    s, s1, sh, _ = _direct(q, mu, delta, ln_amp, tol, stop=big_k)
    ln_1mx = math.log(-math.expm1(-delta))
    scale = math.exp(ln_amp + mu * big_k - q * ln_1mx)
    y0 = math.exp(-delta * (big_k + 1))  # x^(K+1) <= 1 / (4 max(q, 1))
    b, db = 1.0, 0.0  # binom(q, j) and its q-derivative
    ts = ts1 = tsh = 0.0
    j = 0
    while True:
        om = -math.expm1(mu - j * delta)  # 1 - e^mu x^j
        u = (-y0) ** j / om
        ts += b * u
        ts1 += b * u * (big_k + (1.0 - om) / om)
        tsh += db * u
        if j:
            # |b| + |db| shrinks by at most rho per later term, and u and 1/om
            # only shrink, so the rest is at most rho / (1 - rho) times this one.
            rho = max((abs(q - j) + 1.0) / (j + 1.0), 1.0) * y0
            rest = scale * (abs(b) + abs(db)) * abs(u) * rho / (1.0 - rho)
            tot_s = s + scale * ts
            tot_s1 = s1 + scale * ts1
            tot_sh = sh + scale * (tsh - ln_1mx * ts)
            if (rest <= tol * tot_s and rest * (big_k + 1.0 / om) <= tol * tot_s1
                    and rest * (1.0 - ln_1mx) <= tol * tot_sh):
                return tot_s, tot_s1, tot_sh, big_k + j + 1
        b, db = b * (q - j) / (j + 1.0), (db * (q - j) + b) / (j + 1.0)
        j += 1


def _expansion(q, mu, delta, ln_amp, tol):
    a = q + 1.0
    nu = mu - 0.5 * q * delta
    # ln G, with G the integral, and its partials in mu and q; the zeta terms
    # are in units of M0 = Gamma(q+1) / (2 pi)^(q+1), and the sums in units
    # of the larger of G and M0.
    ln_g = math.lgamma(a) - a * math.log(-mu)
    g_mu = a / -mu
    g_q = _digamma(a) - math.log(-mu)
    ln_e = 0.0  # ln((1 - x) / delta)
    lam = ()  # B_2m delta^2m / (2m (2m)!): coefficients of ln(sinh(v)/v), v = delta t/2
    if delta:
        ln_r, r_s, r_a = _log_ratio(-mu / delta, a)
        ln_g += ln_r
        g_mu -= r_s / delta
        g_q += r_a
        ln_e = math.log(-math.expm1(-delta) / delta)
        lam = tuple(bf * delta ** (2 * m) / (2 * m) for m, bf in enumerate(_B2M_FACT, 1))
    ln_m0 = math.lgamma(a) - a * _LN_2PI
    unit = max(ln_g, ln_m0)
    big = math.exp(ln_g - unit)
    sc = math.exp(ln_m0 - unit)

    c, cmaj = [1.0], [1.0]  # Taylor coefficients of g(t), and of a majorant
    zs = zmu = zq = 0.0
    inv_m0 = math.exp(-ln_m0)
    psi = _digamma(a)
    poch = 1.0  # (q+1)_n / (2 pi)^n
    prev_bound, prev_zeta = math.inf, 1.0
    for n in range(_EXPANSION_MAX_TERMS):
        sigma = a + n
        if n:
            c.append(_next_coeff(c, n, nu, q, lam, False))
            cmaj.append(_next_coeff(cmaj, n, -nu, q, lam, True))
            poch *= (sigma - 1.0) / (2.0 * math.pi)
            psi += 1.0 / (sigma - 1.0)
        cq = -0.5 * delta * c[n - 1] if n else 0.0  # q-partial of c_n
        cq_maj = 0.5 * delta * cmaj[n - 1] if n else 0.0
        for m, lm in enumerate(lam, 1):
            if 2 * m > n:
                break
            cq += lm * c[n - 2 * m]
            cq_maj += abs(lm) * cmaj[n - 2 * m]
        if n == 0 and q < 0.5:
            # sigma near 1: take zeta(-q) from its own Euler-Maclaurin sum
            z0, dz0 = _zeta(-q)
            zn, dzn = z0 * inv_m0, dz0 * inv_m0
        else:
            zeta, dzeta = _zeta(sigma)
            theta = -0.5 * math.pi * ((q + n) % 4.0)
            sin_t, cos_t = math.sin(theta), math.cos(theta)
            base = 2.0 * poch * zeta
            zn = base * sin_t
            dzn = base * (sin_t * (_LN_2PI - psi - dzeta / zeta) + 0.5 * math.pi * cos_t)
        zs += c[n] * zn
        zq += cq * zn - c[n] * dzn
        if n:
            zmu += c[n - 1] * zn
        tot = big + sc * zs
        tot_mu = big * g_mu + sc * zmu - tot
        tot_q = big * g_q + sc * zq - ln_e * tot
        if n:
            # A majorant of the n-th terms of zs, zmu and zq.  For delta = 0
            # its ratio to the one before, with zeta's own decrease taken
            # out, falls with n, so that ratio bounds every later one.
            bound = sc * (cmaj[n] + cmaj[n - 1] + cq_maj) * poch * zeta * (
                2.0 * (_LN_2PI + psi + abs(dzeta / zeta)) + math.pi + 2.0)
            if bound == 0.0:  # the terms underflow against the integral
                break
            ratio = bound / prev_bound * (prev_zeta / zeta)
            prev_bound, prev_zeta = bound, zeta
            if n > 1 and ratio < 1.0 and bound * ratio / (1.0 - ratio) <= tol * min(
                    abs(tot), abs(tot_mu), abs(tot_q)):
                break
    else:
        raise NoConvergence(f"series expansion did not settle at q={q}, mu={mu}, delta={delta}")
    pref = math.exp(ln_amp - mu - q * ln_e + unit)
    return pref * tot, pref * tot_mu, pref * tot_q, n + 1


def _next_coeff(c, n, nu, q, lam, majorant):
    """c_n of exp(nu t + q sum_m lam_m t^(2m)) from c_0..c_(n-1): n c_n = sum k l_k c_(n-k)."""
    acc = nu * c[n - 1]
    for m, lm in enumerate(lam, 1):
        if 2 * m > n:
            break
        acc += 2 * m * q * (abs(lm) if majorant else lm) * c[n - 2 * m]
    return acc / n


def _zeta(s: float):
    """(zeta(s), zeta'(s)) for s in (-1/2, 0] or s > 1.

    Euler-Maclaurin with N = 10 and up to ten corrections, stopped once
    one is below 1e-18 of the sum.  The m-th is about
    (s + 2m)^(2m) / (2 pi N)^(2m) N^(1-s), so ten leave an error below
    1e-17 for s <= 24, and beyond that the first is already negligible.
    """
    n = 10
    z, dz = 1.0, 0.0
    for k in range(2, n):
        lk = math.log(k)
        t = math.exp(-s * lk)
        z += t
        dz -= lk * t
    ln_n = math.log(n)
    t = math.exp(-s * ln_n)
    z += n * t / (s - 1.0) + 0.5 * t
    dz -= ln_n * (n * t / (s - 1.0) + 0.5 * t) + n * t / (s - 1.0) ** 2
    poch, dpoch = s, 1.0  # (s)_(2m-1) and its s-derivative
    pw = t / n  # n^(-s-2m+1)
    for m, bf in enumerate(_B2M_FACT, 1):
        term = bf * poch * pw
        dterm = bf * pw * (dpoch - ln_n * poch)
        z += term
        dz += dterm
        if abs(term) <= 1e-18 * abs(z) and abs(dterm) <= 1e-18 * abs(dz):
            break
        u, v = s + 2 * m - 1, s + 2 * m
        poch, dpoch = poch * u * v, dpoch * u * v + poch * (u + v)
        pw /= n * n
    return z, dz


def _digamma(x: float) -> float:
    """psi(x) for x > 0."""
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    p = inv2
    for m, b in enumerate(_B2M[:7], 1):
        acc -= b / (2 * m) * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x


def _log_ratio(s: float, a: float):
    """ln R with R = s^a Gamma(s) / Gamma(s+a), and its partials in s and a.

    R -> 1 as s -> inf; for s >= 10 the Stirling series is differenced term
    by term so that nothing cancels, and smaller s is shifted up first.
    """
    shift = max(0, math.ceil(10.0 - s))
    ln_r = r_s = r_a = 0.0
    for i in range(shift):
        ln_r += math.log1p(a / (s + i))
        r_s += 1.0 / (s + a + i) - 1.0 / (s + i)
        r_a += 1.0 / (s + a + i)
    if shift:
        ln_r += a * math.log(s / (s + shift))
        r_s += a / s - a / (s + shift)
        r_a += math.log(s / (s + shift))
    s += shift
    sa = s + a
    l1 = math.log1p(a / s)
    ln_r += a - (sa - 0.5) * l1
    dpsi = l1 - 0.5 * (1.0 / sa - 1.0 / s)  # psi(s+a) - psi(s)
    psi_gap = -l1 + 0.5 / sa  # ln s - psi(s+a)
    for m, b in enumerate(_B2M[:7], 1):
        ln_r -= b / (2 * m * (2 * m - 1)) * (sa ** (1 - 2 * m) - s ** (1 - 2 * m))
        dpsi -= b / (2 * m) * (sa ** (-2 * m) - s ** (-2 * m))
        psi_gap += b / (2 * m) * sa ** (-2 * m)
    return ln_r, r_s + a / s - dpsi, r_a + psi_gap
