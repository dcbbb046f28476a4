"""The paper's long-form tau'(q) formulas, kept as test oracles.

``longform_tau_prime(p, q, alpha)`` evaluates, at a root alpha of tau(q),
the expanded derivative formula written out for p's family.  Three of the
five agree with the term-wise tau' = -f_q / f_alpha of ``closed_forms``.
Two carry typographical slips and are recorded as written, so the tests
show that they still differ: ``strong-r2`` (off by a constant factor) and
``nonstrong-r-heights`` (scrambled signs).

``basic_alt_core(p, q, alpha)`` writes the core factor of
``nonstrong-r-basic`` with the geometric block on the off-diagonal, as in
the matrix layout; it must vanish at the closed-form root.

Atom powers are computed here independently of ``closed_forms``; the
infinite sums use the shared truncation engine.
"""

from __future__ import annotations

import math
from math import log as ln

from lqspec.families import GOLDEN_RATIO_INV, resolve
from lqspec.matrix import DEFAULT_REL_TOL, binomial_family

TYPO_FAMILIES = ("strong-r2", "nonstrong-r-heights")


def _pw(mass: float, ratio: float, q: float, alpha: float) -> float:
    """mass^q * ratio^(-alpha)."""
    return math.exp(q * ln(mass) - alpha * ln(ratio))


def longform_tau_prime(p, q: float, alpha: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    _, w = resolve(p)
    return _LONGFORMS[p.family_id](p, w, q, alpha, rel_tol)


def basic_alt_core(p, q: float, alpha: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    _, w = resolve(p)
    r = p.r
    q2, q3 = _pw(w[2], r, q, alpha), _pw(w[3], r, q, alpha)
    s = binomial_family(w[1], w[2], w[3], p.rho, r).evaluate(q, alpha, rel_tol)
    theta = q2 / (1.0 - q2)
    return (1.0 - s) * (1.0 - q3) - theta * q3


def _strong_r(x, w, q, alpha, rel_tol):
    rho, r = x.rho, x.r
    p1, p2, p3, p4, p5 = (w[k] for k in range(1, 6))
    mix = p1 * p3 + p2 * p5
    q1, q5 = (_pw(p, rho, q, alpha) for p in (p1, p5))
    q2, q3, q4 = (_pw(p, r, q, alpha) for p in (p2, p3, p4))
    q1325 = _pw(mix, rho * r, q, alpha)
    core = (1.0 - q1) * (1.0 - q3) - q1325
    num = q4 * ln(p4) * core + q2 * q4 * q5 * ln(p2 * p4 * p5) + (1.0 - q4) * (
        q1 * (1.0 - q3) * ln(p1) + q3 * (1.0 - q1) * ln(p3) + q1325 * ln(mix)
    )
    den = q4 * ln(r) * core + q2 * q4 * q5 * ln(rho * r * r) + (1.0 - q4) * (
        q1 * (1.0 - q3) * ln(rho) + q3 * (1.0 - q1) * ln(r) + q1325 * ln(rho * r)
    )
    return num / den


def _strong_r2(x, w, q, alpha, rel_tol):
    rr = GOLDEN_RATIO_INV**2
    qv = {k: _pw(w[k], rr, q, alpha) for k in (1, 2, 3, 5, 6, 7, 8)}
    series = binomial_family(w[4], w[1], w[8], rr, rr)
    s, sq, sa = series.evaluate(q, alpha, rel_tol, grads=True)
    # sum_k k * T_k recovered from the length-weighted sum.
    sk = (-sa - ln(rr) * s) / ln(rr)
    wl, wk2 = sq, sk + 2.0 * s
    a_sum = qv[7] + qv[8]
    b_sum = qv[1] + qv[2] + qv[3]
    al = qv[7] * ln(w[7]) + qv[8] * ln(w[8])
    bl = sum(qv[k] * ln(w[k]) for k in (1, 2, 3))
    c = (1.0 - qv[1]) * (1.0 - qv[8])
    d_sum = qv[5] + qv[6]
    dl = qv[5] * ln(w[5]) + qv[6] * ln(w[6])
    cross = qv[1] * (1.0 - qv[8]) * ln(w[1]) + qv[8] * (1.0 - qv[1]) * ln(w[8])
    cross0 = qv[1] * (1.0 - qv[8]) + qv[8] * (1.0 - qv[1])
    num = al * (1.0 - b_sum) + (1.0 - a_sum) * bl - cross * d_sum * s + c * (dl * s + d_sum * wl)
    den = wk2 * c * d_sum + a_sum * (1.0 - b_sum) + (1.0 - a_sum) * b_sum - cross0 * d_sum * s
    # The trailing scalar of the long form, as written.
    return num / den * 0.5 * ln(GOLDEN_RATIO_INV)


def _nonstrong_r_basic(x, w, q, alpha, rel_tol):
    rho, r = x.rho, x.r
    q2, q3, q4 = (_pw(w[k], r, q, alpha) for k in (2, 3, 4))
    series = binomial_family(w[1], w[2], w[3], rho, r)
    s, sl, sa = series.evaluate(q, alpha, rel_tol, grads=True)
    sll = -sa  # sum T_k ln(rho r^k)
    core = (1.0 - q2) * (1.0 - q3) * (1.0 - s) - q2 * q3
    num = core * q4 * ln(w[4]) + (
        (q2 * (1.0 - q3) * ln(w[2]) + q3 * (1.0 - q2) * ln(w[3])) * (1.0 - s)
        + (1.0 - q2) * (1.0 - q3) * sl
        + q2 * q3 * ln(w[2] * w[3])
    ) * (1.0 - q4)
    den = core * q4 * ln(r) + (
        (q2 * (1.0 - q3) + q3 * (1.0 - q2)) * ln(r) * (1.0 - s)
        + (1.0 - q2) * (1.0 - q3) * sll
        + 2.0 * q2 * q3 * ln(r)
    ) * (1.0 - q4)
    return num / den


def _nonstrong_r_heights(x, w, q, alpha, rel_tol):
    rho, r = x.rho, x.r
    lnr = ln(r)
    qv = {k: _pw(w[k], r, q, alpha) for k in (2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17)}
    lp = {k: ln(w[k]) for k in qv}
    s1, s1q, s1a = binomial_family(w[1], w[2], w[3], rho, r).evaluate(q, alpha, rel_tol, True)
    s3, s3q, s3a = binomial_family(w[7], w[8], w[9], rho, r).evaluate(q, alpha, rel_tol, True)
    p23 = (1.0 - qv[2]) * (1.0 - qv[3])
    p89 = (1.0 - qv[8]) * (1.0 - qv[9])
    g1 = 1.0 - (qv[2] + qv[3]) - p23 * s1
    g2 = 1.0 - (qv[5] + qv[6])
    g3 = 1.0 - (qv[8] + qv[9]) - p89 * s3
    g4 = 1.0 - (qv[11] + qv[12])
    g5 = 1.0 - (qv[14] + qv[15])
    bq17 = 1.0 - qv[17]

    hq = (
        (p23 * s1q + (qv[2] * (1.0 - qv[3]) * lp[2] + qv[3] * (1.0 - qv[2]) * lp[3]) * s1
         - (qv[2] * lp[2] + qv[3] * lp[3])) * g2 * g3 * g4 * g5 * bq17
        - g1 * (qv[5] * lp[5] + qv[6] * lp[6]) * g3 * g4 * g5 * bq17
        - g1 * g2 * ((qv[8] * lp[8] + qv[9] * lp[9]) - p89 * s3q
                     - (qv[8] * (1.0 - qv[9]) * lp[8] + qv[9] * (1.0 - qv[8]) * lp[9]) * s3)
        * g4 * g5 * bq17
        - g1 * g2 * g3 * ((qv[11] * lp[11] + qv[12] * lp[12]) * g5 * bq17
                          + g4 * ((qv[14] * lp[14] + qv[15] * lp[15]) * bq17 + g5 * qv[17]))
    )
    ha = (
        (-p23 * s1a - (qv[2] * lnr * (1.0 - qv[3]) + qv[3] * lnr * (1.0 - qv[2])) * s1
         + (qv[2] + qv[3]) * lnr) * g2 * g3 * g4 * g5 * bq17
        + g1 * (qv[5] + qv[6]) * lnr * g3 * g4 * g5 * bq17
        + g1 * g2 * ((qv[8] + qv[9]) * lnr
                     - lnr * (qv[8] * (1.0 - qv[9]) + qv[9] * (1.0 - qv[8])) * s3
                     + (-p89 * s3a)) * g4 * g5 * bq17
        + g1 * g2 * g3 * ((qv[11] + qv[12]) * lnr * g5 * bq17
                          + g4 * ((qv[14] + qv[15]) * lnr * qv[17] + g5 * qv[17] * lnr))
    )
    return -hq / ha


def _nonstrong_r2(x, w, q, alpha, rel_tol):
    rho, r, t = x.rho, x.r, x.t
    q2 = _pw(w[2], t, q, alpha)
    q3 = _pw(w[3], 1.0 - t, q, alpha)
    q5, q6, q7 = (_pw(w[k], r, q, alpha) for k in (5, 6, 7))
    series = binomial_family(w[4], w[5], w[6], rho, r)
    s, sl, sa = series.evaluate(q, alpha, rel_tol, grads=True)
    sll = -sa
    f1 = 1.0 - q2 - q3
    f2 = 1.0 - (q5 + q6 + q7) - (1.0 - q5) * (1.0 - q6) * s
    num = (q2 * ln(w[2]) + q3 * ln(w[3])) * f2 + (
        (q5 * ln(w[5]) + q6 * ln(w[6]) + q7 * ln(w[7]))
        - (q5 * ln(w[5]) * (1.0 - q6) + q6 * ln(w[6]) * (1.0 - q5)) * s
        + (1.0 - q5) * (1.0 - q6) * sl
    ) * f1
    den = (q2 * ln(t) + q3 * ln(1.0 - t)) * f2 + (
        (q5 + q6 + q7) * ln(r)
        - (q5 * (1.0 - q6) + q6 * (1.0 - q5)) * ln(r) * s
        + (1.0 - q5) * (1.0 - q6) * sll
    ) * f1
    return num / den


_LONGFORMS = {
    "strong-r": _strong_r,
    "strong-r2": _strong_r2,
    "nonstrong-r-basic": _nonstrong_r_basic,
    "nonstrong-r-heights": _nonstrong_r_heights,
    "nonstrong-r2": _nonstrong_r2,
}
