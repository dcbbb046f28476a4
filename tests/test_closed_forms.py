"""Closed-form characteristic functions: normalization identities, analytic
partials vs finite differences, root equivalence with the spectral route,
and the paper's long-form formulas from ``paper_oracle``."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import lqspec as lq
from lqspec.closed_forms import Val, _qpow
from conftest import H_val, matched_roots, random_params
from paper_oracle import TYPO_FAMILIES, basic_alt_core, longform_tau_prime


# -- the forward-mode helper -----------------------------------------------------

def test_val_arithmetic():
    a = Val(2.0, 1.0, -1.0)
    b = Val(3.0, 0.5, 2.0)
    s = a * b
    assert s.v == 6.0
    assert s.dq == pytest.approx(1.0 * 3.0 + 2.0 * 0.5)
    assert s.da == pytest.approx(-1.0 * 3.0 + 2.0 * 2.0)
    d = 1.0 - a
    assert (d.v, d.dq, d.da) == (-1.0, -1.0, 1.0)


def test_qpow_partials():
    v = _qpow(0.3, 0.6, 1.7, -0.4)
    want = 0.3**1.7 * 0.6**0.4
    assert v.v == pytest.approx(want, rel=1e-14)
    assert v.dq == pytest.approx(want * math.log(0.3), rel=1e-14)
    assert v.da == pytest.approx(-want * math.log(0.6), rel=1e-14)


# -- normalization identities ------------------------------------------------------

def test_H_vanishes_at_q1_alpha0_canonical():
    for fid in lq.FAMILY_IDS:
        fam = lq.build_closed_form(lq.canonical_params(fid))
        assert abs(H_val(fam, 1.0, 0.0).v) <= 1e-14


def test_H_vanishes_at_q1_alpha0_random():
    rng = np.random.default_rng(42)
    for fid in lq.FAMILY_IDS:
        for _ in range(10):
            fam = lq.build_closed_form(random_params(fid, rng))
            assert abs(H_val(fam, 1.0, 0.0).v) <= 1e-12


def test_H_strong_r_at_origin():
    # All unit-mass powers collapse: value is exactly -1 at q=0, alpha=0.
    fam = lq.build_closed_form(lq.canonical_params("strong-r"))
    assert H_val(fam, 0.0, 0.0).v == pytest.approx(-1.0, abs=1e-14)


def test_H_is_product_of_factors():
    rng = np.random.default_rng(3)
    for fid in lq.FAMILY_IDS:
        fam = lq.build_closed_form(lq.canonical_params(fid))
        for _ in range(5):
            q = rng.uniform(0.0, 3.0)
            sups = [f.domain_sup(q) for f in fam.factors if f.domain_sup(q) is not None]
            alpha = (min(sups) if sups else 0.0) - rng.uniform(0.2, 1.5)
            prod = 1.0
            for f in fam.factors:
                prod *= f.value(q, alpha).v
            assert H_val(fam, q, alpha).v == pytest.approx(prod, rel=1e-12, abs=1e-300)


# -- partial derivatives -------------------------------------------------------------

def test_H_partials_match_finite_differences():
    rng = np.random.default_rng(314)
    step = 1e-5
    for fid in lq.FAMILY_IDS:
        fam = lq.build_closed_form(lq.canonical_params(fid))
        checked = 0
        while checked < 20:
            q = rng.uniform(0.1, 4.0)
            sups = [f.domain_sup(q) for f in fam.factors if f.domain_sup(q) is not None]
            alpha = (min(sups) if sups else 0.5) - rng.uniform(0.3, 2.0)
            val = H_val(fam, q, alpha)
            fq = (H_val(fam, q + step, alpha).v - H_val(fam, q - step, alpha).v) / (2 * step)
            fa = (H_val(fam, q, alpha + step).v - H_val(fam, q, alpha - step).v) / (2 * step)
            # relative with a unit floor: the FD truncation error itself
            # dominates once the partial is tiny
            assert abs(val.dq - fq) <= 1e-6 * max(1.0, abs(val.dq))
            assert abs(val.da - fa) <= 1e-6 * max(1.0, abs(val.da))
            checked += 1


# -- roots -----------------------------------------------------------------------------

def test_roots_match_spectral_class_roots(canonical_specs, canonical_closed_forms):
    for fid in lq.FAMILY_IDS:
        spec = canonical_specs[fid]
        fam = canonical_closed_forms[fid]
        for q in (0.0, 0.5, 1.0, 2.0, 5.0):
            res = lq.classify(spec, q)
            sol = fam.solve(q)
            for want, got in matched_roots(spec, res, sol):
                assert want == pytest.approx(got, abs=1e-9)
            assert sol.tau == pytest.approx(res.tau, abs=1e-9)


@pytest.mark.parametrize("fid", lq.FAMILY_IDS)
def test_roots_match_spectral_at_large_q(canonical_specs, canonical_closed_forms, fid):
    # the bracket searches pass atom terms that overflow a float (from
    # q = 1200 on nonstrong-r-heights, 1300 on nonstrong-r2 and 1850 on
    # nonstrong-r-basic) and bisect back from them; the sweep stops at 2200
    # because the spectral certificate fails from 2250
    for q in range(1200, 2201, 100):
        want = lq.classify(canonical_specs[fid], float(q)).tau
        got = canonical_closed_forms[fid].solve(float(q)).tau
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), q


def test_solve_strong_r_q1_root_zero():
    fam = lq.build_closed_form(lq.canonical_params("strong-r"))
    assert abs(fam.solve(1.0).tau) <= 1e-12


def test_solve_strong_r2_q0_golden():
    # Golden root from the independent truncated-series bisection oracle.
    fam = lq.build_closed_form(lq.canonical_params("strong-r2"))
    assert fam.solve(0.0).tau == pytest.approx(-1.390837943209246, abs=1e-9)


def test_alt_core_evaluator_agrees():
    # The block-diagonal and factored writings of the same condition must
    # produce identical roots.
    params = lq.canonical_params("nonstrong-r-basic")
    fam = lq.build_closed_form(params)
    assert fam.factors[0].name == "core"
    for q in (0.0, 0.7, 1.0, 2.5):
        root = fam.solve_factor(0, q)
        assert abs(basic_alt_core(params, q, root)) <= 1e-10


# -- the root search ---------------------------------------------------------------------

def _synthetic(fn, sup):
    """One-factor family with factor fn(q, alpha) and bound sup(q), and the
    alphas at which ``solve_factor`` evaluates it."""
    from lqspec.closed_forms import ClosedFormFamily, Factor

    seen = []

    def value(q, alpha):
        seen.append(alpha)
        return fn(q, alpha)

    fam = ClosedFormFamily(
        "synthetic", lq.canonical_params("strong-r"), (Factor("only", (1,), value, sup),)
    )
    return fam, seen


def _counting(fam):
    """``fam`` with its factor evaluations counted in ``calls[0]``."""
    calls = [0]

    def counted(value):
        def wrapper(q, alpha):
            calls[0] += 1
            return value(q, alpha)

        return wrapper

    factors = tuple(dataclasses.replace(f, value=counted(f.value)) for f in fam.factors)
    return dataclasses.replace(fam, factors=factors), calls


def _halving(q, alpha):
    # 1 - 2^(alpha - q): decreasing in alpha, with its root at alpha = q
    return 1.0 - _qpow(0.5, 0.5, q, alpha)


@pytest.mark.parametrize("sup_gap", [None, 2.0])
@pytest.mark.parametrize("start", [0.0, 1.0, 3.3, 10.0, 5.3, 40.0])
def test_search_finds_the_root_from_any_start(start, sup_gap):
    # q = 3.3: starts below the root, at it, above it and, when the bound
    # is q + 2, at the bound (5.3) and past it.
    from lqspec.closed_forms import _no_sup

    q = 3.3
    sup = _no_sup if sup_gap is None else (lambda q: q + sup_gap)
    fam, seen = _synthetic(_halving, sup)
    assert abs(fam.solve_factor(0, q, start=start) - q) <= 1e-12
    if sup_gap is not None:
        assert max(seen) < q + sup_gap


def test_search_returns_an_exact_zero_at_its_first_point():
    from lqspec.closed_forms import _no_sup

    fam, seen = _synthetic(_halving, _no_sup)
    assert fam.solve_factor(0, 2.0, start=2.0) == 2.0
    assert seen == [2.0]


def test_search_halves_the_gap_to_a_bound_next_to_the_root():
    # The root lies 1e-10 below the bound: steps up from 0 halve the gap to
    # the bound (less its 1e-15 margin) until they pass the root.
    q = 7.0
    bound = q + 1e-10
    fam, seen = _synthetic(_halving, lambda q: bound)
    assert abs(fam.solve_factor(0, q) - q) <= 1e-12
    top = bound - 1e-15 * bound
    gap = top
    for alpha in seen[1:37]:  # 2^-36 top < 1e-10
        gap *= 0.5
        assert alpha == top - gap
    assert max(seen) < bound


def test_search_stops_at_adjacent_doubles(canonical_closed_forms):
    # nonstrong-r2's first root at q = 10000 is 15848.6, where adjacent
    # doubles lie 3.6e-12 apart, so its bracket cannot narrow to 1e-12.  The
    # search stops once the bracket's ends are adjacent: 92 evaluations,
    # against 416 when it ran on to the 400 regula falsi steps of its cap.
    fam, calls = _counting(canonical_closed_forms["nonstrong-r2"])
    q = 10000.0
    root = fam.solve_factor(0, q)
    assert calls[0] <= 100, calls[0]
    value = fam.factors[0].value
    below, above = math.nextafter(root, -math.inf), math.nextafter(root, math.inf)
    assert value(q, below).v > 0.0 > value(q, root).v or value(q, root).v > 0.0 > value(q, above).v


@pytest.mark.parametrize(
    "sign, sup, start, where, last",
    [
        (1.0, None, 0.0, "unbounded", 0.5 * (2.0**200 - 1.0)),
        (-1.0, None, 3.0, "unbounded", 3.0 - 0.5 * (2.0**200 - 1.0)),
        (1.0, 1.0, -2.0, "bound 1.0", 1.0 - 1e-15),
    ],
)
def test_no_bracket_names_factor_q_start_bound_and_last_alpha(sign, sup, start, where, last):
    fam, _ = _synthetic(lambda q, alpha: Val(sign), lambda q: sup)
    with pytest.raises(lq.NoBracket) as info:
        fam.solve_factor(0, 2.5, start=start)
    msg = str(info.value)
    for field in ("factor 'only'", "q=2.5", f"start={start!r}", f"({where})"):
        assert field in msg, msg
    got = float(msg.rsplit("last alpha ", 1)[1])
    assert got == pytest.approx(last, rel=1e-15, abs=1e-300), msg


@pytest.mark.parametrize("q", [2600.0, 2700.0, 6000.0])
def test_no_root_where_the_factor_is_not_finite_at_an_end_of_the_bracket(canonical_closed_forms, q):
    # strong-r2's atom terms overflow: the factor falls from about 1 to -inf
    # (q = 2600) or to NaN (2700, 6000) between adjacent doubles, where the
    # search returned a "root" at which the factor is not near 0
    fam = canonical_closed_forms["strong-r2"]
    with pytest.raises(lq.NoBracket) as info:
        fam.solve_factor(0, q)
    msg = str(info.value)
    assert msg.startswith(f"factor 'strong-r2' at q={q!r} is ") and "no finite sign change" in msg
    value, alpha = msg.split(" is ", 1)[1].split(", an end", 1)[0].split(" at alpha=")
    assert not math.isfinite(float(value)), msg
    assert not math.isfinite(fam.factors[0].value(q, float(alpha)).v), msg
    lo, hi = map(float, msg.split("[", 1)[1].split("]", 1)[0].split(", "))
    assert float(alpha) in (lo, hi) and 0.0 < hi - lo <= 1e-12, msg


# Warm 101-point curves on [0, 10] took 12.7-17.5 factor evaluations per
# root on average across the families; bisection from the same brackets to
# the same 1e-12 takes 39.7-42.5.
MAX_MEAN_EVALS_PER_WARM_ROOT = 18.0


@pytest.mark.parametrize("fid", lq.FAMILY_IDS)
def test_warm_curve_roots_take_few_evaluations(fid, canonical_closed_forms):
    fam, calls = _counting(canonical_closed_forms[fid])
    roots = [0.0] * len(fam.factors)
    for q in np.linspace(0.0, 10.0, 101):  # each root starts from the last
        roots = [fam.solve_factor(i, float(q), start=r) for i, r in enumerate(roots)]
    mean = calls[0] / (101 * len(roots))
    assert mean <= MAX_MEAN_EVALS_PER_WARM_ROOT, mean


# -- tau' ------------------------------------------------------------------------------

def test_tau_prime_single_atom():
    # Synthetic one-term condition: 1 - w^q rho^{-a}; slope ln w / ln rho.
    from lqspec.closed_forms import ClosedFormFamily, Factor, _no_sup

    def fn(q, alpha):
        return 1.0 - _qpow(0.5, 0.5, q, alpha)

    fam = ClosedFormFamily(
        "synthetic", lq.canonical_params("strong-r"), (Factor("only", (1,), fn, _no_sup),)
    )
    assert fam.tau_prime(2.0) == pytest.approx(1.0, rel=1e-12)


def test_tau_prime_matches_fd_all_families(canonical_closed_forms):
    for fid in lq.FAMILY_IDS:
        fam = canonical_closed_forms[fid]
        for q in (0.5, 2.0, 8.0):
            tp = fam.tau_prime(q)
            h = 1e-4
            fd = (fam.solve(q + h).tau - fam.solve(q - h).tau) / (2 * h)
            assert tp == pytest.approx(fd, rel=1e-5)


# At the canonical point the heights family's components 1 and 3 have equal
# factors, so both vanish at the root and every term of its long form is 0/0.
# Unequal probabilities at vertex 2 untie them (component 3 attains tau for
# q >= 2, component 1 at q = 0.5).
UNTIED_HEIGHTS_PROBS = {"e7": 0.4, "e8": 0.3, "e9": 0.3}


def test_longform_agreement_and_typo_disagreement():
    # Three expanded formulas agree with the term-wise tau'; the two with
    # typographical slips differ from it.
    for fid in lq.FAMILY_IDS:
        params = lq.canonical_params(fid)
        if fid == "nonstrong-r-heights":
            params = dataclasses.replace(params, probs={**params.probs, **UNTIED_HEIGHTS_PROBS})
        fam = lq.build_closed_form(params)
        for q in (0.5, 2.0, 5.0):
            sol = fam.solve(q)
            if fid == "nonstrong-r-heights":
                assert abs(sol.roots[0] - sol.roots[2]) > 1e-3, q
            tp = fam.tau_prime(q)
            lf = longform_tau_prime(params, q, sol.tau)
            if fid in TYPO_FAMILIES:
                assert abs(lf - tp) > 1e-8 * max(1.0, abs(tp)), (fid, q)
            else:
                assert lf == pytest.approx(tp, rel=1e-9), (fid, q)


def test_singular_alpha_partial_raises():
    from lqspec.closed_forms import ClosedFormFamily, Factor, _no_sup

    def fn(q, alpha):
        # root at alpha=0 with a vanishing alpha-slope
        return Val(-alpha**3, 0.0, -3.0 * alpha**2)

    fam = ClosedFormFamily(
        "flat", lq.canonical_params("strong-r"), (Factor("flat", (1,), fn, _no_sup),)
    )
    with pytest.raises(lq.SingularHalpha):
        fam.tau_prime(1.0)
