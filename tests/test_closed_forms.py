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
