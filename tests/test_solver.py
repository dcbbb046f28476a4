"""Solver layer: tau, curves, finite-difference slopes, Legendre transform,
and CSV serialization."""

from __future__ import annotations

import numpy as np
import pytest

import lqspec as lq
from lqspec.matrix import EntrySpec, MeasureMatrixSpec, atom
from lqspec.solver import SpectrumCurve, curve_to_csv, legendre_to_csv


def _one_atom_spec(w=0.5, rho=0.5):
    e = EntrySpec((atom(w, rho),))
    return MeasureMatrixSpec(n=1, entries=((e,),), scc_of=(0,), dim=1)


# -- tau -------------------------------------------------------------------------

def test_tau_strong_r_q1():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    alpha, result = lq.tau(spec, 1.0)
    assert abs(alpha) <= 1e-9
    assert result.basic_classes == (0,)


def test_tau_nonstrong_basic_q1_is_min():
    spec = lq.build_matrix_spec(lq.canonical_params("nonstrong-r-basic"))
    alpha, result = lq.tau(spec, 1.0)
    assert abs(alpha) <= 1e-9
    assert len(result.roots) == 2
    assert max(result.roots.values()) > 0.1  # the tail root sits strictly above


def test_tau_strong_r_q2_golden():
    # Golden value from the independent truncated-series bisection oracle.
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    alpha, _ = lq.tau(spec, 2.0)
    assert alpha == pytest.approx(0.675679779315090, abs=1e-9)


def test_tau_rejects_negative_q():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    with pytest.raises(lq.InvalidGrid):
        lq.tau(spec, -0.5)


@pytest.mark.parametrize("q", [float("nan"), float("inf")])
def test_tau_rejects_nonfinite_q(q):
    # before any block evaluation: NaN passes a bare q < 0 check
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    with pytest.raises(lq.InvalidGrid, match="finite"):
        lq.tau(spec, q)


# -- tau_curve --------------------------------------------------------------------

def test_curve_two_points_match_single_calls():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    curve = lq.tau_curve(spec, 0.5, 2.0, 2)
    a1, _ = lq.tau(spec, 0.5)
    assert curve.alphas[0] == a1  # cold start: bit-identical
    # the second point warm-starts from the first point's roots; an
    # individual call given the same hints reproduces it bit-for-bit
    a2, _ = lq.tau(spec, 2.0, bracket_hints=curve.roots_table[0])
    assert curve.alphas[1] == a2


def test_curve_shape_all_families():
    for fid in lq.FAMILY_IDS:
        spec = lq.build_matrix_spec(lq.canonical_params(fid))
        curve = lq.tau_curve(spec, 0.0, 10.0, 41)
        a = np.array(curve.alphas)
        assert np.all(np.isfinite(a))
        assert np.all(np.diff(a) >= -1e-9)
        assert np.all(np.diff(a, 2) <= 1e-9)


def test_curve_invalid_grid():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    with pytest.raises(lq.InvalidGrid):
        lq.tau_curve(spec, 2.0, 2.0, 10)
    with pytest.raises(lq.InvalidGrid):
        lq.tau_curve(spec, 0.0, 1.0, 1)
    with pytest.raises(lq.InvalidGrid):
        lq.tau_curve(spec, -1.0, 1.0, 5)
    for q_min, q_max in ((0.0, float("inf")), (float("nan"), 1.0), (0.0, float("nan"))):
        with pytest.raises(lq.InvalidGrid):
            lq.tau_curve(spec, q_min, q_max, 5)


# -- tau_prime_fd -------------------------------------------------------------------

def test_fd_linear_one_atom():
    # root alpha(q) = q ln w / ln rho; with w = rho the slope is exactly 1
    spec = _one_atom_spec(0.5, 0.5)
    assert lq.tau_prime_fd(spec, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_fd_rejects_grid_underflow():
    spec = _one_atom_spec()
    with pytest.raises(lq.InvalidGrid):
        lq.tau_prime_fd(spec, 0.0)


@pytest.mark.parametrize("step", [0.0, -1e-4, float("nan"), float("inf")])
def test_fd_rejects_nonpositive_or_nonfinite_step(step):
    with pytest.raises(lq.InvalidGrid, match="step"):
        lq.tau_prime_fd(_one_atom_spec(), 1.0, step=step)


def test_fd_matches_closed_form_strong_r():
    p = lq.canonical_params("strong-r")
    spec = lq.build_matrix_spec(p)
    fam = lq.build_closed_form(p)
    fd = lq.tau_prime_fd(spec, 2.0)
    closed = fam.tau_prime(2.0)
    assert fd == pytest.approx(closed, rel=1e-5)


# -- legendre -----------------------------------------------------------------------

def test_legendre_linear_curve():
    qs = tuple(np.linspace(0.0, 10.0, 51))
    curve = SpectrumCurve(qs=qs, alphas=tuple(q - 1.0 for q in qs), roots_table=({},) * 51)
    leg = lq.legendre(curve)
    # slope constant at 1: transform concentrates at alpha = 1, f(1) = 1
    assert len(leg.alphas) == 1
    assert leg.alphas[0] == pytest.approx(1.0, abs=1e-12)
    assert leg.f_values[0] == pytest.approx(1.0, abs=1e-12)


def test_legendre_concave_quadratic_conjugate():
    # tau(q) = 2q - q^2/10 on [0,10] has conjugate f(a) = -2.5 (2-a)^2 on
    # the covered slope range [0, 2]
    qs = np.linspace(0.0, 10.0, 2001)
    curve = SpectrumCurve(
        qs=tuple(qs),
        alphas=tuple(2.0 * q - q * q / 10.0 for q in qs),
        roots_table=({},) * len(qs),
    )
    leg = lq.legendre(curve)
    for a, f in zip(leg.alphas, leg.f_values):
        if 0.2 <= a <= 1.8:  # interior of the slope range
            assert f == pytest.approx(-2.5 * (2.0 - a) ** 2, abs=1e-3)


def test_legendre_single_point_degenerate():
    curve = SpectrumCurve(qs=(1.0,), alphas=(0.0,), roots_table=({},))
    leg = lq.legendre(curve)
    assert leg.degenerate
    assert len(leg.alphas) == 1


def test_legendre_concave_and_consistent():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    curve = lq.tau_curve(spec, 0.0, 10.0, 101)
    leg = lq.legendre(curve)
    f = np.array(leg.f_values)
    assert np.all(np.diff(f, 2) <= 1e-9)
    # f(tau'(q)) = q tau'(q) - tau(q) at interior grid points
    p = lq.canonical_params("strong-r")
    fam = lq.build_closed_form(p)
    for q in (1.0, 2.0, 4.0):
        slope = fam.tau_prime(q)
        t_q, _ = lq.tau(spec, q)
        want = q * slope - t_q
        got = np.interp(slope, leg.alphas, leg.f_values)
        assert got == pytest.approx(want, abs=1e-6)


# -- CSV ------------------------------------------------------------------------------

def test_curve_csv_roundtrip():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    curve = lq.tau_curve(spec, 0.0, 2.0, 5)
    text = curve_to_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "q,alpha"
    assert "\r" not in text
    for line, q, a in zip(lines[1:], curve.qs, curve.alphas):
        sq, sa = line.split(",")
        assert float(sq) == q
        assert float(sa) == a  # 17 significant digits round-trip exactly


def test_legendre_csv_header():
    curve = SpectrumCurve(qs=(0.0, 1.0, 2.0), alphas=(-1.0, 0.0, 0.5), roots_table=({},) * 3)
    text = legendre_to_csv(lq.legendre(curve))
    assert text.startswith("alpha,f,q_conj\n")
    for line in text.strip().split("\n")[1:]:
        assert len(line.split(",")) == 3
