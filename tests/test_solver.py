"""Solver layer: tau, curves, one-sided slopes checked against the closed
forms and a finite-difference oracle, Legendre transform, and CSV
serialization."""

from __future__ import annotations

import numpy as np
import pytest

import lqspec as lq
from lqspec.matrix import MeasureMatrixSpec
from lqspec.solver import SpectrumCurve, curve_to_csv, legendre_to_csv
from conftest import closed_form_curve, tau_prime_fd


def _one_atom_spec(w=0.5, rho=0.5):
    return MeasureMatrixSpec(n=1, cells={(0, 0): ((w, rho),)})


def _curve(qs, tau, slope, kinks=()):
    """A hand-built curve of tau with derivative ``slope``; at the grid
    indices in ``kinks`` the right slope is lowered by 0.1."""
    return SpectrumCurve(
        qs=tuple(qs),
        alphas=tuple(tau(q) for q in qs),
        roots_table=({},) * len(qs),
        slopes=tuple(
            (slope(q) - 0.1 * (i in kinks), slope(q)) for i, q in enumerate(qs)
        ),
    )


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


# -- slopes: the certified root slopes against two oracles ------------------------

def test_fd_linear_one_atom():
    # root alpha(q) = q ln w / ln rho; with w = rho the slope is exactly 1
    spec = _one_atom_spec(0.5, 0.5)
    assert tau_prime_fd(spec, 1.0) == pytest.approx(1.0, abs=1e-9)
    _, result = lq.tau(spec, 1.0)
    assert lq.tau_slopes(result) == pytest.approx((1.0, 1.0), abs=1e-12)


def test_fd_rejects_grid_underflow():
    spec = _one_atom_spec()
    with pytest.raises(lq.InvalidGrid):
        tau_prime_fd(spec, 0.0)


@pytest.mark.parametrize("step", [0.0, -1e-4, float("nan"), float("inf")])
def test_fd_rejects_nonpositive_or_nonfinite_step(step):
    with pytest.raises(lq.InvalidGrid, match="step"):
        tau_prime_fd(_one_atom_spec(), 1.0, step=step)


def test_fd_matches_closed_form_strong_r():
    p = lq.canonical_params("strong-r")
    spec = lq.build_matrix_spec(p)
    fam = lq.build_closed_form(p)
    fd = tau_prime_fd(spec, 2.0)
    closed = fam.tau_prime(2.0)
    assert fd == pytest.approx(closed, rel=1e-5)
    _, result = lq.tau(spec, 2.0)
    right, left = lq.tau_slopes(result)
    assert right == left == pytest.approx(closed, abs=1e-9)


@pytest.mark.parametrize("q_max, steps", [(10.0, 101), (200.0, 41)])
@pytest.mark.parametrize("family", lq.FAMILY_IDS)
def test_slopes_and_legendre_match_closed_form(family, q_max, steps):
    # two routes: the certified class-root slopes against -f_q / f_alpha of
    # the attaining closed-form factor
    p = lq.canonical_params(family)
    curve = lq.tau_curve(lq.build_matrix_spec(p), 0.0, q_max, steps)
    want = closed_form_curve(lq.build_closed_form(p), curve.qs)
    leg = lq.legendre(curve)
    assert leg.q_conjugate == curve.qs[::-1]  # no kink at a grid point
    for q, (right, left), a, f, (t_cf, tp_cf) in zip(
        curve.qs, curve.slopes, leg.alphas[::-1], leg.f_values[::-1], want
    ):
        assert right == pytest.approx(tp_cf, abs=1e-9), q
        assert left == pytest.approx(tp_cf, abs=1e-9), q
        assert a == pytest.approx(tp_cf, abs=1e-9), q
        assert f == pytest.approx(q * tp_cf - t_cf, abs=1e-9), q


# -- legendre -----------------------------------------------------------------------

def test_legendre_linear_curve():
    qs = np.linspace(0.0, 10.0, 51)
    leg = lq.legendre(_curve(qs, lambda q: q - 1.0, lambda q: 1.0))
    # slope constant at 1: transform concentrates at alpha = 1, f(1) = 1
    assert len(leg.alphas) == 51
    assert leg.alphas == pytest.approx([1.0] * 51, abs=1e-12)
    assert leg.f_values == pytest.approx([1.0] * 51, abs=1e-12)


def test_legendre_concave_quadratic_conjugate():
    # tau(q) = 2q - q^2/10 on [0,10] has conjugate f(a) = -2.5 (2-a)^2 on
    # the covered slope range [0, 2]
    qs = np.linspace(0.0, 10.0, 2001)
    leg = lq.legendre(_curve(qs, lambda q: 2.0 * q - q * q / 10.0, lambda q: 2.0 - q / 5.0))
    assert leg.alphas[0] == 0.0 and leg.alphas[-1] == 2.0
    assert np.all(np.diff(leg.alphas) > 0.0)
    for a, f in zip(leg.alphas, leg.f_values):
        assert f == pytest.approx(-2.5 * (2.0 - a) ** 2, abs=1e-12)


def test_legendre_kink_gives_two_rows():
    # tau = 2q - q^2/10 with its right slope lowered at grid index 2 (q = 2)
    qs = np.linspace(0.0, 4.0, 5)
    leg = lq.legendre(_curve(qs, lambda q: 2.0 * q - q * q / 10.0, lambda q: 2.0 - q / 5.0,
                             kinks=(2,)))
    assert leg.q_conjugate == (4.0, 3.0, 2.0, 2.0, 1.0, 0.0)
    assert leg.alphas[2:4] == pytest.approx((1.5, 1.6), abs=1e-15)
    assert leg.f_values[2:4] == pytest.approx((2 * 1.5 - 3.6, 2 * 1.6 - 3.6), abs=1e-15)
    assert np.all(np.diff(leg.alphas) > 0.0)


def test_legendre_single_point_degenerate():
    leg = lq.legendre(_curve([1.0], lambda q: 0.0, lambda q: 0.5))
    assert (leg.alphas, leg.f_values, leg.q_conjugate) == ((0.5,), (0.5,), (1.0,))


def test_legendre_concave_and_consistent():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    curve = lq.tau_curve(spec, 0.0, 10.0, 101)
    leg = lq.legendre(curve)
    # f' = q falls as alpha rises: f is concave
    assert np.all(np.diff(leg.alphas) > 0.0)
    assert np.all(np.diff(leg.q_conjugate) < 0.0)
    # f(tau'(q)) = q tau'(q) - tau(q) at interior grid points
    p = lq.canonical_params("strong-r")
    fam = lq.build_closed_form(p)
    for q in (1.0, 2.0, 4.0):
        slope = fam.tau_prime(q)
        t_q, _ = lq.tau(spec, q)
        want = q * slope - t_q
        got = np.interp(slope, leg.alphas, leg.f_values)
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("family", lq.FAMILY_IDS)
def test_legendre_rows_satisfy_the_legendre_inequality(family):
    # f(a) = inf_q (q a - tau(q)) bounds each row by every grid point's line
    spec = lq.build_matrix_spec(lq.canonical_params(family))
    curve = lq.tau_curve(spec, 0.0, 10.0, 101)
    leg = lq.legendre(curve)
    qs, ts = np.array(curve.qs), np.array(curve.alphas)
    for a, f in zip(leg.alphas, leg.f_values):
        assert f <= np.min(qs * a - ts) + 1e-12, a


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
    curve = _curve([0.0, 1.0, 2.0], lambda q: q - 1.0, lambda q: 1.0, kinks=(1,))
    text = legendre_to_csv(lq.legendre(curve))
    assert len(text.strip().split("\n")) == 5
    assert text.startswith("alpha,f,q_conj\n")
    for line in text.strip().split("\n")[1:]:
        assert len(line.split(",")) == 3
