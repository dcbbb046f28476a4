"""Matrix specs: entry evaluation with certified truncation, domains,
compiled block evaluation, and built-in family matrices."""

from __future__ import annotations

import math

import numpy as np
import pytest

import lqspec as lq
from lqspec.matrix import (
    AtomFamily,
    BinomialSum,
    GeometricPower,
    MeasureMatrixSpec,
    binomial_family,
    compile_block,
    entry_value,
    geometric_family,
)
from conftest import brute_family_value, dense_matrix, random_params, vertex_components


def _full(spec, q, alpha):
    """The whole matrix at (q, alpha), evaluated on the solve path."""
    return np.asarray(compile_block(spec, range(spec.n)).evaluate(q, alpha)[0])


# -- entry values -------------------------------------------------------------

def test_single_atom_value():
    assert entry_value(((1.0 / 3.0, 1.0 / 3.0),), 1.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_geometric_closed_form():
    fam = AtomFamily(GeometricPower(0.5, 0.5), 0.5, 0.5)
    # q=1, alpha=0: sum_{k>=0} 0.5 * 0.5^k = 1
    assert fam.evaluate(1.0, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_binomial_matches_brute_force():
    fam = binomial_family(0.5, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 2.0 / 7.0)
    brute = brute_family_value(fam, 2.0, -1.0, n_terms=10**5)
    assert fam.evaluate(2.0, -1.0) == pytest.approx(brute, rel=1e-10)


def test_binomial_equal_bases_degenerate_form():
    # a == b must evaluate as masses c*(k+1)*a^k
    fam = binomial_family(0.7, 0.4, 0.4, 0.5, 0.5)
    for q, alpha in ((1.0, 0.0), (2.5, 0.3), (0.0, -1.0)):
        brute = math.fsum(
            (0.7 * (k + 1) * 0.4**k) ** q * (0.5 * 0.5**k) ** -alpha for k in range(400)
        )
        assert fam.evaluate(q, alpha) == pytest.approx(brute, rel=1e-13)


def test_binomial_series_stable_for_skewed_bases():
    # bases 0.9 and 0.001: masses 0.9 * sum_j 0.9^j 0.001^(k-j), summed
    # explicitly over the first 4000 atoms (the rest is below 1e-16 of the sum)
    fam = binomial_family(0.9, 0.9, 0.001, 0.5, 0.5)
    for q, alpha in ((1.0, 0.0), (3.0, 0.2), (0.5, -2.0)):
        brute = math.fsum(
            math.exp(q * math.log(0.9 * math.fsum(0.9**j * 0.001 ** (k - j)
                                                  for j in range(max(0, k - 8), k + 1)))
                     - alpha * (k + 1) * math.log(0.5))
            for k in range(4000)
        )
        got = fam.evaluate(q, alpha, grads=True)
        assert got[0] == pytest.approx(brute, rel=1e-13)
        assert all(math.isfinite(v) for v in got)


def test_domain_violation():
    fam = geometric_family(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(lq.DomainViolation):
        fam.evaluate(0.0, 1.0)  # ratio 0.5^{-1} = 2 >= 1


def test_entry_monotone_alpha_nonincreasing_q():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        c = rng.uniform(0.05, 1.0)
        # masses stay in (0,1]: binomial-sum weights need a + b <= 1
        a = rng.uniform(0.05, 0.9)
        b = rng.uniform(0.05, 1.0 - a)
        rho0 = rng.uniform(0.1, 0.9)
        r = rng.uniform(0.1, 0.9)
        kind = rng.integers(0, 3)
        q = rng.uniform(0.0, 4.0)
        if kind == 0:
            e, hi = ((c, rho0),), 0.0
        else:
            weight = GeometricPower(c, a) if kind == 1 else BinomialSum(c, a, b)
            e = (AtomFamily(weight, rho0, r),)
            hi = e[0].domain_sup(q)
        a1 = hi - rng.uniform(0.3, 2.0)
        a2 = a1 - rng.uniform(0.1, 1.0)
        assert entry_value(e, q, a1) > entry_value(e, q, a2)  # increasing in alpha
        # nonincreasing in q for masses <= 1
        q2 = q + rng.uniform(0.1, 2.0)
        assert entry_value(e, q2, a2) <= entry_value(e, q, a2) + 1e-12


# -- row sums and domain -------------------------------------------------------

def test_row_sum_strong_r_p0():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    # row for cell 1: p1 + (p1 p3 + p2 p5)/p5 + p2 = 1/3 + 5/9 + 1/3
    assert _full(spec, 1.0, 0.0)[0].sum() == pytest.approx(11.0 / 9.0, rel=1e-14)


def test_row_sum_vanishes_far_left():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    assert _full(spec, 0.0, -60.0)[0].sum() < 1e-20


def test_zero_row_sums_to_zero():
    spec = MeasureMatrixSpec(n=2, cells={(0, 0): ((0.5, 0.5),)})
    assert _full(spec, 1.0, 0.0)[1].sum() == 0.0


def test_in_domain_strong_r():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    sup = compile_block(spec, range(spec.n)).domain_sup(1.0)
    assert 0.0 < sup  # family ratio p3 r^0 = 1/3 < 1
    assert sup < 2.0  # (1/3)(7/2)^2 > 1


def test_in_domain_all_atoms_unconstrained():
    spec = MeasureMatrixSpec(n=1, cells={(0, 0): ((0.5, 0.5),)})
    block = compile_block(spec, [0])
    assert block.domain_sup(1.0) is None
    assert np.isfinite(np.asarray(block.evaluate(1.0, 500.0)[0])).all()


# -- the whole matrix on the solve path -----------------------------------------

def test_matrix_at_strong_r_p0():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    mat = _full(spec, 1.0, 0.0)
    expected = np.array(
        [
            [1.0 / 3.0, 5.0 / 9.0, 1.0 / 3.0],
            [3.0 / 4.0, 0.0, 0.0],
            [0.0, 0.5, 0.5],
        ]
    )
    assert np.allclose(mat, expected, atol=1e-13)


def test_matrix_at_nonstrong_basic_pattern():
    spec = lq.build_matrix_spec(lq.canonical_params("nonstrong-r-basic"))
    mat = _full(spec, 1.0, 0.0)
    support = mat != 0.0
    expected = np.array(
        [
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
        ],
        dtype=bool,
    )
    assert np.array_equal(support, expected)
    # row 4 reads the tail block: both entries p4
    assert mat[3, 2] == pytest.approx(0.5) and mat[3, 3] == pytest.approx(0.5)


def test_matrix_at_zero_spec():
    spec = MeasureMatrixSpec(n=2, cells={})
    assert np.all(_full(spec, 1.0, 0.0) == 0.0)


# -- built-in matrices ---------------------------------------------------------

def test_strong_r_series_entry_closed_form():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    # geometric family value p5/(1 - p3) at q=1, alpha=0
    val = entry_value(spec.cells[1, 0], 1.0, 0.0)
    assert val == pytest.approx((1.0 / 2.0) / (1.0 - 1.0 / 3.0), rel=1e-14)


def test_strong_r2_geometric_entry():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r2"))
    # zeta-style entry p1/(1-p1) at q=1, alpha=0
    val = entry_value(spec.cells[0, 1], 1.0, 0.0)
    assert val == pytest.approx(0.25 / 0.75, rel=1e-14)


def test_nonstrong_r2_tail_entries():
    spec = lq.build_matrix_spec(lq.canonical_params("nonstrong-r2"))
    # geometric loop entry p5/(1-p5) at q=1, alpha=0
    val = entry_value(spec.cells[3, 4], 1.0, 0.0)
    assert val == pytest.approx(0.25 / 0.75, rel=1e-14)
    # combined entry = series + geometric
    both = entry_value(spec.cells[3, 5], 1.0, 0.0)
    series = entry_value(spec.cells[3, 3], 1.0, 0.0)
    assert both == pytest.approx(series + val, rel=1e-13)


def test_matrices_finite_at_q1_alpha0():
    for fid in lq.FAMILY_IDS:
        spec = lq.build_matrix_spec(lq.canonical_params(fid))
        sup = compile_block(spec, range(spec.n)).domain_sup(1.0)
        assert sup is None or sup > 0.0
        assert np.all(np.isfinite(_full(spec, 1.0, 0.0)))


def test_truncation_matches_brute_force_all_families():
    rng = np.random.default_rng(321)
    for fid in lq.FAMILY_IDS:
        spec = lq.build_matrix_spec(lq.canonical_params(fid))
        cells = sorted(spec.cells)  # every cell holding a series, row-major
        for fam in (t for ij in cells for t in spec.cells[ij] if isinstance(t, AtomFamily)):
            for _ in range(5):
                q = rng.uniform(0.0, 4.0)
                alpha = fam.domain_sup(q) - rng.uniform(0.2, 2.5)
                got = fam.evaluate(q, alpha)
                brute = brute_family_value(fam, q, alpha, n_terms=10**6)
                assert got == pytest.approx(brute, rel=1e-9)


def test_support_irreducibility_iff_strongly_connected():
    for fid in lq.FAMILY_IDS:
        g = lq.build_example(lq.canonical_params(fid))
        spec = lq.build_matrix_spec(lq.canonical_params(fid))
        deco = lq.communication_classes(spec)
        irreducible = deco.num_classes == 1 and not deco.degenerate[0]
        assert irreducible == (len(vertex_components(g)) == 1)


def test_random_family_matrices_in_domain_at_roots():
    rng = np.random.default_rng(77)
    for fid in lq.FAMILY_IDS:
        p = random_params(fid, rng)
        spec = lq.build_matrix_spec(p)
        _, res = lq.tau(spec, 1.5)
        for ci, root in res.roots.items():
            members = res.decomposition.classes[ci]
            sup = compile_block(spec, members).domain_sup(1.5)
            assert sup is None or root < sup


@pytest.mark.parametrize("fid", lq.FAMILY_IDS)
def test_compiled_block_matches_dense_matrix_and_its_differences(fid):
    # the solve path's block evaluation against the entry-by-entry matrix:
    # M to 1e-13, and dM/dq, dM/dalpha against central differences of it.
    # A cell holding an infinite series agrees only to twice the certified
    # series tolerance (1e-12): the block sums each series with its partials, whose
    # tail bounds can call for more terms than the value alone.
    rng = np.random.default_rng(1312)
    h = 1e-5
    for _ in range(10):
        spec = lq.build_matrix_spec(random_params(fid, rng))
        block = compile_block(spec, range(spec.n))
        q = rng.uniform(h, 4.0)
        sup = block.domain_sup(q)
        alpha = (0.0 if sup is None else sup) - rng.uniform(0.2, 2.5)
        m, mq, ma = map(np.asarray, block.evaluate(q, alpha))
        dense = dense_matrix(spec, q, alpha)
        series = np.array([[any(isinstance(t, AtomFamily) for t in spec.cells.get((i, j), ()))
                            for j in range(spec.n)] for i in range(spec.n)])
        np.testing.assert_allclose(m[~series], dense[~series], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(m[series], dense[series], rtol=2e-12, atol=0.0)
        fd_q = (dense_matrix(spec, q + h, alpha) - dense_matrix(spec, q - h, alpha)) / (2 * h)
        fd_a = (dense_matrix(spec, q, alpha + h) - dense_matrix(spec, q, alpha - h)) / (2 * h)
        np.testing.assert_allclose(mq, fd_q, rtol=1e-7, atol=1e-9 * np.abs(mq).max())
        np.testing.assert_allclose(ma, fd_a, rtol=1e-7, atol=1e-9 * np.abs(ma).max())
