"""Matrix specs: entry evaluation with certified truncation, domains,
dense evaluation, built-in family matrices, and serialization."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import lqspec as lq
from lqspec.matrix import (
    AtomFamily,
    BinomialSum,
    Constant,
    EntrySpec,
    GeometricPower,
    MeasureMatrixSpec,
    atom,
    binomial_family,
    compile_block,
    entry_value,
    geometric_family,
)
from conftest import brute_family_value, random_params


# -- entry values -------------------------------------------------------------

def test_single_atom_value():
    e = EntrySpec((atom(1.0 / 3.0, 1.0 / 3.0),))
    assert entry_value(e, 1.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_geometric_closed_form():
    # sum_{k>=1} (1/2)^{k+1-1}... masses (1/2)*(1/2)^k at unit lengths
    fam = AtomFamily(GeometricPower(0.5, 0.5), 0.5, 0.5, k_start=1, k_end=None)
    # q=1, alpha=0: sum_{k>=1} 0.5 * 0.5^k = 0.5
    assert fam.evaluate(1.0, 0.0) == pytest.approx(0.5, rel=1e-14)


def test_binomial_matches_brute_force():
    fam = binomial_family(0.5, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 2.0 / 7.0)
    brute = brute_family_value(fam, 2.0, -1.0, n_terms=10**5)
    assert fam.evaluate(2.0, -1.0) == pytest.approx(brute, rel=1e-10)


def test_binomial_equal_bases_degenerate_form():
    # a == b must evaluate as c*(k+1)*a^k
    w = BinomialSum(0.7, 0.4, 0.4)
    ks = np.arange(0, 20, dtype=float)
    got = np.exp(w.log_values(ks))
    expected = 0.7 * (ks + 1.0) * 0.4**ks
    assert np.allclose(got, expected, rtol=1e-12)


def test_binomial_log_values_stable_for_skewed_bases():
    w = BinomialSum(0.9, 0.9, 0.001)
    ks = np.array([0.0, 1.0, 2.0, 500.0, 2000.0])
    vals = w.log_values(ks)
    assert np.all(np.isfinite(vals))
    # exact small-k values; large k grows like the dominant base
    for k in (0, 1, 2):
        direct = 0.9 * sum(0.9**j * 0.001 ** (k - j) for j in range(k + 1))
        assert vals[k] == pytest.approx(math.log(direct), rel=1e-12)
    assert vals[4] - vals[3] == pytest.approx(1500.0 * math.log(0.9), rel=1e-9)


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
        if kind == 0:
            fam = AtomFamily(Constant(c), rho0, 1.0, 0, 0)
        elif kind == 1:
            fam = AtomFamily(GeometricPower(c, a), rho0, r, 0, None)
        else:
            fam = AtomFamily(BinomialSum(c, a, b), rho0, r, 0, None)
        e = EntrySpec((fam,))
        q = rng.uniform(0.0, 4.0)
        sup = fam.domain_sup(q)
        hi = 0.0 if sup is None else sup
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
    assert lq.row_sum_F(spec, 0, 1.0, 0.0) == pytest.approx(11.0 / 9.0, rel=1e-14)


def test_row_sum_vanishes_far_left():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    assert lq.row_sum_F(spec, 0, 0.0, -60.0) < 1e-20


def test_zero_row_sums_to_zero():
    e = EntrySpec()
    spec = MeasureMatrixSpec(
        n=2,
        entries=((EntrySpec((atom(0.5, 0.5),)), e), (e, e)),
        scc_of=(0, 0),
        dim=1,
    )
    assert lq.row_sum_F(spec, 1, 1.0, 0.0) == 0.0


def test_in_domain_strong_r():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    assert lq.in_domain(spec, 1.0, 0.0)  # family ratio p3 r^0 = 1/3 < 1
    assert not lq.in_domain(spec, 1.0, 2.0)  # (1/3)(7/2)^2 > 1


def test_in_domain_all_atoms_unconstrained():
    e = EntrySpec((atom(0.5, 0.5),))
    spec = MeasureMatrixSpec(n=1, entries=((e,),), scc_of=(0,), dim=1)
    assert lq.in_domain(spec, 1.0, 500.0)


# -- matrix_at ----------------------------------------------------------------

def test_matrix_at_strong_r_p0():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    mat = lq.matrix_at(spec, 1.0, 0.0)
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
    mat = lq.matrix_at(spec, 1.0, [0.0, 0.0])
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
    e = EntrySpec()
    spec = MeasureMatrixSpec(n=2, entries=((e, e), (e, e)), scc_of=(0, 0), dim=1)
    assert np.all(lq.matrix_at(spec, 1.0, 0.0) == 0.0)


def test_matrix_at_annotates_domain_violation():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    with pytest.raises(lq.DomainViolation, match="row 3"):
        lq.matrix_at(spec, 1.0, 2.0)


# -- built-in matrices ---------------------------------------------------------

def test_strong_r_series_entry_closed_form():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    # geometric family value p5/(1 - p3) at q=1, alpha=0
    val = entry_value(spec.entries[1][0], 1.0, 0.0)
    assert val == pytest.approx((1.0 / 2.0) / (1.0 - 1.0 / 3.0), rel=1e-14)


def test_strong_r2_geometric_entry():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r2"))
    # zeta-style entry p1/(1-p1) at q=1, alpha=0
    val = entry_value(spec.entries[0][1], 1.0, 0.0)
    assert val == pytest.approx(0.25 / 0.75, rel=1e-14)


def test_nonstrong_r2_tail_entries():
    spec = lq.build_matrix_spec(lq.canonical_params("nonstrong-r2"))
    # geometric loop entry p5/(1-p5) at q=1, alpha=0
    val = entry_value(spec.entries[3][4], 1.0, 0.0)
    assert val == pytest.approx(0.25 / 0.75, rel=1e-14)
    # combined entry = series + geometric
    both = entry_value(spec.entries[3][5], 1.0, 0.0)
    series = entry_value(spec.entries[3][3], 1.0, 0.0)
    assert both == pytest.approx(series + val, rel=1e-13)


def test_matrices_finite_at_q1_alpha0():
    for fid in lq.FAMILY_IDS:
        spec = lq.build_matrix_spec(lq.canonical_params(fid))
        alphas = [0.0] * spec.num_scc
        assert lq.in_domain(spec, 1.0, alphas)
        assert np.all(np.isfinite(lq.matrix_at(spec, 1.0, alphas)))


def test_truncation_matches_brute_force_all_families():
    rng = np.random.default_rng(321)
    for fid in lq.FAMILY_IDS:
        spec = lq.build_matrix_spec(lq.canonical_params(fid))
        fams = {
            (i, j, k): fam
            for i in range(spec.n)
            for j in range(spec.n)
            for k, fam in enumerate(spec.entries[i][j].families)
            if fam.k_end is None
        }
        for fam in fams.values():
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
        assert deco.is_irreducible() == lq.scc_decompose(g).is_strongly_connected


# -- serialization --------------------------------------------------------------

def test_spec_roundtrip_through_json():
    for fid in lq.FAMILY_IDS:
        spec = lq.build_matrix_spec(lq.canonical_params(fid))
        blob = json.dumps(spec.to_dict())
        back = MeasureMatrixSpec.from_dict(json.loads(blob))
        assert back.n == spec.n
        assert back.scc_of == spec.scc_of
        assert back.labels == spec.labels
        q, alpha = 1.3, [-0.2] * spec.num_scc
        assert np.allclose(
            lq.matrix_at(back, q, alpha), lq.matrix_at(spec, q, alpha), rtol=1e-14
        )


def test_strong_r_serialized_schema():
    spec = lq.build_matrix_spec(lq.canonical_params("strong-r"))
    d = spec.to_dict()
    assert d["labels"] == [1, 3, 4]
    assert d["scc_of"] == [0, 0, 0]
    series = d["entries"][1][0][0]
    assert series["weight"]["kind"] == "geometric"
    assert series["weight"]["c"] == pytest.approx(0.5)
    assert series["weight"]["a"] == pytest.approx(1.0 / 3.0)
    assert series["base_ratio"] == pytest.approx(1.0 / 3.0)
    assert series["step_ratio"] == pytest.approx(2.0 / 7.0)
    assert series["k_range"] == [0, None]


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
