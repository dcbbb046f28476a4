"""Acceptance suite.

One test per acceptance criterion, each enforcing its stated tolerance and
runtime budget and printing a single PASS line (run with ``pytest -s`` to
see them).  Failure of any assertion fails the criterion.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import lqspec as lq
from lqspec.families import FamilyParams, default_probs
from conftest import (
    brute_family_value, matched_roots, random_params, row_major_series, tau_prime_fd,
    vertex_components,
)
from paper_oracle import TYPO_FAMILIES, longform_tau_prime

Q_PROBE = (0.0, 0.5, 1.0, 2.0, 5.0)


def _report(name: str, detail: str, elapsed: float, budget: float):
    print(f"[PASS] {name}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.2f}s"


def test_criterion_1_tau_at_one_vanishes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for fid in lq.FAMILY_IDS:
        for _ in range(100):
            spec = lq.build_matrix_spec(random_params(fid, rng))
            alpha, _ = lq.tau(spec, 1.0)
            worst = max(worst, abs(alpha))
            assert abs(alpha) <= 1e-9
    _report(
        "criterion 1",
        f"tau(1)=0 over 5 families x 100 random params, max |tau(1)| = {worst:.2e}",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_2_closed_form_equivalence(canonical_specs, canonical_closed_forms):
    t0 = time.perf_counter()
    worst = 0.0
    for fid in lq.FAMILY_IDS:
        spec = canonical_specs[fid]
        fam = canonical_closed_forms[fid]
        for q in Q_PROBE:
            res = lq.classify(spec, q)
            for want, got in matched_roots(spec, res, fam.solve(q)):
                worst = max(worst, abs(want - got))
                assert abs(want - got) <= 1e-9
    _report(
        "criterion 2",
        f"closed-form roots == spectral class roots, max |diff| = {worst:.2e}",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_3_derivative_consistency(canonical_specs, canonical_closed_forms):
    t0 = time.perf_counter()
    worst = 0.0
    typos = 0
    for fid in lq.FAMILY_IDS:
        spec = canonical_specs[fid]
        fam = canonical_closed_forms[fid]
        for q in (0.5, 1.0, 2.0, 5.0, 8.0):
            closed = fam.tau_prime(q)
            fd = tau_prime_fd(spec, q, step=1e-4)
            rel = abs(closed - fd) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-5
            try:
                lf = longform_tau_prime(fam.params, q, fam.solve(q).tau)
            except ZeroDivisionError:  # 0/0 where two components tie at the root
                lf = math.nan
            if fid in TYPO_FAMILIES:
                assert not abs(lf - closed) <= 1e-8 * max(1.0, abs(closed)), (fid, q)
                typos += 1
            else:
                assert lf == pytest.approx(closed, rel=1e-9), (fid, q)
    _report(
        "criterion 3",
        f"term-wise tau' matches FD, max rel diff = {worst:.2e}; long forms agree for "
        f"{len(lq.FAMILY_IDS) - len(TYPO_FAMILIES)} families, {typos} typo discrepancies",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_4_curve_shape(canonical_specs):
    t0 = time.perf_counter()
    for fid in lq.FAMILY_IDS:
        curve = lq.tau_curve(canonical_specs[fid], 0.0, 10.0, 101)
        a = np.array(curve.alphas)
        assert np.all(np.isfinite(a))
        assert np.min(np.diff(a)) >= -1e-9
        assert np.max(np.diff(a, 2)) <= 1e-9
    _report(
        "criterion 4",
        "tau nondecreasing and concave on [0,10] x 101 points, all families",
        time.perf_counter() - t0,
        30.0,
    )


@pytest.mark.parametrize("fid", ["strong-r", "nonstrong-r-basic"])
def test_criterion_5_monte_carlo(fid, canonical_specs):
    t0 = time.perf_counter()
    params = lq.canonical_params(fid)
    g = lq.build_example(params)
    spec = canonical_specs[fid]
    scales = [2.0**-k for k in range(4, 12)]
    n_per_vertex = 1_000_000 // g.num_vertices
    cloud = lq.sample(g, n_per_vertex, seed=42)
    diffs = {}
    for q in (0.5, 2.0):
        fit = lq.estimate_tau(g, q, scales, n_per_vertex, seed=42, cloud=cloud)
        alpha, _ = lq.tau(spec, q)
        diffs[q] = abs(fit.slope - alpha)
        assert diffs[q] <= 0.1
    _report(
        f"criterion 5 ({fid})",
        "empirical slope within 0.1 of tau at q=0.5, 2.0 "
        + ", ".join(f"|diff({q})|={d:.3f}" for q, d in diffs.items()),
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_6_series_truncation_oracle(canonical_specs):
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for fid in lq.FAMILY_IDS:
        spec = canonical_specs[fid]
        for fam in row_major_series(spec):
            for _ in range(20):
                q = rng.uniform(0.0, 4.0)
                alpha = fam.domain_sup(q) - rng.uniform(0.15, 2.5)
                got = fam.evaluate(q, alpha)
                brute = brute_family_value(fam, q, alpha, n_terms=10**6)
                rel = abs(got - brute) / brute
                worst = max(worst, rel)
                assert rel <= 1e-9
    _report(
        "criterion 6",
        f"truncated series match 1e6-term sums, max rel diff = {worst:.2e}",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_7_height_classification(canonical_specs):
    t0 = time.perf_counter()
    spec = canonical_specs["nonstrong-r-heights"]
    result = lq.classify(spec, 1.0)
    for lab in (1, 2):
        assert result.tags[lab].kind == "polynomial" and result.tags[lab].order == 1
    for lab in (5, 6):
        assert result.tags[lab].kind == "polynomial" and result.tags[lab].order == 2
    for lab in (3, 4, 7, 8, 9, 10, 11, 12):
        assert result.tags[lab].kind == "decays_to_zero"
    heights = sorted(result.heights[ci] for ci in result.basic_classes)
    assert heights == [2, 3]
    _report(
        "criterion 7",
        "symmetric heights family: orders (1,2) on cells (1,2)/(5,6), rest decay; "
        "attaining classes of heights 2 and 3",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_8_lattice_detection():
    t0 = time.perf_counter()
    commensurable = FamilyParams("strong-r", rho=0.125, r=0.25, probs=default_probs("strong-r"))
    spec = lq.build_matrix_spec(commensurable)
    deco = lq.communication_classes(spec)
    verdict = lq.lattice_check(spec, deco.classes[0])
    assert verdict.lattice
    assert verdict.span == pytest.approx(math.log(2.0), rel=1e-12)

    generic = FamilyParams(
        "strong-r", rho=1.0 / 3.0, r=2.0 / 7.0, probs=default_probs("strong-r")
    )
    spec2 = lq.build_matrix_spec(generic)
    deco2 = lq.communication_classes(spec2)
    verdict2 = lq.lattice_check(spec2, deco2.classes[0])
    assert not verdict2.lattice
    _report(
        "criterion 8",
        f"(1/8,1/4) -> lattice span {verdict.span:.6f}; (1/3,2/7) -> non-lattice",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_9_irreducibility_iff_strong_connectedness(canonical_specs):
    t0 = time.perf_counter()
    for fid in lq.FAMILY_IDS:
        g = lq.build_example(lq.canonical_params(fid))
        deco = lq.communication_classes(canonical_specs[fid])
        irreducible = deco.num_classes == 1 and not deco.degenerate[0]
        assert irreducible == (len(vertex_components(g)) == 1)
    _report(
        "criterion 9",
        "support irreducible exactly for the strongly connected families",
        time.perf_counter() - t0,
        1.0,
    )
