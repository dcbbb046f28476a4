"""Monte Carlo sampler and box-counting estimator."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import lqspec as lq
from lqspec import empirical
from lqspec.empirical import CHUNK_SIZE, fit_to_csv
from lqspec.gifs import similitude_2d
from conftest import assert_valid_gifs
from partition_oracle import oracle_box_counts, oracle_partition_sum
from sampler_oracle import oracle_sample


def _strong_r_gifs():
    return lq.build_example(lq.canonical_params("strong-r"))


# -- sampling ----------------------------------------------------------------

def test_single_self_loop_one_step():
    m = lq.Similitude(1, 0.5, np.eye(1), np.zeros(1))
    g = lq.Gifs(1, 1, (lq.Edge("a", 0, 0, m, 1.0),), anchor=(0.5,), bbox=((0.0, 1.0),))
    cloud = lq.sample(g, 100, seed=0, depth_eps=0.5)
    # ratio reaches the threshold after one application: every point is S(0.5)
    assert np.allclose(cloud.points, 0.25)


def test_empty_cloud():
    cloud = lq.sample(_strong_r_gifs(), 0, seed=0)
    assert len(cloud) == 0


def test_sampling_deterministic():
    g = _strong_r_gifs()
    a = lq.sample(g, 10_000, seed=42)
    b = lq.sample(g, 10_000, seed=42)
    assert np.array_equal(a.points, b.points)
    c = lq.sample(g, 10_000, seed=43)
    assert not np.array_equal(a.points, c.points)


# -- the walker against the per-vertex, per-edge reference --------------------

def _assert_matches_oracle(g, n, seed):
    cloud = lq.sample(g, n, seed=seed)
    points, vertices = oracle_sample(g, n, seed)
    # both are vertex-major, n points per vertex
    assert np.array_equal(vertices, np.repeat(np.arange(g.num_vertices), n))
    if g.dim == 1:
        assert np.array_equal(cloud.points, points)
    else:
        assert np.max(np.abs(cloud.points - points)) <= 1e-15


@pytest.mark.parametrize("seed", [1, 42, 2024])
@pytest.mark.parametrize("family", lq.FAMILY_IDS)
def test_sample_matches_oracle(family, seed):
    # one full chunk and one partial chunk from every vertex
    g = lq.build_example(lq.canonical_params(family))
    _assert_matches_oracle(g, CHUNK_SIZE + 1000, seed)


def _reflection_gifs():
    # orthogonal parts -1 on two edges, one of them changing vertex
    def sim(ratio, orth, t):
        return lq.Similitude(1, ratio, np.array([[orth]]), np.array([t]))

    edges = (
        lq.Edge("a", 0, 0, sim(1 / 3, -1.0, 1 / 3), 0.5),
        lq.Edge("b", 0, 1, sim(0.5, 1.0, 0.5), 0.5),
        lq.Edge("c", 1, 0, sim(0.4, -1.0, 1.0), 0.3),
        lq.Edge("d", 1, 1, sim(0.25, 1.0, 0.0), 0.7),
    )
    return lq.Gifs(2, 1, edges)


def _rotation_gifs(angle):
    edges = (
        lq.Edge("a", 0, 0, similitude_2d(0.5, (0.5, 0.1), angle), 0.4),
        lq.Edge("b", 0, 1, similitude_2d(0.3, (0.0, 0.6)), 0.6),
        lq.Edge("c", 1, 0, similitude_2d(0.45, (0.2, 0.3), angle), 1.0),
    )
    return lq.Gifs(2, 2, edges)


@pytest.mark.parametrize("seed", [1, 42, 2024])
def test_reflection_matches_oracle(seed):
    g = _reflection_gifs()
    assert_valid_gifs(g)
    _assert_matches_oracle(g, CHUNK_SIZE + 77, seed)


@pytest.mark.parametrize("seed", [1, 42, 2024])
def test_rotation_by_third_turn_matches_oracle(seed):
    g = _rotation_gifs(2 * math.pi / 3)
    assert_valid_gifs(g)
    # the closure identifies R^3 with I: three orientations, not a growing list
    assert empirical._walk_tables(g).anchor.shape[1] == 3
    _assert_matches_oracle(g, CHUNK_SIZE + 77, seed)


def test_infinite_orientation_group_raises(monkeypatch):
    monkeypatch.setattr(empirical, "_walk_chunk", _no_walks)
    g = _rotation_gifs(1.0)  # a rotation by one radian has infinite order
    with pytest.raises(lq.SamplerBound, match=str(empirical.MAX_ORIENTATIONS)):
        lq.sample(g, 10, seed=0)


def test_sampler_table_bounds(monkeypatch):
    monkeypatch.setattr(empirical, "_walk_chunk", _no_walks)
    loop = lq.Similitude(1, 0.5, np.eye(1), np.zeros(1))
    n = empirical.MAX_VERTICES + 1
    g = lq.Gifs(n, 1, tuple(lq.Edge(f"e{v}", v, v, loop, 1.0) for v in range(n)))
    with pytest.raises(lq.SamplerBound, match=str(empirical.MAX_VERTICES)):
        lq.sample(g, 10, seed=0)
    # a vertex without outgoing edges would otherwise borrow another vertex's edges
    g = lq.Gifs(2, 1, (lq.Edge("a", 0, 1, loop, 1.0),))
    with pytest.raises(ValueError, match="vertex 2 has no outgoing edge"):
        lq.sample(g, 10, seed=0)


def _no_walks(*args, **kwargs):
    raise AssertionError("a walk started")


@pytest.mark.parametrize("depth_eps", [-1.0, 0.0, math.nan, 1.0, 1.5])
def test_depth_eps_outside_unit_interval_rejected(monkeypatch, depth_eps):
    # -1 would never stop; the check must come before any walk starts
    monkeypatch.setattr(empirical, "_walk_chunk", _no_walks)
    with pytest.raises(lq.InvalidParams, match="depth_eps"):
        lq.sample(_strong_r_gifs(), 10, seed=0, depth_eps=depth_eps)


def test_negative_seed_rejected(monkeypatch):
    monkeypatch.setattr(empirical, "_walk_chunk", _no_walks)
    with pytest.raises(lq.InvalidParams, match="seed"):
        lq.sample(_strong_r_gifs(), 10, seed=-1)


def test_points_within_bbox():
    for fid in lq.FAMILY_IDS:
        g = lq.build_example(lq.canonical_params(fid))
        cloud = lq.sample(g, 2000, seed=5)
        eps = cloud.depth_eps
        for d, (lo, hi) in enumerate(g.bbox):
            assert cloud.points[:, d].min() >= lo - eps
            assert cloud.points[:, d].max() <= hi + eps


def test_sample_means_match_fixed_point():
    # the vertex measures' means solve m_i = sum_e p_e (rho_e R_e m_j + b_e);
    # a biased walk scheme (e.g. double-stepping on vertex changes) breaks
    # this at many sigma
    for fid in ("strong-r2", "strong-r", "nonstrong-r2"):
        g = lq.build_example(lq.canonical_params(fid))
        d = g.dim
        n = g.num_vertices * d
        A = np.zeros((n, n))
        b = np.zeros(n)
        for e in g.edges:
            i, j = e.src, e.dst
            A[d * i : d * i + d, d * j : d * j + d] += e.prob * e.map.ratio * e.map.orthogonal
            b[d * i : d * i + d] += e.prob * e.map.translation
        exact = np.linalg.solve(np.eye(n) - A, b)
        cloud = lq.sample(g, 200_000, seed=11)
        for v in range(g.num_vertices):
            got = cloud.points[v * 200_000 : (v + 1) * 200_000].mean(axis=0)
            assert np.max(np.abs(got - exact[d * v : d * v + d])) < 5e-3


def test_source_vertices_balanced():
    g = _strong_r_gifs()
    cloud = lq.sample(g, 500, seed=1)
    points, vertices = oracle_sample(g, 500, seed=1)
    # vertex v's 500 points are the slice points[500 v : 500 (v + 1)]
    assert len(cloud) == 1000
    for v in range(2):
        assert np.array_equal(cloud.points[500 * v : 500 * (v + 1)], points[vertices == v])


# -- partition sums ----------------------------------------------------------

def test_partition_q1_mass_exact():
    cloud = lq.sample(_strong_r_gifs(), 5000, seed=3)
    got = lq.partition_sum(cloud, [0.25, 0.03, 0.004], 1.0, total_mass=2.0)
    assert got == [math.log(2.0)] * 3


def test_partition_q0_counts_boxes():
    cloud = lq.sample(_strong_r_gifs(), 5000, seed=3)
    (log_s0,) = lq.partition_sum(cloud, [0.125], 0.0, total_mass=2.0)
    boxes = round(math.exp(log_s0))
    assert log_s0 == math.log(boxes)
    assert 1 <= boxes <= 16


def test_partition_single_box():
    pts = np.full((50, 1), 0.3)
    cloud = lq.SampleCloud(
        points=pts,
        depth_eps=1e-9,
        grid_anchor=(0.0,),
    )
    assert lq.partition_sum(cloud, [1.0], 2.0, total_mass=2.0) == [pytest.approx(math.log(4.0))]


def test_partition_normalized_nonincreasing_in_q():
    cloud = lq.sample(_strong_r_gifs(), 20000, seed=9)
    by_q = [
        lq.partition_sum(cloud, [0.06, 0.01], q, total_mass=1.0) for q in (0.0, 0.5, 1.0, 2.0, 4.0)
    ]
    for vals in zip(*by_q):
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


_DYADIC = [2.0**-k for k in range(4, 12)]
_SCALE_LISTS = {
    "dyadic": _DYADIC,
    "dyadic-shuffled": [_DYADIC[i] for i in (3, 7, 0, 5, 1, 6, 2, 4)],
    "non-dyadic": [0.1, 0.07, 0.03, 0.013],
    # finest first: 2^-10, 0.004 and 0.0125 (listed twice) bin the points;
    # 0.025 and 0.1 come from the boxes before them (x2, x4); 0.125 bins the
    # points again and 0.5 is x4 of it
    "mixed": [0.1, 0.0125, 0.025, 2.0**-10, 0.004, 0.125, 0.0125, 0.5],
}


def _cloud_below_anchor(dim):
    # points a hair below the anchor have key -1 at every scale, so their
    # box stays apart from box 0 only if the coarser keys are floored
    rng = np.random.default_rng(5)
    pts = np.concatenate([rng.uniform(0.0, 0.3, (200, dim)), np.full((7, dim), -1e-12)])
    pts[:3, 0] = -1e-12
    return lq.SampleCloud(points=pts, depth_eps=1e-9, grid_anchor=(0.0,) * dim)


@pytest.fixture(scope="module")
def clouds():
    return {
        "1d": lq.sample(_strong_r_gifs(), 5000, seed=3),
        "2d": lq.sample(lq.build_example(lq.canonical_params("strong-r2")), 3000, seed=3),
        "1d-below-anchor": _cloud_below_anchor(1),
        "2d-below-anchor": _cloud_below_anchor(2),
    }


@pytest.mark.parametrize("scales", _SCALE_LISTS)
@pytest.mark.parametrize("cloud_id", ["1d", "2d", "1d-below-anchor", "2d-below-anchor"])
def test_partition_sum_matches_oracle(clouds, cloud_id, scales):
    cloud, hs = clouds[cloud_id], _SCALE_LISTS[scales]
    for got, h in zip(empirical._box_counts(cloud.points, cloud.grid_anchor, hs), hs):
        assert np.array_equal(got, oracle_box_counts(cloud, h))
    for q in (0.0, 0.5, 1.0, 2.0, 3.7, -1.5):
        got = lq.partition_sum(cloud, hs, q, total_mass=3.0)
        want = [math.log(oracle_partition_sum(cloud, h, q, total_mass=3.0)) for h in hs]
        # the log is summed in another arrangement: a few ulps of its size
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("q", [2.0, 60.0, 200.0, 1000.0, -60.0, -200.0])
def test_partition_sum_large_q_matches_exact_rational_sums(q):
    # S_q = M^q sum c^q / n^q with sum c^q an exact rational: no overflow,
    # no rounding before the final logs
    cloud = lq.sample(_strong_r_gifs(), 20_000, seed=1)
    hs = [2.0**-k for k in range(4, 12)]
    got = lq.partition_sum(cloud, hs, q, total_mass=2.0)
    assert all(math.isfinite(s) for s in got)
    for log_s, h in zip(got, hs):
        counts = oracle_box_counts(cloud, h)
        exact = sum(Fraction(int(c)) ** int(q) for c in counts)
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        want = q * math.log(2.0) + log_exact - q * math.log(len(cloud))
        assert abs(log_s - want) <= 1e-14 * (1.0 + abs(want))


# -- estimator -----------------------------------------------------------------

def test_estimate_insufficient_scales():
    g = _strong_r_gifs()
    with pytest.raises(lq.InsufficientScales):
        lq.estimate_tau(g, 1.0, [0.1, 0.05], 100, seed=0)
    with pytest.raises(lq.InsufficientScales):
        lq.estimate_tau(g, 1.0, [0.1, 0.09, 0.08], 100, seed=0)
    with pytest.raises(lq.InsufficientScales, match="distinct"):
        lq.estimate_tau(g, 1.0, [0.0625, 0.0625, 0.015625], 100, seed=0)


@pytest.mark.parametrize(
    "scales", [[0.0, 0.1, 0.01], [-0.1, 0.05, 0.01], [0.1, math.nan, 0.01], [0.1, math.inf, 0.01]]
)
def test_estimate_rejects_nonpositive_or_nonfinite_scales(monkeypatch, scales):
    monkeypatch.setattr(empirical, "_walk_chunk", _no_walks)
    with pytest.raises(lq.InvalidParams, match="scales"):
        lq.estimate_tau(_strong_r_gifs(), 1.0, scales, 100, seed=0)


def test_estimate_slope_zero_at_q1():
    g = _strong_r_gifs()
    fit = lq.estimate_tau(g, 1.0, [2.0**-k for k in range(4, 10)], 20_000, seed=11)
    assert abs(fit.slope) <= 0.02


def test_estimate_reuses_cloud():
    g = _strong_r_gifs()
    cloud = lq.sample(g, 50_000, seed=21)
    scales = [2.0**-k for k in range(4, 10)]
    f1 = lq.estimate_tau(g, 2.0, scales, 50_000, seed=21, cloud=cloud)
    f2 = lq.estimate_tau(g, 2.0, scales, 50_000, seed=21)
    assert f1.slope == f2.slope


def test_estimate_tracks_solver_smoke():
    # small-N smoke check; the tight tolerance run lives in the acceptance suite
    p = lq.canonical_params("strong-r")
    g = lq.build_example(p)
    spec = lq.build_matrix_spec(p)
    fit = lq.estimate_tau(g, 2.0, [2.0**-k for k in range(4, 11)], 100_000, seed=42)
    alpha, _ = lq.tau(spec, 2.0)
    assert abs(fit.slope - alpha) <= 0.1


# -- exports ---------------------------------------------------------------------

def test_fit_csv_roundtrip():
    g = _strong_r_gifs()
    fit = lq.estimate_tau(g, 0.5, [2.0**-k for k in range(4, 9)], 5000, seed=4)
    lines = fit_to_csv(fit).strip().split("\n")
    assert lines[0] == "h,log_S_q"
    for line, h, s in zip(lines[1:], fit.scales, fit.log_sums):
        sh, ss = line.split(",")
        assert float(sh) == h
        assert float(ss) == s
