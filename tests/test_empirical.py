"""Monte Carlo sampler and box-counting estimator."""

from __future__ import annotations

import dataclasses
import math
import re
import signal
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

import lqspec as lq
from lqspec import empirical
from lqspec.empirical import CHUNK_SIZE, DEFAULT_SCALES, SCALE_FLOOR, fit_to_csv
from lqspec.gifs import similitude_2d
from conftest import assert_valid_gifs
from partition_oracle import morton_boxes, oracle_box_counts, oracle_boxes, oracle_partition_sum
from sampler_oracle import (
    _box,
    _move,
    continue_walks,
    cylinder_table,
    leaf_groups,
    oracle_sample,
    path_edges,
    path_tables,
    stops,
    vertex_boxes,
)


def _strong_r_gifs():
    return lq.build_example(lq.canonical_params("strong-r"))


# -- sampling ----------------------------------------------------------------

def test_single_self_loop_one_step(monkeypatch):
    m = lq.Similitude(1, 0.5, np.eye(1), np.zeros(1))
    g = lq.Gifs(1, 1, (lq.Edge("a", 0, 0, m, 1.0),), bbox=((0.0, 1.0),))
    # the attractor is the fixed point 0: its box is a hair wide, so one
    # application of the map fits it into one box of every grid; the table's
    # one leaf is terminal, and a walk that draws a terminal leaf draws no
    # raw word
    cloud, words, depth = _sample_counting_draws(monkeypatch, g, 100, seed=0)
    assert words == 0.0 and depth == 1.0
    centres, weights = cloud._ended
    assert cloud._swept.shape == (1, 0) and weights.tolist() == [100]
    assert np.all(np.abs(centres) <= 1e-25)


def test_empty_cloud(monkeypatch):
    monkeypatch.setattr(empirical, "ThreadPoolExecutor", _no_pool)
    for g in (_strong_r_gifs(), lq.build_example(lq.canonical_params("strong-r2"))):
        cloud = lq.sample(g, 0, seed=0)
        assert len(cloud) == 0 and cloud._ended is None and cloud._swept.shape == (g.dim, 0)
        assert lq.partition_sum(cloud, DEFAULT_SCALES, 2.0, 1.0) == [-math.inf] * 8


def _no_pool(*args, **kwargs):
    raise AssertionError("a thread pool started")


def _sample_drawing(monkeypatch, g, n_per_vertex, seed, scales=DEFAULT_SCALES):
    """The cloud and, per vertex, the table its walks drew from and the
    counts of its groups and open leaves that _leaf_counts drew, each keyed
    by the vertex of the stream it drew on, whichever worker drew it."""
    count, drawn = empirical._leaf_counts, {}

    def spy(start, n, rng):
        counts = count(start, n, rng)
        drawn[rng.bit_generator.seed_seq.spawn_key[0]] = start, counts
        return counts

    with monkeypatch.context() as m:
        m.setattr(empirical, "_leaf_counts", spy)
        cloud = lq.sample(g, n_per_vertex, seed, scales=scales)
    return cloud, [drawn[v] for v in range(g.num_vertices)]


def _swept_by_vertex(cloud, drawn):
    """cloud._swept cut into each vertex's swept points, (d, m_v) each."""
    going = [int(counts[start.point.shape[1]:].sum()) for start, counts in drawn]
    assert cloud._swept.shape[1] == sum(going)
    return np.split(cloud._swept, np.cumsum(going)[:-1], axis=1)


class _CountingRng:
    """Passes random_raw through to rng's bit generator and counts the words."""

    def __init__(self, rng):
        self._raw = rng.bit_generator.random_raw
        self.bit_generator = self
        self.words = 0

    def random_raw(self, n):
        self.words += n
        return self._raw(n)


def _sample_counting_draws(monkeypatch, g, n_per_vertex, seed, scales=DEFAULT_SCALES):
    """The cloud, the mean number of raw words its walks drew, and their mean
    depth: the edge count of the leaf each walk drew, read from the
    oracle's table of its vertex (equal to the sampler's leaf for leaf),
    plus the k edges of a path for each word a sweep drew.  A walk in a
    group counts at the mean edge count of the group's leaves, each leaf
    weighted by its key width, the expected edge count of the walk's leaf.
    The counts of the groups and open leaves come from one multinomial per
    vertex, which draws no word for any walk."""
    k = path_edges(g)
    boxes, origin = vertex_boxes(g), np.array([lo for lo, _ in g.bbox])
    depths = []  # per vertex, the mean edge count of each group, then of each open leaf
    for v in range(g.num_vertices):
        table = cylinder_table(g, v, scales)
        depth = np.array([len(edges) for edges, _ in table[0]], dtype=float)
        width = np.diff(table[1], prepend=0).astype(float)
        groups = leaf_groups(table, boxes, origin, scales)
        opened = [i for i, (_, terminal) in enumerate(table[0]) if not terminal]
        # a group of zero width draws no walk
        depths.append([depth[group] @ width[group] / max(width[group].sum(), 1.0)
                       for group in groups] + depth[opened].tolist())
    walk, words = empirical._walk_chunk, []

    def counting(paths, start, counts, out, rng, *rest):
        rng = _CountingRng(rng)
        walk(paths, start, counts, out, rng, *rest)
        words.append(rng.words)

    monkeypatch.setattr(empirical, "_walk_chunk", counting)
    cloud, drawn = _sample_drawing(monkeypatch, g, n_per_vertex, seed, scales)
    edges = sum(np.array(depth) @ counts for depth, (_, counts) in zip(depths, drawn))
    return cloud, sum(words) / len(cloud), (edges + sum(words) * k) / len(cloud)


def _same_cloud(a, b):
    """Whether clouds a and b hold the same counted groups and swept points."""
    ends = [() if c._ended is None else c._ended for c in (a, b)]
    return (len(a) == len(b) and np.array_equal(a._swept, b._swept)
            and len(ends[0]) == len(ends[1]) and all(map(np.array_equal, *ends)))


def test_sampling_deterministic(monkeypatch):
    g = _strong_r_gifs()
    a, drawn_a = _sample_drawing(monkeypatch, g, 10_000, seed=42)
    b, drawn_b = _sample_drawing(monkeypatch, g, 10_000, seed=42)
    assert _same_cloud(a, b)
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(drawn_a, drawn_b))
    c = lq.sample(g, 10_000, seed=43)
    assert not _same_cloud(a, c)


def test_raw_draws_give_the_uniform_draws_integers():
    # The walker keys its edge lookup on raw words shifted right by 11 while
    # still unsigned; rng.random() returns exactly that integer over 2^53,
    # word for word, on the sampler's per-(seed, vertex, chunk) streams.
    for seed, v, c in ((42, 0, 0), (1, 3, 7), (2024, 1, 2)):
        uniform = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(v, c)))
        raw = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(v, c)))
        for n in (1000, 517, 1, 4096):  # shrinking sweeps, as walks finish
            k = raw.bit_generator.random_raw(n)
            k >>= empirical._RAW_SHIFT
            k = k.view(np.int64)
            assert k.min() >= 0 and k.max() < 2**53
            assert np.array_equal(k, (uniform.random(n) * 2.0**53).astype(np.int64))


# -- the walker against the per-vertex, per-edge reference --------------------

def _assert_matches_oracle(monkeypatch, g, n, seed, scales=DEFAULT_SCALES):
    """Sample g and check the cloud against the oracle's walks: each
    vertex's counts of its groups and open leaves, its groups' centres
    against the oracle's first-leaf centres, the swept points, and the box
    counts against those of the oracle's points, at every side.  Returns
    the cloud, its per-vertex draws (_sample_drawing), and the oracle's
    points and final walk states."""
    cloud, drawn = _sample_drawing(monkeypatch, g, n, seed, scales)
    points, vertices, state, counted = oracle_sample(g, n, seed, scales)
    # both are vertex-major, n walks per vertex
    assert np.array_equal(vertices, np.repeat(np.arange(g.num_vertices), n))
    assert len(cloud) == len(points) == n * g.num_vertices
    tol = 0.0 if g.dim == 1 else 1e-15  # 1-D: exact, every orthogonal part is +-1
    swept = _swept_by_vertex(cloud, drawn)
    for v, ((start, counts), (want_counts, centres), got) in enumerate(zip(drawn, counted, swept)):
        assert np.array_equal(counts, want_counts), v
        assert np.max(np.abs(start.point.T - centres), initial=0.0) <= tol, v
        # vertex v's swept walks are the last of its n
        want = points[n * (v + 1) - got.shape[1] : n * (v + 1)]
        assert np.max(np.abs(got.T - want), initial=0.0) <= tol, v
    _assert_counts_the_boxes_of(cloud, points, scales)
    return cloud, drawn, (points, state)


def _assert_counts_the_boxes_of(cloud, points, hs):
    """The cloud's boxes and counts at every side in hs are those of the
    (n, d) points."""
    if not len(points):
        assert len(cloud) == 0
        return
    hs, anchor = list(hs), cloud.grid_anchor
    seen = []
    for i, codes, counts in empirical._box_counts(cloud, hs):
        assert np.all(codes[1:] > codes[:-1])  # distinct and ascending
        got = morton_boxes(codes, counts, len(anchor))
        want = oracle_boxes(points, anchor, hs[i])
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), hs[i]
        seen.append(i)
    assert sorted(seen) == list(range(len(hs)))


@pytest.mark.parametrize("seed", [1, 42, 2024])
@pytest.mark.parametrize("family", lq.FAMILY_IDS)
def test_sample_matches_oracle(monkeypatch, family, seed):
    # one full chunk and one partial chunk from every vertex
    g = lq.build_example(lq.canonical_params(family))
    _assert_matches_oracle(monkeypatch, g, CHUNK_SIZE + 1000, seed)


@pytest.mark.parametrize("family", lq.FAMILY_IDS)
def test_points_do_not_depend_on_the_worker_count(monkeypatch, family):
    # full chunks and a partial one from every vertex
    g = lq.build_example(lq.canonical_params(family))
    clouds = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(empirical, "_worker_count", lambda n_jobs: workers)
        clouds.append(_sample_drawing(monkeypatch, g, CHUNK_SIZE + 77, seed=5))
        # coordinate-major: box counting reads each coordinate contiguously
        assert clouds[-1][0]._swept.flags.c_contiguous
    for cloud, drawn in clouds[1:]:
        assert _same_cloud(clouds[0][0], cloud)
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(clouds[0][1], drawn))


class _Interrupt(Exception):
    pass


@pytest.mark.parametrize("failure", ["chunk raises", "caller interrupted"])
def test_failure_cancels_queued_chunks(monkeypatch, failure):
    # Chunk 0 raises, or a timer interrupts the caller as a deadline would;
    # either way the queued chunks must not run, and no worker may outlive
    # the call.  Every leaf of strong-r2's tables is open, so every walk
    # sweeps and every chunk is a job on the pool.
    if failure == "caller interrupted" and not hasattr(signal, "setitimer"):
        pytest.skip("needs signal.setitimer")
    calls = []
    lock = threading.Lock()

    def sweep(paths, start, counts, out, rng, grids):
        if failure == "chunk raises" and rng.bit_generator.seed_seq.spawn_key == (0, 0):
            raise _Interrupt("chunk 0")
        with lock:
            calls.append(out.shape[1])
        time.sleep(0.02)

    def interrupt(signum, frame):
        raise _Interrupt("timer")

    monkeypatch.setattr(empirical, "_walk_chunk", sweep)
    monkeypatch.setattr(empirical, "_worker_count", lambda n_jobs: 2)
    g = lq.build_example(lq.canonical_params("strong-r2"))
    n_chunks = 40
    jobs = g.num_vertices * n_chunks
    baseline = threading.active_count()
    if failure == "caller interrupted":
        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.05)
    try:
        with pytest.raises(_Interrupt, match="chunk 0" if failure == "chunk raises" else "timer"):
            lq.sample(g, n_chunks * CHUNK_SIZE, seed=0)
    finally:
        if failure == "caller interrupted":
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert len(calls) < jobs // 4
    assert threading.active_count() == baseline


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
def test_reflection_matches_oracle(monkeypatch, seed):
    g = _reflection_gifs()
    assert_valid_gifs(g)
    _assert_matches_oracle(monkeypatch, g, CHUNK_SIZE + 77, seed)


@pytest.mark.parametrize("seed", [1, 42, 2024])
def test_rotation_by_third_turn_matches_oracle(monkeypatch, seed):
    g = _rotation_gifs(2 * math.pi / 3)
    assert_valid_gifs(g)
    # the closure identifies R^3 with I: three orientations, not a growing list
    assert len(empirical._walk_tables(g).mul) == 3 * len(g.edges)
    _assert_matches_oracle(monkeypatch, g, CHUNK_SIZE + 77, seed)


def _two_boxes_gifs():
    # vertex 0 lives in [0, 1] and vertex 1 in [2, 3]: a point between them,
    # such as the bounding box's centre 1.5, lies in neither vertex's box
    def sim(ratio, t):
        return lq.Similitude(1, ratio, np.eye(1), np.array([t]))

    edges = (
        lq.Edge("a", 0, 0, sim(1 / 3, 0.0), 0.5),
        lq.Edge("b", 0, 1, sim(1 / 3, -1 / 3), 0.5),
        lq.Edge("c", 1, 1, sim(0.5, 1.0), 0.6),
        lq.Edge("d", 1, 0, sim(0.5, 2.5), 0.4),
    )
    return lq.Gifs(2, 1, edges, bbox=((0.0, 3.0),))


def _canonical(family):
    return lambda: lq.build_example(lq.canonical_params(family))


_EXACTNESS_CASES = {
    **{family: (_canonical(family), DEFAULT_SCALES) for family in lq.FAMILY_IDS},
    # no side is a power-of-two multiple of the one below it, so each grid is
    # tested: here sides that are integer multiples of the finest side
    "nonstrong-r2-non-nested": (_canonical("nonstrong-r2"), (0.1, 0.05, 0.03, 0.01)),
    # and here sides that are not
    "strong-r2-incommensurable": (_canonical("strong-r2"), (0.1, 0.07, 0.03, 0.013)),
    "two-boxes": (_two_boxes_gifs, DEFAULT_SCALES),
    "third-turn": (lambda: _rotation_gifs(2 * math.pi / 3), DEFAULT_SCALES),
}


@pytest.mark.parametrize("case", _EXACTNESS_CASES)
def test_each_point_has_the_boxes_of_its_walk_run_to_the_floor(monkeypatch, case):
    # a walk stops once its cylinder fits one box of every grid, so going on
    # to a contraction of 1e-12 with fresh draws never leaves those boxes:
    # the oracle's walks, which the cloud matches (_assert_matches_oracle),
    # keep their boxes walk by walk, and the cloud counts the boxes of the
    # walks run to the floor
    make, scales = _EXACTNESS_CASES[case]
    g = make()
    cloud, _, (points, state) = _assert_matches_oracle(monkeypatch, g, 3000, 7, scales)
    deeper = continue_walks(g, state, np.random.default_rng(99))
    assert np.max(np.abs(deeper - points)) > 0.0
    origin = np.array(cloud.grid_anchor)
    for h in scales:
        keys = np.floor((points - origin) / h)
        assert np.array_equal(np.floor((deeper - origin) / h), keys), h
    _assert_counts_the_boxes_of(cloud, deeper, scales)


def test_walks_that_keep_straddling_a_line_end_at_the_floor(monkeypatch):
    # Lebesgue measure on [0, 1]: the box at depth k is a dyadic interval of
    # width 2^-k, which straddles a line of the side-1e-11 grid with
    # probability about 2^-k / 1e-11.  The table stops at the 2^12 open
    # leaves of twelve edges and a sweep takes the 2^8 paths of eight, so
    # walks are tested at depths 20, 28, 36 and 44.  Up to depth 36 every box
    # is wider than a side; at 44 the scale is below the floor, so every walk
    # ends there, and the 2^-44 / 1e-11 = 0.57% (11.4 expected) whose boxes
    # straddle a line end by the floor alone
    def half(t):
        return lq.Similitude(1, 0.5, np.eye(1), np.array([t]))

    g = lq.Gifs(1, 1, (lq.Edge("a", 0, 0, half(0.0), 0.5), lq.Edge("b", 0, 0, half(0.5), 0.5)))
    (start,) = _starts(g, [1e-11])
    assert start.levels == 12 and path_edges(g) == 8
    cloud, _, (points, (_, scale, _, _)) = _assert_matches_oracle(monkeypatch, g, 2000, 0, [1e-11])
    assert cloud._ended is None and np.array_equal(cloud._swept.T, points)
    assert np.all(scale == 2.0**-44) and 2.0**-44 <= SCALE_FLOOR < 2.0**-36
    u, w = points[:, 0] / 1e-11, 2.0**-45 / 1e-11  # each box is its point +- w, in sides
    assert 2 <= np.count_nonzero(u + w > np.floor(u - w) + 1.0) <= 30


# Mean depths at seeds 1-3: 7.7 (1-D), 11.07-11.09 (strong-r2) and
# 10.20-10.21 (nonstrong-r2).  A 2-D walk goes on from the six-edge leaves
# k = 4 edges per sweep, so it stops up to 3 edges deeper than the 10.0 and
# 8.3 edges at which edge-by-edge sweeps stopped.  Walks run until their
# contraction fell below 1e-9 took 17.9 to 22.0 edges.
_MAX_DEPTH = {"strong-r2": 11.2, "nonstrong-r2": 10.4}


@pytest.mark.parametrize("family", lq.FAMILY_IDS)
def test_walks_stop_at_the_depth_the_box_counts_see(monkeypatch, family):
    g = lq.build_example(lq.canonical_params(family))
    _, _, depth = _sample_counting_draws(monkeypatch, g, 20_000, seed=1)
    assert depth <= _MAX_DEPTH.get(family, 8.0)


# raw words per point: none for the leaf of the table of stopped cylinders,
# whose counts one multinomial per vertex draws, then one per k-edge path
# after an open leaf.  Measured at seeds 1-3: 0 to 7e-5 (1-D), 1.267-1.269
# (strong-r2) and 1.050-1.051 (nonstrong-r2); the bounds leave 0.03 words
# above the largest.  One raw word per walk for its leaf took one more word
# on every family, one word per edge after an open leaf 5.02 and 3.27,
# drawing every edge 7.7 to 10.0, and a k-edge prefix alone 2.71 to 5.02.
_MAX_WORDS = {"strong-r2": 1.30, "nonstrong-r2": 1.08}


@pytest.mark.parametrize("family", lq.FAMILY_IDS)
def test_first_edges_drawn_as_one_path(monkeypatch, family):
    g = lq.build_example(lq.canonical_params(family))
    _, words, _ = _sample_counting_draws(monkeypatch, g, 20_000, seed=1)
    assert words <= _MAX_WORDS.get(family, 0.01)


def _starts(g, scales):
    """The table of stopped cylinders from each vertex of g."""
    tables = empirical._walk_tables(g)
    grids = empirical._tested_grids(empirical._resolvable_sides(g, scales))
    return [empirical._start(tables, grids, v) for v in range(g.num_vertices)]


_TABLE_CASES = {
    **_EXACTNESS_CASES,
    # 4^14 paths from each vertex would stay unseen by every test; the level
    # bound stops the table at the 4^6 paths of six edges
    "strong-r2-to-2^-20": (_canonical("strong-r2"), tuple(2.0**-k for k in range(4, 21))),
    # the level bound stops the table before any leaf ends: 3^7 open leaves
    # on vertices 1-5
    "nonstrong-r-heights-to-2^-16": (
        _canonical("nonstrong-r-heights"), tuple(2.0**-k for k in range(4, 17))
    ),
    # no side is a power-of-two multiple of another: groups are keyed on four grids
    "nonstrong-r-heights-four-grids": (
        _canonical("nonstrong-r-heights"), (0.05, 0.03, 0.0125, 0.01)
    ),
}


def _tables_and_oracle(case):
    """g and, per start vertex, the sampler's table, the oracle's table,
    whether the oracle's stop rule ends a walk at each of its leaves, with
    each leaf's box centre, and the oracle's groups of terminal leaves."""
    make, scales = _TABLE_CASES[case]
    g = make()
    boxes, origin = vertex_boxes(g), np.array([lo for lo, _ in g.bbox])
    out = []
    for v, start in enumerate(_starts(g, scales)):
        table = cylinder_table(g, v, scales)
        groups = leaf_groups(table, boxes, origin, scales)
        out.append((start, table, *stops(boxes, origin, scales, *table[2]), groups))
    return g, out


@pytest.mark.parametrize("case", _TABLE_CASES)
def test_path_keys_match_the_oracle(case):
    # the T terminal leaves, then the O open ones; the draw's categories are
    # the oracle's groups, each with the integer sum of its leaves' key
    # widths, then the open leaves
    _, starts = _tables_and_oracle(case)
    for start, (leaves, keys, _), _, _, groups in starts:
        assert np.all(np.diff(start.key) >= 0) and start.key[-1] == 2**53
        n_open = len(start.vkey)
        n_ended = len(leaves) - n_open
        assert [terminal for _, terminal in leaves] == [True] * n_ended + [False] * n_open
        width = np.diff(keys, prepend=0)
        grouped = [i for group in groups for i in group]
        assert sorted(grouped) == list(range(n_ended))
        assert start.point.shape[1] == len(groups)
        want = [int(width[group].sum()) for group in groups] + width[n_ended:].tolist()
        assert np.array_equal(start.key, np.cumsum(np.array(want, dtype=np.int64)))


@pytest.mark.parametrize("case", _TABLE_CASES)
def test_terminal_leaves_fit_every_grid(case):
    # a terminal leaf's box fits every tested grid, or its scale is at most
    # the floor; a group's point is the box centre of its first leaf
    _, starts = _tables_and_oracle(case)
    for start, _, fits, centre, groups in starts:
        grouped = [i for group in groups for i in group]
        assert np.all(fits[grouped])
        first = [group[0] for group in groups]
        assert np.max(np.abs(start.point - centre[first].T), initial=0.0) <= 1e-15


@pytest.mark.parametrize("case", _TABLE_CASES)
def test_each_group_is_the_terminal_leaves_of_one_box(case):
    # every leaf of a group (the oracle's, keyed by its box at every side)
    # lies in the box of the group's point at every side, so the sampler's
    # groups, keyed at the tested grids alone, are the oracle's; two groups
    # differ in the box of some tested grid
    g, starts = _tables_and_oracle(case)
    scales = _TABLE_CASES[case][1]
    origin = np.array([lo for lo, _ in g.bbox])[:, None]
    grids = empirical._tested_grids(empirical._resolvable_sides(g, scales))
    for start, (leaves, _, _), _, centre, groups in starts:
        n_ended, n_groups = len(leaves) - len(start.vkey), start.point.shape[1]
        assert n_groups == len(groups)
        group = np.repeat(np.arange(n_groups), [len(members) for members in groups])
        leaf = np.array([i for members in groups for i in members], dtype=np.int64)
        for sides in (grids, scales):
            box = np.concatenate([np.floor((centre[leaf].T - origin) / h) for h in sides])
            point_box = np.concatenate([np.floor((start.point - origin) / h) for h in sides])
            assert np.array_equal(box, point_box[:, group])
        box = np.concatenate([np.floor((start.point - origin) / h) for h in grids])
        assert len(set(map(tuple, box.T))) == n_groups
        if case == "nonstrong-r-heights-four-grids":
            assert len(grids) == 4 and n_groups < n_ended
        if case in ("strong-r2", "nonstrong-r2"):
            # one leaf per group: the 2-D families' draws keep their categories and stream
            assert n_groups == n_ended


@pytest.mark.parametrize("case", _TABLE_CASES)
def test_no_walk_can_end_inside_its_prefix(case):
    # a walk that draws an open leaf goes on from it: the leaf's box fits
    # not every grid and its scale is above the floor, and the table grew
    # until no leaf was open or one more level would break a node bound
    g, starts = _tables_and_oracle(case)
    for v, (start, (leaves, _, state), fits, _, _) in enumerate(starts):
        terminal = np.array([terminal for _, terminal in leaves], dtype=bool)
        assert np.count_nonzero(~terminal) == len(start.vkey)
        assert not np.any(fits[~terminal])
        assert np.array_equal(start.scale, state[1][~terminal])
        assert len(start.vkey) <= empirical.MAX_LEVEL_NODES
        assert len(terminal) <= empirical.MAX_TABLE_NODES
        n_next = sum(len(g.out_edges(w)) for w in state[0][~terminal])
        assert n_next == 0 or (
            n_next > empirical.MAX_LEVEL_NODES
            or np.count_nonzero(terminal) + n_next > empirical.MAX_TABLE_NODES
        )
        if case in ("strong-r2", "strong-r2-to-2^-20"):
            # the 4096 paths of six edges, all open, as a prefix drawn as one path
            assert start.levels == 6 and len(terminal) == 4096 and not np.any(terminal)
        if case == "nonstrong-r-heights-to-2^-16":
            # vertices 1-5 of the paper have 3 out-edges each, vertex 6 has 2
            assert len(terminal) == (3**7 if v < 5 else 3281) and not np.any(terminal)


@pytest.mark.parametrize("case", _TABLE_CASES)
def test_path_table_matches_edge_by_edge_composition(case):
    # each k-edge path that a sweep applies has the key, ratio, destination
    # and orientation of its edges composed one by one, and moves a walk in
    # every orientation as its composed map does: exactly where every
    # orthogonal part is +-1, and to rounding otherwise
    make, scales = _TABLE_CASES[case]
    g = make()
    paths = empirical._paths(empirical._walk_tables(g))
    orths = np.array([e.map.orthogonal for v in range(g.num_vertices) for e in g.out_edges(v)])
    rots, _ = empirical._orientation_group(orths)
    # a path composes k maps, each product rounding by up to two ulps of
    # the entries, all at most 1 here (third-turn: k = 8, at most 9 ulps seen)
    k = path_edges(g)
    tol = 0.0 if np.all(np.isin(orths, (-1.0, 0.0, 1.0))) else 2 * k * 2.0**-52
    grids = empirical._tested_grids(empirical._resolvable_sides(g, scales))
    boxes = vertex_boxes(g)
    want = path_tables(g)
    n = len(paths.ratio)
    assert len(paths.mul) == len(rots) * n
    t = np.linspace(0.1, -0.2, g.dim)
    for v, (cum, ratio, _, _, dst) in enumerate(want):
        first, last = paths.first_edge[v : v + 2]
        m = last - first
        assert m == len(cum)
        assert np.array_equal(paths.cum_key[first:last] - (v << 54), cum * 2.0**53)
        assert np.array_equal(paths.ratio[first:last], ratio)
        assert np.array_equal(paths.dst_key[first:last] >> 54, dst)
        for o, rot in enumerate(rots):
            # a walk at v in orientation o, at scale 0.37 and translation t,
            # moved along each path by the sampler and by the oracle
            state = (np.full(m, v), np.full(m, 0.37), np.tile(t, (m, 1)), np.tile(rot, (m, 1, 1)))
            scale, trans = state[1].copy(), state[2].T.copy()
            ge, vkey, orient = empirical._advance(paths, np.arange(first, last),
                                                  np.full(m, o * n), scale, trans)
            _, centre = empirical._stops(paths, grids, ge, scale, trans)
            half = paths.half.take(ge, axis=1) * scale
            _move(want, np.arange(m), np.arange(m), *state)
            assert np.array_equal(vkey >> 54, state[0]) and np.array_equal(scale, state[1])
            for got, expected in zip((trans.T, rots[orient // n], centre.T, half.T),
                                     (state[2], state[3], *_box(boxes, *state))):
                assert np.max(np.abs(got - expected), initial=0.0) <= tol


def _fan_and_cantor_gifs():
    # vertices 0 and 2 draw Cantor sets, whose tables grow until every leaf
    # ends; vertex 1 has 70 out-edges, so its second level would add 4900
    # leaves and its table stops at the first, while the others grow on
    def sim(ratio, t):
        return lq.Similitude(1, ratio, np.eye(1), np.array([t]))

    edges = (
        lq.Edge("a", 0, 0, sim(1 / 3, 0.0), 0.5),
        lq.Edge("b", 0, 0, sim(1 / 3, 2 / 3), 0.5),
        *(lq.Edge(f"f{i}", 1, 1, sim(1 / 70, i / 70), 1 / 70) for i in range(70)),
        lq.Edge("c", 2, 2, sim(0.25, 0.0), 0.3),
        lq.Edge("d", 2, 2, sim(0.25, 0.75), 0.7),
    )
    return lq.Gifs(3, 1, edges)


def test_a_table_stops_at_its_own_level_bound():
    # vertex 1 stops at its level bound with 70 open leaves; the Cantor
    # vertices 0 and 2 grow on until no leaf is open
    cantor, fan, cantor_4 = _starts(_fan_and_cantor_gifs(), DEFAULT_SCALES)
    assert fan.levels == 1 and len(fan.vkey) == 70 and fan.point.shape[1] == 0
    for start in (cantor, cantor_4):
        assert start.levels > 1 and len(start.vkey) == 0


def test_heights_vertices_share_two_tables(monkeypatch):
    # vertices 1-5 of the paper carry the same three maps and probabilities
    # into vertices of their own class; vertex 6 has two edges
    g = lq.build_example(lq.canonical_params("nonstrong-r-heights"))
    assert empirical._classes(g) == [0, 0, 0, 0, 0, 1]
    seen, start = [], empirical._start

    def spy(tables, grids, root):
        seen.append(root)
        return start(tables, grids, root)

    monkeypatch.setattr(empirical, "_start", spy)
    lq.sample(g, 1000, seed=0)
    assert seen == [0, 5]


def _loops_gifs(rows):
    """A 1-D graph with one vertex per row of (ratio, translation, prob, dst)."""
    return lq.Gifs(len(rows), 1, tuple(
        lq.Edge(f"e{v}{i}", v, dst, lq.Similitude(1, ratio, np.eye(1), np.array([t])), prob)
        for v, row in enumerate(rows) for i, (ratio, t, prob, dst) in enumerate(row)
    ))


def test_vertices_that_differ_only_in_edge_probabilities_are_not_merged():
    def row(p, dst):
        return ((1 / 3, 0.0, p, dst), (1 / 3, 2 / 3, 1.0 - p, dst))

    assert empirical._classes(_loops_gifs([row(0.5, 0), row(0.5, 1)])) == [0, 0]
    assert empirical._classes(_loops_gifs([row(0.5, 0), row(0.4, 1)])) == [0, 1]


def test_equal_edge_rows_into_different_classes_are_split(monkeypatch):
    # vertices 0-2 have equal edge rows and vertex 3 another: the first
    # round splits vertex 2, which leads to 3, from 0 and 1, and only the
    # second splits vertex 1, which leads to 2, from 0
    def row(dst_a, dst_b):
        return ((1 / 3, 0.0, 0.5, dst_a), (1 / 3, 2 / 3, 0.5, dst_b))

    g = _loops_gifs([row(0, 0), row(1, 2), row(2, 3), ((0.25, 0.0, 0.5, 3), (0.25, 0.75, 0.5, 3))])
    assert empirical._classes(g) == [0, 1, 2, 3]
    _assert_matches_oracle(monkeypatch, g, 2000, seed=1)


_OCTAVES_16 = tuple(2.0**-k for k in range(4, 17))


@pytest.mark.parametrize("scales", [DEFAULT_SCALES, _OCTAVES_16], ids=["default", "to-2^-16"])
def test_shared_tables_give_the_points_of_one_table_per_vertex(monkeypatch, scales):
    # at 2^-4 ... 2^-16 every walk goes on from an open leaf of its table;
    # each vertex draws the same counts from a shared table as from its own,
    # whose open leaves are those of the shared table but for their vertices,
    # which lie in the same classes, and its walks go on to the same points
    g = lq.build_example(lq.canonical_params("nonstrong-r-heights"))
    cls = np.array(empirical._classes(g))
    shared, shared_drawn = _sample_drawing(monkeypatch, g, 20_000, seed=4, scales=scales)
    monkeypatch.setattr(empirical, "_classes", lambda g: list(range(g.num_vertices)))
    alone, alone_drawn = _sample_drawing(monkeypatch, g, 20_000, seed=4, scales=scales)
    assert len({id(start) for start, _ in shared_drawn}) == 2
    assert len({id(start) for start, _ in alone_drawn}) == 6
    for (table, counts), (own_table, own_counts) in zip(shared_drawn, alone_drawn):
        assert np.array_equal(counts, own_counts)
        assert all(np.array_equal(getattr(table, f.name), getattr(own_table, f.name))
                   for f in dataclasses.fields(table) if f.name != "vkey")
        assert np.array_equal(cls[table.vkey >> 54], cls[own_table.vkey >> 54])
    assert len(shared) == len(alone) and np.array_equal(shared._swept, alone._swept)
    for q in (0.0, 2.0, -1.5):
        assert lq.partition_sum(shared, scales, q, 6.0) == lq.partition_sum(alone, scales, q, 6.0)


def _wide_and_cantor_gifs():
    # vertex 1 has more out-edges than a level may add, so its table grows
    # no level, while vertex 0's grows beside it until every leaf ends
    def sim(ratio, t):
        return lq.Similitude(1, ratio, np.eye(1), np.array([t]))

    n = empirical.MAX_LEVEL_NODES + 4
    edges = (
        lq.Edge("a", 0, 0, sim(1 / 3, 0.0), 0.5),
        lq.Edge("b", 0, 0, sim(1 / 3, 2 / 3), 0.5),
        *(lq.Edge(f"w{i}", 1, 1, sim(1 / n, i / n), 1 / n) for i in range(n)),
    )
    return lq.Gifs(2, 1, edges)


@pytest.mark.parametrize("seed", [1, 42])
def test_walks_from_a_table_that_grew_no_level_draw_no_leaf(monkeypatch, seed):
    # their chunks' streams start with the first edge, as without a table
    g = _wide_and_cantor_gifs()
    wide, cantor = _starts(g, DEFAULT_SCALES)[::-1]
    assert wide.levels == 0 and len(wide.key) == 1 and cantor.levels > 1
    _assert_matches_oracle(monkeypatch, g, CHUNK_SIZE + 77, seed)


@pytest.mark.parametrize(
    "family, draws",
    [("strong-r", "leaves"), ("nonstrong-r2", "leaves"),
     ("strong-r2", "sweep paths"), ("nonstrong-r2", "sweep paths")],
    ids=["strong-r", "nonstrong-r2", "strong-r2-sweep-paths", "nonstrong-r2-sweep-paths"],
)
def test_drawn_paths_follow_the_path_probabilities(family, draws):
    # chi-square over the groups and open leaves of vertex 0's table (one
    # leaf per group on nonstrong-r2), or over the k-edge paths from
    # vertex 0 that sweeps draw, at a fixed seed, with consecutive paths
    # pooled until each pool expects at least 20 draws: the statistic lies
    # within 5 standard deviations (sqrt(2 dof)) of its dof
    g = lq.build_example(lq.canonical_params(family))
    n, rng = 400_000, np.random.default_rng(3)
    if draws == "leaves":
        start = _starts(g, DEFAULT_SCALES)[0]
        key = start.key
        got = empirical._leaf_counts(start, n, rng)
    else:
        paths = empirical._paths(empirical._walk_tables(g))
        key = paths.cum_key[: paths.first_edge[1]]  # vertex 0's, whose keys carry no vertex bits
        walks = (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), np.ones(n),
                 np.zeros((g.dim, n)))
        p, _, _ = empirical._step(paths, rng, *walks)  # orientation 0: the column is the path
        got = np.bincount(p, minlength=len(key))
    assert len(got) == len(key) and got.sum() == n
    want = np.diff(key, prepend=0) / 2.0**53 * n
    assert np.all(want > 0.0)
    chi2, dof = _chi_square(got, want)
    assert abs(chi2 - dof) <= 5.0 * math.sqrt(2.0 * dof), (chi2, dof)


def _chi_square(got, want):
    """(statistic, dof) of the counts got against the expected counts want,
    with consecutive cells pooled until each pool expects at least 20."""
    pool = np.empty(len(want), dtype=np.int64)
    k, total = 0, 0.0
    for i, w in enumerate(want):
        pool[i] = k
        total += w
        if total >= 20.0:
            k, total = k + 1, 0.0
    pool = np.minimum(pool, k - 1)  # a short last pool joins the one before it
    got, want = np.bincount(pool, got), np.bincount(pool, want)
    assert np.min(want) >= 20.0
    return float(np.sum((got - want) ** 2 / want)), len(want) - 1


@pytest.mark.parametrize("family", ["strong-r", "nonstrong-r-heights"])
def test_leaf_counts_follow_the_key_widths(monkeypatch, family):
    # Bound, fixed before the run: over 20 seeds, each vertex's counts of its
    # groups and open leaves, against their key widths, give a chi-square
    # statistic (cells pooled to expect at least 20 walks) within 5 standard
    # deviations sqrt(2 dof) of its dof, and the sum of a vertex's 20
    # statistics lies within 5 standard deviations of 20 dof.
    g = lq.build_example(lq.canonical_params(family))
    n = 100_000
    stats = {v: [] for v in range(g.num_vertices)}
    for seed in range(20):
        _, drawn = _sample_drawing(monkeypatch, g, n, seed)
        for v, (start, got) in enumerate(drawn):
            assert got.sum() == n and len(got) == len(start.key)
            chi2, dof = _chi_square(got, np.diff(start.key, prepend=0) / 2.0**53 * n)
            assert abs(chi2 - dof) <= 5.0 * math.sqrt(2.0 * dof), (seed, v, chi2, dof)
            stats[v].append((chi2, dof))
    for v, runs in stats.items():
        chi2, dof = map(sum, zip(*runs))
        assert abs(chi2 - dof) <= 5.0 * math.sqrt(2.0 * dof), (v, chi2, dof)


def _zero_width_gifs():
    # a middle edge of vertex 0 and the last edge of vertex 1 carry 1e-30,
    # below the keys' 2^-53: every leaf through them has zero key width
    def sim(t):
        return lq.Similitude(1, 1 / 3, np.eye(1), np.array([t]))

    edges = (
        *(lq.Edge(f"a{i}", 0, 0, sim(i / 3), p) for i, p in enumerate((0.5, 1e-30, 0.5))),
        *(lq.Edge(f"b{i}", 1, 1, sim(i / 3), p) for i, p in enumerate((0.5, 0.5, 1e-30))),
    )
    return lq.Gifs(2, 1, edges)


@pytest.mark.parametrize("n_per_vertex", [0, 1, 2, 1000, CHUNK_SIZE + 77])
def test_leaf_counts_sum_to_the_walks_and_skip_zero_widths(monkeypatch, n_per_vertex):
    g = _zero_width_gifs()
    cloud, drawn, _ = _assert_matches_oracle(monkeypatch, g, n_per_vertex, seed=2)
    assert len(cloud) == 2 * n_per_vertex
    for v, (start, counts) in enumerate(drawn):
        width = np.diff(start.key, prepend=0)
        assert start.levels and np.count_nonzero(width == 0) > 0
        assert v < 1 or width[-1] == 0  # vertex 1's last leaf has zero width
        assert counts.sum() == n_per_vertex and counts.min() >= 0
        assert not np.any(counts[width == 0])


def test_a_group_with_a_leaf_of_zero_width_keeps_the_width_of_the_others(monkeypatch):
    # edges a and b carry one map, b with 1e-30: each leaf through b lies in
    # the box, and the group, of a leaf of positive width, and the group's
    # key width is that of its leaves of positive width
    def sim(t):
        return lq.Similitude(1, 1 / 3, np.eye(1), np.array([t]))

    g = lq.Gifs(1, 1, (lq.Edge("a", 0, 0, sim(0.0), 0.5), lq.Edge("b", 0, 0, sim(0.0), 1e-30),
                       lq.Edge("c", 0, 0, sim(2 / 3), 0.5)))
    table = cylinder_table(g, 0, DEFAULT_SCALES)
    width = np.diff(table[1], prepend=0)
    groups = leaf_groups(table, vertex_boxes(g), np.zeros(1), DEFAULT_SCALES)
    mixed = [i for i, group in enumerate(groups) if 0 < np.count_nonzero(width[group]) < len(group)]
    assert mixed
    cloud, ((start, counts),), _ = _assert_matches_oracle(monkeypatch, g, 20_000, seed=1)
    group_width = np.diff(start.key, prepend=0)
    assert all(group_width[i] == width[groups[i]].sum() > 0 for i in mixed)
    assert counts[mixed].sum() > 0


def test_infinite_orientation_group_raises(monkeypatch):
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    g = _rotation_gifs(1.0)  # a rotation by one radian has infinite order
    with pytest.raises(lq.SamplerBound, match=str(empirical.MAX_ORIENTATIONS)):
        lq.sample(g, 10, seed=0)


def test_sampler_table_bounds(monkeypatch):
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    loop = lq.Similitude(1, 0.5, np.eye(1), np.zeros(1))
    n = empirical.MAX_VERTICES + 1
    g = lq.Gifs(n, 1, tuple(lq.Edge(f"e{v}", v, v, loop, 1.0) for v in range(n)))
    with pytest.raises(lq.SamplerBound, match=str(empirical.MAX_VERTICES)):
        lq.sample(g, 10, seed=0)
    # a vertex without outgoing edges would otherwise borrow another vertex's edges
    g = lq.Gifs(2, 1, (lq.Edge("a", 0, 1, loop, 1.0),))
    with pytest.raises(lq.InvalidParams, match="vertex 2 has no outgoing edge"):
        lq.sample(g, 10, seed=0)


def _no_walks(*args, **kwargs):
    raise AssertionError("a walk started")


@pytest.mark.parametrize("depth_eps", [-1.0, 0.0, math.nan, 1.0, 1.5])
def test_depth_eps_outside_unit_interval_rejected(monkeypatch, depth_eps):
    # the box sides fix where walks stop, so there is no depth_eps to pass,
    # inside the unit interval or outside it
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    with pytest.raises(TypeError, match="depth_eps"):
        lq.sample(_strong_r_gifs(), 10, seed=0, depth_eps=depth_eps)


@pytest.mark.parametrize(
    "scales, message",
    [
        ([0.1, 0.0, 0.01], "scales must be positive and finite"),
        ([0.1, math.nan], "scales must be positive and finite"),
        ([], "scales must be positive and finite"),
        ([0.1, 1e-12], "too fine for walks that stop at scale 1e-12"),
        # keys of 34 bits per axis need 68-bit codes in 2-D
        ([0.1, 1e-10], "too fine to index the boxes in 64-bit Morton codes"),
    ],
)
def test_scales_rejected_before_any_walk(monkeypatch, scales, message):
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    g = lq.build_example(lq.canonical_params("strong-r2"))
    with pytest.raises(lq.InvalidParams, match=message):
        lq.sample(g, 10, seed=0, scales=scales)


def _fits_row_major_keys(bbox, h):
    # the rule before Morton codes: every key, and the number of boxes of the
    # grid over the bounding box, below 2^62
    keys = np.floor(np.array([hi - lo for lo, hi in bbox]) / h)
    return keys.max() < 2.0**62 and np.prod(keys + 1.0) < 2.0**62


@pytest.mark.parametrize("family", lq.FAMILY_IDS)
def test_sampling_keeps_every_side_that_row_major_keys_fit(family):
    # a side that one row-major key per box could index over the family's
    # bounding box also fits 64-bit Morton codes there
    g = lq.build_example(lq.canonical_params(family))
    width = max(hi - lo for lo, hi in g.bbox)
    sides = [m * 2.0**-k for k in range(1, 48) for m in (1.0, 0.75, 0.6)]
    kept = [h for h in sides if h > SCALE_FLOOR * width and _fits_row_major_keys(g.bbox, h)]
    assert kept
    for h in kept:
        assert empirical._resolvable_sides(g, [h]) == (h,)
    if family == "nonstrong-r2":
        # 3 x 1: keys of 32 and 30 bits, 64-bit codes
        assert 2.0**-30 in kept


def test_a_lopsided_cloud_beyond_64_bit_codes_is_refused():
    # keys of 41 bits along x and 1 along y fit one row-major key of 42
    # bits, but interleaved they need 82
    h = 2.0**-20
    pts = np.array([[0.0, 0.0], [2.0**20, h]])
    cloud = lq.SampleCloud(pts, scales=(h,), grid_anchor=(0.0, 0.0))
    assert _fits_row_major_keys(((0.0, 2.0**20), (0.0, h)), h)
    with pytest.raises(lq.InvalidParams, match="too fine to index the boxes in 64-bit Morton"):
        lq.partition_sum(cloud, [h], 2.0, total_mass=1.0)


def test_negative_sample_count_rejected(monkeypatch):
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    with pytest.raises(lq.InvalidParams, match="n_per_vertex"):
        lq.sample(_strong_r_gifs(), -1, seed=0)


def test_negative_seed_rejected(monkeypatch):
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    with pytest.raises(lq.InvalidParams, match="seed"):
        lq.sample(_strong_r_gifs(), 10, seed=-1)


@pytest.mark.parametrize(
    "n_per_vertex, seed, message",
    [
        (10, 1.5, "seed must be an integer"),
        (10.0, 1, "n_per_vertex must be an integer"),
        (10, "1", "seed must be an integer"),
        (True, 1, "n_per_vertex must be an integer"),
    ],
)
def test_non_integer_count_or_seed_rejected(monkeypatch, n_per_vertex, seed, message):
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    with pytest.raises(lq.InvalidParams, match=message):
        lq.sample(_strong_r_gifs(), n_per_vertex, seed)


def test_numpy_integer_count_and_seed_accepted():
    g = _strong_r_gifs()
    got = lq.sample(g, np.int64(500), np.uint32(4))
    assert _same_cloud(got, lq.sample(g, 500, 4))


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_estimate_rejects_a_nonfinite_q_before_sampling(monkeypatch, q):
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    with pytest.raises(lq.InvalidParams, match="q must be finite"):
        lq.estimate_tau(_strong_r_gifs(), q, [2.0**-k for k in range(4, 9)], 100, seed=0)


def test_points_within_bbox():
    for fid in lq.FAMILY_IDS:
        g = lq.build_example(lq.canonical_params(fid))
        cloud = lq.sample(g, 2000, seed=5)
        centres = np.zeros((g.dim, 0)) if cloud._ended is None else cloud._ended[0]
        points = np.concatenate((centres, cloud._swept), axis=1)
        assert points.shape[1] > 0
        for d, (lo, hi) in enumerate(g.bbox):
            assert points[d].min() >= lo
            assert points[d].max() <= hi


def test_sample_means_match_fixed_point(monkeypatch):
    # the vertex measures' means solve m_i = sum_e p_e (rho_e R_e m_j + b_e);
    # a biased walk scheme (e.g. double-stepping on vertex changes) breaks
    # this at many sigma.  A vertex's mean weights each group's centre by its
    # walks; a group's leaves lie in one box of side 2^-11, far below the
    # bound
    for fid in ("strong-r2", "strong-r", "nonstrong-r2"):
        g = lq.build_example(lq.canonical_params(fid))
        d = g.dim
        n = g.num_vertices * d
        A = np.zeros((n, n))
        b = np.zeros(n)
        for e in g.edges:
            i, j = e.src, e.dst
            A[d * i : d * i + d, d * j : d * j + d] += (
                e.prob * e.map.ratio * np.array(e.map.orthogonal)
            )
            b[d * i : d * i + d] += e.prob * np.array(e.map.translation)
        exact = np.linalg.solve(np.eye(n) - A, b)
        cloud, drawn = _sample_drawing(monkeypatch, g, 200_000, seed=11)
        for v, ((start, counts), swept) in enumerate(zip(drawn, _swept_by_vertex(cloud, drawn))):
            total = start.point @ counts[: start.point.shape[1]] + swept.sum(axis=1)
            got = total / 200_000
            assert np.max(np.abs(got - exact[d * v : d * v + d])) < 5e-3


def test_source_vertices_balanced(monkeypatch):
    # each vertex draws its 500 walks, as the oracle's do
    g = _strong_r_gifs()
    cloud, drawn, _ = _assert_matches_oracle(monkeypatch, g, 500, seed=1)
    assert len(cloud) == 1000
    assert [int(counts.sum()) for _, counts in drawn] == [500, 500]


# -- partition sums ----------------------------------------------------------

def test_partition_q1_mass_exact():
    cloud = lq.sample(_strong_r_gifs(), 5000, seed=3, scales=[0.25, 0.03, 0.004])
    got = lq.partition_sum(cloud, [0.25, 0.03, 0.004], 1.0, total_mass=2.0)
    assert got == [math.log(2.0)] * 3


def test_partition_q0_counts_boxes():
    cloud = lq.sample(_strong_r_gifs(), 5000, seed=3, scales=[0.125])
    (log_s0,) = lq.partition_sum(cloud, [0.125], 0.0, total_mass=2.0)
    boxes = round(math.exp(log_s0))
    assert log_s0 == math.log(boxes)
    assert 1 <= boxes <= 16


def test_partition_single_box():
    pts = np.full((50, 1), 0.3)
    cloud = lq.SampleCloud(points=pts, scales=(1.0,), grid_anchor=(0.0,))
    assert lq.partition_sum(cloud, [1.0], 2.0, total_mass=2.0) == [pytest.approx(math.log(4.0))]


def test_partition_normalized_nonincreasing_in_q():
    cloud = lq.sample(_strong_r_gifs(), 20000, seed=9, scales=[0.06, 0.01])
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
_ALL_SIDES = sorted({h for hs in _SCALE_LISTS.values() for h in hs}, reverse=True)


def _cloud_below_anchor(dim):
    # points a hair below the anchor have key -1 at every scale, so their
    # box stays apart from box 0 only if the coarser keys are floored
    rng = np.random.default_rng(5)
    pts = np.concatenate([rng.uniform(0.0, 0.3, (200, dim)), np.full((7, dim), -1e-12)])
    pts[:3, 0] = -1e-12
    return lq.SampleCloud(points=pts, scales=tuple(_ALL_SIDES), grid_anchor=(0.0,) * dim), pts


def _cloud_of_64_bit_codes():
    # x keys of 32 bits at 2^-11: uint64 codes, two table lookups per axis
    rng = np.random.default_rng(6)
    pts = np.stack([rng.uniform(0.0, 2.0**21 - 1.0, 300), rng.uniform(0.0, 0.3, 300)], axis=1)
    pts[:100, 0] = rng.uniform(0.0, 0.3, 100)  # and some boxes that coarser sides merge
    return lq.SampleCloud(points=pts, scales=tuple(_ALL_SIDES), grid_anchor=(0.0, 0.0)), pts


def _cloud_with_far_centres():
    # counted as sample() counts: swept points with keys of 10 bits at 2^-11,
    # and weighted centres with keys of 20, five of them in swept points' boxes
    rng = np.random.default_rng(7)
    swept = rng.uniform(0.0, 0.3, (2, 200))
    centres = rng.uniform(0.0, 2.0**9, (2, 20))
    centres[:, :5] = swept[:, :5]
    weights = rng.integers(1, 5, 20)
    pts = np.concatenate([swept.T, np.repeat(centres.T, weights, axis=0)])
    cloud = lq.SampleCloud(pts, scales=tuple(_ALL_SIDES), grid_anchor=(0.0, 0.0))
    cloud._swept, cloud._ended = swept, (centres, weights)
    return cloud, pts


def _sampled_with_oracle_points(g, n_per_vertex, seed, scales=DEFAULT_SCALES):
    """The cloud that ``sample`` draws and the oracle's (n, d) points, one
    per walk, whose boxes it counts (_assert_matches_oracle)."""
    cloud = lq.sample(g, n_per_vertex, seed, scales=scales)
    return cloud, oracle_sample(g, n_per_vertex, seed, scales)[0]


@pytest.fixture(scope="module")
def clouds():
    """Each cloud, with the (n, d) points, one per walk, that it counts."""
    return {
        "1d": _sampled_with_oracle_points(_strong_r_gifs(), 5000, 3, _ALL_SIDES),
        "2d": _sampled_with_oracle_points(
            lq.build_example(lq.canonical_params("strong-r2")), 3000, 3, _ALL_SIDES
        ),
        "1d-below-anchor": _cloud_below_anchor(1),
        "2d-below-anchor": _cloud_below_anchor(2),
        "2d-64-bit-codes": _cloud_of_64_bit_codes(),
        "2d-far-centres": _cloud_with_far_centres(),
    }


@pytest.mark.parametrize("scales", _SCALE_LISTS)
@pytest.mark.parametrize(
    "cloud_id",
    ["1d", "2d", "1d-below-anchor", "2d-below-anchor", "2d-64-bit-codes", "2d-far-centres"],
)
def test_partition_sum_matches_oracle(clouds, cloud_id, scales):
    (cloud, points), hs = clouds[cloud_id], _SCALE_LISTS[scales]
    _assert_counts_the_boxes_of(cloud, points, hs)
    anchor = cloud.grid_anchor
    for q in (0.0, 0.5, 1.0, 2.0, 3.7, -1.5):
        got = lq.partition_sum(cloud, hs, q, total_mass=3.0)
        want = [math.log(oracle_partition_sum(points, anchor, h, q, total_mass=3.0)) for h in hs]
        # the log is summed in another arrangement: a few ulps of its size
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("q", [2.0, 60.0, 200.0, 1000.0, -60.0, -200.0])
def test_partition_sum_large_q_matches_exact_rational_sums(q):
    # S_q = M^q sum c^q / n^q with sum c^q an exact rational: no overflow,
    # no rounding before the final logs
    cloud, points = _sampled_with_oracle_points(_strong_r_gifs(), 20_000, 1)
    hs = [2.0**-k for k in range(4, 12)]
    got = lq.partition_sum(cloud, hs, q, total_mass=2.0)
    assert all(math.isfinite(s) for s in got)
    for log_s, h in zip(got, hs):
        counts = oracle_box_counts(points, cloud.grid_anchor, h)
        exact = sum(Fraction(int(c)) ** int(q) for c in counts)
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        want = q * math.log(2.0) + log_exact - q * math.log(len(cloud))
        assert abs(log_s - want) <= 1e-14 * (1.0 + abs(want))


def test_partition_sum_rejects_an_anchor_of_another_dimension(monkeypatch):
    # the default anchor () has no coordinate to bin against: named before
    # any binning, not a TypeError from inside it
    monkeypatch.setattr(empirical, "_box_counts", _no_walks)
    pts = np.full((50, 1), 0.3)
    cloud = lq.SampleCloud(points=pts, scales=(0.25, 0.125, 0.0625))
    with pytest.raises(lq.InvalidParams, match=r"grid anchor \(\) has 0 coordinates.*dimension 1"):
        lq.partition_sum(cloud, [0.25, 0.125, 0.0625], 2.0, total_mass=1.0)
    cloud = lq.SampleCloud(points=np.zeros((5, 2)), scales=(0.5,), grid_anchor=(0.0,))
    with pytest.raises(lq.InvalidParams, match=r"anchor \(0\.0,\) has 1 coordinates.*dimension 2"):
        lq.partition_sum(cloud, [0.5], 2.0, total_mass=1.0)


@pytest.mark.parametrize(
    "q, total_mass, message",
    [
        (math.inf, 2.0, "q must be finite"),
        (-math.inf, 2.0, "q must be finite"),
        (math.nan, 2.0, "q must be finite"),
        ("2", 2.0, "q must be finite"),
        (2.0, 0.0, "total_mass must be finite and positive"),
        (2.0, -1.0, "total_mass must be finite and positive"),
        (2.0, math.inf, "total_mass must be finite and positive"),
        (2.0, math.nan, "total_mass must be finite and positive"),
    ],
)
def test_partition_sum_rejects_an_unusable_q_or_total_mass(q, total_mass, message):
    # q = inf gave -inf at every side, and total_mass = 0 a math domain error
    cloud = lq.SampleCloud(np.full((50, 1), 0.3), scales=(0.5,), grid_anchor=(0.0,))
    with pytest.raises(lq.InvalidParams, match=message):
        lq.partition_sum(cloud, [0.5], q, total_mass=total_mass)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cloud_rejects_a_point_that_is_not_finite(bad):
    # NaN gave a bare ValueError from the int cast of its key, and inf an
    # InvalidParams that named the box side rather than the point
    pts = np.array([[0.3, 0.1], [0.2, 0.4], [0.5, bad], [bad, 0.5]])
    message = rf"point 2 of the cloud, \[0\.5, {bad}\], is not finite"
    with pytest.raises(lq.InvalidParams, match=message):
        lq.SampleCloud(pts, scales=(0.5,), grid_anchor=(0.0, 0.0))


@pytest.mark.parametrize("side", [-0.5, 0.0, math.nan, math.inf])
def test_cloud_rejects_a_side_that_is_not_positive_and_finite(side):
    # -0.5 gave a finite log-sum and inf [0.0]; 0.0 warned of a division by
    # zero and nan raised "too fine to index", both from inside box counting
    pts = np.full((50, 1), 0.3)
    with pytest.raises(lq.InvalidParams, match="scales must be positive and finite"):
        lq.SampleCloud(pts, scales=(0.5, side), grid_anchor=(0.0,))


@pytest.mark.parametrize("points", [0.3, np.zeros((3, 1, 1)), np.zeros(3), np.zeros((3, 0))],
                         ids=["scalar", "(3, 1, 1)", "(3,)", "(3, 0)"])
def test_cloud_rejects_points_that_are_not_an_n_by_d_array(points):
    # a scalar raised "len() of unsized object", a (3, 1, 1) array a
    # TypeError inside partition_sum, and (3,) read as one point of dimension 3
    shape = re.escape(str(np.shape(points)))
    with pytest.raises(lq.InvalidParams, match=rf"must be an \(n, d\) array, got shape {shape}"):
        lq.SampleCloud(points, scales=(0.5,), grid_anchor=(0.0,))


def test_clouds_of_other_dtypes_count_the_same_boxes():
    # float32 points raised a bare ValueError: box counting casts each
    # coordinate row to int64 keys in the row's own memory
    pts = np.random.default_rng(0).integers(0, 64, size=(500, 2))
    scales = (16.0, 8.0, 3.0, 1.0)
    want = None
    for dtype in (np.float64, np.float32, np.int64):
        cloud = lq.SampleCloud(pts.astype(dtype), scales=scales, grid_anchor=(0.0, 0.0))
        assert cloud._swept.dtype == np.float64
        got = [lq.partition_sum(cloud, scales, q, total_mass=1.0) for q in (0.0, 2.0, -1.5)]
        want = want or got
        assert got == want, dtype


_OCTAVES_20 = tuple(2.0**-k for k in range(4, 21))
_COUNTED_CASES = {
    **{family: (family, DEFAULT_SCALES) for family in lq.FAMILY_IDS},
    # each grid is tested separately
    **{f"{family}-non-nested": (family, (0.1, 0.05, 0.03, 0.01)) for family in lq.FAMILY_IDS},
    # every walk goes on from an open leaf
    "nonstrong-r-heights-to-2^-16": ("nonstrong-r-heights", _OCTAVES_16),
    "strong-r2-to-2^-20": ("strong-r2", _OCTAVES_20),
}


@pytest.mark.parametrize("n_per_vertex", [0, 1, CHUNK_SIZE + 77])
@pytest.mark.parametrize("case", _COUNTED_CASES)
def test_counted_cloud_counts_the_boxes_of_its_points(monkeypatch, case, n_per_vertex):
    # a sampled cloud bins each group's centre once, weighted by the walks
    # that drew it; its boxes and counts are those of the oracle's points,
    # one per walk (_assert_matches_oracle), and so are those of a cloud
    # built from those points, which bins them one by one
    family, scales = _COUNTED_CASES[case]
    g = lq.build_example(lq.canonical_params(family))
    cloud, drawn, (points, _) = _assert_matches_oracle(monkeypatch, g, n_per_vertex, 3, scales)
    assert cloud._swept.flags.c_contiguous
    expanded = lq.SampleCloud(points, cloud.scales, grid_anchor=cloud.grid_anchor)
    hs = list(scales)
    if n_per_vertex:
        pairs = zip(empirical._box_counts(cloud, hs), empirical._box_counts(expanded, hs))
        for (i, codes, got), (_, want_codes, want) in pairs:
            assert np.array_equal(codes, want_codes) and np.array_equal(got, want), hs[i]
    for q in (0.0, 2.0, -1.5):
        got = lq.partition_sum(cloud, hs, q, total_mass=float(g.num_vertices))
        assert got == lq.partition_sum(expanded, hs, q, total_mass=float(g.num_vertices))
    # exactly the walks counted at open leaves were swept
    going = sum(int(counts[start.point.shape[1]:].sum()) for start, counts in drawn)
    assert cloud._swept.shape[1] == going
    if case in ("strong-r", "nonstrong-r-basic"):
        # at the default sides a walk ends at a terminal leaf: every leaf of
        # strong-r's tables is terminal, and nonstrong-r-basic's 476 open
        # leaves hold 3.3e-5 of the law
        open_mass = [np.diff(start.key, prepend=0)[start.point.shape[1]:].sum() / 2.0**53
                     for start, _ in drawn]
        assert max(open_mass) < 1e-4 and (case != "strong-r" or max(open_mass) == 0.0)
    if case.endswith(("2^-16", "2^-20")):
        assert cloud._ended is None and cloud._swept.shape[1] == len(cloud)


def test_partition_sum_rejects_a_side_the_cloud_does_not_resolve():
    cloud = lq.sample(_strong_r_gifs(), 1000, seed=3)
    assert cloud.scales == DEFAULT_SCALES
    with pytest.raises(lq.InvalidParams, match=r"not \[0\.03\]"):
        lq.partition_sum(cloud, [2.0**-5, 0.03], 2.0, total_mass=2.0)


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
    monkeypatch.setattr(empirical, "_leaf_counts", _no_walks)
    with pytest.raises(lq.InvalidParams, match="scales"):
        lq.estimate_tau(_strong_r_gifs(), 1.0, scales, 100, seed=0)


def test_estimate_slope_zero_at_q1():
    g = _strong_r_gifs()
    fit = lq.estimate_tau(g, 1.0, [2.0**-k for k in range(4, 10)], 20_000, seed=11)
    assert abs(fit.slope) <= 0.02


def test_estimate_reuses_cloud():
    g = _strong_r_gifs()
    scales = [2.0**-k for k in range(4, 10)]
    cloud = lq.sample(g, 50_000, seed=21, scales=scales)  # the cloud estimate_tau draws
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
