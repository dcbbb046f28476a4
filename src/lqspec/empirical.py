"""Monte Carlo cross-validation of the computed spectra.

Points are drawn from each vertex measure by random edge walks (a chaos
game on the graph): starting at a vertex, edges are drawn with their
transition probabilities and the corresponding similitudes composed.  A
walk at vertex w with composed map F has drawn a point of the cylinder
F(K_w), which lies in F(B_w), where B_w is a box around the attractor K_w
computed once per ``sample`` call.  The walk stops as soon as that box lies
in one closed box of every grid the box counts bin (the finest side, and
each side that is not a power-of-two multiple of the side below it), and
emits the box's centre.  So at every requested side the point's box is the
box of the exact draw, up to draws on a grid line, which have probability
zero.  A walk that keeps straddling a line ends once its contraction is at
most SCALE_FLOOR = 1e-12; its point is then within 1e-12 box widths of an
exact draw.  The sides fix the depth, so there is no other stopping knob.

Each ``sample`` call tabulates, for each start vertex, the cylinders at
which walks stop: a tree of edge paths grown one level at a time, in which
a node where the walk's stop test ends it becomes a terminal leaf holding
its box centre, while the other (open) leaves hold the walk state.  The
tree grows while a level adds at most MAX_LEVEL_NODES leaves and the table
keeps at most MAX_TABLE_NODES.  Each walk draws its leaf by one inverse-CDF
lookup on the leaves' cumulative probabilities, which gives it the law of
edge-by-edge draws up to that leaf, and the depth is the same.  A walk that
draws a terminal leaf is done; at the default sides every 1-D walk is.

After an open leaf, each sweep moves every active walk one edge with a
fixed set of whole-array operations.  One inverse-CDF lookup over all walks
picks their edges: a walk at vertex v with draw u = m / 2^53 has the
integer key (v << 54) + m, and global per-edge tables map the keys to
edges, then the edges to ratios, destinations and translations.  A walk's orientation
is a small integer: its index into the group generated by the edges'
orthogonal parts, closed once per ``sample`` call with tables for the
product R_g O_e, the rotated translation R_g t_e and the rotated box of
the edge's destination.  The group may have at most MAX_ORIENTATIONS
elements; an orthogonal part of infinite order (e.g. a rotation by one
radian) raises SamplerBound, as does a graph with more than MAX_VERTICES
vertices.

Sampling is organized in fixed-size chunks of 65536 walks with one
deterministic random stream per (seed, vertex, chunk).  A chunk first
draws one ``rng.bit_generator.random_raw(count)`` for its walks' leaves
(none when the table grew no level) and sorts it, so the walks come grouped
by leaf; then the walks from open leaves stay in ascending order and draw
one ``random_raw(n_active)`` per sweep.  The top 53 bits of each raw word are
the m of the m / 2^53 that ``rng.random()`` would return from the same
stream, so a seed fixes every point.  Each chunk writes its
own columns of one coordinate-major array, so the chunks run on a thread
pool with one worker per CPU available to the process (numpy releases the
interpreter lock in the gathers and draws).  There is no setting for the
worker count, and the points do not depend on it.

This is the only module that needs numpy; it converts the maps' plain
tuples (``gifs.Similitude``) into its arrays.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientScales, InvalidParams, SamplerBound
from .gifs import Gifs

CHUNK_SIZE = 65536
DEFAULT_SCALES = tuple(2.0**-k for k in range(4, 12))  # box sides 2^-4 ... 2^-11
SCALE_FLOOR = 1e-12  # a walk ends once its contraction is at most this
# Fixed table bounds: the orientation group's order and the vertex count
# (vertex << 54 plus a 53-bit draw must fit an int64 key).
MAX_ORIENTATIONS = 1024
MAX_VERTICES = 512
# A start vertex's table of stopped cylinders grows one edge level at a time
# while the level adds at most MAX_LEVEL_NODES leaves and the table keeps at
# most MAX_TABLE_NODES.
MAX_LEVEL_NODES = CHUNK_SIZE // 16
MAX_TABLE_NODES = CHUNK_SIZE // 4
_VERTEX_SHIFT = 54
_U_SCALE = 2.0**53  # rng.random() returns m / 2^53 with integer m
_RAW_SHIFT = np.uint64(11)  # m is a raw 64-bit word shifted right by 11
_BUCKET_SHIFT = 45  # 256 lookup buckets per vertex
# Products of orthogonal parts that agree to this are one orientation; rounding
# along a closure path stays far below it, and distinct elements of a group of
# at most MAX_ORIENTATIONS elements differ by far more.
_ORIENTATION_TOL = 1e-9
# Rounds of the vertex-box iteration; every round's boxes contain the attractors.
_BOX_ROUNDS = 100


@dataclass(frozen=True)
class SampleCloud:
    points: np.ndarray  # (n, d), vertex-major: n_per_vertex points from each vertex
    scales: tuple[float, ...]  # the box sides the walks resolve, coarsest first
    grid_anchor: tuple = ()

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ScalingFit:
    q: float
    scales: tuple[float, ...]
    log_sums: tuple[float, ...]  # log S_q(h) at each scale
    slope: float
    stderr: float


def sample(g: Gifs, n_per_vertex: int, seed: int, scales=DEFAULT_SCALES) -> SampleCloud:
    """Draw n_per_vertex points from each vertex measure, exact at the box
    sides in scales.

    The cylinders at which walks stop are tabulated once per start vertex,
    on a worker thread; every walk draws its leaf of its vertex's table and,
    from an open leaf, goes on edge by edge.
    Chunk c of vertex v walks CHUNK_SIZE points (fewer in the last chunk) on
    its own (seed, v, c) stream and writes them to its own columns of one
    (d, N) array; the cloud is that array's transpose.  The chunks run on
    one thread per CPU available to the process, and the points do not
    depend on how many run.  On an error in a chunk or an interrupt in the
    caller, queued chunks are cancelled and the error propagates once no
    chunk is running.  Bad arguments raise InvalidParams before any walk.
    """
    n_per_vertex = _nonnegative_int("n_per_vertex", n_per_vertex)
    seed = _nonnegative_int("seed", seed)
    hs = _resolvable_sides(g, scales)
    tables = _walk_tables(g)
    grids = _tested_grids(hs)
    # Coordinate-major: box counting reads each coordinate as one contiguous row.
    rows = np.empty((g.dim, g.num_vertices * n_per_vertex))

    def walk(v, c):
        start = v * n_per_vertex + c * CHUNK_SIZE
        stop = min(start + CHUNK_SIZE, (v + 1) * n_per_vertex)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(v, c)))
        _walk_chunk(tables, starts[v], rows[:, start:stop], rng, grids)

    n_chunks = (n_per_vertex + CHUNK_SIZE - 1) // CHUNK_SIZE
    jobs = [(v, c) for v in range(g.num_vertices) for c in range(n_chunks)]
    workers = _worker_count(len(jobs))
    if workers <= 1:
        starts = _starts(tables, grids)
        for job in jobs:
            walk(*job)
    else:
        pool = ThreadPoolExecutor(workers)
        try:
            # On a worker, the tables and their temporaries stay out of the
            # caller's heap, whose free space box counting reuses; built
            # here, they raised the peak RSS of repeated 2-D calls by 7 MB.
            # One job per vertex was no faster: the builds hold the
            # interpreter lock for most of their time.
            starts = pool.submit(_starts, tables, grids).result()
            futures = [pool.submit(walk, *job) for job in jobs]
            done, _ = wait(futures, return_when=FIRST_EXCEPTION)
            for future in done:
                future.result()
        finally:
            # A plain `with` would run every queued chunk before re-raising.
            pool.shutdown(cancel_futures=True)
    return SampleCloud(points=rows.T, scales=hs, grid_anchor=tuple(lo for lo, _ in g.bbox))


def _nonnegative_int(name, value) -> int:
    """value as an int; InvalidParams unless it is an integer >= 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParams(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise InvalidParams(f"{name} must be >= 0, got {value}")
    return int(value)


def _tested_grids(hs):
    """The sides, finest first, that a walk's box is tested against.

    A box inside one closed box of side h lies inside one of side h * 2^j,
    so only the sides that _box_counts bins need a test.
    """
    fine = hs[::-1]
    return tuple(h for prev, h in zip((None,) + fine, fine) if _octaves(prev, h) is None)


def _resolvable_sides(g: Gifs, scales) -> tuple[float, ...]:
    """The distinct sides in scales, coarsest first.

    Raises InvalidParams for a side that is not positive and finite, that a
    walk's box at the scale floor is not narrower than, or whose grid over
    ``g.bbox`` needs more than 62 bits to index.
    """
    hs = sorted({float(h) for h in scales}, reverse=True)
    if not hs or not all(0.0 < h < math.inf for h in hs):
        raise InvalidParams(f"scales must be positive and finite, got {hs}")
    h = hs[-1]
    width = np.array([hi - lo for lo, hi in g.bbox])
    if h <= SCALE_FLOOR * width.max():
        raise InvalidParams(f"box side {h} is too fine for walks that stop at scale {SCALE_FLOOR}")
    _check_key_range(np.zeros_like(width), np.floor(width / h), h)
    return tuple(hs)


def _worker_count(n_jobs: int) -> int:
    """One thread per CPU this process may run on, at most one per job."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, n_jobs)


@dataclass(frozen=True)
class _WalkTables:
    """Global per-edge tables; edges are grouped by source vertex.

    A walk at vertex v with uniform draw u = m / 2^53 takes the edge at
    ``searchsorted(cum_key, (v << 54) + m, side="right")``: ``cum_key`` holds
    ``(v << 54) + ceil(cum * 2^53)`` for each vertex's cumulative edge
    probabilities, so the search makes exactly the comparisons ``cum <= u``
    of a per-vertex inverse CDF.  ``bucket_edge`` gives the same answer
    without the search for keys in a bucket that no ``cum_key`` splits, and
    ``prob`` is the probability of that choice, the width of the edge's keys
    over 2^53.  Orientations are indices g into the group generated by the
    edges' orthogonal parts; the flat index ``g * E + e`` addresses ``mul`` (the
    orientation after edge e, times E), ``step`` (R_g t_e), and the box of
    the edge's destination w in the orientation R = R_g O_e after the edge:
    ``centre`` (R c_w) and ``half`` (|R| h_w, the half-widths of the hull of
    the rotated box).
    """

    cum_key: np.ndarray  # (E,) int64, ascending
    first_edge: np.ndarray  # (V + 1,) int64: v's edges run from first_edge[v] to first_edge[v + 1]
    prob: np.ndarray  # (E,): the edge's drawn probability
    bucket_edge: np.ndarray  # int64 per key >> _BUCKET_SHIFT: its edge, or -1 if split
    ratio: np.ndarray  # (E,)
    dst_key: np.ndarray  # (E,) int64: destination vertex << 54
    mul: np.ndarray  # (G * E,) int64: E * (index of R_g O_e)
    step: np.ndarray  # (d, G * E): R_g t_e
    centre: np.ndarray  # (d, G * E): R_g O_e c_dst(e)
    half: np.ndarray  # (d, G * E): |R_g O_e| h_dst(e)
    origin: np.ndarray  # (d,): the grids' anchor, the low corner of g.bbox


def _walk_tables(g: Gifs) -> _WalkTables:
    if g.num_vertices > MAX_VERTICES:
        raise SamplerBound(
            f"{g.num_vertices} vertices exceed the sampler's bound of {MAX_VERTICES}"
        )
    edges, cum_key, prob, first_edge = [], [], [], [0]
    for v in range(g.num_vertices):
        out = g.out_edges(v)
        if not out:
            raise InvalidParams(f"vertex {v + 1} has no outgoing edge")
        cum = np.cumsum([e.prob for e in out])
        cum[-1] = 1.0  # guard against fsum slack
        # Clipping at 1 changes no comparison with u < 1 and keeps keys ascending.
        cum = np.minimum(cum, 1.0)
        key = np.ceil(cum * _U_SCALE).astype(np.int64)
        cum_key.append((v << _VERTEX_SHIFT) + key)
        prob.append(np.diff(key, prepend=0) / _U_SCALE)
        edges.extend(out)
        first_edge.append(len(edges))
    orths = np.array([e.map.orthogonal for e in edges])
    rots, mul = _orientation_group(orths)
    trans = np.array([e.map.translation for e in edges])
    ratio = np.array([e.map.ratio for e in edges])
    dst = np.array([e.dst for e in edges])
    src = np.array([e.src for e in edges])
    lo, hi = _vertex_boxes(g.bbox, g.num_vertices, src, dst, ratio, orths, trans)
    cum_key = np.concatenate(cum_key)
    # Buckets of 2^_BUCKET_SHIFT consecutive keys that no cum_key splits
    # resolve by one table lookup; only walks in split buckets are searched.
    bucket = np.arange(g.num_vertices << (_VERTEX_SHIFT - _BUCKET_SHIFT), dtype=np.int64)
    bucket <<= _BUCKET_SHIFT
    first = np.searchsorted(cum_key, bucket, side="right")
    last = np.searchsorted(cum_key, bucket + ((1 << _BUCKET_SHIFT) - 1), side="right")
    after = rots[mul]  # (G, E, d, d): R_g O_e
    return _WalkTables(
        cum_key=cum_key,
        first_edge=np.array(first_edge),
        prob=np.concatenate(prob),
        bucket_edge=np.where(first == last, first, -1),
        ratio=ratio,
        dst_key=dst.astype(np.int64) << _VERTEX_SHIFT,
        mul=(mul * len(edges)).ravel(),
        step=_per_ge(rots[:, None], trans),
        centre=_per_ge(after, (lo[dst] + hi[dst]) / 2.0),
        half=_per_ge(np.abs(after), (hi[dst] - lo[dst]) / 2.0),
        origin=np.array([a for a, _ in g.bbox]),
    )


def _per_ge(mats, vecs):
    """The (d, G * E) table of mats[g, e] @ vecs[e], column g * E + e."""
    prod = (mats @ vecs[..., None])[..., 0]
    return prod.reshape(-1, vecs.shape[1]).T.copy()


def _vertex_boxes(bbox, n_vertices, src, dst, ratio, orths, trans):
    """Boxes (lo, hi), each (V, d), whose box v contains the attractor K_v.

    Iterates B_v <- hull of the union of f_e(B_dst(e)) over the edges e that
    leave v, from ``bbox`` for every vertex.  Since K_v is the union of the
    f_e(K_dst(e)), every iterate contains K_v when ``bbox`` contains every
    attractor.  The hull of f_e(B) is t_e + r_e * (sum over j of the smaller
    and the larger of O_ij lo_j and O_ij hi_j).  The iteration stops at a
    fixed point or after _BOX_ROUNDS rounds.
    """
    lo = np.array([[a for a, _ in bbox]] * n_vertices)
    hi = np.array([[b for _, b in bbox]] * n_vertices)
    for _ in range(_BOX_ROUNDS):
        at_lo = orths * lo[dst][:, None, :]
        at_hi = orths * hi[dst][:, None, :]
        image_lo = trans + ratio[:, None] * np.minimum(at_lo, at_hi).sum(axis=2)
        image_hi = trans + ratio[:, None] * np.maximum(at_lo, at_hi).sum(axis=2)
        new_lo = np.full_like(lo, math.inf)
        new_hi = np.full_like(hi, -math.inf)
        np.minimum.at(new_lo, src, image_lo)
        np.maximum.at(new_hi, src, image_hi)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return lo, hi


def _orientation_group(orths):
    """Closure of the orthogonal parts under right multiplication.

    Returns the group elements R (R[0] = I, each found as R_parent @ O_e)
    and the table mul[g, e] = index of R_g @ O_e.  Raises SamplerBound when
    the closure exceeds MAX_ORIENTATIONS, e.g. for a rotation by an
    irrational multiple of pi.
    """
    dim = orths[0].shape[0]
    rots = np.empty((MAX_ORIENTATIONS, dim, dim))
    rots[0] = np.eye(dim)
    size = 1
    mul = []
    while len(mul) < size:
        row = []
        for o in orths:
            prod = rots[len(mul)] @ o
            dist = np.max(np.abs(rots[:size] - prod), axis=(1, 2))
            h = int(np.argmin(dist))
            if dist[h] > _ORIENTATION_TOL:
                if size == MAX_ORIENTATIONS:
                    raise SamplerBound(
                        "the orthogonal parts generate more than "
                        f"{MAX_ORIENTATIONS} orientations (the sampler's bound)"
                    )
                rots[size] = prod
                h = size
                size += 1
            row.append(h)
        mul.append(row)
    return rots[:size], np.array(mul, dtype=np.int64)


@dataclass(frozen=True)
class _Start:
    """The table of stopped cylinders from one start vertex: its leaves, in
    lexicographic edge order.

    Leaf i takes the draws m (of m / 2^53) with key[i - 1] <= m < key[i],
    key[-1] = 2^53: ``key`` is ceil(cum * 2^53) for the running sum of the
    leaves' probabilities, each the product of its edges' ``prob``.  Every
    walk that draws a terminal leaf ends there: ``slot[i]`` is then -1 - t,
    and column t of ``point`` is the leaf's box centre, computed by the same
    float operations as _finish.  The walks that draw an open leaf go on
    edge by edge: ``slot[i]`` is then its column of ``vkey``, ``orient``,
    ``scale`` and ``trans``, the walk state after ``levels`` edges, computed
    by the same float operations as that many sweeps of _step.  ``least`` is
    min_ratio^levels, and ``near`` holds the sweep's test thresholds per
    column g * E + e (see _starts), shared by every start.
    """

    levels: int  # edge levels grown; with none, a walk draws no leaf
    key: np.ndarray  # (L,) int64, nondecreasing
    depth: np.ndarray  # (L,) int64: the leaf's number of edges
    slot: np.ndarray  # (L,) int64
    point: np.ndarray  # (d, T): the terminal leaves' points
    vkey: np.ndarray  # (O,) int64: the open leaves' state
    orient: np.ndarray  # (O,) int64
    scale: np.ndarray  # (O,)
    trans: np.ndarray  # (d, O)
    least: float
    near: np.ndarray  # (G * E,)


def _starts(tables: _WalkTables, grids) -> list[_Start]:
    """One table of stopped cylinders per start vertex.

    At column ge, a walk's box can fit the finest grid only once its scale
    is at most near[ge] (always, for a box of zero width), so every stop
    test first checks that.  The margin keeps rounding from hiding a box
    exactly one side wide from the test.
    """
    with np.errstate(divide="ignore"):
        near = grids[0] / (2.0 * tables.half.max(axis=0)) * (1.0 + 1e-9)
    near = np.maximum(near, SCALE_FLOOR)
    return [_start(tables, v, near, grids) for v in range(len(tables.first_edge) - 1)]


def _start(tables: _WalkTables, v, near, grids) -> _Start:
    """The table of stopped cylinders from v, grown one edge level at a time.

    Each level replaces every open leaf by its children, one per out-edge,
    and tests each child by the walk's own stop rule (the ``near`` prefilter,
    then _stops): a child at which a walk would end becomes terminal.
    Growth ends when no leaf is open, or before a level that would add more
    than MAX_LEVEL_NODES leaves or bring the table above MAX_TABLE_NODES.
    """
    vkey = np.array([v << _VERTEX_SHIFT])
    orient = np.zeros(1, dtype=np.int64)
    scale = np.ones(1)
    trans = np.zeros((len(tables.origin), 1))
    # per level, the root's first: each node's stop flag and probability,
    # and the out-degrees of the level above's open nodes, its parents
    grown = [(np.zeros(1, dtype=bool), np.ones(1), None)]
    points = [np.empty((len(tables.origin), 0))]  # the terminal nodes', level by level
    n_ended, least = 0, 1.0
    while len(vkey):
        at = vkey >> _VERTEX_SHIFT
        first = tables.first_edge.take(at)
        deg = tables.first_edge.take(at + 1) - first
        n_new = int(deg.sum())
        if n_new > MAX_LEVEL_NODES or n_ended + n_new > MAX_TABLE_NODES:
            break
        parent = np.repeat(np.arange(len(deg)), deg)
        # each parent's edges in order: the child at offset i of its run takes first + i
        e = np.arange(n_new) + np.repeat(first - np.cumsum(deg) + deg, deg)
        stop, prob, _ = grown[-1]
        prob = prob[~stop].take(parent)
        prob *= tables.prob.take(e)
        scale, trans = scale.take(parent), trans.take(parent, axis=1)
        ge, vkey, orient = _advance(tables, e, orient.take(parent), scale, trans)
        least *= tables.ratio.min()
        test = np.flatnonzero(scale <= near.take(ge))
        ends, centre = _stops(tables, grids, ge.take(test), scale.take(test),
                              trans.take(test, axis=1))
        points.append(centre[:, ends])
        stop = np.zeros(n_new, dtype=bool)
        stop[test[ends]] = True
        grown.append((stop, prob, deg))
        n_ended += points[-1].shape[1]
        live = np.flatnonzero(~stop)
        vkey, orient, scale = vkey.take(live), orient.take(live), scale.take(live)
        trans = trans.take(live, axis=1)
    slot, prob, depth = _leaf_order(grown)
    key = np.minimum(np.ceil(np.cumsum(prob) * _U_SCALE), _U_SCALE).astype(np.int64)
    key[-1] = 1 << 53
    return _Start(len(grown) - 1, key, depth, slot, np.concatenate(points, axis=1),
                  vkey, orient, scale, trans, least, near)


def _leaf_order(grown):
    """(slot, prob, depth) of the leaves of the tree that _start grew, in
    lexicographic edge order: its terminal nodes, the t-th of them (level by
    level) with slot -1 - t, and the open nodes of its last level, the i-th
    with slot i.

    A node's leaves are itself when it is a leaf, else its children's
    leaves; a leaf's place is the number of leaves in the subtrees of the
    nodes before it at its level and at each level above.
    """
    # leaves per node, bottom up
    size = [np.ones(len(grown[-1][0]), dtype=np.int64)]
    for level in range(len(grown) - 2, -1, -1):
        stop, deg = grown[level][0], grown[level + 1][2]
        above = np.ones(len(stop), dtype=np.int64)
        above[~stop] = np.add.reduceat(size[-1], np.cumsum(deg) - deg)
        size.append(above)
    size.reverse()
    n_leaves = int(size[0][0])
    slot = np.empty(n_leaves, dtype=np.int64)
    prob = np.empty(n_leaves)
    depth = np.empty(n_leaves, dtype=np.int64)
    place = np.zeros(1, dtype=np.int64)
    n_ended = 0
    for level, ((stop, p, deg), n) in enumerate(zip(grown, size)):
        if level:
            # a parent's place, plus the leaves of the siblings before the node
            before = np.cumsum(n) - n
            place = np.repeat(place[~grown[level - 1][0]] - before[np.cumsum(deg) - deg], deg)
            place += before
        leaf = np.flatnonzero(stop)
        slot[place[leaf]] = -1 - np.arange(n_ended, n_ended + len(leaf))
        n_ended += len(leaf)
        if level == len(grown) - 1:
            open_ = np.flatnonzero(~stop)
            slot[place[open_]] = np.arange(len(open_))
            leaf = np.arange(len(stop))
        prob[place[leaf]] = p[leaf]
        depth[place[leaf]] = level
    return slot, prob, depth


def _walk_chunk(tables: _WalkTables, start: _Start, out, rng, grids):
    """Walk out.shape[1] points from start's vertex into the (d, count) out.

    Each walk first draws its leaf of start's table (no draw when the table
    grew no level).  A terminal leaf gives the walk's point; from an open
    leaf the walk advances one edge per sweep.  Once a walk's box is no
    wider than the finest side in grids, it ends when its box lies in one
    closed box of each grid in grids (sides, finest first, anchored at
    ``tables.origin``) or its scale is at most SCALE_FLOOR, and its point is
    the box's centre.  Finished walks leave the arrays: the active walks stay
    compacted in ascending order and draw one raw word each per sweep.
    Coordinates are rows (d, n), so every gather and compaction acts on
    contiguous 1-D data.
    """
    slot = start.slot.take(_draw_leaves(start, out.shape[1], rng))
    done = np.flatnonzero(slot < 0)
    ended = ~slot.take(done)
    for row, c in zip(out, start.point):
        row[done] = c.take(ended)
    pos = np.flatnonzero(slot >= 0)
    slot = slot.take(pos)
    vkey, orient = start.vkey.take(slot), start.orient.take(slot)  # orient: E * index
    scale, trans = start.scale.take(slot), start.trans.take(slot, axis=1)
    del slot, done, ended
    near, least, min_ratio = start.near, start.least, tables.ratio.min()
    near_max = near.max()

    while len(pos):
        ge, vkey, orient = _step(tables, rng, vkey, orient, scale, trans)
        least *= min_ratio
        if least > near_max:
            continue
        test = np.flatnonzero(scale <= near.take(ge))
        if len(test) < len(pos):
            done = test.take(_finish(tables, grids, out, pos.take(test), ge.take(test),
                                     scale.take(test), trans.take(test, axis=1)))
        else:
            done = _finish(tables, grids, out, pos, ge, scale, trans)
        if len(done):
            keep = np.ones(len(pos), dtype=bool)
            keep[done] = False
            live = np.flatnonzero(keep)
            pos, vkey, orient = pos.take(live), vkey.take(live), orient.take(live)
            scale, trans = scale.take(live), trans.take(live, axis=1)


def _draw_leaves(start: _Start, count, rng):
    """The leaf index of each of count walks, ascending.

    One raw word per walk, sorted, is counted into each leaf's range of
    keys: the counts of count independent inverse-CDF draws.
    """
    if not start.levels:
        return np.zeros(count, dtype=np.int64)
    key = rng.bit_generator.random_raw(count)
    key >>= _RAW_SHIFT
    key = key.view(np.int64)
    key.sort()
    ends = np.searchsorted(key, start.key)
    return np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))


def _step(tables: _WalkTables, rng, vkey, orient, scale, trans):
    """Advance every walk one edge: scale and trans in place.

    Returns each walk's column ge = orient + e, its new vertex key and its
    new orientation.  The draws and gathers are freed on return, before the
    walks are tested.
    """
    # Shift while unsigned: k < 2^53, so the int64 view is k itself.
    key = rng.bit_generator.random_raw(len(vkey))
    key >>= _RAW_SHIFT
    key = key.view(np.int64)
    key += vkey
    e = tables.bucket_edge.take(key >> _BUCKET_SHIFT)
    split = np.flatnonzero(e < 0)
    if len(split):
        e[split] = np.searchsorted(tables.cum_key, key.take(split), side="right")
    return _advance(tables, e, orient, scale, trans)


def _advance(tables: _WalkTables, e, orient, scale, trans):
    """Move each walk along its edge e: scale and trans in place; returns
    (ge, new vertex key, new orientation) as _step does."""
    ge = orient + e
    step = tables.step.take(ge, axis=1)
    step *= scale
    trans += step
    scale *= tables.ratio.take(e)
    return ge, tables.dst_key.take(e), tables.mul.take(ge)


def _finish(tables: _WalkTables, grids, out, pos, ge, scale, trans):
    """End the given walks at which _stops stops them: write their box
    centres to their columns pos of out and return their indices in the
    arguments."""
    ends, centre = _stops(tables, grids, ge, scale, trans)
    which = np.flatnonzero(ends)
    dest = pos.take(which)
    for row, c in zip(out, centre):
        row[dest] = c.take(which)
    return which


def _stops(tables: _WalkTables, grids, ge, scale, trans):
    """(ends, centre): whether each walk's box fits every grid or its scale
    is at most SCALE_FLOOR, and the box centres, (d, n)."""
    centre = tables.centre.take(ge, axis=1)
    centre *= scale
    centre += trans
    half = tables.half.take(ge, axis=1)
    half *= scale
    ends = _fits(centre, half, tables.origin, grids)
    ends |= scale <= SCALE_FLOOR
    return ends, centre


def _fits(centre, half, origin, grids):
    """Whether each box centre +- half, (d, n), lies in one closed box of
    every grid with a side in grids, anchored at origin.

    Along each axis, u = centre - origin is the coordinate that box
    counting floors; the box fits when (u + half) / h is at most the upper
    edge floor((u - half) / h) + 1 of the box that holds its lower end.
    """
    fits = np.ones(centre.shape[1], dtype=bool)
    for c, w, a in zip(centre, half, origin):
        u = c - a
        for h in grids:
            edge = u - w
            edge /= h
            np.floor(edge, out=edge)
            edge += 1.0
            top = u + w
            top /= h
            fits &= top <= edge
    return fits


def partition_sum(cloud: SampleCloud, scales, q: float, total_mass: float) -> list[float]:
    """log S_q(h) for each grid side h in scales, where S_q(h) is the sum of
    q-th powers of the empirical box masses.

    Boxes are anchored at the family bounding-box corner (no random
    offsets); the empirical mass of a box is total_mass * count / N.  A side
    that the cloud was not sampled for raises InvalidParams.  An empty cloud
    gives -inf at every scale.
    """
    hs = [float(h) for h in scales]
    unresolved = sorted(set(hs) - set(cloud.scales))
    if unresolved:
        raise InvalidParams(
            f"the cloud resolves the box sides {list(cloud.scales)}, not {unresolved}"
        )
    n = len(cloud)
    if n == 0:
        return [-math.inf] * len(hs)
    return [
        _log_sum_of_powers(counts, n, q, total_mass)
        for counts in _box_counts(cloud.points, cloud.grid_anchor, hs)
    ]


def _log_sum_of_powers(counts, n, q, total_mass):
    """log of total_mass^q * sum (c/n)^q, finite for every q.

    The counts are scaled by the one (largest for q >= 0, smallest below)
    that keeps every (c/ref)^q in (0, 1], so the sum lies in [1, #boxes].
    """
    if q == 1.0:
        # the masses sum to total_mass exactly: the counts sum to n
        return math.log(total_mass)
    c = counts.astype(float)
    ref = c.max() if q >= 0.0 else c.min()
    return q * math.log(total_mass * ref / n) + math.log(np.sum((c / ref) ** q))


def _box_counts(points, anchor, hs):
    """Occupied-box counts at each side in hs, in the order of hs.

    The sides are visited finest first.  A side that is h_prev * 2^j
    exactly for the side h_prev visited before it takes its boxes from
    that level's distinct keys shifted right by j: dividing by a power of
    two is exact and floor(y / 2^j) = floor(y) >> j, so every box gets the
    count that binning the points would give.  Any other side bins the
    points.  Each array lists its boxes in lexicographic key order.  A side
    so fine that the keys or the grid around the points would need more
    than 62 bits raises InvalidParams.
    """
    out = [None] * len(hs)
    prev = keys = counts = None
    for i in sorted(range(len(hs)), key=hs.__getitem__):
        h = hs[i]
        j = _octaves(prev, h)
        if j is None:
            keys, counts = _box_keys(points, anchor, h)
        elif j:
            keys, counts = _distinct(keys >> j, counts)
        out[i] = counts
        prev = h
    return out


def _box_keys(points, anchor, h):
    """The distinct keys floor((p - anchor) / h) of the points' boxes, (m, d)
    in lexicographic order, and the number of points in each.

    Each coordinate row is binned in turn into one flat row-major key, so
    besides that key only one row's float and integer keys are held.
    """
    flat, lo, hi = None, [], []
    for row, a in zip(points.T, anchor):
        y = row - a
        y /= h
        np.floor(y, out=y)
        lo.append(y.min())
        hi.append(y.max())
        _check_key_range(np.array(lo), np.array(hi), h)  # before the flat key can overflow
        k = y.astype(np.int64)
        del y
        k -= int(lo[-1])
        if flat is None:
            flat = k
        else:
            flat *= int(hi[-1] - lo[-1]) + 1
            flat += k
        del k
    flat, counts = np.unique(flat, return_counts=True)
    dims = tuple(int(b - a) + 1 for a, b in zip(lo, hi))
    return np.stack(np.unravel_index(flat, dims), axis=1) + np.array(lo, dtype=np.int64), counts


def _check_key_range(lo, hi, h):
    """InvalidParams unless the keys lo .. hi (per axis) of side h fit 62 bits."""
    if max(-lo.min(), hi.max()) >= 2.0**62 or np.prod(hi - lo + 1.0) >= 2.0**62:
        raise InvalidParams(f"box side {h} is too fine to index the boxes in 62 bits")


def _octaves(fine, h):
    """The j with h == fine * 2^j exactly (0 <= j < 63), else None."""
    if fine is not None:
        j = math.frexp(h / fine)[1] - 1
        if j < 63 and math.ldexp(fine, j) == h:
            return j
    return None


def _distinct(keys, weights):
    """Distinct rows of the (m, d) integer keys in lexicographic order, with
    the summed weights of each.

    The keys are shifted in place: callers pass an array they do not reuse.
    """
    lo = keys.min(axis=0)
    keys -= lo
    dims = tuple(keys.max(axis=0) + 1)
    flat = np.ravel_multi_index(tuple(keys.T), dims)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    counts = np.add.reduceat(weights[order], starts)
    return np.stack(np.unravel_index(flat[starts], dims), axis=1) + lo, counts


def estimate_tau(
    g: Gifs,
    q: float,
    h_list,
    n_per_vertex: int,
    seed: int,
    cloud: SampleCloud | None = None,
) -> ScalingFit:
    """Log-log regression of partition sums against scale.

    Requires a finite q and at least three distinct scales, all positive and
    finite (else InvalidParams), spanning at least two octaves, all below
    the family's coarsest first-level cell so the grid actually resolves
    structure.  A given cloud must have been sampled for every scale;
    otherwise the scales are sampled here.
    """
    if not isinstance(q, numbers.Real) or not math.isfinite(q):
        raise InvalidParams(f"q must be finite, got {q!r}")
    hs = [float(h) for h in h_list]
    if not all(0.0 < h < math.inf for h in hs):
        raise InvalidParams(f"scales must be positive and finite, got {hs}")
    hs = sorted(set(hs), reverse=True)  # a side given twice is one scale
    if len(hs) < 3:
        raise InsufficientScales(f"need >= 3 distinct scales, got {len(hs)}")
    if hs[0] / hs[-1] < 4.0:
        raise InsufficientScales("scales must span at least two octaves")
    min_cell = min(e.map.ratio for e in g.edges)
    if hs[0] > min_cell:
        raise InsufficientScales(
            f"coarsest scale {hs[0]} exceeds the smallest first-level cell {min_cell}"
        )
    if cloud is None:
        cloud = sample(g, n_per_vertex, seed, scales=hs)
    if len(cloud) == 0:
        raise InsufficientScales("empty partition sum; increase samples")
    log_sums = partition_sum(cloud, hs, q, total_mass=float(g.num_vertices))

    x = np.log(hs)
    y = np.array(log_sums)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(hs) - 2
    sse = float(np.sum(resid**2))
    sxx = float(np.sum((x - np.mean(x)) ** 2))
    stderr = math.sqrt(sse / dof / sxx) if dof > 0 else 0.0
    return ScalingFit(
        q=q,
        scales=tuple(hs),
        log_sums=tuple(log_sums),
        slope=float(slope),
        stderr=stderr,
    )


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def fit_to_csv(fit: ScalingFit) -> str:
    lines = ["h,log_S_q"]
    for h, s in zip(fit.scales, fit.log_sums):
        lines.append(f"{format(h, '.17g')},{format(s, '.17g')}")
    return "\n".join(lines) + "\n"
