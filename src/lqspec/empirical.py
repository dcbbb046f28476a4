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

No walk can end before its contraction could reach the finest side, so
the first k edges of every walk, the most that no stop test can see (at
most MAX_PREFIX_PATHS paths from any vertex), are drawn as one path.  Each
``sample`` call tabulates the k-edge paths from each start vertex with the
state that k single-edge sweeps would reach, and each walk draws its path
by one inverse-CDF lookup on the paths' cumulative probabilities.  This
gives the walks the law of k single-edge draws, and the depth is the same.

After the prefix, each sweep moves every active walk one edge with a fixed
set of whole-array operations.  One inverse-CDF lookup over all walks
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
draws one ``rng.bit_generator.random_raw(count)`` for its walks' prefixes
(none when k = 0) and sorts it, so the walks come grouped by path; then the
active walks stay in ascending order and draw one
``random_raw(n_active)`` per sweep.  The top 53 bits of each raw word are
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
# The prefix depth is lowered until no start vertex has more k-edge paths.
MAX_PREFIX_PATHS = CHUNK_SIZE // 16
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

    The k-edge paths from each vertex, for the largest k in which no walk
    can end (bounded by MAX_PREFIX_PATHS), are tabulated once, on a worker
    thread; every walk draws its first k edges as one of them and then goes
    on edge by edge.
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
    """The k-edge paths from one start vertex, in lexicographic edge order.

    Path p takes the draws m (of m / 2^53) with key[p - 1] <= m < key[p],
    key[-1] = 2^53: ``key`` is ceil(cum * 2^53) for the running sum of the
    paths' probabilities, each the product of its edges' ``prob``.  Column p
    of ``vkey``, ``orient``, ``scale`` and ``trans`` is the walk state after
    the path, computed by the same float operations as k sweeps of _step.
    ``least`` is min_ratio^k, and ``near`` holds the sweep's test
    thresholds per column g * E + e (see _walk_chunk), shared by every start.
    """

    depth: int
    key: np.ndarray  # (P,) int64, nondecreasing
    vkey: np.ndarray  # (P,) int64
    orient: np.ndarray  # (P,) int64
    scale: np.ndarray  # (P,)
    trans: np.ndarray  # (d, P)
    least: float
    near: np.ndarray  # (G * E,)


def _starts(tables: _WalkTables, grids) -> list[_Start]:
    """One _Start per vertex, for the largest prefix depth k in which no walk
    can end, lowered until no vertex has more than MAX_PREFIX_PATHS paths.

    At column ge, a walk's box can fit the finest grid only once its scale
    is at most near[ge] (always, for a box of zero width), and no walk gets
    there before its scale could be min_ratio^k.  The margin keeps rounding
    from hiding a box exactly one side wide from the test.
    """
    with np.errstate(divide="ignore"):
        near = grids[0] / (2.0 * tables.half.max(axis=0)) * (1.0 + 1e-9)
    near = np.maximum(near, SCALE_FLOOR)
    near_max, min_ratio = near.max(), tables.ratio.min()
    dst = tables.dst_key >> _VERTEX_SHIFT
    n_paths = np.ones(len(tables.first_edge) - 1, dtype=np.int64)
    depth, least = 0, 1.0
    while least * min_ratio > near_max:
        n_paths = np.add.reduceat(n_paths.take(dst), tables.first_edge[:-1])
        if n_paths.max() > MAX_PREFIX_PATHS:
            break
        depth += 1
        least *= min_ratio
    return [
        _Start(depth, *_paths(tables, v, depth), least=least, near=near)
        for v in range(len(n_paths))
    ]


def _paths(tables: _WalkTables, v, depth):
    """(key, vkey, orient, scale, trans) of the depth-edge paths from v."""
    vkey = np.array([v << _VERTEX_SHIFT])
    orient = np.zeros(1, dtype=np.int64)
    scale = np.ones(1)
    trans = np.zeros((len(tables.origin), 1))
    prob = np.ones(1)
    for _ in range(depth):
        at = vkey >> _VERTEX_SHIFT
        first = tables.first_edge.take(at)
        deg = tables.first_edge.take(at + 1) - first
        parent = np.repeat(np.arange(len(deg)), deg)
        # each parent's edges in order: the child at offset i of its run takes first + i
        e = np.arange(len(parent)) + np.repeat(first - np.cumsum(deg) + deg, deg)
        scale, trans, prob = scale.take(parent), trans.take(parent, axis=1), prob.take(parent)
        _, vkey, orient = _advance(tables, e, orient.take(parent), scale, trans)
        prob *= tables.prob.take(e)
    key = np.minimum(np.ceil(np.cumsum(prob) * _U_SCALE), _U_SCALE).astype(np.int64)
    key[-1] = 1 << 53
    return key, vkey, orient, scale, trans


def _walk_chunk(tables: _WalkTables, start: _Start, out, rng, grids):
    """Walk out.shape[1] points from start's vertex into the (d, count) out.

    Each walk first draws its k-edge path from start (no draw when k = 0),
    and then advances one edge per sweep.  Once a walk's box is no wider than
    the finest side in grids, it ends when its box lies in one closed box of
    each grid in grids (sides, finest first, anchored at ``tables.origin``)
    or its scale is at most SCALE_FLOOR, and its point is the box's centre.
    Finished walks leave the arrays: the active walks stay compacted in
    ascending order and draw one raw word each per sweep.  Coordinates are
    rows (d, n), so every gather and compaction acts on contiguous 1-D data.
    """
    count = out.shape[1]
    pos = np.arange(count)
    path = _draw_paths(start, count, rng)
    vkey, orient = start.vkey.take(path), start.orient.take(path)  # orient: E * index
    scale, trans = start.scale.take(path), start.trans.take(path, axis=1)
    del path
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


def _draw_paths(start: _Start, count, rng):
    """The path index of each of count walks, ascending.

    One raw word per walk, sorted, is counted into each path's range of
    keys: the counts of count independent inverse-CDF draws.
    """
    if not start.depth:
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
    """End the given walks whose boxes fit every grid or whose scale is at
    most SCALE_FLOOR: write their box centres to their columns pos of out
    and return their indices in the arguments."""
    centre = tables.centre.take(ge, axis=1)
    centre *= scale
    centre += trans
    half = tables.half.take(ge, axis=1)
    half *= scale
    ends = _fits(centre, half, tables.origin, grids)
    ends |= scale <= SCALE_FLOOR
    which = np.flatnonzero(ends)
    dest = pos.take(which)
    for row, c in zip(out, centre):
        row[dest] = c.take(which)
    return which


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
    anchor = np.asarray(anchor, dtype=float)
    out = [None] * len(hs)
    prev = keys = counts = None
    for i in sorted(range(len(hs)), key=hs.__getitem__):
        h = hs[i]
        j = _octaves(prev, h)
        if j is None:
            keys, counts = _distinct(_box_keys(points, anchor, h))
        elif j:
            keys, counts = _distinct(keys >> j, counts)
        out[i] = counts
        prev = h
    return out


def _box_keys(points, anchor, h):
    """The integer keys floor((p - anchor) / h) of the points' boxes."""
    y = points - anchor  # one float temporary, kept in the points' layout
    y /= h
    np.floor(y, out=y)
    _check_key_range(y.min(axis=0), y.max(axis=0), h)
    return y.astype(np.int64)


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


def _distinct(keys, weights=None):
    """Distinct rows of the (m, d) integer keys in lexicographic order, with
    the summed weights of each (a count of rows when weights is None).

    The keys are shifted in place: callers pass an array they do not reuse.
    """
    lo = keys.min(axis=0)
    keys -= lo
    dims = tuple(keys.max(axis=0) + 1)
    flat = np.ravel_multi_index(tuple(keys.T), dims)
    if weights is None:
        flat, counts = np.unique(flat, return_counts=True)
    else:
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        starts = np.flatnonzero(np.diff(flat, prepend=-1))
        counts = np.add.reduceat(weights[order], starts)
        flat = flat[starts]
    return np.stack(np.unravel_index(flat, dims), axis=1) + lo, counts


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
