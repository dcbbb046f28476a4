"""Monte Carlo cross-validation of the computed spectra.

Points are drawn from each vertex measure by random edge walks (a chaos
game on the graph): starting at a vertex, edges are drawn with their
transition probabilities and the corresponding similitudes composed.  A
walk at vertex w with composed map F has drawn a point of the cylinder
F(K_w), which lies in F(B_w), where B_w is a box around the attractor K_w
computed once per ``sample`` call.  The walk stops once that box lies
in one closed box of every grid the box counts bin (the finest side, and
each side that is not a power-of-two multiple of the side below it), and
emits, at each such grid, the Morton code of the box that holds the box's
centre.  So at every requested side the walk's box is the box of the exact
draw, up to draws on a grid line, which have probability zero.  A walk
that keeps straddling a line ends once its contraction is at most
SCALE_FLOOR = 1e-12; its centre is then within 1e-12 box widths of an
exact draw.  The sides fix the depth, so there is no other stopping knob.
The codes' layout is fixed before any walk: keys from 0 at the low corner
of the family's bounding box, with the bits of the grid over it, and a key
outside it raises SamplerBound.

Each ``sample`` call tabulates the cylinders at which walks stop, once per
class of vertices with one walk law (_classes; on ``nonstrong-r-heights``
the paper's vertices 1-5 share a table): a tree of edge paths grown one
level at a time from the class's first vertex, in which a node where the
walk's stop test ends it becomes a terminal leaf holding its box codes,
while the other (open) leaves hold the walk state.  A tree grows while a
level adds at most MAX_LEVEL_NODES of its leaves and it keeps at most
MAX_TABLE_NODES; the classes' trees grow one after another.  A table lists
its leaves as they are made: the terminal leaves level by level, then the
open leaves, all of the level at which the tree stopped, each level in
lexicographic edge order.
The counts of n inverse-CDF draws on the leaves' keys ceil(cum * 2^53),
each with the law of edge-by-edge draws to its leaf, are Multinomial(n, key
widths / 2^53), so each vertex draws one multinomial over its table's
groups, the terminal leaves in one box at every tested grid with the sum of
their widths, and open leaves (343 to 1,185 per 1-D table at the default
sides).  A walk in a group is done (at the default sides almost every 1-D
walk), so a cloud holds counted groups, and box counting bins one code per
group and grid, weighted by the walks of every vertex that shares its table.

After an open leaf, each sweep moves every active walk along a path of k
edges, the most at which no vertex has more than 256 paths, and then tests
it: a walk ends at the first depth levels + j k whose box fits, up to
k - 1 edges deeper than the first fit, where its box counts are the same.
One inverse-CDF lookup over all walks picks their paths: a walk at vertex
v with draw u = m / 2^53 has the integer key (v << 54) + m, and global
per-path tables map the keys to paths, then the paths to composed ratios,
destinations and translations.  A walk's orientation is a small integer:
its index into the group generated by the edges' orthogonal parts, closed
once per ``sample`` call with tables for the product R_g O_p, the rotated
translation R_g t_p and the rotated box of the path's destination.  The
group may have at most MAX_ORIENTATIONS elements; an orthogonal part of
infinite order (e.g. a rotation by one radian) raises SamplerBound, as
does a graph with more than MAX_VERTICES vertices.

Sampling draws from one deterministic random stream per (seed, vertex,
chunk).  Vertex v draws its leaf counts by ``rng.multinomial`` on stream
(seed, v, 0); the walks that drew open leaves, in leaf order, then sweep in
chunks of 65536, chunk c on stream (seed, v, c) and chunk 0 on from where
the multinomial left it, with one ``rng.bit_generator.random_raw(n_active)``
per sweep over the chunk's active walks in ascending order.  The top 53
bits of a raw word are the m of the m / 2^53 that ``rng.random()`` would
return.  A walk that ends in a group draws no raw word.  A seed fixes every
count and code for one numpy version: numpy keeps ``random_raw``'s stream
across versions, but does not promise to keep the multinomial's.
Each chunk writes its walks' codes to its own columns of one grid-major
array, so the draws and the chunks run on a thread pool with one worker per
CPU available to the process (numpy releases the interpreter lock in the
multinomial, the gathers and the draws).  There is no setting for the
worker count, and the codes do not depend on it.

This is the only module that needs numpy; it converts the maps' plain
tuples (``gifs.Similitude``) into its arrays.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import NamedTuple

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
# A sweep moves a walk along a path of k edges: the longest paths of which no
# vertex has more than its 256 lookup buckets, and at most _MAX_PATH_EDGES
# edges, which bounds k on graphs whose paths barely branch.
_MAX_PATHS = 1 << (53 - _BUCKET_SHIFT)
_MAX_PATH_EDGES = 8
# Products of orthogonal parts that agree to this are one orientation; rounding
# along a closure path stays far below it, and distinct elements of a group of
# at most MAX_ORIENTATIONS elements differ by far more.
_ORIENTATION_TOL = 1e-9
# Rounds of the vertex-box iteration; every round's boxes contain the attractors.
_BOX_ROUNDS = 100


class SampleCloud:
    """n points from the vertex measures, exact at the box sides in
    ``scales`` (coarsest first); box counting anchors its grids at
    ``grid_anchor``.

    A cloud holds the Morton codes (_morton) of its points' boxes, one row
    per grid that box counting bins (_tested_grids), and the walk weights
    of its counted groups, but no coordinates.  Built from an (n, d) array
    of finite points (InvalidParams names the first that is not), it
    converts them here, each axis's keys less their least, rounded down to
    a multiple of 2^j for the coarsest side h * 2^j of the grid's chain.
    ``sample`` builds it from the codes that walks emit under a layout
    fixed over the family's bounding box: one per group of terminal leaves
    (_Start) that some walk drew, weighted by its walks summed over the
    vertices that share its table, and one per walk that went on from an
    open leaf.  ``len`` is the number of points.
    """

    def __init__(self, points, scales, grid_anchor=()):
        # float64: _morton casts each coordinate row's keys to int64 in the row's memory
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or not points.shape[1]:
            raise InvalidParams(
                f"the cloud's points must be an (n, d) array, got shape {points.shape}"
            )
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise InvalidParams(f"point {i} of the cloud, {points[i].tolist()}, is not finite")
        if len(grid_anchor) != points.shape[1]:
            raise InvalidParams(
                f"the grid anchor {tuple(grid_anchor)} has {len(grid_anchor)} "
                f"coordinates, but the points have dimension {points.shape[1]}"
            )
        self.scales = _positive_sides(scales)  # the box sides the points resolve, coarsest first
        self.grid_anchor = grid_anchor
        self._n = len(points)
        self._ended = None  # (per-grid codes, walk counts) of the counted groups
        ends = (points.min(axis=0), points.max(axis=0)) if self._n else (grid_anchor,) * 2
        octaves, layouts = _grid_octaves(self.scales), []
        for k, h in enumerate(_tested_grids(self.scales)):
            span = max(j for grid, j in octaves.values() if grid == k)
            lo, hi = (np.floor(np.subtract(end, grid_anchor) / h) for end in ends)
            layouts.append((h, *_code_layout(lo, hi, span, h)))
        self._codes = _code_rows(points.T, grid_anchor, layouts)

    @classmethod
    def _counted(cls, scales, grid_anchor, starts, drawn, n_swept):
        """The cloud of ``sample``'s walks, with room for the codes of the
        n_swept walks that go on from open leaves, which the walks write:
        drawn holds, per vertex, (t, counts of the groups and open leaves
        of the table starts[t]).  The codes of the groups that some walk
        drew follow, each weighted by its walks summed per table, so a
        table's groups are binned once however many vertices share it."""
        cloud = cls.__new__(cls)
        cloud.scales, cloud.grid_anchor = scales, grid_anchor
        cloud._n = sum(int(counts.sum()) for _, counts in drawn)
        total = [np.zeros(start.code.shape[1], dtype=np.int64) for start in starts]
        for t, counts in drawn:
            total[t] += counts[: len(total[t])]
        group = [np.flatnonzero(n) for n in total]
        ended = np.concatenate([s.code.take(i, axis=1) for s, i in zip(starts, group)], axis=1)
        weights = np.concatenate([n.take(i) for n, i in zip(total, group)])
        cloud._ended = (ended, weights) if len(weights) else None
        cloud._codes = np.empty((len(ended), n_swept + len(weights)), ended.dtype)
        cloud._codes[:, n_swept:] = ended
        return cloud

    def __len__(self) -> int:
        return self._n


class ScalingFit(NamedTuple):
    q: float
    scales: tuple[float, ...]
    log_sums: tuple[float, ...]  # log S_q(h) at each scale
    slope: float
    stderr: float


def sample(g: Gifs, n_per_vertex: int, seed: int, scales=DEFAULT_SCALES) -> SampleCloud:
    """Draw n_per_vertex points from each vertex measure, exact at the box
    sides in scales.

    The k-edge paths that sweeps take are tabulated once, before any worker
    starts, and the cylinders at which walks stop once per class of
    vertices (_classes), from its first vertex, class after class in one
    job on a worker thread; every vertex of the class walks from that
    table, with the same points as from a table of its own.  Then each
    vertex v, one job each, draws how many of its walks take each group and
    open leaf of its table (_leaf_counts) on its (seed, v, 0) stream.  The
    walks that drew open leaves, in leaf order, go on k edges per sweep in
    chunks of CHUNK_SIZE, chunk c on the (seed, v, c) stream and chunk 0 on
    from where the multinomial left it, each writing their box codes at
    every tested grid to its own columns of the cloud's (grids, m + t)
    array, whose last t columns hold the codes of the groups that some walk
    drew.  The jobs run on one thread per CPU available to the process, and
    the codes do not depend on how many run.
    On an error in a job or an interrupt in the caller, queued jobs are
    cancelled and the error propagates once no job is running.
    Bad arguments raise InvalidParams before any walk.
    """
    n_per_vertex = _nonnegative_int("n_per_vertex", n_per_vertex)
    seed = _nonnegative_int("seed", seed)
    hs = _resolvable_sides(g, scales)
    tables = _walk_tables(g)
    layouts = _grid_layouts(g, hs)
    # Built before any worker starts: on a worker, this build raised the
    # peak RSS of repeated calls by 7-9 MB in about half of all processes.
    paths = _paths(tables)
    cls = _classes(g)
    roots = [cls.index(c) for c in range(max(cls) + 1)]

    def grow():
        return [_start(tables, layouts, r) for r in roots]

    def stream(*key):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

    def draw(v):
        rng = stream(v, 0)
        return rng, _leaf_counts(starts[cls[v]], n_per_vertex, rng)

    def walk(v, c, counts, a, b, rng):
        rng = stream(v, c) if rng is None else rng
        _walk_chunk(paths, starts[cls[v]], counts, cloud._codes[:, a:b], rng, layouts)

    n_chunks = (n_per_vertex + CHUNK_SIZE - 1) // CHUNK_SIZE
    workers = _worker_count(g.num_vertices * n_chunks)
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        # On a worker, the tables and their temporaries stay out of the
        # caller's heap, whose free space box counting reuses; built here,
        # they raised the peak RSS of repeated 2-D calls by 7 MB.
        starts = pool.submit(grow).result() if pool else grow()
        draws = _run(pool, draw, [(v,) for v in range(g.num_vertices)])
        jobs, at = [], 0
        for v, (rng, counts) in enumerate(draws):
            start = starts[cls[v]]
            going = np.cumsum(counts[start.code.shape[1]:])  # the open leaves' walks
            n_going = int(going[-1]) if len(going) else 0
            for c, a in enumerate(range(0, n_going, CHUNK_SIZE)):
                b = min(a + CHUNK_SIZE, n_going)
                chunk = np.diff(np.clip(going, a, b), prepend=a)
                jobs.append((v, c, chunk, at + a, at + b, None if c else rng))
            at += n_going
        per_vertex = [(cls[v], counts) for v, (_, counts) in enumerate(draws)]
        anchor = tuple(lo for lo, _ in g.bbox)
        cloud = SampleCloud._counted(hs, anchor, starts, per_vertex, at)
        _run(pool, walk, jobs)
    finally:
        if pool:
            # A plain `with` would run every queued chunk before re-raising.
            pool.shutdown(cancel_futures=True)
    return cloud


def _run(pool, fn, jobs):
    """fn(*job) for each job, on the pool's threads if there is a pool.

    Returns the results in job order once every job is done; raises the
    first error as soon as a job fails, leaving the queued jobs for the
    caller to cancel.
    """
    if pool is None:
        return [fn(*job) for job in jobs]
    futures = [pool.submit(fn, *job) for job in jobs]
    done, _ = wait(futures, return_when=FIRST_EXCEPTION)
    for future in done:
        future.result()
    return [future.result() for future in futures]


def _nonnegative_int(name, value) -> int:
    """value as an int; InvalidParams unless it is an integer >= 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParams(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise InvalidParams(f"{name} must be >= 0, got {value}")
    return int(value)


def _tested_grids(hs):
    """The sides, finest first, that a walk's box is tested against: those
    of hs (coarsest first) that are not 2^j times the side below them.

    A box inside one closed box of side h lies inside one of side h * 2^j,
    so only these grids need a test, and a cloud holds codes at these alone.
    """
    return tuple(h for h, (_, j) in _grid_octaves(hs).items() if not j)


def _grid_octaves(hs):
    """{h: (k, j)} for each side h of hs (coarsest first), finest first: h
    is 2^j times the k-th tested grid (_tested_grids), each side in turn
    exactly a power-of-two multiple of the one below it."""
    out, prev, k, at = {}, None, -1, 0
    for h in hs[::-1]:
        j = _octaves(prev, h)
        k, at = (k + 1, 0) if j is None else (k, at + j)
        out[h], prev = (k, at), h
    return out


def _positive_sides(scales) -> tuple[float, ...]:
    """The distinct sides in scales, coarsest first; InvalidParams unless
    each is positive and finite."""
    hs = sorted({float(h) for h in scales}, reverse=True)
    if not all(0.0 < h < math.inf for h in hs):
        raise InvalidParams(f"scales must be positive and finite, got {hs}")
    return tuple(hs)


def _resolvable_sides(g: Gifs, scales) -> tuple[float, ...]:
    """The distinct sides in scales, coarsest first.

    Raises InvalidParams for no side, for a side that is not positive and
    finite, that a walk's box at the scale floor is not narrower than, or
    whose grid over ``g.bbox`` needs Morton codes of more than 64 bits
    (_code_layout).
    """
    hs = _positive_sides(scales)
    if not hs:
        raise InvalidParams("scales must be positive and finite, got []")
    h = hs[-1]
    width = np.array([hi - lo for lo, hi in g.bbox])
    if h <= SCALE_FLOOR * width.max():
        raise InvalidParams(f"box side {h} is too fine for walks that stop at scale {SCALE_FLOOR}")
    _grid_layouts(g, hs)
    return hs


def _grid_layouts(g: Gifs, hs):
    """(h, offsets, bits) of the Morton codes at each tested grid of the
    sides hs, fixed before any walk: offset 0 at the low corner of
    ``g.bbox``, and the bits of the keys 0 .. floor(width / h) (_code_layout)."""
    width = np.array([hi - lo for lo, hi in g.bbox])
    return [(h, *_code_layout(np.zeros_like(width), np.floor(width / h), 0, h))
            for h in _tested_grids(hs)]


def _worker_count(n_jobs: int) -> int:
    """One thread per CPU this process may run on, at most one per job."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, n_jobs)


class _WalkTables(NamedTuple):
    """Global per-edge tables; edges are grouped by source vertex.

    ``prob`` is the probability with which a walk draws the edge: the width
    of its keys ceil(cum * 2^53) over 2^53, for each vertex's cumulative edge
    probabilities.  Orientations are indices g into the group generated by
    the edges' orthogonal parts; the flat index ``g * E + e`` addresses
    ``mul`` (the orientation after edge e, times E), ``step`` (R_g t_e), and
    the box of the edge's destination w in the orientation R = R_g O_e after
    the edge: ``centre`` (R c_w) and ``half`` (|R| h_w, the half-widths of
    the hull of the rotated box).

    The table of the paths that walks sweep along (_paths) has the same
    layout, each k-edge path in the place of an edge, and also the lookup:
    a walk at vertex v with uniform draw u = m / 2^53 takes the path at
    ``searchsorted(cum_key, (v << 54) + m, side="right")``.  ``cum_key``
    holds ``(v << 54) + ceil(cum * 2^53)`` for each vertex's cumulative path
    probabilities, so the search makes exactly the comparisons ``cum <= u``
    of a per-vertex inverse CDF.  ``bucket_edge`` gives the same answer
    without the search for keys in a bucket that no ``cum_key`` splits.
    """

    first_edge: np.ndarray  # (V + 1,) int64: v's edges run from first_edge[v] to first_edge[v + 1]
    prob: np.ndarray  # (E,): the edge's drawn probability
    ratio: np.ndarray  # (E,)
    dst_key: np.ndarray  # (E,) int64: destination vertex << 54
    mul: np.ndarray  # (G * E,) int64: E * (index of R_g O_e)
    step: np.ndarray  # (d, G * E): R_g t_e
    centre: np.ndarray  # (d, G * E): R_g O_e c_dst(e)
    half: np.ndarray  # (d, G * E): |R_g O_e| h_dst(e)
    origin: np.ndarray  # (d,): the grids' anchor, the low corner of g.bbox
    cum_key: np.ndarray | None = None  # (E,) int64, ascending; paths only
    bucket_edge: np.ndarray | None = None  # int64 per key >> _BUCKET_SHIFT: its path, or -1 if split


def _walk_tables(g: Gifs) -> _WalkTables:
    if g.num_vertices > MAX_VERTICES:
        raise SamplerBound(
            f"{g.num_vertices} vertices exceed the sampler's bound of {MAX_VERTICES}"
        )
    edges, prob, first_edge = [], [], [0]
    for v in range(g.num_vertices):
        out = g.out_edges(v)
        if not out:
            raise InvalidParams(f"vertex {v + 1} has no outgoing edge")
        prob.append(np.diff(_keys([e.prob for e in out]), prepend=0) / _U_SCALE)
        edges.extend(out)
        first_edge.append(len(edges))
    orths = np.array([e.map.orthogonal for e in edges])
    rots, mul = _orientation_group(orths)
    trans = np.array([e.map.translation for e in edges])
    ratio = np.array([e.map.ratio for e in edges])
    dst = np.array([e.dst for e in edges])
    src = np.array([e.src for e in edges])
    lo, hi = _vertex_boxes(g.bbox, g.num_vertices, src, dst, ratio, orths, trans)
    after = rots[mul]  # (G, E, d, d): R_g O_e
    return _WalkTables(
        first_edge=np.array(first_edge),
        prob=np.concatenate(prob),
        ratio=ratio,
        dst_key=dst.astype(np.int64) << _VERTEX_SHIFT,
        mul=(mul * len(edges)).ravel(),
        step=_per_ge(rots[:, None], trans),
        centre=_per_ge(after, (lo[dst] + hi[dst]) / 2.0),
        half=_per_ge(np.abs(after), (hi[dst] - lo[dst]) / 2.0),
        origin=np.array([a for a, _ in g.bbox]),
    )


def _classes(g: Gifs) -> list[int]:
    """Each vertex's class, numbered in the order of the classes' first
    vertices, by Moore's partition refinement: vertices start in one class
    per row of out-edges, each edge taken in order as its similitude and
    drawn key width, and a class splits until its vertices' edges, taken in
    order, lead into equal classes.  Walks from the vertices of a class
    have one law, and one table of stopped cylinders, bit for bit.
    """
    rows, dsts = [], []
    for v in range(g.num_vertices):
        out = g.out_edges(v)
        width = np.diff(_keys([e.prob for e in out]), prepend=0).tolist()
        # repr, unlike ==, tells -0.0 from 0.0, so a shared table is bit for bit each vertex's own
        rows.append(tuple(zip(map(repr, (e.map for e in out)), width)))
        dsts.append([e.dst for e in out])
    cls, finer = None, _numbered(rows)
    # a round only splits classes, and first-seen numbers name the unsplit ones alike
    while finer != cls:
        cls = finer
        finer = _numbered([(c, *(cls[w] for w in dst)) for c, dst in zip(cls, dsts)])
    return cls


def _numbered(labels):
    """Each label's index among the distinct labels, in first-seen order."""
    index = {}
    return [index.setdefault(label, len(index)) for label in labels]


def _keys(prob):
    """ceil(cum * 2^53) for the running sum cum of prob, the last one 2^53.
    Clipping at 2^53 changes no comparison with a draw m < 2^53."""
    key = np.minimum(np.ceil(np.cumsum(prob) * _U_SCALE), _U_SCALE).astype(np.int64)
    key[-1] = 1 << 53
    return key


def _paths(tables: _WalkTables) -> _WalkTables:
    """The table of the k-edge paths that walks sweep along, in the layout
    of the edge table: path p in the place of an edge, each vertex's paths
    in lexicographic edge order.  k is the largest k <= _MAX_PATH_EDGES for
    which no vertex has more than _MAX_PATHS paths of k edges, or 1.

    Each path's probability is the product of its edges' ``prob``, and its
    key is ceil(cum * 2^53) of their running sum.  Its ratio, destination,
    orientation, translation and destination box in orientation g are those
    of a walk at (g, scale 1, translation 0) moved along its edges by
    _advance, so applying a path moves a walk by its composed map.
    """
    n_edges, n_vertices = len(tables.ratio), len(tables.first_edge) - 1
    n_orient = len(tables.mul) // n_edges
    # one root per (orientation g, vertex v), at g * V + v
    root = np.tile(np.arange(n_vertices), n_orient)
    vkey = root << _VERTEX_SHIFT
    orient = np.repeat(np.arange(n_orient) * n_edges, n_vertices)
    prob, scale = np.ones(len(root)), np.ones(len(root))
    trans = np.zeros((len(tables.origin), len(root)))
    for k in range(_MAX_PATH_EDGES):
        parent, e = _children(tables, vkey)
        # each orientation repeats every vertex's paths
        if k and np.bincount(root.take(parent)).max() > _MAX_PATHS * n_orient:
            break
        root, prob = root.take(parent), prob.take(parent) * tables.prob.take(e)
        scale, trans = scale.take(parent), trans.take(parent, axis=1)
        ge, vkey, orient = _advance(tables, e, orient.take(parent), scale, trans)
    n = len(root) // n_orient  # the paths; orientation g has the columns g * n + p
    first = np.searchsorted(root[:n], np.arange(n_vertices + 1))
    cum_key = np.concatenate([(v << _VERTEX_SHIFT) + _keys(prob[a:b])
                              for v, (a, b) in enumerate(zip(first, first[1:]))])
    # Buckets of 2^_BUCKET_SHIFT consecutive keys that no cum_key splits
    # resolve by one table lookup; only walks in split buckets are searched.
    bucket = np.arange(n_vertices << (_VERTEX_SHIFT - _BUCKET_SHIFT), dtype=np.int64)
    bucket <<= _BUCKET_SHIFT
    lo, hi = (np.searchsorted(cum_key, bucket + end, side="right")
              for end in (0, (1 << _BUCKET_SHIFT) - 1))
    return _WalkTables(
        first_edge=first,
        prob=prob[:n],
        ratio=scale[:n],
        dst_key=vkey[:n],
        mul=orient // n_edges * n,
        step=trans,
        centre=tables.centre.take(ge, axis=1),
        half=tables.half.take(ge, axis=1),
        origin=tables.origin,
        cum_key=cum_key,
        bucket_edge=np.where(lo == hi, lo, -1),
    )


def _children(tables: _WalkTables, vkey):
    """(parent, e): one child per out-edge of each node, at its vertex key
    vkey, each node's children in edge order."""
    at = vkey >> _VERTEX_SHIFT
    first = tables.first_edge.take(at)
    deg = tables.first_edge.take(at + 1) - first
    parent = np.repeat(np.arange(len(deg)), deg)
    # the child at offset i of its parent's run takes the parent's first edge + i
    return parent, np.arange(len(parent)) + np.repeat(first - np.cumsum(deg) + deg, deg)


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


class _Start(NamedTuple):
    """The table of stopped cylinders from one start vertex: its T terminal
    leaves, level by level, then its O open leaves, all of one level, each
    level in lexicographic edge order.

    Leaf i takes the draws m (of m / 2^53) with k[i - 1] <= m < k[i] for the
    keys k = ceil(cum * 2^53) of the running sum of the leaves'
    probabilities, each the product of its edges' ``prob``.  A group is the
    terminal leaves with one Morton code (_morton) at every tested grid, of
    the box of the leaf's box centre (by the float operations of _stops).
    ``key`` holds the running key width of the G groups (in the order of
    their first leaves; each the sum of its leaves' widths), then of the
    open leaves.  A walk that draws a group ends in the group's box at
    every side, and ``code`` holds each group's codes, which box counting
    bins for all its walks.  The walks that draw
    an open leaf G + j go on along k-edge paths from column j of ``vkey``,
    ``orient``, ``scale`` and ``trans``, the walk state after ``levels``
    edges, computed by the same float operations as that many edge moves of
    _advance; ``orient`` is an index into the orientation group.
    """

    levels: int  # edge levels grown; with none, a walk draws no leaf
    key: np.ndarray  # (G + O,) int64, nondecreasing, the last 2^53
    code: np.ndarray  # (grids, G) unsigned
    vkey: np.ndarray  # (O,) int64: the open leaves' state
    orient: np.ndarray  # (O,) int64
    scale: np.ndarray  # (O,)
    trans: np.ndarray  # (d, O)


def _start(tables: _WalkTables, layouts, root) -> _Start:
    """The table of stopped cylinders from vertex root, grown one edge level
    at a time, for the tested grids of layouts (_grid_layouts).

    Each level replaces every open leaf by its children, one per out-edge,
    and tests each child by the walk's own stop rule (the ``near``
    prefilter, then _stops): a child at which a walk would end becomes
    terminal.  The table stops growing when it has no open leaf, or before
    a level that would add more than MAX_LEVEL_NODES leaves or bring it
    above MAX_TABLE_NODES.

    At column ge, a node's box can fit the finest grid only once its scale
    is at most near[ge] (always, for a box of zero width), so every stop
    test first checks that.  The margin keeps rounding from hiding a box
    exactly one side wide from the test.
    """
    grids = [h for h, _, _ in layouts]
    with np.errstate(divide="ignore"):
        near = grids[0] / (2.0 * tables.half.max(axis=0)) * (1.0 + 1e-9)
    near = np.maximum(near, SCALE_FLOOR)
    vkey = np.array([root], dtype=np.int64) << _VERTEX_SHIFT
    prob, scale = np.ones(1), np.ones(1)
    orient = np.zeros(1, dtype=np.int64)
    trans = np.zeros((len(tables.origin), 1))
    # per level, the terminal nodes' probability and box centre
    ended = [(prob[:0], trans[:, :0])]
    levels = 0
    while len(vkey):
        parent, e = _children(tables, vkey)
        if len(e) > MAX_LEVEL_NODES or sum(len(p) for p, _ in ended) + len(e) > MAX_TABLE_NODES:
            break
        levels += 1
        prob = prob.take(parent)
        prob *= tables.prob.take(e)
        scale, trans = scale.take(parent), trans.take(parent, axis=1)
        ge, vkey, orient = _advance(tables, e, orient.take(parent), scale, trans)
        test = np.flatnonzero(scale <= near.take(ge))
        if not len(test):
            continue
        ends, centre = _stops(tables, grids, ge.take(test), scale.take(test),
                              trans.take(test, axis=1))
        test = test[ends]
        ended.append((prob.take(test), centre[:, ends]))
        live = np.ones(len(vkey), dtype=bool)
        live[test] = False
        live = np.flatnonzero(live)
        prob, vkey, orient = (a.take(live) for a in (prob, vkey, orient))
        scale, trans = scale.take(live), trans.take(live, axis=1)
    t_prob, centre = (np.concatenate(field, axis=-1) for field in zip(*ended))
    width = np.diff(_keys(np.concatenate((t_prob, prob))), prepend=0)
    code = _code_rows(centre, tables.origin, layouts)
    order = np.lexsort(code)  # stable: each box's leaves in leaf order
    box = code.take(order, axis=1)  # the first column differs from its bitwise not
    run = np.flatnonzero(np.diff(box, axis=1, prepend=~box[:, :1]).any(axis=0))
    head = order.take(run)  # each box's first leaf
    rank = np.argsort(head)  # the boxes in the order of their first leaves
    group_width = np.add.reduceat(width.take(order), run).take(rank)
    key = np.cumsum(np.concatenate((group_width, width[len(t_prob):])))
    return _Start(levels, key, code.take(head.take(rank), axis=1), vkey,
                  orient // len(tables.ratio), scale, trans)


def _walk_chunk(paths: _WalkTables, start: _Start, counts, out, rng, layouts):
    """Walk on from start's open leaves, counts[j] walks from the j-th of
    them, into the (grids, n) out, one column per walk in the order of their
    leaves.

    Each sweep moves every active walk along one k-edge path of ``paths``
    (see _paths), drawn with one raw word, and tests it once: it ends when
    its box lies in one closed box of each tested grid of layouts (sides,
    finest first, anchored at ``paths.origin``) or its scale is at most
    SCALE_FLOOR, and its column gets the Morton codes (_morton) of the box
    of the box's centre at each grid.  So a walk ends at the first depth
    ``start.levels`` + j k at which it would, at most k - 1 edges deeper
    than an edge-by-edge walk.  Finished walks leave the arrays: the
    active walks stay compacted in ascending order.  Coordinates are rows
    (d, n), so every gather and compaction acts on contiguous 1-D data.
    """
    vkey, orient = np.repeat(start.vkey, counts), np.repeat(start.orient, counts)
    orient *= len(paths.ratio)  # the first column of each walk's orientation
    scale, trans = np.repeat(start.scale, counts), np.repeat(start.trans, counts, axis=1)
    pos = np.arange(len(vkey))
    grids = [h for h, _, _ in layouts]

    while len(pos):
        ge, vkey, orient = _step(paths, rng, vkey, orient, scale, trans)
        ends, centre = _stops(paths, grids, ge, scale, trans)
        done = np.flatnonzero(ends)
        if len(done):
            out[:, pos.take(done)] = _code_rows(centre.take(done, axis=1), paths.origin, layouts)
            live = np.flatnonzero(~ends)
            pos, vkey, orient = pos.take(live), vkey.take(live), orient.take(live)
            scale, trans = scale.take(live), trans.take(live, axis=1)
        del centre


def _leaf_counts(start: _Start, n, rng):
    """How many of n walks draw each group, then each open leaf, of start's
    table: one multinomial over those of positive key width, each with its
    width over 2^53, the law of the counts of n inverse-CDF draws.  A table
    that grew no level takes no draw: its one leaf is the start vertex."""
    if not start.levels:
        return np.array([n])
    width = np.diff(start.key, prepend=0)
    counts = np.zeros(len(width), dtype=np.int64)
    drawn = np.flatnonzero(width)
    counts[drawn] = rng.multinomial(n, width.take(drawn) / _U_SCALE)
    return counts


def _step(paths: _WalkTables, rng, vkey, orient, scale, trans):
    """Move every walk along one path of ``paths``, drawn with one raw word
    each: scale and trans in place.

    Returns each walk's column ge = orient + p, its new vertex key and its
    new orientation.  The draws and gathers are freed on return, before the
    walks are tested.
    """
    # Shift while unsigned: k < 2^53, so the int64 view is k itself.
    key = rng.bit_generator.random_raw(len(vkey))
    key >>= _RAW_SHIFT
    key = key.view(np.int64)
    key += vkey
    p = paths.bucket_edge.take(key >> _BUCKET_SHIFT)
    split = np.flatnonzero(p < 0)
    if len(split):
        p[split] = np.searchsorted(paths.cum_key, key.take(split), side="right")
    return _advance(paths, p, orient, scale, trans)


def _advance(tables: _WalkTables, e, orient, scale, trans):
    """Move each walk along its edge e: scale and trans in place; returns
    (ge, new vertex key, new orientation) as _step does."""
    ge = orient + e
    step = tables.step.take(ge, axis=1)
    step *= scale
    trans += step
    scale *= tables.ratio.take(e)
    return ge, tables.dst_key.take(e), tables.mul.take(ge)


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

    Boxes are anchored at ``cloud.grid_anchor``, for a sampled cloud the
    family bounding-box corner (no random offsets); the empirical mass of a
    box is total_mass * count / N.  The boxes are counted from the cloud's
    Morton codes, each grid's sorted once for its chain of sides that are
    power-of-two multiples of each other (_box_counts): a sampled cloud's
    group codes count once each, weighted by how many walks drew them, and
    the walks that went on from open leaves one by one.  A side that the
    cloud was not sampled for raises InvalidParams, as do a q that is not a
    finite real and a total_mass that is not finite and positive.  An empty
    cloud gives -inf at every scale.
    """
    _check_q(q)
    if not isinstance(total_mass, numbers.Real) or not 0.0 < total_mass < math.inf:
        raise InvalidParams(f"total_mass must be finite and positive, got {total_mass!r}")
    hs = [float(h) for h in scales]
    unresolved = sorted(set(hs) - set(cloud.scales))
    if unresolved:
        raise InvalidParams(
            f"the cloud resolves the box sides {list(cloud.scales)}, not {unresolved}"
        )
    n = len(cloud)
    if n == 0:
        return [-math.inf] * len(hs)
    out = [None] * len(hs)
    for i, _, counts in _box_counts(cloud, hs):
        out[i] = _log_sum_of_powers(counts, n, q, total_mass)
    return out


def _check_q(q):
    """InvalidParams unless q is a finite real."""
    if not isinstance(q, numbers.Real) or not math.isfinite(q):
        raise InvalidParams(f"q must be finite, got {q!r}")


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


def _box_counts(cloud: SampleCloud, hs):
    """Yield (i, codes, counts) for each side hs[i], finest first: the
    Morton codes of the occupied boxes, ascending, and the number of points
    in each.

    Each side is 2^j times one of the cloud's grids (_grid_octaves).  The
    grid's codes are sorted in place, as a cloud is a multiset of codes,
    and equal codes counted, a group's code for its walks; each further
    side of the grid shifts the codes right by d * j in place (a caller
    that keeps codes copies them) and adds the counts of equal codes.
    Dividing by a power of two is exact and floor(y / 2^j) = floor(y) >> j,
    so every box gets the count that binning the points would give.
    """
    octaves, chains = _grid_octaves(cloud.scales), {}
    for i in sorted(range(len(hs)), key=hs.__getitem__):
        k, j = octaves[hs[i]]
        chains.setdefault(k, []).append((i, j))
    dim = len(cloud.grid_anchor)
    for k, chain in chains.items():
        code = cloud._codes[k]
        code.sort()
        first = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))
        codes, counts = code[first], np.diff(first, append=len(code))
        if cloud._ended is not None:
            # each group's code was counted once; it stands for its walks
            ended, weights = cloud._ended
            np.add.at(counts, np.searchsorted(codes, ended[k]), weights - 1)
        at = 0
        for i, j in chain:
            if j > at:
                codes >>= dim * (j - at)
                first = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
                codes, counts, at = codes[first], np.add.reduceat(counts, first), j
            yield i, codes, counts


def _code_rows(points, origin, layouts):
    """The (grids, n) Morton codes (_morton) of the (d, n) points' boxes at
    each (h, offsets, bits) of layouts, uint32 where every grid's codes fit."""
    dim = len(origin)
    wide = any(dim * bits > 32 for _, _, bits in layouts)
    code = np.zeros((len(layouts), points.shape[1]), np.uint64 if wide else np.uint32)
    for row, layout in zip(code, layouts):
        _morton(points, origin, *layout, row)
    return code


def _morton(points, origin, h, off, bits, out):
    """OR into out the Morton codes of the boxes floor((p - origin) / h) of
    the (d, n) points: bit b of an axis's key less off[axis] is bit d * b +
    axis of the code, so for j <= the grid's span the code shifted right by
    d * j is that of the box of side h * 2^j.  SamplerBound, naming h,
    unless every key less its offset lies in [0, 2^bits): none is clipped.
    Each axis's keys are cast in their own float memory.
    """
    dim = len(origin)
    top = max(bits - 1, 0) // 16 if dim > 1 else 0  # the last 16-bit piece of a key
    for axis, x in enumerate(origin):
        y = points[axis] - x
        y /= h
        np.floor(y, out=y)
        k = y.view(np.int64)  # cast in y's own memory
        np.copyto(k, y, casting="unsafe")
        if off[axis]:
            k -= off[axis]
        if len(k) and int(k.view(np.uint64).max()) >> bits:  # a negative key is 2^63 or more
            raise SamplerBound(f"a box key at side {h} lies outside its {bits}-bit Morton code")
        for c in range(top, -1, -1):  # each 16-bit piece spread by one lookup
            part = k >> 16 * c if c else k
            if c < top:
                part &= 0xFFFF
            if dim > 1:  # "clip" skips the bounds check that would copy out
                _spread_table(dim).take(part, out=part, mode="clip")
            part <<= dim * 16 * c + axis
            np.bitwise_or(out, part.view(np.uint64), out=out, casting="unsafe")


def _code_layout(lo, hi, span, h):
    """The per-axis offsets (each least key in lo rounded down to a multiple
    of 2^span) and bits per axis of the Morton codes of keys lo .. hi of
    side h; InvalidParams unless the keys and offsets are within 2^62 of 0
    and the codes fit 64 bits.  ``_grid_layouts`` applies it before any
    walk."""
    if max(-lo.min(), hi.max()) < 2.0**62:
        off = [int(a) >> span << span for a in lo]
        bits = max((int(b) - o).bit_length() for b, o in zip(hi, off))
        if min(off) > -(2**62) and len(off) * bits <= 64:
            return off, bits
    raise InvalidParams(f"box side {h} is too fine to index the boxes in 64-bit Morton codes")


@functools.cache
def _spread_table(dim):
    """Each 16-bit i with its bit b moved to bit dim * b, as int64."""
    i = np.arange(1 << 16, dtype=np.uint64)
    return sum((i >> b & 1) << dim * b for b in range(16)).view(np.int64)


def _octaves(fine, h):
    """The j with h == fine * 2^j exactly (0 <= j < 63), else None."""
    if fine is not None:
        j = math.frexp(h / fine)[1] - 1
        if j < 63 and math.ldexp(fine, j) == h:
            return j
    return None


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
    finite (else InvalidParams), spanning at least two octaves, all at most
    the family's smallest first-level cell (its smallest edge ratio) so the
    grid actually resolves structure.  A given cloud must have been sampled
    for every scale; otherwise the scales are sampled here.
    """
    _check_q(q)
    hs = _positive_sides(h_list)  # a side given twice is one scale
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
        scales=hs,
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
