"""Monte Carlo cross-validation of the computed spectra.

Points are drawn from each vertex measure by random edge walks (a chaos
game on the graph): starting at a vertex, edges are drawn with their
transition probabilities and the corresponding similitudes composed until
the accumulated contraction ratio falls below a truncation threshold
depth_eps in (0, 1), at which point the composed map is applied to a fixed
anchor point.  Each emitted point therefore lies within depth_eps of an
exact draw.

Each sweep moves every active walk with a fixed set of whole-array
operations.  One inverse-CDF lookup over all walks picks their edges: a
walk at vertex v with draw u = k / 2^53 has the integer key
(v << 54) + k, and global per-edge tables map the keys to edges, then
the edges to ratios, destinations and translations.  A walk's orientation
is a small integer: its index into the group generated by the edges'
orthogonal parts, closed once per ``sample`` call with tables for the
product R_g O_e, the rotated translation R_g t_e and the rotated anchor
R_g a.  The group may have at most MAX_ORIENTATIONS elements; an
orthogonal part of infinite order (e.g. a rotation by one radian) raises
SamplerBound, as does a graph with more than MAX_VERTICES vertices.

Sampling is organized in fixed-size chunks of 65536 walks with one
deterministic random stream per (seed, vertex, chunk).  Within a chunk the
active walks stay in ascending order and draw one ``rng.random(n_active)``
per sweep, so a seed fixes every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientScales, InvalidParams, SamplerBound
from .gifs import Gifs

CHUNK_SIZE = 65536
# Fixed table bounds: the orientation group's order and the vertex count
# (vertex << 54 plus a 53-bit draw must fit an int64 key).
MAX_ORIENTATIONS = 1024
MAX_VERTICES = 512
_VERTEX_SHIFT = 54
_U_SCALE = 2.0**53  # rng.random() returns k / 2^53 with integer k
_BUCKET_SHIFT = 45  # 256 lookup buckets per vertex
# Products of orthogonal parts that agree to this are one orientation; rounding
# along a closure path stays far below it, and distinct elements of a group of
# at most MAX_ORIENTATIONS elements differ by far more.
_ORIENTATION_TOL = 1e-9


@dataclass(frozen=True)
class SampleCloud:
    points: np.ndarray  # (n, d), vertex-major: n_per_vertex points from each vertex
    depth_eps: float
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


def sample(g: Gifs, n_per_vertex: int, seed: int, depth_eps: float = 1e-9) -> SampleCloud:
    """Draw n_per_vertex points from each vertex measure."""
    if n_per_vertex < 0:
        raise ValueError("n_per_vertex must be >= 0")
    if not 0.0 < depth_eps < 1.0:
        raise InvalidParams(f"depth_eps must lie in (0, 1), got {depth_eps}")
    if seed < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed}")
    tables = _walk_tables(g)

    chunks = []
    n_chunks = (n_per_vertex + CHUNK_SIZE - 1) // CHUNK_SIZE
    for v in range(g.num_vertices):
        for c in range(n_chunks):
            count = min(CHUNK_SIZE, n_per_vertex - c * CHUNK_SIZE)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(v, c)))
            chunks.append(_walk_chunk(tables, v, count, rng, depth_eps))
    return SampleCloud(
        points=np.concatenate(chunks) if chunks else np.zeros((0, g.dim)),
        depth_eps=depth_eps,
        grid_anchor=tuple(lo for lo, _ in g.bbox),
    )


@dataclass(frozen=True)
class _WalkTables:
    """Global per-edge tables; edges are grouped by source vertex.

    A walk at vertex v with uniform draw u = k / 2^53 takes the edge at
    ``searchsorted(cum_key, (v << 54) + k, side="right")``: ``cum_key`` holds
    ``(v << 54) + ceil(cum * 2^53)`` for each vertex's cumulative edge
    probabilities, so the search makes exactly the comparisons ``cum <= u``
    of a per-vertex inverse CDF.  ``bucket_edge`` gives the same answer
    without the search for keys in a bucket that no ``cum_key`` splits.
    Orientations are indices g into the group generated by the edges'
    orthogonal parts; the flat index ``g * E + e`` addresses ``mul`` (the
    orientation after edge e, times E) and ``step`` (R_g t_e).
    """

    cum_key: np.ndarray  # (E,) int64, ascending
    bucket_edge: np.ndarray  # int64 per key >> _BUCKET_SHIFT: its edge, or -1 if split
    ratio: np.ndarray  # (E,)
    dst_key: np.ndarray  # (E,) int64: destination vertex << 54
    mul: np.ndarray  # (G * E,) int64: E * (index of R_g O_e)
    step: np.ndarray  # (d, G * E): R_g t_e
    anchor: np.ndarray  # (d, G): R_g anchor


def _walk_tables(g: Gifs) -> _WalkTables:
    if g.num_vertices > MAX_VERTICES:
        raise SamplerBound(
            f"{g.num_vertices} vertices exceed the sampler's bound of {MAX_VERTICES}"
        )
    edges, cum_key = [], []
    for v in range(g.num_vertices):
        out = g.out_edges(v)
        if not out:
            raise ValueError(f"vertex {v + 1} has no outgoing edge")
        cum = np.cumsum([e.prob for e in out])
        cum[-1] = 1.0  # guard against fsum slack
        # Clipping at 1 changes no comparison with u < 1 and keeps keys ascending.
        cum = np.minimum(cum, 1.0)
        cum_key.append((v << _VERTEX_SHIFT) + np.ceil(cum * _U_SCALE).astype(np.int64))
        edges.extend(out)
    rots, mul = _orientation_group([e.map.orthogonal for e in edges])
    trans = np.stack([e.map.translation for e in edges])
    cum_key = np.concatenate(cum_key)
    # Buckets of 2^_BUCKET_SHIFT consecutive keys that no cum_key splits
    # resolve by one table lookup; only walks in split buckets are searched.
    lo = np.arange(g.num_vertices << (_VERTEX_SHIFT - _BUCKET_SHIFT), dtype=np.int64)
    lo <<= _BUCKET_SHIFT
    first = np.searchsorted(cum_key, lo, side="right")
    last = np.searchsorted(cum_key, lo + ((1 << _BUCKET_SHIFT) - 1), side="right")
    n_edges = len(edges)
    return _WalkTables(
        cum_key=cum_key,
        bucket_edge=np.where(first == last, first, -1),
        ratio=np.array([e.map.ratio for e in edges]),
        dst_key=np.array([e.dst for e in edges], dtype=np.int64) << _VERTEX_SHIFT,
        mul=(mul * n_edges).ravel(),
        step=(rots[:, None] @ trans[None, :, :, None])[..., 0].reshape(-1, g.dim).T.copy(),
        anchor=(rots @ np.asarray(g.anchor, dtype=float)).T.copy(),
    )


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


def _walk_chunk(tables: _WalkTables, start_vertex, count, rng, depth_eps):
    """Walks advance one edge per sweep; finished walks leave the arrays.

    The active walks stay compacted in ascending order and draw one
    ``rng.random(n_active)`` per sweep.  Coordinates are rows (d, n), so
    every gather and compaction acts on contiguous 1-D data.
    """
    n_edges = len(tables.ratio)
    pts = np.empty((tables.step.shape[0], count))
    pos = np.arange(count)
    vkey = np.full(count, start_vertex << _VERTEX_SHIFT, dtype=np.int64)
    orient = np.zeros(count, dtype=np.int64)  # E * orientation index
    scale = np.ones(count)
    trans = np.zeros_like(pts)

    while len(pos):
        u = rng.random(len(pos))
        u *= _U_SCALE
        key = u.astype(np.int64)
        key += vkey
        e = tables.bucket_edge.take(key >> _BUCKET_SHIFT)
        split = np.flatnonzero(e < 0)
        if len(split):
            e[split] = np.searchsorted(tables.cum_key, key.take(split), side="right")
        ge = orient + e
        step = tables.step.take(ge, axis=1)
        step *= scale
        trans += step
        orient = tables.mul.take(ge)
        scale *= tables.ratio.take(e)
        vkey = tables.dst_key.take(e)
        keep = scale > depth_eps
        if not keep.all():
            done = np.flatnonzero(~keep)
            anchor = tables.anchor.take(orient.take(done) // n_edges, axis=1)
            pts[:, pos.take(done)] = trans.take(done, axis=1) + scale.take(done) * anchor
            live = np.flatnonzero(keep)
            pos, vkey, orient = pos.take(live), vkey.take(live), orient.take(live)
            scale, trans = scale.take(live), trans.take(live, axis=1)
    return pts.T


def partition_sum(cloud: SampleCloud, scales, q: float, total_mass: float) -> list[float]:
    """log S_q(h) for each grid side h in scales, where S_q(h) is the sum of
    q-th powers of the empirical box masses.

    Boxes are anchored at the family bounding-box corner (no random
    offsets); the empirical mass of a box is total_mass * count / N.  An
    empty cloud gives -inf at every scale.
    """
    hs = [float(h) for h in scales]
    if not all(h > 0.0 for h in hs):
        raise ValueError("h must be positive")
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
    y = np.floor((points - anchor) / h)
    lo, hi = y.min(axis=0), y.max(axis=0)
    if max(-lo.min(), hi.max()) >= 2.0**62 or np.prod(hi - lo + 1.0) >= 2.0**62:
        raise InvalidParams(f"box side {h} is too fine to index the boxes in 62 bits")
    return y.astype(np.int64)


def _octaves(fine, h):
    """The j with h == fine * 2^j exactly (0 <= j < 63), else None."""
    if fine is not None:
        j = math.frexp(h / fine)[1] - 1
        if j < 63 and math.ldexp(fine, j) == h:
            return j
    return None


def _distinct(keys, weights=None):
    """Distinct rows of the (m, d) integer keys in lexicographic order, with
    the summed weights of each (a count of rows when weights is None)."""
    lo = keys.min(axis=0)
    shifted = keys - lo
    dims = tuple(shifted.max(axis=0) + 1)
    flat = np.ravel_multi_index(tuple(shifted.T), dims)
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
    depth_eps: float = 1e-9,
    cloud: SampleCloud | None = None,
) -> ScalingFit:
    """Log-log regression of partition sums against scale.

    Requires at least three distinct scales, all positive and finite (else
    InvalidParams), spanning at least two octaves, all below the family's
    coarsest first-level cell so the grid actually resolves structure.
    """
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
        cloud = sample(g, n_per_vertex, seed, depth_eps=depth_eps)
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
