"""Test-only reference sampler: the per-vertex, per-edge chaos game.

Each walk carries its full orthogonal matrix, and each sweep groups the
active walks by their current vertex and then by their edge, so every step
is a batched matrix product.  It draws from the same random streams in the
same order as ``lqspec.empirical.sample``: one stream per
``(seed, vertex, chunk)``; one ``rng.random(count)``, sorted, that picks
each walk's first k edges as one path of its own enumeration of the k-edge
paths (plain loops, plain-float products and a running sum for the keys);
then one ``rng.random`` per sweep over the active walks in ascending order.
Its k comes from its own vertex boxes and orientations and the sampler's
path bound.  It stops a walk by the same rule, with vertex boxes built here
with plain loops: once the box of its cylinder lies in one closed box of
every requested grid, or its scale is at most the floor.  It tests the
walks after their prefix too, where the sampler does not, so a prefix too
deep to be unseen by every test shows as a mismatch.  So the two must agree
point for point: exactly where every orthogonal part is +-1, and to
rounding otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from lqspec.empirical import (
    _BOX_ROUNDS,
    CHUNK_SIZE,
    DEFAULT_SCALES,
    MAX_PREFIX_PATHS,
    SCALE_FLOOR,
)


def vertex_boxes(g):
    """(centre, half-width) per vertex, (V, d) each: the boxes of the
    iteration B_v <- hull of f_e(B_dst(e)) over the edges leaving v, from
    ``g.bbox``, run to a fixed point or for _BOX_ROUNDS rounds."""
    n, d = g.num_vertices, g.dim
    lo = [[a for a, _ in g.bbox] for _ in range(n)]
    hi = [[b for _, b in g.bbox] for _ in range(n)]
    for _ in range(_BOX_ROUNDS):
        new_lo = [[math.inf] * d for _ in range(n)]
        new_hi = [[-math.inf] * d for _ in range(n)]
        for e in g.edges:
            m, w = e.map, e.dst
            for i in range(d):
                ends = [(m.orthogonal[i][j] * lo[w][j], m.orthogonal[i][j] * hi[w][j])
                        for j in range(d)]
                low = m.translation[i] + m.ratio * sum(min(a, b) for a, b in ends)
                high = m.translation[i] + m.ratio * sum(max(a, b) for a, b in ends)
                new_lo[e.src][i] = min(new_lo[e.src][i], low)
                new_hi[e.src][i] = max(new_hi[e.src][i], high)
        if new_lo == lo and new_hi == hi:
            break
        lo, hi = new_lo, new_hi
    lo, hi = np.array(lo), np.array(hi)
    return (lo + hi) / 2.0, (hi - lo) / 2.0


def _orientations(g):
    """The products of the edges' orthogonal parts, closed with plain loops
    and found equal at 1e-9."""
    found = [np.eye(g.dim)]
    for r in found:  # grows while it is walked
        for e in g.edges:
            prod = r @ np.array(e.map.orthogonal)
            if all(np.max(np.abs(prod - s)) > 1e-9 for s in found):
                found.append(prod)
    return found


def prefix_depth(g, scales):
    """The number k of first edges drawn as one path: the largest k at which
    min_ratio^k still exceeds every scale at which a box of some vertex, in
    some orientation, could fit the finest grid, lowered until no vertex has
    more than MAX_PREFIX_PATHS paths of k edges."""
    _, half = vertex_boxes(g)
    narrowest = min(
        max(sum(abs(r[i][j]) * half[w][j] for j in range(g.dim)) for i in range(g.dim))
        for r in _orientations(g)
        for w in {e.dst for e in g.edges}
    )
    near = math.inf  # a box of zero width fits at any scale
    if narrowest > 0.0:
        near = max(min(scales) / (2.0 * narrowest) * (1.0 + 1e-9), SCALE_FLOOR)
    min_ratio = min(e.map.ratio for e in g.edges)
    n_paths = [1] * g.num_vertices
    depth, least = 0, 1.0
    while least * min_ratio > near:
        n_paths = [sum(n_paths[e.dst] for e in g.out_edges(v)) for v in range(g.num_vertices)]
        if max(n_paths) > MAX_PREFIX_PATHS:
            break
        depth += 1
        least *= min_ratio
    return depth


def prefix_paths(g, v, depth):
    """The depth-edge paths from v in lexicographic order, as a (P, depth)
    array of out-edge indices, and their keys: ceil(cum * 2^53) of the
    running sum of the paths' probabilities, each the product of its edges'
    drawn probabilities (their widths of ceil(cum * 2^53)); the last is 2^53."""
    widths = []
    for w in range(g.num_vertices):
        total, keys = 0.0, [0]
        for e in g.out_edges(w):
            total += e.prob
            keys.append(min(math.ceil(total * 2.0**53), 2**53))
        keys[-1] = 2**53
        widths.append([(b - a) / 2.0**53 for a, b in zip(keys, keys[1:])])
    paths = [((), v, 1.0)]
    for _ in range(depth):
        paths = [
            (choices + (i,), e.dst, prob * widths[w][i])
            for choices, w, prob in paths
            for i, e in enumerate(g.out_edges(w))
        ]
    total, keys = 0.0, []
    for _, _, prob in paths:
        total += prob
        keys.append(min(math.ceil(total * 2.0**53), 2**53))
    keys[-1] = 2**53
    choices = np.array([c for c, _, _ in paths], dtype=np.int64).reshape(len(paths), depth)
    return choices, np.array(keys, dtype=np.int64)


def _edge_tables(g):
    tables = []
    for v in range(g.num_vertices):
        out = g.out_edges(v)
        cum = np.cumsum([e.prob for e in out])
        cum[-1] = 1.0
        ratios = np.array([e.map.ratio for e in out])
        orths = np.stack([e.map.orthogonal for e in out])
        trans = np.stack([e.map.translation for e in out])
        dsts = np.array([e.dst for e in out], dtype=np.int64)
        tables.append((cum, ratios, orths, trans, dsts))
    return tables


def _sweep(tables, idx, u, vert, scale, trans, orth):
    """Advance the walks idx one edge each, with the uniform draws u."""
    vsnap = vert[idx]
    choice = np.empty(len(idx), dtype=np.int64)
    for v in np.unique(vsnap):
        mask = vsnap == v
        choice[mask] = np.searchsorted(tables[v][0], u[mask], side="right")
    _move(tables, idx, choice, vert, scale, trans, orth)


def _move(tables, idx, choice, vert, scale, trans, orth):
    """Advance the walks idx one edge each: walk idx[i] along the out-edge
    choice[i] of its vertex."""
    # Group by a snapshot of the current vertices so every walk advances
    # exactly one edge per sweep even when it changes vertex.
    vsnap = vert[idx]
    for v in np.unique(vsnap):
        cum, ratios, orths, transl, dsts = tables[v]
        mask = vsnap == v
        sel = idx[mask]
        choice_v = np.minimum(choice[mask], len(cum) - 1)
        for e in range(len(cum)):
            rows = sel[choice_v == e]
            if rows.size == 0:
                continue
            step_t = orth[rows] @ transl[e]
            trans[rows] += scale[rows, None] * step_t
            orth[rows] = orth[rows] @ orths[e]
            scale[rows] *= ratios[e]
            vert[rows] = dsts[e]


def _box(boxes, vert, scale, trans, orth):
    """Centre and half-widths of the hull of each walk's cylinder box."""
    centre, half = boxes
    c = trans + scale[:, None] * (orth @ centre[vert][..., None])[..., 0]
    w = scale[:, None] * (np.abs(orth) @ half[vert][..., None])[..., 0]
    return c, w


def oracle_sample(g, n_per_vertex: int, seed: int, scales=DEFAULT_SCALES):
    """(points, vertex of each point, final walk states) drawn chunk by
    chunk, vertex-major.  A state is (vertex, scale, translation,
    orthogonal part) per walk, as arrays."""
    tables = _edge_tables(g)
    boxes = vertex_boxes(g)
    origin = np.array([lo for lo, _ in g.bbox])
    depth = prefix_depth(g, scales)
    points, vertices, states = [], [], []
    n_chunks = (n_per_vertex + CHUNK_SIZE - 1) // CHUNK_SIZE
    for v in range(g.num_vertices):
        paths = prefix_paths(g, v, depth)
        for c in range(n_chunks):
            count = min(CHUNK_SIZE, n_per_vertex - c * CHUNK_SIZE)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(v, c)))
            p, state = _walk_chunk(g.dim, tables, boxes, origin, scales, v, paths, count, rng)
            points.append(p)
            states.append(state)
            vertices.append(np.full(count, v, dtype=np.int64))
    if not points:
        return np.zeros((0, g.dim)), np.zeros(0, dtype=np.int64), None
    state = tuple(np.concatenate(parts) for parts in zip(*states))
    return np.concatenate(points, axis=0), np.concatenate(vertices), state


def _walk_chunk(dim, tables, boxes, origin, scales, start_vertex, paths, count, rng):
    vert = np.full(count, start_vertex, dtype=np.int64)
    scale = np.ones(count)
    trans = np.zeros((count, dim))
    orth = np.broadcast_to(np.eye(dim), (count, dim, dim)).copy()
    active = np.ones(count, dtype=bool)
    points = np.empty((count, dim))

    def end(idx):
        c, w = _box(boxes, vert[idx], scale[idx], trans[idx], orth[idx])
        y = c - origin
        stop = scale[idx] <= SCALE_FLOOR
        stop |= np.all(
            [np.ceil((y + w) / h) - np.floor((y - w) / h) <= 1.0 for h in scales], axis=(0, 2)
        )
        points[idx[stop]] = c[stop]
        active[idx[stop]] = False

    choices, keys = paths
    if choices.shape[1]:
        # walk i takes the path of the i-th smallest draw
        path = np.searchsorted(keys / 2.0**53, np.sort(rng.random(count)), side="right")
        idx = np.arange(count)
        for step in choices[path].T:
            _move(tables, idx, step, vert, scale, trans, orth)
        end(idx)
    while np.any(active):
        idx = np.nonzero(active)[0]
        _sweep(tables, idx, rng.random(len(idx)), vert, scale, trans, orth)
        end(idx)
    return points, (vert, scale, trans, orth)


def continue_walks(g, state, rng):
    """Walk each state on with fresh draws from rng until its scale is at
    most SCALE_FLOOR; the centre of the final box, per walk."""
    tables = _edge_tables(g)
    vert, scale, trans, orth = (a.copy() for a in state)
    while True:
        idx = np.nonzero(scale > SCALE_FLOOR)[0]
        if not len(idx):
            break
        _sweep(tables, idx, rng.random(len(idx)), vert, scale, trans, orth)
    return _box(vertex_boxes(g), vert, scale, trans, orth)[0]
