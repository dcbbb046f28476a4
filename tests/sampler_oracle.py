"""Test-only reference sampler: the per-vertex, per-edge chaos game.

Each walk carries its full orthogonal matrix, and each sweep groups the
active walks by their current vertex and then by their drawn edge, so every
step is a batched matrix product.  It draws from the same random streams in
the same order as ``lqspec.empirical.sample`` (one stream per
``(seed, vertex, chunk)``, one ``rng.random`` per sweep over the active
walks in ascending order), so the two must agree point for point: exactly
where every orthogonal part is +-1, and to rounding otherwise.
"""

from __future__ import annotations

import numpy as np

from lqspec.empirical import CHUNK_SIZE


def oracle_sample(g, n_per_vertex: int, seed: int, depth_eps: float = 1e-9):
    """(points, vertex of each point) drawn chunk by chunk, vertex-major."""
    anchor = np.asarray(g.anchor, dtype=float)
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

    points, vertices = [], []
    n_chunks = (n_per_vertex + CHUNK_SIZE - 1) // CHUNK_SIZE
    for v in range(g.num_vertices):
        for c in range(n_chunks):
            count = min(CHUNK_SIZE, n_per_vertex - c * CHUNK_SIZE)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(v, c)))
            points.append(_walk_chunk(g.dim, tables, v, count, rng, depth_eps, anchor))
            vertices.append(np.full(count, v, dtype=np.int64))
    if not points:
        return np.zeros((0, g.dim)), np.zeros(0, dtype=np.int64)
    return np.concatenate(points, axis=0), np.concatenate(vertices)


def _walk_chunk(dim, tables, start_vertex, count, rng, depth_eps, anchor):
    vert = np.full(count, start_vertex, dtype=np.int64)
    scale = np.ones(count)
    trans = np.zeros((count, dim))
    orth = np.broadcast_to(np.eye(dim), (count, dim, dim)).copy()
    active = np.ones(count, dtype=bool)

    while np.any(active):
        idx = np.nonzero(active)[0]
        u = rng.random(len(idx))
        # Group by a snapshot of the current vertices so every walk advances
        # exactly one edge per sweep even when it changes vertex.
        vsnap = vert[idx]
        for v in np.unique(vsnap):
            cum, ratios, orths, transl, dsts = tables[v]
            mask = vsnap == v
            sel = idx[mask]
            choice = np.searchsorted(cum, u[mask], side="right")
            choice = np.minimum(choice, len(cum) - 1)
            for e in range(len(cum)):
                rows = sel[choice == e]
                if rows.size == 0:
                    continue
                step_t = orth[rows] @ transl[e]
                trans[rows] += scale[rows, None] * step_t
                orth[rows] = orth[rows] @ orths[e]
                scale[rows] *= ratios[e]
                vert[rows] = dsts[e]
        active &= scale > depth_eps

    return trans + scale[:, None] * (orth @ anchor)
