"""Test-only reference sampler: the per-vertex, per-edge chaos game.

Each walk carries its full orthogonal matrix, and each sweep groups the
active walks by their current vertex and then by their edge, so every step
is a batched matrix product.  It draws from the same random streams in the
same order as ``lqspec.empirical.sample``: one stream per
``(seed, vertex, chunk)``; on chunk 0's, one ``rng.multinomial`` that counts
the walks of the vertex at each group of terminal leaves and at each open
leaf of its own table of stopped cylinders (plain loops for the leaves, one
sort that puts the terminal leaves level by level before the open ones,
each level in lexicographic edge order, and plain-float probabilities and a
running sum for their keys; a dict keyed by the box tuple at every side,
in first-seen order, for the groups, whose widths are the integer sums of
their leaves').  So that its walks have real leaf states, the oracle
then splits each group's count over the group's leaves of positive width,
on a stream of its own, ``(seed, vertex)``, by one ``rng.multinomial``
where the group has walks and two such leaves; the sampler keeps the group
counts and counts the box codes of each group's first leaf for all its
walks, so box counts agree whatever the split.  Then the walks that drew open leaves, in leaf
order, sweep in chunks of CHUNK_SIZE, chunk 0 on from where the multinomial
left its stream and chunk c on stream c, with one ``rng.random`` per sweep
over the chunk's active walks in ascending order, which picks each walk's
path of k edges (plain loops for the paths, their keys and their composed
maps, each built edge by edge).  The table tests every node by the
oracle's own stop rule, with vertex boxes built here with plain loops: a
walk ends once the box of its cylinder lies in one closed box of every
requested grid, or its scale is at most the floor.  A walk that draws a
terminal leaf takes the leaf's box centre; one that draws an open leaf
moves along the leaf's edges and then sweeps, one path per sweep, tested
after each.  So the two must agree count for count, and the sampler's box
codes must be those of the oracle's first-leaf centres and swept points:
the centres agree exactly where every orthogonal part is +-1, and to
rounding otherwise, which moves no centre across a grid line.
"""

from __future__ import annotations

import math

import numpy as np

from lqspec.empirical import (
    _BOX_ROUNDS,
    _MAX_PATH_EDGES,
    _MAX_PATHS,
    CHUNK_SIZE,
    DEFAULT_SCALES,
    MAX_LEVEL_NODES,
    MAX_TABLE_NODES,
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


_TABLES = {}  # cylinder_table's tables, by (repr(g), v, scales)


def cylinder_table(g, v, scales):
    """The table of stopped cylinders from v, grown one edge level at a time.

    Each level replaces every open leaf by its children, one per out-edge of
    its vertex in order, and stops each child by the oracle's own rule (see
    stops).  Growth ends when no leaf is open, or before a level that would
    add more than MAX_LEVEL_NODES leaves or bring the table above
    MAX_TABLE_NODES.  Returns the leaves sorted by (open, edge count,
    edges): the terminal leaves level by level, then the open ones, each
    level in lexicographic edge order.  Each leaf is (out-edge indices,
    terminal); with them come their keys ceil(cum * 2^53) of the running
    sum of their probabilities (each the product of its edges' drawn
    probabilities, the widths of ceil(cum * 2^53)), the last one 2^53, and
    their walk states (vertex, scale, translation, orthogonal part) as
    read-only arrays.  Each table is built once per process.
    """
    key = (repr(g), v, tuple(float(h) for h in scales))
    if key not in _TABLES:
        _TABLES[key] = _grow_table(g, v, scales)
    return _TABLES[key]


def _grow_table(g, v, scales):
    tables, boxes, widths = _edge_tables(g), vertex_boxes(g), _widths(g)
    origin = np.array([lo for lo, _ in g.bbox])
    leaves = [((), 1.0, False)]  # (edges, probability, terminal)
    state = (np.array([v]), np.ones(1), np.zeros((1, g.dim)), np.eye(g.dim)[None])
    while True:
        vert = state[0]
        n_open = sum(1 for _, _, terminal in leaves if not terminal)
        n_new = sum(len(widths[w]) for (_, _, terminal), w in zip(leaves, vert) if not terminal)
        if not n_open or n_new > MAX_LEVEL_NODES or len(leaves) - n_open + n_new > MAX_TABLE_NODES:
            break
        grown, parent, choice = [], [], []
        for i, ((edges, prob, terminal), w) in enumerate(zip(leaves, vert)):
            children = [(edges, prob, True)] if terminal else [
                (edges + (j,), prob * width, False) for j, width in enumerate(widths[w])
            ]
            grown += children
            parent += [i] * len(children)
            choice += [-1] if terminal else list(range(len(children)))
        state = tuple(a[parent] for a in state)
        choice = np.array(choice)
        moved = np.flatnonzero(choice >= 0)
        _move(tables, moved, choice[moved], *state)
        stopped = np.zeros(len(grown), dtype=bool)
        stopped[moved] = stops(boxes, origin, scales, *(a[moved] for a in state))[0]
        leaves = [(edges, prob, terminal or bool(stop))
                  for (edges, prob, terminal), stop in zip(grown, stopped)]
    order = sorted(range(len(leaves)),
                   key=lambda i: (not leaves[i][2], len(leaves[i][0]), leaves[i][0]))
    leaves, state = [leaves[i] for i in order], tuple(a[order] for a in state)
    keys = np.array(_keys([prob for _, prob, _ in leaves]))
    for a in (keys, *state):
        a.flags.writeable = False  # the table is shared by every caller (cylinder_table)
    return [(edges, terminal) for edges, _, terminal in leaves], keys, state


def _keys(probs):
    """ceil(cum * 2^53) of the running sum of probs, at most 2^53, the last 2^53."""
    total, keys = 0.0, []
    for prob in probs:
        total += prob
        keys.append(min(math.ceil(total * 2.0**53), 2**53))
    keys[-1] = 2**53
    return keys


def _widths(g):
    """Per vertex, the probability with which a walk draws each out-edge:
    the widths of its keys over 2^53."""
    out = []
    for w in range(g.num_vertices):
        keys = [0] + _keys(e.prob for e in g.out_edges(w))
        out.append([(b - a) / 2.0**53 for a, b in zip(keys, keys[1:])])
    return out


def path_edges(g):
    """k: the most edges, up to _MAX_PATH_EDGES, for which no vertex has
    more than _MAX_PATHS paths of k edges, or 1."""
    n = [len(g.out_edges(v)) for v in range(g.num_vertices)]
    k = 1
    while k < _MAX_PATH_EDGES:
        n = [sum(n[e.dst] for e in g.out_edges(v)) for v in range(g.num_vertices)]
        if max(n) > _MAX_PATHS:
            break
        k += 1
    return k


def path_tables(g):
    """Per vertex, its paths of path_edges(g) edges in lexicographic edge
    order, in the layout of _edge_tables: (cum, ratios, orthogonal parts,
    translations, destinations).  cum is each path's key over 2^53, for the
    running sum of the products of its edges' drawn probabilities; the map
    of each path is composed edge by edge by _move, from scale 1,
    translation 0 and the identity."""
    tables, widths, k = _edge_tables(g), _widths(g), path_edges(g)
    out = []
    for v in range(g.num_vertices):
        paths = [((), v, 1.0)]  # (out-edge indices, end vertex, probability)
        for _ in range(k):
            paths = [(edges + (j,), e.dst, prob * widths[w][j])
                     for edges, w, prob in paths for j, e in enumerate(g.out_edges(w))]
        n = len(paths)
        state = (np.full(n, v), np.ones(n), np.zeros((n, g.dim)),
                 np.broadcast_to(np.eye(g.dim), (n, g.dim, g.dim)).copy())
        for step in np.array([edges for edges, _, _ in paths]).T:
            _move(tables, np.arange(n), step, *state)
        vert, ratio, trans, orth = state
        cum = np.array(_keys([prob for _, _, prob in paths])) / 2.0**53
        out.append((cum, ratio, orth, trans, vert))
    return out


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
    """Advance the walks idx one edge of tables each: walk idx[i] along the
    out-edge choice[i] of its vertex (a path, in path_tables)."""
    # Group by a snapshot of the current vertices so every walk advances
    # exactly one edge per sweep even when it changes vertex.
    vsnap = vert[idx]
    for v in np.unique(vsnap):
        cum, ratios, orths, transl, dsts = tables[v]
        mask = vsnap == v
        sel = idx[mask]
        choice_v = np.minimum(choice[mask], len(cum) - 1)
        # one batch per edge taken
        order = np.argsort(choice_v, kind="stable")
        sel, choice_v = sel[order], choice_v[order]
        cuts = np.flatnonzero(np.diff(choice_v)) + 1
        for rows, e in zip(np.split(sel, cuts), choice_v[np.r_[0, cuts]]):
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


def stops(boxes, origin, scales, vert, scale, trans, orth):
    """(stop, centre): whether each walk's box lies in one closed box of
    every requested grid, or its scale is at most the floor, and the centre
    of its box."""
    c, w = _box(boxes, vert, scale, trans, orth)
    y = c - origin
    stop = scale <= SCALE_FLOOR
    stop |= np.all(
        [np.ceil((y + w) / h) - np.floor((y - w) / h) <= 1.0 for h in scales], axis=(0, 2)
    )
    return stop, c


def oracle_sample(g, n_per_vertex: int, seed: int, scales=DEFAULT_SCALES):
    """(points, vertex of each point, final walk states, counted), vertex-major,
    each vertex's walks that drew terminal leaves group by group, each
    group's in leaf order, then those that drew open leaves (the swept
    walks), in leaf order.  A state is (vertex, scale, translation,
    orthogonal part) per walk, as arrays.  counted holds, per vertex, the
    counts of its groups and open leaves before the split (just [n] for a
    table that grew no level) and the (G, d) box centres of its groups'
    first leaves."""
    tables = (_edge_tables(g), path_tables(g))
    boxes = vertex_boxes(g)
    origin = np.array([lo for lo, _ in g.bbox])
    points, vertices, states, counted = [], [], [], []
    for v in range(g.num_vertices):
        table = cylinder_table(g, v, scales)
        p, state, drawn = _walk_vertex(g.dim, tables, boxes, origin, scales, v, table,
                                       n_per_vertex, seed)
        points.append(p)
        states.append(state)
        counted.append(drawn)
        vertices.append(np.full(n_per_vertex, v, dtype=np.int64))
    state = tuple(np.concatenate(parts) for parts in zip(*states))
    return np.concatenate(points, axis=0), np.concatenate(vertices), state, counted


def leaf_groups(table, boxes, origin, scales):
    """The terminal leaves of table grouped by their boxes floor((c - origin)
    / h) at every side h in scales, c the leaf's box centre: the values of
    a dict keyed by the box tuple, so the groups come in the order of their
    first leaves and each lists its leaves in leaf order."""
    leaves, _, state = table
    groups = {}
    for i, ((_, terminal), c) in enumerate(zip(leaves, _box(boxes, *state)[0].tolist())):
        if terminal:
            box = tuple(math.floor((x - a) / h) for h in scales for x, a in zip(c, origin))
            groups.setdefault(box, []).append(i)
    return list(groups.values())


def leaf_counts(widths, count, rng):
    """How many of count walks draw each category of the given integer key
    widths: one rng.multinomial over those of positive width, each with its
    width over their sum."""
    drawn = [i for i, w in enumerate(widths) if w > 0]
    counts = np.zeros(len(widths), dtype=np.int64)
    if drawn:
        total = sum(widths[i] for i in drawn)
        counts[drawn] = rng.multinomial(count, [widths[i] / total for i in drawn])
    return counts


def split_counts(groups, widths, counts, rng):
    """Per leaf of the groups, group by group, how many of its group's walks
    drew it: where a group has walks and two leaves of positive width, one
    rng.multinomial over those leaves (leaf_counts); else all at its one."""
    out = []
    for group, n in zip(groups, counts):
        if n and sum(1 for i in group if widths[i] > 0) > 1:
            out += leaf_counts([widths[i] for i in group], n, rng).tolist()
        else:
            out += [n if widths[i] > 0 else 0 for i in group]
    return out


def _walk_vertex(dim, tables, boxes, origin, scales, start_vertex, table, count, seed):
    tables, paths = tables
    vert = np.full(count, start_vertex, dtype=np.int64)
    scale = np.ones(count)
    trans = np.zeros((count, dim))
    orth = np.broadcast_to(np.eye(dim), (count, dim, dim)).copy()
    points = np.empty((count, dim))

    def stream(c):
        """Stream (seed, v, c), or (seed, v) for c None."""
        key = (start_vertex,) if c is None else (start_vertex, c)
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

    leaves, keys, leaf_state = table
    rng = stream(0)
    going = np.arange(count)
    counts, centres = np.array([count]), np.zeros((0, dim))
    if leaves[0][0]:  # the table grew: the counts, then each walk's leaf
        widths = [int(b) - int(a) for a, b in zip([0, *keys[:-1]], keys)]
        groups = leaf_groups(table, boxes, origin, scales)
        open_leaves = [i for i, (_, terminal) in enumerate(leaves) if not terminal]
        counts = leaf_counts([sum(widths[i] for i in group) for group in groups]
                             + [widths[i] for i in open_leaves], count, rng)
        centres = _box(boxes, *leaf_state)[0][[group[0] for group in groups]].reshape(-1, dim)
        split = split_counts(groups, widths, counts[: len(groups)], stream(None))
        leaf = np.repeat([i for group in groups for i in group] + open_leaves,
                         split + counts[len(groups) :].tolist()).astype(np.int64)
        terminal = np.array([leaves[i][1] for i in leaf], dtype=bool)
        # a terminal leaf's walks end at its cylinder, with the state the table holds
        idx = np.flatnonzero(terminal)
        for a, b in zip((vert, scale, trans, orth), leaf_state):
            a[idx] = b[leaf[idx]]
        points[idx] = _box(boxes, vert[idx], scale[idx], trans[idx], orth[idx])[0]
        # an open leaf's walks move along its edges
        going = np.flatnonzero(~terminal)
        if len(going):
            for step in np.array([leaves[i][0] for i in leaf[going]]).T:
                _move(tables, going, step, vert, scale, trans, orth)
    # the walks from open leaves, in leaf order, sweep in chunks: chunk c on stream c
    for c, at in enumerate(range(0, len(going), CHUNK_SIZE)):
        chunk = going[at : at + CHUNK_SIZE]
        active = np.ones(len(chunk), dtype=bool)
        rng = rng if c == 0 else stream(c)
        while np.any(active):
            idx = chunk[active]
            _sweep(paths, idx, rng.random(len(idx)), vert, scale, trans, orth)
            state = (a[idx] for a in (vert, scale, trans, orth))
            stop, centre = stops(boxes, origin, scales, *state)
            points[idx[stop]] = centre[stop]
            active[np.flatnonzero(active)[stop]] = False
    return points, (vert, scale, trans, orth), (counts, centres)


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
