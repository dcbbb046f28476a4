"""The five built-in families, each defined once.

A family record holds all that the routes need to know about it: the edge
table (label, source, target, map), the parameters it needs and its
geometric constraint, the canonical point, the cells of its measure matrix
and the factors of its closed-form characteristic function.  ``resolve``
checks a parameter set against its record once for every route, so
``gifs.build_example``, ``matrix.build_matrix_spec`` and
``closed_forms.build_closed_form`` accept exactly the same inputs.

Cell and factor builders receive the parameters ``x`` and the edge
probabilities ``w``, where ``w[k]`` belongs to the k-th edge of the table
(the edge labelled ``ek``).  A cell builder returns the nonzero entries
of the measure matrix, {(i, j): [terms]}, where a term is an atom
``(mass, ratio)`` or a series (``matrix.AtomFamily``).
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, NamedTuple

from .closed_forms import Factor, _geom_sup, _no_sup, _qpow, _series_val
from .errors import InvalidParams
from .gifs import Similitude, similitude_1d, similitude_2d
from .matrix import binomial_family, geometric_family

GOLDEN_RATIO_INV = (math.sqrt(5.0) - 1.0) / 2.0
_PROB_TOL = 1e-12  # largest |sum - 1| of one vertex's edge probabilities


class FamilyParams(NamedTuple):
    """Parameters selecting and configuring one of the built-in families."""

    family_id: str
    rho: float | None = None
    r: float | None = None
    t: float | None = None
    s: float | None = None
    probs: dict[str, float] = MappingProxyType({})  # uniform if empty


class Family(NamedTuple):
    """One built-in family: all that the graph, matrix and closed-form routes use."""

    id: str
    dim: int
    edges: tuple[tuple[str, int, int, Callable[[FamilyParams], Similitude]], ...]
    params: tuple[str, ...]  # each must lie in (0, 1)
    canonical: dict[str, float]
    geometry: Callable[[FamilyParams], None]  # raises InvalidParams
    cell_labels: tuple[int, ...]  # 1-based report label per matrix row
    cells: Callable[[FamilyParams, dict[int, float]], dict[tuple[int, int], list]]
    factors: Callable[[FamilyParams, dict[int, float]], tuple[Factor, ...]]
    bbox: tuple[tuple[float, float], ...] = ()  # sampling box; unit box if empty

    @property
    def num_vertices(self) -> int:
        return 1 + max(src for _, src, _, _ in self.edges)

    @property
    def groups(self) -> tuple[tuple[str, ...], ...]:
        """Edge labels leaving each vertex, in vertex and table order."""
        return tuple(
            tuple(lab for lab, src, _, _ in self.edges if src == v)
            for v in range(self.num_vertices)
        )


def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidParams(msg)


# ---------------------------------------------------------------------------
# Maps and constraints shared by the one-dimensional families
# ---------------------------------------------------------------------------

def _rho_map(x):
    return similitude_1d(x.rho, 0.0)


def _mid_map(x):
    return similitude_1d(x.r, x.rho * (1.0 - x.r))


def _top_map(x):
    return similitude_1d(x.r, 1.0 - x.r)


def _no_overlap(x):
    """The second- and third-level cells of the rho, r maps do not overlap."""
    gap = x.rho + 2.0 * x.r - x.rho * x.r
    _require(gap <= 1.0 + 1e-15, f"rho+2r-rho*r={gap:.6g} exceeds 1")


def _loops(r, *ps, series=None):
    """Factor 1 - sum_k q_k of a vertex whose loops all contract by r.

    With a ``series``, the first two loops overlap along it and the factor
    loses (1 - q_1)(1 - q_2) times its sum.
    """

    def fn(q, alpha):
        qs = [_qpow(p, r, q, alpha) for p in ps]
        out = 1.0 - sum(qs)
        if series is not None:
            out = out - (1.0 - qs[0]) * (1.0 - qs[1]) * _series_val(series, q, alpha)
        return out

    return fn


_RHO_R = {"rho": 1.0 / 3.0, "r": 2.0 / 7.0}


# ---------------------------------------------------------------------------
# strong-r: strongly connected, in R
# ---------------------------------------------------------------------------

def _strong_r_cells(x, w):
    rho, r = x.rho, x.r
    return {
        (0, 0): [(w[1], rho)],
        (0, 1): [((w[1] * w[3] + w[2] * w[5]) / w[5], r)],
        (0, 2): [(w[2], r)],
        (1, 0): [geometric_family(w[5], w[3], rho, r)],
        (2, 1): [(w[4], r)],
        (2, 2): [(w[4], r)],
    }


def _strong_r_factors(x, w):
    rho, r = x.rho, x.r
    p1, p2, p3, p4, p5 = (w[k] for k in range(1, 6))
    mix = p1 * p3 + p2 * p5

    def fn(q, alpha):
        q1 = _qpow(p1, rho, q, alpha)
        q2 = _qpow(p2, r, q, alpha)
        q3 = _qpow(p3, r, q, alpha)
        q4 = _qpow(p4, r, q, alpha)
        q5 = _qpow(p5, rho, q, alpha)
        q1325 = _qpow(mix, rho * r, q, alpha)
        return (1.0 - q4) * ((1.0 - q1) * (1.0 - q3) - q1325) - q2 * q4 * q5

    def sup(q: float) -> float:
        # First unit boundary among the barred terms and the series domain;
        # whichever binds, the factor is strictly negative there.
        return min(
            q * math.log(p3) / math.log(r),
            q * math.log(p4) / math.log(r),
            q * math.log(p1) / math.log(rho),
        )

    return (Factor("strong-r", (1, 3, 4), fn, sup),)


STRONG_R = Family(
    id="strong-r",
    dim=1,
    edges=(
        ("e1", 0, 0, _rho_map), ("e2", 0, 1, _mid_map), ("e3", 0, 0, _top_map),
        ("e4", 1, 1, _top_map), ("e5", 1, 0, _rho_map),
    ),
    params=("rho", "r"),
    canonical=_RHO_R,
    geometry=_no_overlap,
    cell_labels=(1, 3, 4),
    cells=_strong_r_cells,
    factors=_strong_r_factors,
)


# ---------------------------------------------------------------------------
# strong-r2: strongly connected, in R^2, golden-ratio contractions
# ---------------------------------------------------------------------------

_G = GOLDEN_RATIO_INV


def _golden_square(tx, ty, angle=0.0):
    return lambda x: similitude_2d(_G * _G, (tx, ty), angle)


def _golden_rho(x):
    _require(
        x.rho is None or abs(x.rho - GOLDEN_RATIO_INV) <= 1e-12,
        "strong-r2 fixes rho=(sqrt(5)-1)/2",
    )


def _strong_r2_cells(x, w):
    rr = GOLDEN_RATIO_INV**2
    geo = geometric_family(w[1], w[1], rr, rr)
    series = binomial_family(w[4], w[1], w[8], rr, rr)
    cells = {}
    for j in (1, 2):
        cells[(0, j)] = [geo]
    for j in (3, 4, 5):
        cells[(0, j)] = [series]
    for i, k in ((1, 2), (2, 3), (3, 5), (4, 6)):
        for j in (0, 1, 2):
            cells[(i, j)] = [(w[k], rr)]
    for i, k in ((5, 7), (6, 8)):
        for j in (3, 4, 5, 6):
            cells[(i, j)] = [(w[k], rr)]
    return cells


def _strong_r2_factors(x, w):
    rr = GOLDEN_RATIO_INV**2
    series = binomial_family(w[4], w[1], w[8], rr, rr)

    def fn(q, alpha):
        qv = {k: _qpow(w[k], rr, q, alpha) for k in (1, 2, 3, 5, 6, 7, 8)}
        s = _series_val(series, q, alpha)
        return (1.0 - (qv[7] + qv[8])) * (1.0 - (qv[1] + qv[2] + qv[3])) - (
            (1.0 - qv[1]) * (1.0 - qv[8]) * (qv[5] + qv[6]) * s
        )

    return (Factor("strong-r2", tuple(range(1, 8)), fn, _geom_sup(max(w[1], w[8]), rr)),)


STRONG_R2 = Family(
    id="strong-r2",
    dim=2,
    edges=(
        ("e1", 0, 0, _golden_square(_G**3, _G**3)),
        ("e2", 0, 0, _golden_square(_G, 0.0)),
        ("e3", 0, 0, _golden_square(0.0, _G)),
        ("e4", 0, 1, _golden_square(0.0, 0.0)),
        ("e5", 1, 0, _golden_square(0.0, 1.0, -math.pi / 2)),
        ("e6", 1, 0, _golden_square(1.0, 0.0, math.pi / 2)),
        ("e7", 1, 1, _golden_square(0.0, 0.0)),
        ("e8", 1, 1, _golden_square(_G, _G)),
    ),
    params=(),
    canonical={"rho": GOLDEN_RATIO_INV},
    geometry=_golden_rho,
    cell_labels=tuple(range(1, 8)),
    cells=_strong_r2_cells,
    factors=_strong_r2_factors,
)


# ---------------------------------------------------------------------------
# nonstrong-r-basic: two components in R
# ---------------------------------------------------------------------------

def _nonstrong_r_basic_cells(x, w):
    rho, r = x.rho, x.r
    return {
        (0, 0): [binomial_family(w[1], w[2], w[3], rho, r)],
        (0, 1): [geometric_family(w[2], w[2], r, r)],
        (1, 0): [(w[3], r)],
        (1, 1): [(w[3], r)],
        (2, 0): [(w[5], rho)],
        (2, 1): [(w[5], rho)],
        (3, 2): [(w[4], r)],
        (3, 3): [(w[4], r)],
    }


def _nonstrong_r_basic_factors(x, w):
    rho, r = x.rho, x.r
    series = binomial_family(w[1], w[2], w[3], rho, r)

    def f_core(q, alpha):
        q2 = _qpow(w[2], r, q, alpha)
        q3 = _qpow(w[3], r, q, alpha)
        s = _series_val(series, q, alpha)
        return (1.0 - q2) * (1.0 - q3) * (1.0 - s) - q2 * q3

    def f_tail(q, alpha):
        return 1.0 - _qpow(w[4], r, q, alpha)

    return (
        Factor("core", (1, 2), f_core, _geom_sup(max(w[2], w[3]), r)),
        Factor("tail", (4,), f_tail, _no_sup),
    )


NONSTRONG_R_BASIC = Family(
    id="nonstrong-r-basic",
    dim=1,
    edges=(
        ("e1", 0, 0, _rho_map), ("e2", 0, 0, _mid_map), ("e3", 0, 0, _top_map),
        ("e4", 1, 1, _top_map), ("e5", 1, 0, _rho_map),
    ),
    params=("rho", "r"),
    canonical=_RHO_R,
    geometry=_no_overlap,
    cell_labels=(1, 2, 3, 4),
    cells=_nonstrong_r_basic_cells,
    factors=_nonstrong_r_basic_factors,
)


# ---------------------------------------------------------------------------
# nonstrong-r-heights: six components in a row, in R
# ---------------------------------------------------------------------------

def _heights_cells(x, w):
    rho, r = x.rho, x.r
    # Component i in 1..5 has edge triple (e_{3i-2}, e_{3i-1}, e_{3i});
    # the series weights pair the cross/loop edge with the terminal-loop
    # edge of the component it copies (e3 for i=1,2; e9 for i=3,4,5).
    cells = {}
    for i in range(1, 6):
        row = 2 * (i - 1)
        lead, mid, loop = w[3 * i - 2], w[3 * i - 1], w[3 * i]
        target, copied = (0, w[3]) if i in (1, 2) else (4, w[9])
        cells[(row, target)] = [binomial_family(lead, mid, copied, rho, r)]
        cells[(row, row + 1)] = [geometric_family(mid, mid, r, r)]
        cells[(row + 1, row)] = [(loop, r)]
        cells[(row + 1, row + 1)] = [(loop, r)]
    cells[(10, 0)] = [(w[16], rho)]
    cells[(10, 1)] = [(w[16], rho)]
    cells[(11, 10)] = [(w[17], r)]
    cells[(11, 11)] = [(w[17], r)]
    return cells


def _heights_factors(x, w):
    rho, r = x.rho, x.r
    w1 = binomial_family(w[1], w[2], w[3], rho, r)
    w3 = binomial_family(w[7], w[8], w[9], rho, r)
    return (
        Factor("comp1", (1, 2), _loops(r, w[2], w[3], series=w1), _geom_sup(max(w[2], w[3]), r)),
        Factor("comp2", (3, 4), _loops(r, w[5], w[6]), _no_sup),
        Factor("comp3", (5, 6), _loops(r, w[8], w[9], series=w3), _geom_sup(max(w[8], w[9]), r)),
        Factor("comp4", (7, 8), _loops(r, w[11], w[12]), _no_sup),
        Factor("comp5", (9, 10), _loops(r, w[14], w[15]), _no_sup),
        Factor("comp6", (12,), _loops(r, w[17]), _no_sup),
    )


NONSTRONG_R_HEIGHTS = Family(
    id="nonstrong-r-heights",
    dim=1,
    # Per-vertex edge triples mirror vertex 1 (maps rho, mid, top) except
    # for the cross edges e4, e10, e13, e16, which carry copies of an
    # upstream measure, and vertex 6, which has only two edges.
    edges=(
        ("e1", 0, 0, _rho_map), ("e2", 0, 0, _mid_map), ("e3", 0, 0, _top_map),
        ("e4", 1, 0, _rho_map), ("e5", 1, 1, _mid_map), ("e6", 1, 1, _top_map),
        ("e7", 2, 2, _rho_map), ("e8", 2, 2, _mid_map), ("e9", 2, 2, _top_map),
        ("e10", 3, 2, _rho_map), ("e11", 3, 3, _mid_map), ("e12", 3, 3, _top_map),
        ("e13", 4, 2, _rho_map), ("e14", 4, 4, _mid_map), ("e15", 4, 4, _top_map),
        ("e16", 5, 0, _rho_map), ("e17", 5, 5, _top_map),
    ),
    params=("rho", "r"),
    canonical=_RHO_R,
    geometry=_no_overlap,
    cell_labels=tuple(range(1, 13)),
    cells=_heights_cells,
    factors=_heights_factors,
)


# ---------------------------------------------------------------------------
# nonstrong-r2: two components in R^2
# ---------------------------------------------------------------------------

def _nonstrong_r2_geometry(x):
    _no_overlap(x)
    tmax = min(x.t, 1.0 - x.t)
    _require(x.s < tmax, f"nonstrong-r2 requires s in (0, min(t,1-t)) = (0, {tmax:.6g})")


def _nonstrong_r2_cells(x, w):
    rho, r, t, s = x.rho, x.r, x.t, x.s
    series = binomial_family(w[4], w[5], w[6], rho, r)
    geo = geometric_family(w[5], w[5], r, r)
    cells = {}
    for j in (3, 4, 5):
        cells[(0, j)] = [(w[1], s)]
    for j in (0, 1, 2):
        cells[(1, j)] = [(w[2], t)]
        cells[(2, j)] = [(w[3], 1.0 - t)]
    cells[(3, 3)] = [series]
    cells[(3, 4)] = [geo]
    cells[(3, 5)] = [series, geo]
    for j in (3, 4, 5):
        cells[(4, j)] = [(w[6], r)]
        cells[(5, j)] = [(w[7], r)]
    return cells


def _nonstrong_r2_factors(x, w):
    rho, r, t = x.rho, x.r, x.t
    series = binomial_family(w[4], w[5], w[6], rho, r)

    def f_top(q, alpha):
        return 1.0 - _qpow(w[2], t, q, alpha) - _qpow(w[3], 1.0 - t, q, alpha)

    bottom = _loops(r, w[5], w[6], w[7], series=series)
    return (
        Factor("top", (2, 3), f_top, _no_sup),
        Factor("bottom", (4, 5, 6), bottom, _geom_sup(max(w[5], w[6]), r)),
    )


NONSTRONG_R2 = Family(
    id="nonstrong-r2",
    dim=2,
    edges=(
        ("e1", 0, 1, lambda x: similitude_2d(x.s, (-2.0 * x.s, 0.0))),
        ("e2", 0, 0, lambda x: similitude_2d(x.t, (1.0 - x.t, 0.0))),
        ("e3", 0, 0, lambda x: similitude_2d(1.0 - x.t, (0.0, x.t))),
        ("e4", 1, 1, lambda x: similitude_2d(x.rho, (2.0 * (1.0 - x.rho), 0.0))),
        # Translation chosen so the overlap identity map(e4) o map(e6) ==
        # map(e5) o map(e4) holds and the image stays inside (2,3)x(0,1).
        ("e5", 1, 1, lambda x: similitude_2d(x.r, ((2.0 + x.rho) * (1.0 - x.r), 0.0))),
        ("e6", 1, 1, lambda x: similitude_2d(x.r, (3.0 * (1.0 - x.r), 0.0))),
        ("e7", 1, 1, lambda x: similitude_2d(x.r, (2.0 * (1.0 - x.r), 1.0 - x.r))),
    ),
    params=("rho", "r", "t", "s"),
    canonical={**_RHO_R, "t": 0.5, "s": 0.25},
    geometry=_nonstrong_r2_geometry,
    cell_labels=tuple(range(1, 7)),
    cells=_nonstrong_r2_cells,
    factors=_nonstrong_r2_factors,
    bbox=((0.0, 3.0), (0.0, 1.0)),
)


# ---------------------------------------------------------------------------
# The table and what is derived from it
# ---------------------------------------------------------------------------

FAMILIES = {
    f.id: f for f in (STRONG_R, STRONG_R2, NONSTRONG_R_BASIC, NONSTRONG_R_HEIGHTS, NONSTRONG_R2)
}
FAMILY_IDS = tuple(FAMILIES)


def family(family_id: str) -> Family:
    _require(family_id in FAMILIES, f"unknown family id {family_id!r}")
    return FAMILIES[family_id]


def default_probs(family_id: str, scheme: str = "uniform") -> dict[str, float]:
    """Named probability assignments.

    ``uniform`` splits each vertex's mass equally over its out-edges.
    ``symmetric`` is the same assignment; the name records that it gives
    structurally identical components identical weights, which is what makes
    their roots tie in the height demonstrations.
    """
    groups = family(family_id).groups
    _require(scheme in ("uniform", "symmetric"), f"unknown probability scheme {scheme!r}")
    return {lab: 1.0 / len(labels) for labels in groups for lab in labels}


def canonical_params(family_id: str) -> FamilyParams:
    """The repo-wide canonical parameter point for each family."""
    return FamilyParams(family_id, **family(family_id).canonical, probs=default_probs(family_id))


def resolve(p: FamilyParams) -> tuple[Family, dict[int, float]]:
    """The record of ``p``'s family and its edge probabilities by edge number.

    Raises ``InvalidParams`` unless the family is known, each of its
    parameters lies in (0, 1), its geometric constraint holds, and the
    probabilities, uniform when none are given, name only the family's
    edges, lie in (0, 1] and sum to one at each vertex.
    """
    fam = family(p.family_id)
    for name in fam.params:
        v = getattr(p, name)
        _require(v is not None, f"{fam.id} requires {name}")
        _require(0.0 < v < 1.0, f"{name}={v} not in (0,1)")
    fam.geometry(p)
    probs = dict(p.probs) if p.probs else default_probs(fam.id)
    unknown = sorted(set(probs) - {lab for lab, *_ in fam.edges})
    _require(not unknown, f"{fam.id} has no edges {unknown}")
    for v, labels in enumerate(fam.groups):
        missing = [lab for lab in labels if lab not in probs]
        _require(not missing, f"missing probabilities for edges {missing}")
        total = math.fsum(probs[lab] for lab in labels)
        _require(abs(total - 1.0) <= _PROB_TOL, f"vertex {v + 1} probabilities sum to {total:.5g}")
        for lab in labels:
            _require(0.0 < probs[lab] <= 1.0, f"probability for {lab} not in (0,1]")
    return fam, {k: probs[lab] for k, (lab, *_) in enumerate(fam.edges, 1)}
