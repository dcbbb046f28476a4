"""Graph-directed iterated function systems (GIFS).

A GIFS is a directed multigraph whose edges carry contractive similitudes
and transition probabilities; the probabilities of the edges leaving each
vertex sum to one, so every vertex supports a self-similar probability
measure.  This module holds the data model, validation, strongly connected
component decomposition, path composition, and the constructor that builds
a built-in family from its edge table in ``families``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ChainBroken

_ORTHO_TOL = 1e-12
_PROB_TOL = 1e-12


@dataclass(frozen=True)
class Similitude:
    """Map x -> ratio * orthogonal @ x + translation on R^dim."""

    dim: int
    ratio: float
    orthogonal: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "orthogonal", np.asarray(self.orthogonal, dtype=float).reshape(self.dim, self.dim)
        )
        object.__setattr__(
            self, "translation", np.asarray(self.translation, dtype=float).reshape(self.dim)
        )

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.ratio * (self.orthogonal @ x) + self.translation

    def compose(self, other: "Similitude") -> "Similitude":
        """self after other: (self o other)(x) = self(other(x))."""
        if self.dim != other.dim:
            raise ChainBroken("dimension mismatch in composition")
        return Similitude(
            dim=self.dim,
            ratio=self.ratio * other.ratio,
            orthogonal=self.orthogonal @ other.orthogonal,
            translation=self.ratio * (self.orthogonal @ other.translation) + self.translation,
        )

    def is_orthogonal(self, tol: float = _ORTHO_TOL) -> bool:
        gram = self.orthogonal.T @ self.orthogonal
        return bool(np.max(np.abs(gram - np.eye(self.dim))) <= tol)


def similitude_1d(ratio: float, translation: float) -> Similitude:
    return Similitude(dim=1, ratio=ratio, orthogonal=np.eye(1), translation=np.array([translation]))


def similitude_2d(ratio: float, translation, angle: float = 0.0) -> Similitude:
    c, s = math.cos(angle), math.sin(angle)
    orth = np.array([[c, -s], [s, c]])
    return Similitude(dim=2, ratio=ratio, orthogonal=orth, translation=np.asarray(translation, float))


@dataclass(frozen=True)
class Edge:
    id: str
    src: int
    dst: int
    map: Similitude
    prob: float


@dataclass(frozen=True)
class Gifs:
    num_vertices: int
    dim: int
    edges: tuple[Edge, ...]
    # Sampling metadata: a fixed anchor point used to seed random walks
    # (the centre of the unit box by default) and a bounding box containing
    # every vertex attractor (lo, hi per coordinate; the unit box by default).
    anchor: tuple[float, ...] = ()
    bbox: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.anchor:
            object.__setattr__(self, "anchor", tuple([0.5] * self.dim))
        if not self.bbox:
            object.__setattr__(self, "bbox", tuple([(0.0, 1.0)] * self.dim))

    def edge_by_id(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(edge_id)

    def out_edges(self, vertex: int) -> list[Edge]:
        return [e for e in self.edges if e.src == vertex]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class SccResult:
    component_of: tuple[int, ...]  # vertex -> component index (0-based)
    components: tuple[tuple[int, ...], ...]  # component -> sorted vertices
    condensation: tuple[tuple[int, int], ...]  # edges between components
    is_strongly_connected: bool

    @property
    def num_components(self) -> int:
        return len(self.components)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_gifs(g: Gifs) -> ValidationReport:
    """Check every structural invariant; never raises.

    Reported violations carry the vertex/edge location so a config author
    can find the offending entry.
    """
    violations: list[str] = []

    for e in g.edges:
        if not (0 <= e.src < g.num_vertices):
            violations.append(f"edge {e.id}: source vertex {e.src} out of range")
        if not (0 <= e.dst < g.num_vertices):
            violations.append(f"edge {e.id}: target vertex {e.dst} out of range")
        if not (0.0 < e.map.ratio < 1.0):
            violations.append(f"edge {e.id}: contraction ratio not in (0,1)")
        if not (0.0 < e.prob <= 1.0):
            violations.append(f"edge {e.id}: probability {e.prob} not in (0,1]")
        if e.map.dim != g.dim:
            violations.append(f"edge {e.id}: map dimension {e.map.dim} != {g.dim}")
        if not e.map.is_orthogonal():
            violations.append(f"edge {e.id}: linear part is not orthogonal")

    for v in range(g.num_vertices):
        out = g.out_edges(v)
        if not out:
            violations.append(f"vertex {v + 1} has no outgoing edge")
            continue
        total = math.fsum(e.prob for e in out)
        if abs(total - 1.0) > _PROB_TOL:
            violations.append(f"vertex {v + 1} probabilities sum to {total:.5g}")

    return ValidationReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Strongly connected components (Tarjan, iterative)
# ---------------------------------------------------------------------------

def scc_decompose(g: Gifs) -> SccResult:
    """Maximal strongly connected components and their acyclic condensation.

    Components are numbered by their smallest vertex so the labelling is
    stable regardless of traversal order.
    """
    n = g.num_vertices
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in g.edges:
        if 0 <= e.src < n and 0 <= e.dst < n:
            adj[e.src].append(e.dst)

    ordered = strong_components(n, adj)
    comp_of = [0] * n
    for new, grp in enumerate(ordered):
        for v in grp:
            comp_of[v] = new

    cond = sorted(
        {(comp_of[e.src], comp_of[e.dst]) for e in g.edges if comp_of[e.src] != comp_of[e.dst]}
    )
    return SccResult(
        component_of=tuple(comp_of),
        components=tuple(tuple(grp) for grp in ordered),
        condensation=tuple(cond),
        is_strongly_connected=(len(ordered) == 1),
    )


def strong_components(n: int, adj: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of a digraph on nodes 0..n-1 (Tarjan).

    Each component is an ascending node list; components are ordered by
    their smallest node.
    """
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(comp):
        groups.setdefault(c, []).append(v)
    return sorted(groups.values(), key=min)


# ---------------------------------------------------------------------------
# Path composition
# ---------------------------------------------------------------------------

def compose_path(g: Gifs, word: list[str] | tuple[str, ...]) -> tuple[Similitude, float]:
    """Compose the edge maps along a path word; also return its probability.

    The word lists edge ids in application order from the outside in:
    the composed map is map(e1) o map(e2) o ... o map(ek), defined only when
    dst(e_i) == src(e_{i+1}).
    """
    composed = Similitude(g.dim, 1.0, np.eye(g.dim), np.zeros(g.dim))
    prob = 1.0
    prev_dst: int | None = None
    for label in word:
        e = g.edge_by_id(label)
        if prev_dst is not None and e.src != prev_dst:
            raise ChainBroken(f"edge {label} starts at {e.src}, expected {prev_dst}")
        composed = composed.compose(e.map)
        prob *= e.prob
        prev_dst = e.dst
    return composed, prob


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def build_example(p) -> Gifs:
    """The vertices, edges and maps of a built-in family (``families.FamilyParams``)."""
    from .families import resolve  # the family table is built on this module

    fam, w = resolve(p)
    edges = tuple(
        Edge(lab, src, dst, make(p), w[k])
        for k, (lab, src, dst, make) in enumerate(fam.edges, 1)
    )
    return Gifs(fam.num_vertices, fam.dim, edges, bbox=fam.bbox)


def parse_number(text: str | float | int) -> float:
    """Accept exact rationals ('1/3') or decimals; convert once to float."""
    if isinstance(text, (int, float)):
        return float(text)
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)
