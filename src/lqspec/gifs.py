"""Graph-directed iterated function systems (GIFS).

A GIFS is a directed multigraph whose edges carry contractive similitudes
and transition probabilities; the probabilities of the edges leaving each
vertex sum to one, so every vertex supports a self-similar probability
measure.  This module holds the data model, the constructor that builds a
built-in family from its edge table in ``families`` (which validates the
parameters), the strongly connected components of a digraph (the
communication classes of a matrix support), and the parser of exact
rational inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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

    def out_edges(self, vertex: int) -> list[Edge]:
        return [e for e in self.edges if e.src == vertex]


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
