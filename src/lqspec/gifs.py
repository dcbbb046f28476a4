"""Graph-directed iterated function systems (GIFS).

A GIFS is a directed multigraph whose edges carry contractive similitudes
and transition probabilities; the probabilities of the edges leaving each
vertex sum to one, so every vertex supports a self-similar probability
measure.  This module holds the data model, the constructor that builds a
built-in family from its edge table in ``families`` (which validates the
parameters), and the parser of exact rational inputs.  Maps hold plain
tuples of floats, so building a family imports no numpy; ``empirical``,
which samples the measures, turns them into arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Similitude:
    """Map x -> ratio * orthogonal @ x + translation on R^dim.

    ``orthogonal`` is held as dim rows of dim floats and ``translation`` as
    dim floats; any nested sequences of numbers are accepted.
    """

    dim: int
    ratio: float
    orthogonal: tuple[tuple[float, ...], ...]
    translation: tuple[float, ...]

    def __post_init__(self):
        orth = tuple(tuple(float(v) for v in row) for row in self.orthogonal)
        trans = tuple(float(v) for v in self.translation)
        d = self.dim
        if len(orth) != d or any(len(row) != d for row in orth) or len(trans) != d:
            raise ValueError(
                f"a similitude on R^{d} needs a {d} x {d} orthogonal part "
                f"and {d} translation entries"
            )
        object.__setattr__(self, "orthogonal", orth)
        object.__setattr__(self, "translation", trans)


def similitude_1d(ratio: float, translation: float) -> Similitude:
    return Similitude(dim=1, ratio=ratio, orthogonal=((1.0,),), translation=(translation,))


def similitude_2d(ratio: float, translation, angle: float = 0.0) -> Similitude:
    c, s = math.cos(angle), math.sin(angle)
    return Similitude(dim=2, ratio=ratio, orthogonal=((c, -s), (s, c)), translation=translation)


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
    # Sampling metadata: a box containing every vertex attractor (lo, hi per
    # coordinate; the unit box by default).  Its low corner anchors the grids.
    bbox: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.bbox:
            object.__setattr__(self, "bbox", tuple([(0.0, 1.0)] * self.dim))

    def out_edges(self, vertex: int) -> list[Edge]:
        return [e for e in self.edges if e.src == vertex]


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
