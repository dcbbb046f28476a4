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
from fractions import Fraction
from typing import NamedTuple


class Similitude(NamedTuple("Similitude", [("dim", int), ("ratio", float),
                                           ("orthogonal", tuple), ("translation", tuple)])):
    """Map x -> ratio * orthogonal @ x + translation on R^dim.

    ``orthogonal`` is held as dim rows of dim floats and ``translation`` as
    dim floats; any nested sequences of numbers are accepted.
    """

    __slots__ = ()

    def __new__(cls, dim: int, ratio: float, orthogonal, translation):
        orth = tuple(tuple(float(v) for v in row) for row in orthogonal)
        trans = tuple(float(v) for v in translation)
        if len(orth) != dim or any(len(row) != dim for row in orth) or len(trans) != dim:
            raise ValueError(
                f"a similitude on R^{dim} needs a {dim} x {dim} orthogonal part "
                f"and {dim} translation entries"
            )
        return super().__new__(cls, dim, ratio, orth, trans)


def similitude_1d(ratio: float, translation: float) -> Similitude:
    return Similitude(dim=1, ratio=ratio, orthogonal=((1.0,),), translation=(translation,))


def similitude_2d(ratio: float, translation, angle: float = 0.0) -> Similitude:
    c, s = math.cos(angle), math.sin(angle)
    return Similitude(dim=2, ratio=ratio, orthogonal=((c, -s), (s, c)), translation=translation)


class Edge(NamedTuple):
    id: str
    src: int
    dst: int
    map: Similitude
    prob: float


class Gifs(NamedTuple("Gifs", [("num_vertices", int), ("dim", int), ("edges", tuple),
                               ("bbox", tuple)])):
    """``edges`` may be any sequence and is held as a tuple.  ``bbox`` is
    sampling metadata: a box containing every vertex attractor (lo, hi per
    coordinate; the unit box if empty).  Its low corner anchors the grids.
    """

    __slots__ = ()

    def __new__(cls, num_vertices: int, dim: int, edges, bbox=()):
        return super().__new__(cls, num_vertices, dim, tuple(edges), bbox or ((0.0, 1.0),) * dim)

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
