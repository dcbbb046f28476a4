"""Test-only reference box counter: bin the points afresh at every scale.

This is the per-scale body that ``lqspec.empirical.partition_sum`` had
before it counted all dyadic scales from one box pass.  It takes an (n, d)
array of points, one per walk, such as the reference sampler's
(``sampler_oracle.oracle_sample``), and the grid anchor.  The boxes are
anchored there, their integer keys packed into one collision-free integer
per box, and ``np.unique`` counts them, so the counts come out in
lexicographic key order.

``partition_sum`` lists its boxes by Morton code instead, with each axis's
keys offset per chain of sides (by 0 in a sampled cloud).  ``morton_keys``
decodes such codes one bit at a time, and ``morton_codes`` encodes the
boxes of points so, with offset 0.  ``morton_boxes`` and ``oracle_boxes``
shift each box by the least occupied key per axis and list the boxes in
lexicographic order, so the two box-to-count maps compare box by box
whatever the offset and the code order.
"""

from __future__ import annotations

import numpy as np


def _oracle_keys(points, anchor, h: float) -> np.ndarray:
    return np.floor((np.asarray(points) - np.asarray(anchor, dtype=float)) / h).astype(np.int64)


def _packed(keys):
    """The (n, d) keys less the least key per axis, and one integer per row
    that orders the rows lexicographically."""
    # Offsets keep the coordinates nonnegative, so the packing is
    # collision-free.
    keys = keys - keys.min(axis=0)
    flat = keys[:, 0]
    for d in range(1, keys.shape[1]):
        flat = flat * (int(keys[:, d].max()) + 1) + keys[:, d]
    return keys, flat


def oracle_box_counts(points, anchor, h: float) -> np.ndarray:
    _, flat = _packed(_oracle_keys(points, anchor, h))
    _, counts = np.unique(flat, return_counts=True)
    return counts


def oracle_boxes(points, anchor, h: float):
    """The boxes of side h anchored at anchor that the (n, d) points occupy,
    (m, d) in lexicographic order, each its integer keys less the least
    occupied key per axis, and the number of points in each."""
    keys, flat = _packed(_oracle_keys(points, anchor, h))
    _, index, counts = np.unique(flat, return_index=True, return_counts=True)
    return keys[index], counts


def morton_keys(codes, dim: int) -> np.ndarray:
    """The (n, d) integer keys of the Morton codes in dim axes, where bit
    dim * b + axis of a code is bit b of that axis's key."""
    codes = np.asarray(codes).astype(np.uint64)
    keys = np.zeros((len(codes), dim), dtype=np.int64)
    for bit in range(64):
        axis, b = bit % dim, bit // dim
        keys[:, axis] |= ((codes >> np.uint64(bit)) & np.uint64(1)).astype(np.int64) << b
    return keys


def morton_codes(points, anchor, h: float) -> np.ndarray:
    """The uint64 Morton codes, built one bit at a time, of the boxes of
    side h anchored at anchor of the (n, d) points: bit b of an axis's key
    is bit d * b + axis of the code.  Every key must be nonnegative."""
    keys = _oracle_keys(points, anchor, h)
    n, dim = keys.shape
    assert not n or keys.min() >= 0
    codes = np.zeros(n, dtype=np.uint64)
    for bit in range(64):
        axis, b = bit % dim, bit // dim
        codes |= ((keys[:, axis] >> b) & 1).astype(np.uint64) << np.uint64(bit)
    return codes


def morton_boxes(codes, counts, dim: int):
    """The boxes of the Morton codes in dim axes (morton_keys), as
    ``oracle_boxes`` gives them: less the least occupied key per axis, in
    lexicographic order, with their counts."""
    keys, flat = _packed(morton_keys(codes, dim))
    order = np.argsort(flat)
    return keys[order], np.asarray(counts)[order]


def oracle_partition_sum(points, anchor, h: float, q: float, total_mass: float) -> float:
    """total_mass^q * sum (c/n)^q over the boxes of side h that the n points occupy."""
    n = len(points)
    if n == 0:
        return 0.0
    counts = oracle_box_counts(points, anchor, h)
    return float(total_mass**q * np.sum(counts.astype(float) ** q) / float(n) ** q)
