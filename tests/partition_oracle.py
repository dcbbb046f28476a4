"""Test-only reference box counter: bin the points afresh at every scale.

This is the per-scale body that ``lqspec.empirical.partition_sum`` had
before it counted all dyadic scales from one box pass.  The boxes are
anchored at the cloud's grid anchor, their integer keys packed into one
collision-free integer per box, and ``np.unique`` counts them, so the
counts come out in lexicographic key order.
"""

from __future__ import annotations

import numpy as np


def oracle_box_counts(cloud, h: float) -> np.ndarray:
    anchor = np.asarray(cloud.grid_anchor, dtype=float)
    keys = np.floor((cloud.points - anchor) / h).astype(np.int64)
    if keys.shape[1] == 1:
        flat = keys[:, 0]
    else:
        # Offsets keep the coordinates nonnegative, so the packing is
        # collision-free.
        mins = keys.min(axis=0)
        shifted = keys - mins
        flat = shifted[:, 0]
        for d in range(1, shifted.shape[1]):
            flat = flat * (int(shifted[:, d].max()) + 1) + shifted[:, d]
    _, counts = np.unique(flat, return_counts=True)
    return counts


def oracle_partition_sum(cloud, h: float, q: float, total_mass: float) -> float:
    """total_mass^q * sum (c/n)^q over the occupied boxes of side h."""
    n = len(cloud)
    if n == 0:
        return 0.0
    counts = oracle_box_counts(cloud, h)
    return float(total_mass**q * np.sum(counts.astype(float) ** q) / float(n) ** q)
