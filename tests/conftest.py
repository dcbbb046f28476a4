"""Shared fixtures: random valid parameters and independent brute-force
oracles used to cross-check the adaptive evaluation paths."""

from __future__ import annotations

import math

import numpy as np
import pytest

import lqspec as lq
from lqspec.families import FAMILIES, FamilyParams


def random_params(family_id: str, rng: np.random.Generator) -> FamilyParams:
    """A random parameter set satisfying every validity constraint."""
    probs: dict[str, float] = {}
    for grp in FAMILIES[family_id].groups:
        w = rng.uniform(0.1, 1.0, len(grp))
        w /= w.sum()
        probs.update(zip(grp, w))
    if family_id == "strong-r2":
        return FamilyParams(family_id, probs=probs)
    rho = rng.uniform(0.08, 0.55)
    r_max = (1.0 - rho) / (2.0 - rho)
    r = rng.uniform(0.05, 0.95) * r_max
    extra = {}
    if family_id == "nonstrong-r2":
        t = rng.uniform(0.2, 0.8)
        extra = {"t": t, "s": rng.uniform(0.15, 0.85) * min(t, 1.0 - t)}
    return FamilyParams(family_id, rho=rho, r=r, probs=probs, **extra)


# ---------------------------------------------------------------------------
# Brute-force oracles (independent of the adaptive truncation engine:
# explicit term sums, cumulative-sum weights) and root matching
# ---------------------------------------------------------------------------

_BRUTE_CACHE: dict = {}


def _brute_log_weights(fam, k_end: int) -> np.ndarray:
    """Explicit log-weights, cumulative-sum route for binomial weights."""
    w = fam.weight
    key = (w, fam.k_start, k_end)
    cached = _BRUTE_CACHE.get(key)
    if cached is not None:
        return cached
    ks = np.arange(fam.k_start, k_end + 1, dtype=float)
    if isinstance(w, lq.Constant):
        log_w = np.full(ks.shape, math.log(w.c))
    elif isinstance(w, lq.GeometricPower):
        log_w = math.log(w.c) + ks * math.log(w.a)
    else:
        hi, lo = max(w.a, w.b), min(w.a, w.b)
        kk = np.arange(0, k_end + 1, dtype=float)
        sgeo = np.cumsum((lo / hi) ** kk)
        log_w = (math.log(w.c) + kk * math.log(hi) + np.log(sgeo))[fam.k_start :]
    _BRUTE_CACHE[key] = log_w
    return log_w


def brute_family_value(fam, q: float, alpha: float, n_terms: int = 10**6) -> float:
    k0 = fam.k_start
    k_end = fam.k_end if fam.k_end is not None else k0 + n_terms - 1
    ks = np.arange(k0, k_end + 1, dtype=float)
    log_w = _brute_log_weights(fam, k_end)
    log_len = math.log(fam.base_ratio) + ks * math.log(fam.step_ratio)
    with np.errstate(under="ignore"):
        return float(np.sum(np.exp(q * log_w - alpha * log_len)))


def matched_roots(spec, result, sol) -> list[tuple[float, float]]:
    """(closed-form root, spectral class root) per factor, matched by class labels."""
    deco = result.decomposition
    by_labels = {
        tuple(spec.labels[i] for i in deco.classes[ci]): root for ci, root in result.roots.items()
    }
    return [(root, by_labels[labels]) for root, labels in zip(sol.roots, sol.labels)]


@pytest.fixture(scope="session")
def canonical_specs():
    return {fid: lq.build_matrix_spec(lq.canonical_params(fid)) for fid in lq.FAMILY_IDS}


@pytest.fixture(scope="session")
def canonical_closed_forms():
    return {fid: lq.build_closed_form(lq.canonical_params(fid)) for fid in lq.FAMILY_IDS}
