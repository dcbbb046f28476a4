"""Shared fixtures: random valid parameters, independent brute-force
oracles used to cross-check the adaptive evaluation paths (explicit series
sums, a central-difference tau', a warm-started closed-form curve), and
test-only graph and matrix helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

import lqspec as lq
from lqspec.closed_forms import Val
from lqspec.families import FAMILIES, FamilyParams
from lqspec.matrix import entry_value


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


def _brute_log_weights(w, n_terms: int) -> np.ndarray:
    """Explicit log-weights, cumulative-sum route for binomial weights."""
    key = (w, n_terms)
    cached = _BRUTE_CACHE.get(key)
    if cached is not None:
        return cached
    ks = np.arange(n_terms, dtype=float)
    if isinstance(w, lq.GeometricPower):
        log_w = math.log(w.c) + ks * math.log(w.a)
    else:
        hi, lo = max(w.a, w.b), min(w.a, w.b)
        sgeo = np.cumsum((lo / hi) ** ks)
        log_w = math.log(w.c) + ks * math.log(hi) + np.log(sgeo)
    _BRUTE_CACHE[key] = log_w
    return log_w


def brute_family_value(fam, q: float, alpha: float, n_terms: int = 10**6) -> float:
    """The first ``n_terms`` atoms of a series, summed explicitly."""
    ks = np.arange(n_terms, dtype=float)
    log_w = _brute_log_weights(fam.weight, n_terms)
    log_len = math.log(fam.base_ratio) + ks * math.log(fam.step_ratio)
    with np.errstate(under="ignore"):
        return float(np.sum(np.exp(q * log_w - alpha * log_len)))


def tau_prime_fd(spec, q: float, step: float = 1e-4) -> float:
    """Central-difference slope of tau at q, from two cold solves."""
    if not 0.0 < step < math.inf:
        raise lq.InvalidGrid(f"step must be positive and finite, got {step}")
    if q - step < 0.0:
        raise lq.InvalidGrid(f"q - step = {q - step} below 0; decrease step")
    hi, _ = lq.tau(spec, q + step)
    lo, _ = lq.tau(spec, q - step)
    return (hi - lo) / (2.0 * step)


def H_val(fam, q: float, alpha: float) -> Val:
    """The characteristic function of a ``ClosedFormFamily``: the product of
    its factors, with its two partials."""
    out = Val(1.0)
    for f in fam.factors:
        out = out * f.value(q, alpha)
    return out


def closed_form_curve(fam, qs) -> list[tuple[float, float]]:
    """(tau, tau') at each q from the closed forms.

    Each factor root is warm-started from its root at the previous q: a
    cold ``solve`` raises DomainViolation for strong-r2 at q = 0.1 and 0.2.
    tau' is -f_q / f_alpha at the root of the attaining factor f.
    """
    roots = [0.0] * len(fam.factors)
    out = []
    for q in qs:
        roots = [fam.solve_factor(i, q, start=r) for i, r in enumerate(roots)]
        i = min(range(len(roots)), key=roots.__getitem__)
        v = fam.factors[i].value(q, roots[i])
        out.append((roots[i], -v.dq / v.da))
    return out


# ---------------------------------------------------------------------------
# Test-only helpers: a dense matrix built entry by entry, path composition
# and graph components (Tarjan, independent of the closures that
# ``spectral.communication_classes`` uses)
# ---------------------------------------------------------------------------

def dense_matrix(spec, q: float, alpha: float) -> np.ndarray:
    """The spec's matrix at (q, alpha), built entry by entry with ``entry_value``."""
    return np.array(
        [[entry_value(spec.cells.get((i, j), ()), q, alpha) for j in range(spec.n)]
         for i in range(spec.n)]
    )


def row_major_series(spec) -> list:
    """The distinct series of a spec, in the row-major order of their first cells."""
    return list(dict.fromkeys(
        t for ij in sorted(spec.cells) for t in spec.cells[ij] if isinstance(t, lq.AtomFamily)
    ))


def compose_word(g, word) -> tuple[lq.Similitude, float]:
    """map(e1) o map(e2) o ... o map(ek) for a path word of edge ids, and its probability.

    Raises ValueError unless each edge starts where the previous one ends.
    """
    edges = {e.id: e for e in g.edges}
    ratio, orth, trans, prob = 1.0, np.eye(g.dim), np.zeros(g.dim), 1.0
    prev_dst = None
    for label in word:
        e = edges[label]
        if prev_dst is not None and e.src != prev_dst:
            raise ValueError(f"edge {label} starts at {e.src}, expected {prev_dst}")
        trans = trans + ratio * (orth @ e.map.translation)
        orth = orth @ e.map.orthogonal
        ratio *= e.map.ratio
        prob *= e.prob
        prev_dst = e.dst
    return lq.Similitude(g.dim, ratio, orth, trans), prob


def assert_valid_gifs(g):
    """Every edge joins two vertices, contracts, has an orthogonal linear part
    and a probability in (0, 1]; each vertex's out-edge probabilities sum to one."""
    for e in g.edges:
        assert 0 <= e.src < g.num_vertices and 0 <= e.dst < g.num_vertices, e.id
        assert e.map.dim == g.dim and 0.0 < e.map.ratio < 1.0, e.id
        assert 0.0 < e.prob <= 1.0, e.id
        orth = np.array(e.map.orthogonal)
        gram = orth.T @ orth
        assert np.max(np.abs(gram - np.eye(g.dim))) <= 1e-12, e.id
    for v in range(g.num_vertices):
        out = g.out_edges(v)
        assert out, f"vertex {v + 1} has no outgoing edge"
        assert abs(math.fsum(e.prob for e in out) - 1.0) <= 1e-12, v


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


def vertex_components(g) -> list[list[int]]:
    """Strongly connected components of a GIFS's graph, by smallest vertex."""
    adj = [[e.dst for e in g.out_edges(v)] for v in range(g.num_vertices)]
    return strong_components(g.num_vertices, adj)


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
