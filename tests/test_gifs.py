"""Graph model: validation, component decomposition, path composition, and
the built-in family constructors."""

from __future__ import annotations

import numpy as np
import pytest

import lqspec as lq
from lqspec.families import FamilyParams, default_probs
from conftest import random_params


def _strong_r_p0():
    return lq.canonical_params("strong-r")


# -- validate_gifs -----------------------------------------------------------

def test_validate_canonical_ok():
    g = lq.build_example(_strong_r_p0())
    report = lq.validate_gifs(g)
    assert report.ok
    assert report.violations == ()


def test_validate_reports_bad_probability_sum():
    probs = default_probs("strong-r")
    probs["e3"] = 0.4
    g = lq.build_example(_strong_r_p0())
    edges = tuple(
        e if e.id != "e3" else lq.Edge(e.id, e.src, e.dst, e.map, 0.4) for e in g.edges
    )
    bad = lq.Gifs(g.num_vertices, g.dim, edges)
    report = lq.validate_gifs(bad)
    assert not report.ok
    assert any("vertex 1" in v and "1.0667" in v for v in report.violations)


def test_validate_reports_bad_ratio():
    g = lq.build_example(_strong_r_p0())
    bad_map = lq.Similitude(1, 1.0, np.eye(1), np.zeros(1))
    edges = tuple(
        e if e.id != "e1" else lq.Edge(e.id, e.src, e.dst, bad_map, e.prob) for e in g.edges
    )
    report = lq.validate_gifs(lq.Gifs(g.num_vertices, g.dim, edges))
    assert any("contraction ratio not in (0,1)" in v for v in report.violations)


def test_validate_random_valid_params():
    rng = np.random.default_rng(2024)
    for fid in lq.FAMILY_IDS:
        for _ in range(20):
            g = lq.build_example(random_params(fid, rng))
            assert lq.validate_gifs(g).ok


# -- scc_decompose -----------------------------------------------------------

def test_scc_strong_r_single_component():
    res = lq.scc_decompose(lq.build_example(_strong_r_p0()))
    assert res.num_components == 1
    assert res.is_strongly_connected


def test_scc_nonstrong_basic_two_components():
    res = lq.scc_decompose(lq.build_example(lq.canonical_params("nonstrong-r-basic")))
    assert res.num_components == 2
    assert res.component_of == (0, 1)
    assert res.condensation == ((1, 0),)  # the cross edge e5 links them


def test_scc_heights_six_components():
    res = lq.scc_decompose(lq.build_example(lq.canonical_params("nonstrong-r-heights")))
    assert res.num_components == 6
    assert not res.is_strongly_connected


def _floyd_warshall_components(n, edges):
    reach = [[i == j for j in range(n)] for i in range(n)]
    for u, v in edges:
        reach[u][v] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    comp = [-1] * n
    c = 0
    for i in range(n):
        if comp[i] != -1:
            continue
        for j in range(n):
            if reach[i][j] and reach[j][i]:
                comp[j] = c
        c += 1
    return comp


def _assert_same_partition(g):
    # same partition as the closure's (component ids may differ)
    expected = _floyd_warshall_components(g.num_vertices, [(e.src, e.dst) for e in g.edges])
    groups = {}
    for v in range(g.num_vertices):
        groups.setdefault(expected[v], set()).add(v)
    got = lq.scc_decompose(g).components
    assert {frozenset(c) for c in got} == {frozenset(grp) for grp in groups.values()}


def test_scc_matches_reachability_closure_on_random_graphs():
    rng = np.random.default_rng(99)
    ident = lq.Similitude(1, 0.5, np.eye(1), np.zeros(1))
    for _ in range(100):
        n = int(rng.integers(1, 9))
        edges = []
        for v in range(n):
            # at least one outgoing edge per vertex
            outs = rng.integers(0, n, size=int(rng.integers(1, 4)))
            for k, w in enumerate(outs):
                edges.append(lq.Edge(f"v{v}k{k}", v, int(w), ident, 1.0 / len(outs)))
        _assert_same_partition(lq.Gifs(n, 1, tuple(edges)))


def test_scc_matches_closure_on_families():
    for fid in lq.FAMILY_IDS:
        _assert_same_partition(lq.build_example(lq.canonical_params(fid)))


# -- compose_path ------------------------------------------------------------

def test_compose_empty_word_is_identity():
    g = lq.build_example(_strong_r_p0())
    m, prob = lq.compose_path(g, [])
    assert m.ratio == 1.0
    assert prob == 1.0
    assert np.allclose(m(np.array([0.37])), [0.37])


def test_compose_ratio_is_product():
    g = lq.build_example(_strong_r_p0())
    m, prob = lq.compose_path(g, ["e1", "e3"])
    assert m.ratio == pytest.approx((1.0 / 3.0) * (2.0 / 7.0), rel=1e-15)
    assert prob == pytest.approx((1.0 / 3.0) ** 2, rel=1e-15)


def test_compose_ratio_product_random():
    rng = np.random.default_rng(5)
    g = lq.build_example(lq.canonical_params("nonstrong-r-heights"))
    for _ in range(50):
        word = []
        v = int(rng.integers(0, g.num_vertices))
        expected = 1.0
        for _ in range(int(rng.integers(1, 9))):
            outs = g.out_edges(v)
            e = outs[int(rng.integers(0, len(outs)))]
            word.append(e.id)
            expected *= e.map.ratio
            v = e.dst
        m, _ = lq.compose_path(g, word)
        assert m.ratio == pytest.approx(expected, rel=1e-14)


def test_compose_chain_broken():
    g = lq.build_example(_strong_r_p0())
    # e2 ends at vertex 1, e1 starts at vertex 0
    with pytest.raises(lq.ChainBroken):
        lq.compose_path(g, ["e2", "e1"])


def test_overlap_identity_strong_r2():
    g = lq.build_example(lq.canonical_params("strong-r2"))
    a, _ = lq.compose_path(g, ["e1", "e4"])
    b, _ = lq.compose_path(g, ["e4", "e8"])
    assert np.max(np.abs(a.translation - b.translation)) <= 1e-12
    assert np.max(np.abs(a.orthogonal - b.orthogonal)) <= 1e-12
    assert abs(a.ratio - b.ratio) <= 1e-12


def test_overlap_identity_nonstrong_basic():
    g = lq.build_example(lq.canonical_params("nonstrong-r-basic"))
    a, _ = lq.compose_path(g, ["e1", "e3"])
    b, _ = lq.compose_path(g, ["e2", "e1"])
    assert abs(a.translation[0] - b.translation[0]) <= 1e-12
    assert abs(a.ratio - b.ratio) <= 1e-12


def test_overlap_identity_nonstrong_r2():
    g = lq.build_example(lq.canonical_params("nonstrong-r2"))
    a, _ = lq.compose_path(g, ["e4", "e6"])
    b, _ = lq.compose_path(g, ["e5", "e4"])
    assert np.max(np.abs(a.translation - b.translation)) <= 1e-12
    assert abs(a.ratio - b.ratio) <= 1e-12


# -- build_example -----------------------------------------------------------

def test_strong_r_structure():
    g = lq.build_example(_strong_r_p0())
    assert g.num_vertices == 2
    assert len(g.edges) == 5
    e2 = g.edge_by_id("e2")
    assert e2.map.ratio == pytest.approx(2.0 / 7.0)
    assert e2.map.translation[0] == pytest.approx((1.0 / 3.0) * (5.0 / 7.0))


def test_strong_r2_structure():
    g = lq.build_example(lq.canonical_params("strong-r2"))
    assert len(g.edges) == 8
    e5 = g.edge_by_id("e5")
    # quarter-turn clockwise with translation (0, 1)
    assert np.allclose(e5.map.orthogonal, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)
    assert np.allclose(e5.map.translation, [0.0, 1.0])
    rho = lq.families.GOLDEN_RATIO_INV
    assert e5.map.ratio == pytest.approx(rho * rho)


def test_invalid_params_rejected():
    with pytest.raises(lq.InvalidParams):
        lq.build_example(FamilyParams("strong-r", rho=0.9, r=0.9))
    with pytest.raises(lq.InvalidParams):
        lq.build_example(FamilyParams("nonstrong-r2", rho=1 / 3, r=2 / 7, t=0.5, s=0.6))
    with pytest.raises(lq.InvalidParams):
        lq.build_example(FamilyParams("strong-r2", rho=0.5))
    with pytest.raises(lq.InvalidParams):
        lq.build_example(FamilyParams("no-such-family"))


def test_parse_number_rationals():
    assert lq.gifs.parse_number("1/3") == pytest.approx(1.0 / 3.0, rel=1e-16)
    assert lq.gifs.parse_number("0.25") == 0.25
    assert lq.gifs.parse_number(2) == 2.0
