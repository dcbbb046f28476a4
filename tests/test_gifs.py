"""Graph model: the built-in family constructors and the invariants of
their systems, strongly connected components, and path composition (through
the test-only ``compose_word``)."""

from __future__ import annotations

import numpy as np
import pytest

import lqspec as lq
from lqspec.families import FamilyParams, default_probs
from conftest import assert_valid_gifs, compose_word, random_params, vertex_components


def _strong_r_p0():
    return lq.canonical_params("strong-r")


# -- invariants of the built systems --------------------------------------------

def test_validate_canonical_ok():
    assert_valid_gifs(lq.build_example(_strong_r_p0()))


def test_validate_reports_bad_probability_sum():
    probs = default_probs("strong-r")
    probs["e3"] = 0.4
    with pytest.raises(lq.InvalidParams, match="vertex 1 probabilities sum to 1.0667"):
        lq.build_example(FamilyParams("strong-r", rho=1 / 3, r=2 / 7, probs=probs))


def test_validate_reports_bad_ratio():
    # rho is the contraction ratio of e1; a ratio of 1 does not contract
    assert lq.build_example(_strong_r_p0()).edges[0].map.ratio == pytest.approx(1 / 3)
    with pytest.raises(lq.InvalidParams, match=r"rho=1.0 not in \(0,1\)"):
        lq.build_example(FamilyParams("strong-r", rho=1.0, r=2 / 7))


def test_validate_random_valid_params():
    rng = np.random.default_rng(2024)
    for fid in lq.FAMILY_IDS:
        for _ in range(20):
            assert_valid_gifs(lq.build_example(random_params(fid, rng)))


# -- strongly connected components ---------------------------------------------

def test_scc_strong_r_single_component():
    assert len(vertex_components(lq.build_example(_strong_r_p0()))) == 1


def test_scc_nonstrong_basic_two_components():
    g = lq.build_example(lq.canonical_params("nonstrong-r-basic"))
    assert vertex_components(g) == [[0], [1]]
    # one component per vertex, so the condensation is the set of cross edges
    assert {(e.src, e.dst) for e in g.edges if e.src != e.dst} == {(1, 0)}  # e5


def test_scc_heights_six_components():
    g = lq.build_example(lq.canonical_params("nonstrong-r-heights"))
    assert len(vertex_components(g)) == 6


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
    got = vertex_components(g)
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


# -- path composition ----------------------------------------------------------

def test_compose_empty_word_is_identity():
    g = lq.build_example(_strong_r_p0())
    m, prob = compose_word(g, [])
    assert m.ratio == 1.0
    assert prob == 1.0
    assert np.array_equal(m.orthogonal, np.eye(1))
    assert np.array_equal(m.translation, [0.0])


def test_compose_ratio_is_product():
    g = lq.build_example(_strong_r_p0())
    m, prob = compose_word(g, ["e1", "e3"])
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
        m, _ = compose_word(g, word)
        assert m.ratio == pytest.approx(expected, rel=1e-14)


def test_compose_chain_broken():
    g = lq.build_example(_strong_r_p0())
    # e2 ends at vertex 1, e1 starts at vertex 0
    with pytest.raises(ValueError, match="starts at 0, expected 1"):
        compose_word(g, ["e2", "e1"])


def test_overlap_identity_strong_r2():
    g = lq.build_example(lq.canonical_params("strong-r2"))
    a, _ = compose_word(g, ["e1", "e4"])
    b, _ = compose_word(g, ["e4", "e8"])
    assert np.max(np.abs(np.subtract(a.translation, b.translation))) <= 1e-12
    assert np.max(np.abs(np.subtract(a.orthogonal, b.orthogonal))) <= 1e-12
    assert abs(a.ratio - b.ratio) <= 1e-12


def test_overlap_identity_nonstrong_basic():
    g = lq.build_example(lq.canonical_params("nonstrong-r-basic"))
    a, _ = compose_word(g, ["e1", "e3"])
    b, _ = compose_word(g, ["e2", "e1"])
    assert abs(a.translation[0] - b.translation[0]) <= 1e-12
    assert abs(a.ratio - b.ratio) <= 1e-12


def test_overlap_identity_nonstrong_r2():
    g = lq.build_example(lq.canonical_params("nonstrong-r2"))
    a, _ = compose_word(g, ["e4", "e6"])
    b, _ = compose_word(g, ["e5", "e4"])
    assert np.max(np.abs(np.subtract(a.translation, b.translation))) <= 1e-12
    assert abs(a.ratio - b.ratio) <= 1e-12


# -- build_example -----------------------------------------------------------

def test_strong_r_structure():
    g = lq.build_example(_strong_r_p0())
    assert g.num_vertices == 2
    assert len(g.edges) == 5
    e2 = {e.id: e for e in g.edges}["e2"]
    assert e2.map.ratio == pytest.approx(2.0 / 7.0)
    assert e2.map.translation[0] == pytest.approx((1.0 / 3.0) * (5.0 / 7.0))


def test_strong_r2_structure():
    g = lq.build_example(lq.canonical_params("strong-r2"))
    assert len(g.edges) == 8
    e5 = {e.id: e for e in g.edges}["e5"]
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
