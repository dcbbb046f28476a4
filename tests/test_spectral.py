"""Spectral layer: Perron roots, communication classes, per-class roots,
classification, and lattice detection."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqspec as lq
from lqspec.families import FamilyParams, default_probs
from lqspec.matrix import AtomFamily, MeasureMatrixSpec, compile_block
from conftest import dense_matrix, random_params, row_major_series, strong_components

_ATOM = ((0.5, 0.5),)  # an entry holding one atom of mass 1/2 at length 1/2


def _spec_of(fid):
    return lq.build_matrix_spec(lq.canonical_params(fid))


# -- spectral_radius -----------------------------------------------------------

def test_radius_half_half_matrix():
    assert lq.spectral_radius(np.array([[0.5, 0.5], [0.5, 0.5]])) == pytest.approx(1.0, abs=1e-12)


def test_radius_zero_matrix():
    assert lq.spectral_radius(np.zeros((3, 3))) == 0.0


def test_radius_strong_r_at_p0():
    spec = _spec_of("strong-r")
    mat = dense_matrix(spec, 1.0, 0.0)
    assert lq.spectral_radius(mat) == pytest.approx(1.0, abs=1e-10)


def test_radius_periodic_block():
    # 2-cycle permutation-like block stalls plain power iteration
    mat = np.array([[0.0, 2.0], [0.5, 0.0]])
    assert lq.spectral_radius(mat) == pytest.approx(1.0, abs=1e-12)


def test_radius_matches_eigvals_on_family_matrices():
    rng = np.random.default_rng(8)
    for fid in lq.FAMILY_IDS:
        spec = _spec_of(fid)
        for q in (0.0, 1.0, 2.0):
            sup = compile_block(spec, range(spec.n)).domain_sup(q)
            for _ in range(5):
                alpha = rng.uniform(-1.5, 0.1)
                if sup is not None and alpha >= sup:
                    continue
                mat = dense_matrix(spec, q, alpha)
                got = lq.spectral_radius(mat)
                want = float(max(abs(np.linalg.eigvals(mat))))
                assert got == pytest.approx(want, abs=1e-9)


def test_radius_increasing_in_alpha():
    for fid in lq.FAMILY_IDS:
        spec = _spec_of(fid)
        for q in (0.0, 1.0, 2.0):
            hi = min((f.domain_sup(q) for f in row_major_series(spec)), default=0.5)
            alphas = np.linspace(hi - 2.5, hi - 0.05, 50)
            radii = [lq.spectral_radius(dense_matrix(spec, q, a)) for a in alphas]
            assert all(b > a for a, b in zip(radii, radii[1:]))


# -- communication classes -------------------------------------------------------

def test_classes_strong_r_single():
    deco = lq.communication_classes(_spec_of("strong-r"))
    assert deco.num_classes == 1
    assert deco.classes[0] == (0, 1, 2)
    assert not deco.degenerate[0]


def test_classes_nonstrong_basic():
    spec = _spec_of("nonstrong-r-basic")
    deco = lq.communication_classes(spec)
    label_classes = {tuple(spec.labels[i] for i in c) for c in deco.classes}
    assert label_classes == {(1, 2), (3,), (4,)}
    by_labels = {tuple(spec.labels[i] for i in c): k for k, c in enumerate(deco.classes)}
    assert deco.degenerate[by_labels[(3,)]]  # no self-loop
    assert not deco.degenerate[by_labels[(4,)]]
    # accessibility: {4} -> {3} -> {1,2}
    assert deco.accessibility[by_labels[(4,)]][by_labels[(3,)]]
    assert deco.accessibility[by_labels[(3,)]][by_labels[(1, 2)]]
    assert not deco.accessibility[by_labels[(1, 2)]][by_labels[(4,)]]
    assert deco.final_flags[by_labels[(1, 2)]]


def test_classes_diagonal_spec():
    spec = MeasureMatrixSpec(n=3, cells={(i, i): _ATOM for i in range(3)})
    deco = lq.communication_classes(spec)
    assert deco.num_classes == 3
    assert all(not d for d in deco.degenerate)


@st.composite
def support_patterns(draw):
    """Sparse random support patterns with self-loops, some rows emptied and
    some rows cut off from every edge (isolated and cycle-free)."""
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    sup = np.zeros((n, n), dtype=bool)
    for i, j in draw(st.sets(st.tuples(node, node), max_size=3 * n)):
        sup[i, j] = True
    sup[list(draw(st.sets(node, max_size=n // 2))), :] = False
    isolated = list(draw(st.sets(node, max_size=n // 2)))
    sup[isolated, :] = False
    sup[:, isolated] = False
    return sup


def _bfs(sup, start, allowed) -> set[int]:
    """Rows reached from ``start`` (itself included) through rows in ``allowed``."""
    seen, queue = {start}, deque([start])
    while queue:
        for j in np.flatnonzero(sup[queue.popleft()]).tolist():
            if j in allowed and j not in seen:
                seen.add(j)
                queue.append(j)
    return seen


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(support_patterns())
def test_class_structure_matches_independent_oracles(sup):
    n = len(sup)
    spec = MeasureMatrixSpec(n=n, cells={(i, j): _ATOM for i, j in np.argwhere(sup).tolist()})
    deco = lq.communication_classes(spec)

    comps = strong_components(n, [np.flatnonzero(row).tolist() for row in sup])
    assert deco.classes == tuple(map(tuple, comps))
    k = len(comps)
    cyclic = [len(m) > 1 or bool(sup[m[0], m[0]]) for m in comps]
    assert deco.degenerate == tuple(not c for c in cyclic)

    reached = [_bfs(sup, m[0], set(range(n))) for m in comps]
    assert deco.accessibility == tuple(
        tuple(comps[d][0] in reached[c] for d in range(k)) for c in range(k)
    )
    assert deco.final_flags == tuple(reached[c] <= set(comps[c]) for c in range(k))

    cyclic_rows = {i for c, m in enumerate(comps) if cyclic[c] for i in m}
    via_cyclic = [_bfs(sup, m[0], cyclic_rows) if cyclic[c] else set() for c, m in enumerate(comps)]
    assert deco.heights == tuple(
        sum(m[0] in seen for seen in via_cyclic) if cyclic[c] else 0 for c, m in enumerate(comps)
    )


# -- class roots -----------------------------------------------------------------

def test_class_root_strong_r_q1_is_zero():
    spec = _spec_of("strong-r")
    deco = lq.communication_classes(spec)
    root = lq.class_root(compile_block(spec, deco.classes[0]), 1.0)
    assert abs(root) <= 1e-10


def test_class_root_single_atom_linear():
    # single atom mass 1/2, length 1/2: root solves (1/2)^q (1/2)^{-a} = 1,
    # i.e. a = q
    spec = MeasureMatrixSpec(n=1, cells={(0, 0): _ATOM})
    deco = lq.communication_classes(spec)
    for q in (0.5, 1.0, 3.0):
        root = lq.class_root(compile_block(spec, deco.classes[0]), q)
        assert root == pytest.approx(q, abs=1e-10)


def test_class_root_degenerate_raises():
    spec = MeasureMatrixSpec(n=2, cells={(0, 1): _ATOM})
    deco = lq.communication_classes(spec)
    with pytest.raises(lq.DegenerateClass):
        lq.class_root(compile_block(spec, deco.classes[0]), 1.0)


def test_class_root_strong_r_q0_golden():
    # Golden value from the independent truncated-series bisection oracle
    # (explicit 1e5-term sums + numpy eigenvalues), frozen 2026-08.
    spec = _spec_of("strong-r")
    deco = lq.communication_classes(spec)
    root = lq.class_root(compile_block(spec, deco.classes[0]), 0.0)
    assert root == pytest.approx(-0.710395794594108, abs=1e-9)


# -- classify --------------------------------------------------------------------

def test_classify_strong_r_single_basic_height_one():
    spec = _spec_of("strong-r")
    result = lq.classify(spec, 1.0)
    assert result.basic_classes == (0,)
    assert result.heights == {0: 1}
    assert all(t.kind == "periodic_or_constant" for t in result.tags.values())


def test_classify_heights_family_symmetric():
    spec = _spec_of("nonstrong-r-heights")
    result = lq.classify(spec, 1.0)
    basic_labels = {result.labels_of_class(spec, ci) for ci in result.basic_classes}
    assert basic_labels == {(1, 2), (5, 6)}
    hs = sorted(result.heights[ci] for ci in result.basic_classes)
    assert hs == [2, 3]
    assert result.s_sets == {1: (1, 2), 2: (5, 6)}
    for lab in (1, 2):
        assert result.tags[lab] == lq.spectral.Tag("polynomial", 1)
    for lab in (5, 6):
        assert result.tags[lab] == lq.spectral.Tag("polynomial", 2)
    for lab in (3, 4, 7, 8, 9, 10, 11, 12):
        assert result.tags[lab].kind == "decays_to_zero"


def test_classify_chain_heights():
    # one attaining final class fed by one attaining upstream class:
    # heights 1 (upstream) and 2 (final)
    spec = MeasureMatrixSpec(n=2, cells={(0, 0): _ATOM, (1, 0): _ATOM, (1, 1): _ATOM})
    result = lq.classify(spec, 1.0)
    assert len(result.basic_classes) == 2
    assert sorted(result.heights.values()) == [1, 2]
    # class {0} is accessed by class {1}
    deco = result.decomposition
    c0 = deco.class_of[0]
    assert result.heights[c0] == 2


def test_classify_fed_tags():
    # chain A -> B -> C with A, B tying at the minimum and C strictly above:
    # B has height 2, and C is reached from the attaining set, led by S_1
    a, c = _ATOM, ((0.4, 0.5),)
    spec = MeasureMatrixSpec(
        n=3, cells={(0, 0): a, (0, 1): a, (1, 1): a, (1, 2): a, (2, 2): c}
    )
    result = lq.classify(spec, 1.0)
    assert len(result.basic_classes) == 2
    assert result.tags[1].kind == "periodic_or_constant"  # height-1 head
    assert result.tags[2] == lq.spectral.Tag("polynomial", 1)  # height-2 middle
    assert result.tags[3] == lq.spectral.Tag("fed_by_Sm", 1)

    # drop the middle link: C is then fed by a height-1 class only
    spec2 = MeasureMatrixSpec(n=2, cells={(0, 0): a, (0, 1): a, (1, 1): c})
    result2 = lq.classify(spec2, 1.0)
    assert result2.tags[2].kind == "fed_by_S0"


@pytest.mark.parametrize("tie_tol", [-1.0, float("nan"), float("inf")])
def test_classify_rejects_bad_tie_tolerance(tie_tol):
    with pytest.raises(lq.InvalidParams, match="tie tolerance"):
        lq.classify(_spec_of("strong-r"), 1.0, class_tie_tol=tie_tol)


def test_classify_permutation_invariant():
    rng = np.random.default_rng(17)
    spec = _spec_of("nonstrong-r-basic")
    base = lq.classify(spec, 2.0)
    for _ in range(5):
        perm = rng.permutation(spec.n).tolist()
        new_row = {old: new for new, old in enumerate(perm)}
        permuted = MeasureMatrixSpec(
            n=spec.n,
            cells={(new_row[i], new_row[j]): t for (i, j), t in spec.cells.items()},
            labels=tuple(spec.labels[perm[i]] for i in range(spec.n)),
        )
        res = lq.classify(permuted, 2.0)
        assert res.tau == pytest.approx(base.tau, abs=1e-11)
        assert sorted(res.roots.values()) == pytest.approx(
            sorted(base.roots.values()), abs=1e-11
        )
        assert {lab: t.as_text() for lab, t in res.tags.items()} == {
            lab: t.as_text() for lab, t in base.tags.items()
        }


def test_classify_roots_inside_domain():
    rng = np.random.default_rng(23)
    for fid in lq.FAMILY_IDS:
        spec = lq.build_matrix_spec(random_params(fid, rng))
        for q in (0.0, 1.0, 3.0):
            res = lq.classify(spec, q)
            for ci, root in res.roots.items():
                # evaluating the block at its root must stay in-domain
                members = res.decomposition.classes[ci]
                sup = compile_block(spec, members).domain_sup(q)
                assert sup is None or root < sup


# -- the report cached per set of attaining classes --------------------------------

def _fields(res):
    return res.basic_classes, res.heights, res.s_sets, res.tags


def test_classify_report_is_the_same_from_a_warm_cache():
    # nonstrong-r-basic changes its attaining class at q* ~ 5.4816, so a
    # cache warmed on both sides holds two reports
    spec = _spec_of("nonstrong-r-basic")
    warm = lq.spectral.compile_classes(spec)
    fresh = {q: lq.classify(spec, q, compiled=lq.spectral.compile_classes(spec))
             for q in (5.0, 6.0)}
    assert fresh[5.0].basic_classes != fresh[6.0].basic_classes
    for q in (5.0, 6.0, 5.0, 6.0):
        assert _fields(lq.classify(spec, q, compiled=warm)) == _fields(fresh[q])
    assert len(warm.reports) == 2


def test_classify_results_share_no_dict_with_the_cache():
    spec = _spec_of("nonstrong-r-heights")
    compiled = lq.spectral.compile_classes(spec)
    first = lq.classify(spec, 2.0, compiled=compiled)
    want = _fields(lq.classify(spec, 2.0))
    first.tags.clear()
    first.heights.clear()
    first.s_sets.clear()
    assert _fields(lq.classify(spec, 2.0, compiled=compiled)) == want


# -- one root per distinct class block -------------------------------------------

def _count_class_roots(monkeypatch) -> list:
    """Record the block of every ``spectral.class_root`` call."""
    calls = []
    inner = lq.spectral.class_root

    def counted(block, q, bracket_hint=None):
        calls.append(block)
        return inner(block, q, bracket_hint=bracket_hint)

    monkeypatch.setattr(lq.spectral, "class_root", counted)
    return calls


_DISTINCT_BLOCKS = {
    "strong-r": 1,
    "strong-r2": 1,
    "nonstrong-r-basic": 2,
    "nonstrong-r-heights": 3,
    "nonstrong-r2": 2,
}


@pytest.mark.parametrize("q", [2.0, 40.0])
@pytest.mark.parametrize("fid", lq.FAMILY_IDS)
def test_tau_solves_each_distinct_block_once(monkeypatch, fid, q):
    spec = _spec_of(fid)
    calls = _count_class_roots(monkeypatch)
    lq.tau(spec, q)
    assert len(calls) == _DISTINCT_BLOCKS[fid]
    assert all(a is not b for i, a in enumerate(calls) for b in calls[:i])


@pytest.mark.parametrize("q", [1.0, 16.0, 100.0])
def test_heights_twin_classes_share_block_and_root(q):
    spec = _spec_of("nonstrong-r-heights")
    compiled = lq.spectral.compile_classes(spec)
    assert sorted(compiled.blocks) == [0, 1, 2, 3, 4, 6]  # class 5 has no cycle
    assert compiled.blocks[0] is compiled.blocks[2]
    assert compiled.blocks[1] is compiled.blocks[3] is compiled.blocks[4]
    assert compiled.blocks[0] != compiled.blocks[1] != compiled.blocks[6] != compiled.blocks[0]
    roots = lq.classify(spec, q, compiled=compiled).roots
    assert roots[0] == roots[2]
    assert roots[1] == roots[3] == roots[4]
    # a block compiled on its own solves to the same root, bit for bit
    for ci in (2, 3, 4):
        alone = lq.class_root(compile_block(spec, compiled.decomposition.classes[ci]), q)
        assert float(alone) == float(roots[ci])


@pytest.mark.parametrize("q", [2.0, 40.0])
def test_heights_distinct_components_each_get_a_root(monkeypatch, q):
    # each vertex splits its mass differently, so no two class blocks agree
    probs = {}
    for v, grp in enumerate(lq.families.family("nonstrong-r-heights").groups):
        w = np.array([1.0 + 0.15 * v + 0.1 * k for k in range(len(grp))])
        probs.update(zip(grp, w / w.sum()))
    p = FamilyParams("nonstrong-r-heights", rho=1 / 3, r=2 / 7, probs=probs)
    spec = lq.build_matrix_spec(p)
    calls = _count_class_roots(monkeypatch)
    alpha, result = lq.tau(spec, q)
    deco = result.decomposition
    cyclic = [ci for ci in range(deco.num_classes) if not deco.degenerate[ci]]
    assert len(calls) == len(cyclic) == 6
    closed = lq.build_closed_form(p).solve(q)
    assert alpha == pytest.approx(closed.tau, abs=1e-9)
    for labels, root in zip(closed.labels, closed.roots):
        ci = next(c for c in cyclic if result.labels_of_class(spec, c) == labels)
        assert result.roots[ci] == pytest.approx(root, abs=1e-9)


def _diagonal_blocks_spec(blocks, size) -> MeasureMatrixSpec:
    """A spec whose classes are the given blocks of ``size`` rows, unlinked;
    each block maps local cells to terms."""
    cells = {
        (k * size + i, k * size + j): terms
        for k, block in enumerate(blocks)
        for (i, j), terms in block.items()
    }
    return MeasureMatrixSpec(n=size * len(blocks), cells=cells)


_A = ((0.25, 0.5),)


@pytest.mark.parametrize(
    "blocks, size",
    [
        # the same atoms, with series that differ only in their mass
        ([{(0, 0): ((0.25, 0.5), lq.matrix.geometric_family(c, 0.5, 0.5, 0.5))}
          for c in (0.2, 0.3, 0.2)], 1),
        # the same atoms in different cells
        ([{(0, 0): _A, (0, 1): _A, (1, 0): _A},
          {(0, 1): _A, (1, 0): _A, (1, 1): _A},
          {(0, 0): _A, (0, 1): _A, (1, 0): _A}], 2),
    ],
    ids=["series", "cells"],
)
def test_blocks_share_a_root_only_when_equal(monkeypatch, blocks, size):
    # blocks 0 and 2 are equal, block 1 differs from them in one part
    spec = _diagonal_blocks_spec(blocks, size)
    compiled = lq.spectral.compile_classes(spec)
    b = compiled.blocks
    assert b[0] is b[2] and b[0] != b[1]
    calls = _count_class_roots(monkeypatch)
    lq.classify(spec, 1.0, compiled=compiled)
    assert len(calls) == 2


_MASS = st.floats(0.05, 0.95)
_RATIO = st.floats(0.1, 0.9)
_SERIES = st.builds(lq.matrix.geometric_family, _MASS, _MASS, _RATIO, _RATIO) | st.builds(
    lq.matrix.binomial_family, _MASS, _MASS, _MASS, _RATIO, _RATIO
)


@st.composite
def sparse_specs(draw):
    """Hand-built sparse specs of 1 to 8 rows.

    Copies of one template block sit on the diagonal; each copy is the
    template itself, the template with the terms of every cell reversed,
    or a block of its own.  Links run from earlier copies to later ones
    only, and some rows are emptied.  A cell holds one to three terms,
    atoms or series from a small pool, so one series object sits in
    several cells.
    """
    pool = draw(st.lists(_SERIES, min_size=1, max_size=3))
    terms = st.lists(st.tuples(_MASS, _RATIO) | st.sampled_from(pool), min_size=1, max_size=3)
    size = draw(st.integers(1, 3))
    local = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    blocks = st.dictionaries(local, terms.map(tuple), max_size=size * size)
    template = draw(blocks)
    cells = {}
    copies = draw(st.integers(1, 8 // size))
    for k in range(copies):
        kind = draw(st.sampled_from(["template", "reversed", "own"]))
        block = draw(blocks) if kind == "own" else template
        for (i, j), t in block.items():
            cells[k * size + i, k * size + j] = t[::-1] if kind == "reversed" else t
    n = size * copies
    node = st.integers(0, n - 1)
    for (i, j), t in draw(st.dictionaries(st.tuples(node, node), terms.map(tuple), max_size=n)).items():
        if i // size < j // size:
            cells[i, j] = t
    emptied = draw(st.sets(node, max_size=n // 2))
    return MeasureMatrixSpec(n=n, cells={ij: t for ij, t in cells.items() if ij[0] not in emptied})


def _same_terms(a, b) -> bool:
    """Equal size, atoms and series: the same M(alpha) at every q."""
    return a.size == b.size and a.atoms == b.atoms and a.series == b.series


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(sparse_specs(), st.floats(0.0, 3.0), st.floats(0.2, 2.0))
def test_hand_built_sparse_specs(spec, q, gap):
    n = spec.n
    rows = spec.support()
    assert {(i, j) for i in range(n) for j in range(n) if rows[i] >> j & 1} == set(spec.cells)

    # the compiled blocks against the entry-by-entry matrix; a cell holding a
    # series agrees to twice the certified series tolerance (see test_matrix)
    alpha = min((f.domain_sup(q) for f in row_major_series(spec)), default=0.0) - gap
    dense = dense_matrix(spec, q, alpha)
    has_series = np.array([[any(isinstance(t, AtomFamily) for t in spec.cells.get((i, j), ()))
                            for j in range(n)] for i in range(n)])
    deco = lq.communication_classes(spec)
    for members in (range(n), *deco.classes):
        idx = np.ix_(members, members)
        m = np.asarray(compile_block(spec, members).evaluate(q, alpha)[0])
        series = has_series[idx]
        np.testing.assert_allclose(m[~series], dense[idx][~series], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(m[series], dense[idx][series], rtol=2e-12, atol=0.0)

    # two classes share a block exactly when their compiled terms are equal
    blocks = lq.spectral.compile_classes(spec).blocks
    alone = {ci: compile_block(spec, deco.classes[ci]) for ci in blocks}
    for ci, block in blocks.items():
        assert _same_terms(block, alone[ci])
        for cj in blocks:
            assert (block is blocks[cj]) == _same_terms(alone[ci], alone[cj])


# -- lattice ---------------------------------------------------------------------

def test_lattice_commensurable_strong_r():
    p = FamilyParams("strong-r", rho=0.125, r=0.25, probs=default_probs("strong-r"))
    spec = lq.build_matrix_spec(p)
    deco = lq.communication_classes(spec)
    verdict = lq.lattice_check(spec, deco.classes[0])
    assert verdict.lattice
    assert verdict.span == pytest.approx(math.log(2.0), rel=1e-12)


def test_lattice_incommensurable_strong_r():
    spec = _spec_of("strong-r")
    deco = lq.communication_classes(spec)
    verdict = lq.lattice_check(spec, deco.classes[0])
    assert not verdict.lattice


def test_lattice_strong_r2_inherent():
    # every atom of this family sits at a multiple of the single log-ratio
    spec = _spec_of("strong-r2")
    deco = lq.communication_classes(spec)
    verdict = lq.lattice_check(spec, deco.classes[0])
    assert verdict.lattice
    rho = lq.families.GOLDEN_RATIO_INV
    assert verdict.span == pytest.approx(-2.0 * math.log(rho), rel=1e-12)


def test_lattice_single_self_loop():
    spec = MeasureMatrixSpec(n=1, cells={(0, 0): ((0.5, 0.4),)})
    deco = lq.communication_classes(spec)
    verdict = lq.lattice_check(spec, deco.classes[0])
    assert verdict.lattice
    assert verdict.span == pytest.approx(-math.log(0.4), rel=1e-12)
