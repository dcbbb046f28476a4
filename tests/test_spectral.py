"""Spectral layer: Perron roots, communication classes, per-class roots,
classification, and lattice detection."""

from __future__ import annotations

import math

import numpy as np
import pytest

import lqspec as lq
from lqspec.families import FamilyParams, default_probs
from lqspec.matrix import EntrySpec, MeasureMatrixSpec, atom, compile_block
from conftest import random_params


def _spec_of(fid, **kw):
    p = lq.canonical_params(fid)
    return lq.build_matrix_spec(p, **kw)


# -- spectral_radius -----------------------------------------------------------

def test_radius_half_half_matrix():
    assert lq.spectral_radius(np.array([[0.5, 0.5], [0.5, 0.5]])) == pytest.approx(1.0, abs=1e-12)


def test_radius_zero_matrix():
    assert lq.spectral_radius(np.zeros((3, 3))) == 0.0


def test_radius_strong_r_at_p0():
    spec = _spec_of("strong-r")
    mat = lq.matrix_at(spec, 1.0, 0.0)
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
            for _ in range(5):
                alpha = rng.uniform(-1.5, 0.1)
                if not lq.in_domain(spec, q, alpha):
                    continue
                mat = lq.matrix_at(spec, q, alpha)
                got = lq.spectral_radius(mat)
                want = float(max(abs(np.linalg.eigvals(mat))))
                assert got == pytest.approx(want, abs=1e-9)


def test_radius_increasing_in_alpha():
    for fid in lq.FAMILY_IDS:
        spec = _spec_of(fid)
        for q in (0.0, 1.0, 2.0):
            sups = [
                f.domain_sup(q)
                for i in range(spec.n)
                for j in range(spec.n)
                for f in spec.entries[i][j].families
            ]
            hi = min([s for s in sups if s is not None], default=0.5)
            alphas = np.linspace(hi - 2.5, hi - 0.05, 50)
            radii = [lq.spectral_radius(lq.matrix_at(spec, q, a)) for a in alphas]
            assert all(b > a for a, b in zip(radii, radii[1:]))


# -- communication classes -------------------------------------------------------

def test_classes_strong_r_single():
    deco = lq.communication_classes(_spec_of("strong-r"))
    assert deco.num_classes == 1
    assert deco.classes[0] == (0, 1, 2)
    assert deco.is_irreducible()


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
    e = EntrySpec((atom(0.5, 0.5),))
    z = EntrySpec()
    spec = MeasureMatrixSpec(
        n=3,
        entries=((e, z, z), (z, e, z), (z, z, e)),
        scc_of=(0, 0, 0),
        dim=1,
    )
    deco = lq.communication_classes(spec)
    assert deco.num_classes == 3
    assert all(not d for d in deco.degenerate)


# -- class roots -----------------------------------------------------------------

def test_class_root_strong_r_q1_is_zero():
    spec = _spec_of("strong-r")
    deco = lq.communication_classes(spec)
    root = lq.class_root(compile_block(spec, deco.classes[0]), 1.0)
    assert abs(root) <= 1e-10


def test_class_root_single_atom_linear():
    # single atom mass 1/2, length 1/2: root solves (1/2)^q (1/2)^{-a} = 1,
    # i.e. a = q
    e = EntrySpec((atom(0.5, 0.5),))
    spec = MeasureMatrixSpec(n=1, entries=((e,),), scc_of=(0,), dim=1)
    deco = lq.communication_classes(spec)
    for q in (0.5, 1.0, 3.0):
        root = lq.class_root(compile_block(spec, deco.classes[0]), q)
        assert root == pytest.approx(q, abs=1e-10)


def test_class_root_degenerate_raises():
    z = EntrySpec()
    e = EntrySpec((atom(0.5, 0.5),))
    spec = MeasureMatrixSpec(n=2, entries=((z, e), (z, z)), scc_of=(0, 0), dim=1)
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
    e = EntrySpec((atom(0.5, 0.5),))
    z = EntrySpec()
    spec = MeasureMatrixSpec(n=2, entries=((e, z), (e, e)), scc_of=(0, 0), dim=1)
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
    a = EntrySpec((atom(0.5, 0.5),))
    c = EntrySpec((atom(0.4, 0.5),))
    z = EntrySpec()
    spec = MeasureMatrixSpec(
        n=3,
        entries=((a, a, z), (z, a, a), (z, z, c)),
        scc_of=(0, 0, 0),
        dim=1,
    )
    result = lq.classify(spec, 1.0)
    assert len(result.basic_classes) == 2
    assert result.tags[1].kind == "periodic_or_constant"  # height-1 head
    assert result.tags[2] == lq.spectral.Tag("polynomial", 1)  # height-2 middle
    assert result.tags[3] == lq.spectral.Tag("fed_by_Sm", 1)

    # drop the middle link: C is then fed by a height-1 class only
    spec2 = MeasureMatrixSpec(
        n=2,
        entries=((a, a), (z, c)),
        scc_of=(0, 0),
        dim=1,
    )
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
        perm = rng.permutation(spec.n)
        entries = tuple(
            tuple(spec.entries[perm[i]][perm[j]] for j in range(spec.n))
            for i in range(spec.n)
        )
        permuted = MeasureMatrixSpec(
            n=spec.n,
            entries=entries,
            scc_of=tuple(spec.scc_of[perm[i]] for i in range(spec.n)),
            dim=spec.dim,
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


def test_component_slots_consistent_across_families():
    for fid in lq.FAMILY_IDS:
        spec = _spec_of(fid)
        deco = lq.communication_classes(spec)
        # the component exponent slot is constant on every class
        for members in deco.classes:
            assert len({spec.scc_of[i] for i in members}) == 1
        # every component hosts at least one class with a cycle, so every
        # exponent slot carries a root
        rooted = {deco.scc_of_class[ci] for ci in range(deco.num_classes)
                  if not deco.degenerate[ci]}
        assert rooted == set(range(spec.num_scc))


# -- lattice ---------------------------------------------------------------------

def test_lattice_commensurable_strong_r():
    p = FamilyParams("strong-r", rho=0.25, r=0.5, probs=default_probs("strong-r"))
    spec = lq.build_matrix_spec(p, check_geometry=False)
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
    e = EntrySpec((atom(0.5, 0.4),))
    spec = MeasureMatrixSpec(n=1, entries=((e,),), scc_of=(0,), dim=1)
    deco = lq.communication_classes(spec)
    verdict = lq.lattice_check(spec, deco.classes[0])
    assert verdict.lattice
    assert verdict.span == pytest.approx(-math.log(0.4), rel=1e-12)
