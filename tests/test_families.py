"""The family table: every route accepts and rejects the same parameters."""

from __future__ import annotations

import pytest

import lqspec as lq
from lqspec.families import FAMILIES

BUILDERS = (lq.build_example, lq.build_matrix_spec, lq.build_closed_form)

# One parameter change per family that breaks its geometric constraint.
BAD_GEOMETRY = {
    "strong-r": {"rho": 0.9, "r": 0.9},
    "strong-r2": {"rho": 0.5},
    "nonstrong-r-basic": {"rho": 0.9, "r": 0.9},
    "nonstrong-r-heights": {"rho": 0.9, "r": 0.9},
    "nonstrong-r2": {"s": 0.6},
}


def _unknown_label(p):
    extra = f"e{len(FAMILIES[p.family_id].edges) + 1}"
    return {"probs": {**p.probs, extra: 1.0}}


@pytest.mark.parametrize("case", ["bad geometry", "unknown label"])
@pytest.mark.parametrize("fid", lq.FAMILY_IDS)
def test_every_route_rejects_the_same_params(fid, case):
    p = lq.canonical_params(fid)
    change = BAD_GEOMETRY[fid] if case == "bad geometry" else _unknown_label(p)
    bad = p._replace(**change)
    for build in BUILDERS:
        build(p)
        with pytest.raises(lq.InvalidParams):
            build(bad)


def test_edge_groups_follow_the_table():
    for fid, fam in FAMILIES.items():
        labels = [lab for lab, *_ in fam.edges]
        assert labels == [f"e{k}" for k in range(1, len(labels) + 1)]
        assert [lab for grp in fam.groups for lab in grp] == labels
        assert set(lq.default_probs(fid)) == set(labels)
