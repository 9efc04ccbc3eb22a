"""Coordinatewise maps on pair ids against per-element references.

pair_map(fl, fr) lifts child maps to a pair node's ids; the family's
C_r rescale rows and its retraction onto C_q x C_p x C_r are such lifts.
The references here walk one element at a time through pair_of and
id_of_pair, the per-element codec the lifts replaced.
"""
import random

import pytest

from agroups import (
    CyclicGroup,
    FamilyParams,
    InvalidAction,
    NotFamilyGroup,
    build_family_group,
    cr_coordinate_ids,
    cr_coordinate_subgroup,
    field_semidirect,
    gamma_coordinate_ids,
    kernel_coordinate_ids,
)
from agroups import constructions, steinitz
from agroups.constructions import complement_retraction
from agroups.fields import element_of_order
from agroups.groups import _PairGroup

from test_columns import SMALL, tree_nodes


def reference_pair_map(node, fl, fr):
    return [
        node.id_of_pair(fl[l], fr[r]) for l, r in map(node.pair_of, range(node.order))
    ]


def assert_pair_map_matches_id_of_pair(group):
    for node in [n for n in tree_nodes(group) if isinstance(n, _PairGroup)]:
        nl, nr = node.left.order, node.right.order
        assert node.pair_map(range(nl), range(nr)) == list(range(node.order))
        rng = random.Random(node.order)
        for _ in range(3):
            fl = [rng.randrange(nl) for _ in range(nl)]
            fr = [rng.randrange(nr) for _ in range(nr)]
            assert node.pair_map(fl, fr) == reference_pair_map(node, fl, fr)


# GF(3^5)+:C11 is above _TABLE_LIMIT, and so is its kernel.
@pytest.mark.parametrize("name", ["GF(3^5)+:C11", "S3", "h2"])
def test_pair_map_matches_id_of_pair(name):
    assert_pair_map_matches_id_of_pair(SMALL[name])


def test_pair_map_matches_id_of_pair_on_family_nodes(family1):
    assert len([n for n in tree_nodes(family1) if isinstance(n, _PairGroup)]) == 4
    assert_pair_map_matches_id_of_pair(family1)


def coordinates_of(inner, d):
    """(v1, c1, v2, c2) of an id of H1 x H2, one pair_of per tree level."""
    x, y = inner.pair_of(d)
    return inner.left.pair_of(x) + inner.right.pair_of(y)


def id_of_coordinates(inner, v1, c1, v2, c2):
    h1, h2 = inner.left, inner.right
    return inner.id_of_pair(h1.id_of_pair(v1, c1), h2.id_of_pair(v2, c2))


@pytest.fixture(scope="module")
def family_and_mirror(family1):
    return [family1, build_family_group(FamilyParams(2, 5, 3, 4, 2))]


def test_rescale_rows_match_per_element_reference(family_and_mirror):
    for group in family_and_mirror:
        r = group.family_params.r
        f1, f2 = group.left.left.left.field, group.left.right.left.field
        z1, z2 = element_of_order(f1, r), element_of_order(f2, r)
        inner = group.left
        expected = []
        for t in range(r):
            s1, s2 = f1.pow(z1, t), f2.pow(z2, t)
            row = []
            for d in range(inner.order):
                v1, c1, v2, c2 = coordinates_of(inner, d)
                v1, v2 = f1.mul(s1, v1), f2.mul(s2, v2)
                row.append(id_of_coordinates(inner, v1, c1, v2, c2))
            expected.append(row)
        assert group.action.rows == expected


def test_complement_retraction_matches_per_element_reference(family_and_mirror):
    for group in family_and_mirror:
        inner = group.left
        expected = []
        for i in range(group.order):
            d, t = group.pair_of(i)
            _, c1, _, c2 = coordinates_of(inner, d)
            expected.append(group.id_of_pair(id_of_coordinates(inner, 0, c1, 0, c2), t))
        assert complement_retraction(group) == tuple(expected)


def test_rescale_rows_go_through_action_verification(monkeypatch):
    lift = constructions._lift_field_maps
    calls = []

    def corrupt_second_row(inner, f1, f2):
        row = lift(inner, f1, f2)
        calls.append(1)
        if len(calls) == 2:
            row[1], row[2] = row[2], row[1]
        return row

    monkeypatch.setattr(constructions, "_lift_field_maps", corrupt_second_row)
    with pytest.raises(InvalidAction):
        build_family_group(FamilyParams(5, 2, 3, 2, 4))


NOT_FAMILY = {"C6": CyclicGroup(6), "GF(25)+:C2": field_semidirect(5, 2, 2)}
FAMILY_READERS = [
    cr_coordinate_ids,
    gamma_coordinate_ids,
    kernel_coordinate_ids,
    complement_retraction,
    cr_coordinate_subgroup,
    steinitz.family_projection,
]


@pytest.mark.parametrize("name", sorted(NOT_FAMILY))
@pytest.mark.parametrize("reader", FAMILY_READERS, ids=lambda f: f.__name__)
def test_non_family_groups_raise_not_family_group(reader, name):
    with pytest.raises(NotFamilyGroup):
        reader(NOT_FAMILY[name])
