"""Multiplication columns against the compose definition.

right_column(s)[x] must be x·s and left_column(s)[x] must be s·x on
every node type: leaves (tabled and not), quotients, and direct and
semidirect pairs, including a semidirect pair above the table limit,
where the kernel side is read as φ_r(φ_r⁻¹(l)·ls).  Conjugacy classes and
centralizers, which read columns, are compared with the per-element
compose scans they replaced, kept here as references.  Dense tables,
filled from left columns, are compared with the constructor's compose.
"""
import random

import pytest

from agroups import (
    CyclicGroup,
    cr_coordinate_subgroup,
    field_semidirect,
    groups,
    make_field,
)
from agroups.cli import parse_group_spec
from agroups.groups import _TABLE_LIMIT, FieldAddGroup, QuotientGroup, _PairGroup

from test_golden import ORDER_4000_SPEC
from test_oracle import CORPUS
from test_workloads import WORKLOADS


def tree_nodes(group):
    """The group and every node below it in its construction tree."""
    out = [group]
    if isinstance(group, _PairGroup):
        out += tree_nodes(group.left) + tree_nodes(group.right)
    return out


def probes(group, extra):
    """0, every generator and `extra` seeded ids (all ids when few)."""
    if group.order <= 64:
        return range(group.order)
    rng = random.Random(group.order)
    return sorted({0, *group.gens, *rng.sample(range(group.order), extra)})


def compose_classes(group):
    """Conjugation orbits by compose, as conjugacy_classes did before columns."""
    comp = group.compose
    pairs = [(g, group.invert(g)) for g in group.gens]
    seen = bytearray(group.order)
    classes = []
    for i in range(group.order):
        if seen[i]:
            continue
        seen[i] = 1
        orbit = [i]
        for x in orbit:
            for g, gi in pairs:
                y = comp(comp(g, x), gi)
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        classes.append(tuple(sorted(orbit)))
    return classes


def compose_centralizer_ids(group, scan):
    comp = group.compose
    return tuple(
        g for g in range(group.order) if all(comp(g, s) == comp(s, g) for s in scan)
    )


def assert_columns_match_compose(group, extra):
    comp = group.compose
    for s in probes(group, extra):
        assert group.right_column(s) == [comp(x, s) for x in range(group.order)]
        assert group.left_column(s) == [comp(s, x) for x in range(group.order)]


BIG_SEMIDIRECT = field_semidirect(3, 5, 11)  # GF(3^5)+ : C11, order 2673
H2 = field_semidirect(3, 3, 13)  # fixture 2's h2, order 351
QUOTIENT = next(g for g in CORPUS if isinstance(g, QuotientGroup))
SMALL = {
    "GF(8)+": FieldAddGroup(make_field(2, 3)),
    "GF(9)+": FieldAddGroup(make_field(3, 2)),
    "C6": CyclicGroup(6),
    "S3": field_semidirect(3, 1, 2),
    "GF(3^5)+:C11": BIG_SEMIDIRECT,
    "h2": H2,
    "quotient": QUOTIENT,
}


def test_probed_nodes_cover_both_sides_of_the_table_limit():
    assert BIG_SEMIDIRECT.order > _TABLE_LIMIT and H2.order > _TABLE_LIMIT
    assert BIG_SEMIDIRECT.left.order > _TABLE_LIMIT


@pytest.mark.parametrize("name", sorted(SMALL))
def test_columns_match_compose(name):
    for node in tree_nodes(SMALL[name]):
        assert_columns_match_compose(node, extra=12)


def test_family_columns_match_compose(family1):
    nodes = tree_nodes(family1)
    assert len(nodes) == 9
    for node in nodes:
        assert_columns_match_compose(node, extra=4)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_classes_and_centralizers_match_compose_scans(name):
    group = SMALL[name]
    assert group.conjugacy_classes() == compose_classes(group)
    rng = random.Random(group.order + 7)
    for scan in ([rng.randrange(group.order)], group.gens):
        assert group.centralizer(scan).ids == compose_centralizer_ids(
            group, sorted(set(scan))
        )


def test_family_classes_and_centralizer_match_compose_scans(family1):
    assert family1.conjugacy_classes() == compose_classes(family1)
    sub = cr_coordinate_subgroup(family1)
    assert family1.centralizer(sub).ids == compose_centralizer_ids(family1, sub.gens)


@pytest.mark.parametrize(
    "text", [WORKLOADS["decompose-62208"].argv[1], ORDER_4000_SPEC, "5,2,3,2,4"]
)
def test_tables_match_the_untabled_compose(text, monkeypatch):
    tabled = parse_group_spec(text, 10**5)
    monkeypatch.setattr(groups, "_TABLE_LIMIT", 0)
    plain = parse_group_spec(text, 10**5)
    nodes = [
        (a, b)
        for a, b in zip(tree_nodes(tabled), tree_nodes(plain))
        if a.order <= _TABLE_LIMIT
    ]
    assert nodes
    for a, b in nodes:
        ids = range(a.order)
        assert [[a.compose(i, j) for j in ids] for i in ids] == [
            [b.compose(i, j) for j in ids] for i in ids
        ]
