"""Direct-product ids against a breadth-first search by compose.

DirectProductGroup ranks its pairs without a search: BFS over the
generators, L's first and then R's, ranks an element by the ShortLex
order of its lex-least geodesic word, and in L x R that word is
w_L(l)·w_R(r) (Epstein et al., Word Processing in Groups, 1992, ch. 2).
The reference below is the search itself, over the lifted generator
sequence, stepping with the children's compose only (no columns), and
every table the node keeps must equal the reference's.
"""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from agroups import CyclicGroup, DirectProductGroup, field_semidirect
from agroups.cli import parse_group_spec
from agroups.fields import make_field
from agroups.groups import FieldAddGroup

from test_columns import QUOTIENT, tree_nodes
from test_golden import ORDER_4000_SPEC
from test_workloads import WORKLOADS

CAP = 10**6


def reference_tables(group):
    """(l_of, r_of, id_of_code, gens) of a breadth-first search by compose."""
    left, right, nr = group.left, group.right, group.right.order
    lcomp, rcomp = left.compose, right.compose
    id_of_code = [-1] * group.order
    id_of_code[0] = 0
    l_of, r_of = [0], [0]
    for l1, r1 in zip(l_of, r_of):
        steps = [(lcomp(l1, g), r1) for g in left.gens]
        steps += [(l1, rcomp(r1, g)) for g in right.gens]
        for l, r in steps:
            if id_of_code[l * nr + r] < 0:
                id_of_code[l * nr + r] = len(l_of)
                l_of.append(l)
                r_of.append(r)
    gens = tuple(
        dict.fromkeys(
            [id_of_code[g * nr] for g in left.gens]
            + [id_of_code[g] for g in right.gens]
        )
    )
    return l_of, r_of, id_of_code, gens


def assert_matches_reference(group):
    assert isinstance(group, DirectProductGroup)
    l_of, r_of, id_of_code, gens = reference_tables(group)
    assert group._l_of == l_of
    assert group._r_of == r_of
    assert group._id_of_code == id_of_code
    assert group.gens == gens


def direct_nodes(group):
    return [n for n in tree_nodes(group) if isinstance(n, DirectProductGroup)]


def spec(text):
    return parse_group_spec(text, CAP)


SMALL = {
    "nested": spec(
        "product(product(cyclic(2), field(3,2)), product(cyclic(3), cyclic(4)))"
    ),
    "left-nested": spec(
        "product(product(product(cyclic(2), cyclic(3)), cyclic(2)), cyclic(5))"
    ),
    "trivial-left": spec(
        "product(cyclic(1), semidirect(field(3,1), cyclic(2), scalar(2)))"
    ),
    "trivial-right": spec("product(field(2,3), cyclic(1))"),
    "trivial-both": spec("product(cyclic(1), cyclic(1))"),
    "field-x-cyclic": spec("product(field(5,2), cyclic(7))"),
    "cyclic-x-field": spec("product(cyclic(6), field(2,4))"),
    "semidirect-pair": DirectProductGroup(
        field_semidirect(3, 2, 8), field_semidirect(5, 1, 4)
    ),
    "quotient-left": DirectProductGroup(QUOTIENT, CyclicGroup(4)),
    "quotient-right": DirectProductGroup(FieldAddGroup(make_field(3, 2)), QUOTIENT),
    "quotient-both": DirectProductGroup(QUOTIENT, QUOTIENT),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_products_match_the_search(name):
    nodes = direct_nodes(SMALL[name])
    assert nodes
    for node in nodes:
        assert_matches_reference(node)


@pytest.mark.parametrize(
    "text",
    [WORKLOADS["decompose-62208"].argv[1], ORDER_4000_SPEC],
    ids=["decompose-62208", "order4000"],
)
def test_spec_products_match_the_search(text):
    nodes = direct_nodes(spec(text))
    assert nodes
    for node in nodes:
        assert_matches_reference(node)


def test_family_inners_match_the_search(family1, family2):
    for group in (family1, family2):
        assert_matches_reference(group.left)


def test_whole_group_is_the_enumeration():
    group = SMALL["quotient-left"]
    whole = group.whole_subgroup()
    assert whole.ids == tuple(range(group.order))
    assert whole.gens == group.gens
    assert group.closure(group.gens).ids == whole.ids


LEAVES = st.one_of(
    st.integers(1, 7).map(CyclicGroup),
    st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]).map(
        lambda pa: FieldAddGroup(make_field(*pa))
    ),
    st.sampled_from([(3, 1, 2), (5, 1, 4), (2, 2, 3)]).map(
        lambda pak: field_semidirect(*pak)
    ),
)


@st.composite
def small_products(draw, depth=2):
    """A random DirectProductGroup of order at most a few hundred."""

    def node(d):
        if d == 0 or draw(st.booleans()):
            return draw(LEAVES)
        return DirectProductGroup(node(d - 1), node(d - 1))

    left, right = node(depth), node(depth)
    if left.order * right.order > 600:
        right = draw(LEAVES)
        if left.order * right.order > 600:
            left = CyclicGroup(draw(st.integers(1, 7)))
    return DirectProductGroup(left, right)


@given(small_products())
def test_random_products_match_the_search(group):
    for node in direct_nodes(group):
        assert_matches_reference(node)
