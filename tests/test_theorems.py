"""The theorems that replaced scans, checked against the scans.

- Steinitz rows: N(<t>) = C(t) exactly when the class of t meets <t>
  only in t (class_meets_cycle_only_at_rep).
- Sylow ascent: the lowest-id ell-element outside P that conjugates P's
  generators into P is the lowest-id ell-element of N(P) outside P.
- Element orders from the construction tree: gcd in cyclic leaves, p in
  field leaves, lcm in direct pairs, ord(r) * ord(l') in semidirect
  pairs, where (l, r)^ord(r) = (l', 1).
- Lattice atoms: a class holding a power x^e, e prime to ord(x), of an
  earlier class's least member x closes to the same normal subgroup.

The reference side builds N(<t>), C(t) and N(P) with the engine's
normalizer/centralizer scans, which test_oracle checks against naive.py,
powers every element, and closes every conjugacy class.
"""
import pytest

from agroups import order_ell_classification
from agroups.groups import LATTICE_CAP, QuotientGroup
from agroups.numtheory import is_prime_power_of, p_part, prime_divisors
from agroups.steinitz import class_meets_cycle_only_at_rep

from naive import naive_element_order
from test_columns import tree_nodes
from test_oracle import CORPUS


def normalizer_ascent(group, ell):
    """Sylow ell-subgroup ids by the ascent that builds each N(P) in full."""
    orders = group.element_orders()
    target = p_part(group.order, ell)
    best, seed = 0, -1
    for i, o in enumerate(orders):
        if o > best and is_prime_power_of(o, ell):
            best, seed = o, i
    p = group.closure((seed,))
    while p.order < target:
        norm = group.normalizer(p)
        ext = next(
            y
            for y in norm.ids
            if y not in p.idset and is_prime_power_of(orders[y], ell)
        )
        p = group.closure(p.ids + (ext,))
    return p.ids


def scans_say_normalizer_is_centralizer(group, rep):
    cyc = group.closure([rep])
    return group.normalizer(cyc).ids == group.centralizer([rep]).ids


def test_case_a_flags_match_scans(family1):
    rows = [
        row
        for ell in prime_divisors(family1.order)
        for row in order_ell_classification(family1, ell)
        if row.case == "a"
    ]
    assert rows
    for row in rows:
        assert row.normalizer_equals_centralizer == (
            scans_say_normalizer_is_centralizer(family1, row.class_rep)
        )


def test_family_sylow_matches_normalizer_ascent(family1):
    for ell in prime_divisors(family1.order):
        assert family1.sylow(ell).ids == normalizer_ascent(family1, ell)


@pytest.mark.parametrize("group", CORPUS, ids=lambda g: f"order{g.order}")
def test_sylow_matches_normalizer_ascent(group):
    for ell in prime_divisors(group.order):
        assert group.sylow(ell).ids == normalizer_ascent(group, ell)


def test_class_test_matches_scans_on_corpus():
    verdicts = []
    for group in CORPUS:
        for cls in group.conjugacy_classes():
            fast = class_meets_cycle_only_at_rep(group, cls)
            assert fast == scans_say_normalizer_is_centralizer(group, cls[0])
            verdicts.append(fast)
    # Both outcomes occur, so neither branch of the theorem goes untested.
    assert True in verdicts and False in verdicts


def assert_orders_match_powering(group):
    orders = group.element_orders()
    assert orders == [group.element_order(i) for i in range(group.order)]
    assert orders == [naive_element_order(group, i) for i in range(group.order)]


def test_tree_orders_match_powering_on_family_nodes(family1):
    nodes = tree_nodes(family1)
    assert len(nodes) == 9
    for node in nodes:
        assert_orders_match_powering(node)


@pytest.mark.parametrize("group", CORPUS, ids=lambda g: f"order{g.order}")
def test_tree_orders_match_powering_on_corpus(group):
    assert_orders_match_powering(group)


def test_corpus_has_a_quotient():
    assert any(isinstance(g, QuotientGroup) for g in CORPUS)


def all_classes_lattice(group):
    """normal_subgroups with every conjugacy class closed as an atom."""
    items, keys = [], set()

    def push(s):
        if s.ids not in keys:
            keys.add(s.ids)
            items.append(s)
            assert len(items) <= LATTICE_CAP

    for cls in group.conjugacy_classes():
        push(group.closure(cls))
    half = group.order // 2
    i = 0
    while i < len(items):
        a = items[i]
        for j in range(i):
            b = items[j]
            if a.idset <= b.idset or b.idset <= a.idset:
                continue
            if a.order * b.order > half * len(a.idset & b.idset):
                push(group.whole_subgroup())
            else:
                push(group.closure(a.gens + b.gens))
        i += 1
    return sorted(items, key=lambda s: (s.order, s.ids))


def assert_lattice_matches_all_classes(group):
    got = [(s.ids, s.gens) for s in group.normal_subgroups()]
    want = [(s.ids, s.gens) for s in all_classes_lattice(group)]
    assert got == want


def test_rational_atoms_match_all_classes_on_family(family1):
    assert_lattice_matches_all_classes(family1)


@pytest.mark.parametrize("group", CORPUS, ids=lambda g: f"order{g.order}")
def test_rational_atoms_match_all_classes_on_corpus(group):
    assert_lattice_matches_all_classes(group)
