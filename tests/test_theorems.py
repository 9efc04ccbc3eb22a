"""The two theorems that replaced subgroup scans, checked against the scans.

- Steinitz rows: N(<t>) = C(t) exactly when the class of t meets <t>
  only in t (class_meets_cycle_only_at_rep).
- Sylow ascent: the lowest-id ell-element outside P that conjugates P's
  generators into P is the lowest-id ell-element of N(P) outside P.

The reference side builds N(<t>), C(t) and N(P) with the engine's
normalizer/centralizer scans, which test_oracle checks against naive.py.
"""
import pytest

from agroups import order_ell_classification
from agroups.numtheory import is_prime_power_of, p_part, prime_divisors
from agroups.steinitz import class_meets_cycle_only_at_rep

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
