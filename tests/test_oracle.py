"""Indexed algorithms vs. naive unindexed references on small groups."""
import random

import pytest

from agroups import (
    CyclicGroup,
    DirectProductGroup,
    FamilyParams,
    SemidirectProductGroup,
    build_family_group,
    field_semidirect,
    power_action,
)
from agroups.cli import failed_family_properties, verification_report

from naive import (
    naive_centralizer,
    naive_closure,
    naive_element_order,
    naive_normalizer,
)


def c3_c4():
    c3, c4 = CyclicGroup(3), CyclicGroup(4)
    return SemidirectProductGroup(c3, c4, power_action(c3, c4, 2))


def quotient30():
    g = build_family_group(FamilyParams(5, 2, 3, 2, 4))
    return g.quotient(g.derived_subgroup())


def corpus():
    return [
        CyclicGroup(6),
        DirectProductGroup(CyclicGroup(2), CyclicGroup(2)),
        field_semidirect(3, 1, 2),
        c3_c4(),
        DirectProductGroup(field_semidirect(3, 1, 2), CyclicGroup(4)),
        field_semidirect(5, 2, 2),
        field_semidirect(2, 4, 5),
        field_semidirect(3, 2, 8),
        quotient30(),
        field_semidirect(3, 3, 13),
        DirectProductGroup(field_semidirect(5, 2, 8), CyclicGroup(9)),
    ]


CORPUS = corpus()


@pytest.mark.parametrize("group", CORPUS, ids=lambda g: f"order{g.order}")
def test_corpus_is_desk_scale(group):
    assert group.order <= 2000


@pytest.mark.parametrize("group", CORPUS, ids=lambda g: f"order{g.order}")
def test_element_order_matches_naive(group):
    rng = random.Random(group.order)
    ids = (
        range(group.order)
        if group.order <= 200
        else rng.sample(range(group.order), 200)
    )
    for i in ids:
        assert group.element_order(i) == naive_element_order(group, i)


@pytest.mark.parametrize("group", CORPUS, ids=lambda g: f"order{g.order}")
def test_centralizer_matches_naive(group):
    rng = random.Random(group.order + 1)
    singles = [rng.randrange(group.order) for _ in range(5)]
    for i in singles:
        fast = group.centralizer([i])
        assert list(fast.ids) == naive_centralizer(group, [i])
    sub = group.closure(singles[:2])
    fast = group.centralizer(sub)
    assert list(fast.ids) == naive_centralizer(group, sub.ids)


@pytest.mark.parametrize("group", CORPUS, ids=lambda g: f"order{g.order}")
def test_normalizer_matches_naive(group):
    rng = random.Random(group.order + 2)
    for _ in range(4):
        sub = group.closure([rng.randrange(group.order)])
        fast = group.normalizer(sub)
        assert list(fast.ids) == naive_normalizer(group, sub.ids)


@pytest.mark.parametrize("group", CORPUS, ids=lambda g: f"order{g.order}")
def test_closure_matches_naive(group):
    rng = random.Random(group.order + 3)
    seeds = [[rng.randrange(group.order)] for _ in range(4)]
    if group.order <= 400:
        seeds += [
            [rng.randrange(group.order), rng.randrange(group.order)]
            for _ in range(4)
        ]
    for seed in seeds:
        assert list(group.closure(seed).ids) == naive_closure(group, seed)


def mirror_invariants(params):
    """Isomorphism invariants of a family group, free of id labels."""
    group = build_family_group(params)
    report = verification_report(group)
    struct = report["structure"]
    return {
        "order": report["order"],
        "derived_orders": struct["derived_orders"],
        "sylow": sorted(
            (r["prime"], r["order"], r["abelian"], r["normal"], r["exponent"])
            for r in report["sylow"]
        ),
        "class_sizes": sorted(len(c) for c in group.conjugacy_classes()),
        "steinitz": sorted(
            (r["ell"], r["class_size"], r["case"])
            for r in report["steinitz"]["rows"]
        ),
        "a_prime": report["a_prime"]["value"],
        "centralizer_of_cr": struct["centralizer_of_cr"]["order"],
        "failed": failed_family_properties(report),
    }


@pytest.mark.parametrize(
    "text, mirror", [("5,2,3,2,4", "2,5,3,4,2"), ("2,7,3,6,1", "7,2,3,1,6")]
)
def test_mirror_pairs_agree_on_invariants(text, mirror):
    # (p,q,r,a,b) and (q,p,r,b,a) build isomorphic groups whose ids differ.
    params = FamilyParams.parse(text)
    assert str(params.mirror()) == mirror
    assert mirror_invariants(params) == mirror_invariants(params.mirror())
