"""certified_indecomposable against the normal lattice.

Where the certificate answers, G is directly indecomposable, so the
lattice path must find no direct factorization; every group that splits
must be left to the lattice.  The corpus holds the family members to
order 60750 (five mirror pairs), the `decompose` specs, nested products,
the oracle corpus with its quotient, the rule-built fixtures and every
quotient the recognizer visits on them, and random products of small
factors.  Every group the spec grammar builds is solvable, so none of
them reaches the certificate's solvability guard.
"""
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agroups import (
    CyclicGroup,
    DirectProductGroup,
    classify,
    field_semidirect,
    is_a_prime_group,
)
from agroups.classify import certified_indecomposable
from agroups.cli import parse_group_spec

from test_classify import S3, c3_c4, heisenberg27, rule_fixtures
from test_direct_ids import SMALL
from test_golden import ORDER_4000_SPEC
from test_oracle import CORPUS
from test_workloads import WORKLOADS

SWEEP = Path(__file__).resolve().parent.parent / "bench" / "sweep_1e5.json"
MEMBERS = [m["params"] for m in json.loads(SWEEP.read_text())["members"]]


def lattice_pairs(group):
    """direct_factor_pairs with the certificate declining: the lattice path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "certified_indecomposable", lambda g: False)
        return classify.direct_factor_pairs(group)


def agrees(group):
    """The certificate's verdict, checked against the lattice path."""
    answered = certified_indecomposable(group)
    if answered:
        assert lattice_pairs(group) == []
        assert group.center().order == 1  # implied by J != G
    return answered


def test_family_members_are_answered_by_the_certificate():
    assert len(MEMBERS) == 10
    for params in MEMBERS:
        assert agrees(parse_group_spec(params, 10**5)), params


SPLIT = {
    "S3xS3": DirectProductGroup(S3, S3),
    "C6": CyclicGroup(6),
    "V4": DirectProductGroup(CyclicGroup(2), CyclicGroup(2)),
    "order4000": parse_group_spec(ORDER_4000_SPEC, 10**5),
    # C6 x GF(16)+ is left out: its abelian lattice takes seconds to build.
    **{k: g for k, g in SMALL.items() if "trivial" not in k and k != "cyclic-x-field"},
}


@pytest.mark.parametrize("name", sorted(SPLIT))
def test_groups_that_split_are_left_to_the_lattice(name):
    group = SPLIT[name]
    assert not agrees(group)
    assert lattice_pairs(group)


def test_decompose_workload_spec_is_left_to_the_lattice():
    # A product by its spec; its lattice (630 subgroups) is too slow here.
    group = parse_group_spec(WORKLOADS["decompose-62208"].argv[1], 10**5)
    assert group.order == 62208
    assert not certified_indecomposable(group)


def recognizer_visits(groups):
    """The groups given and every quotient the recognizer reaches from them."""
    seen = []
    real = classify.direct_factor_pairs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "direct_factor_pairs", lambda g: seen.append(g) or real(g))
        for group in groups:
            is_a_prime_group(group)
    return list(groups) + [g for g in seen if all(g is not h for h in groups)]


def test_corpus_and_recognizer_quotients_agree():
    groups = recognizer_visits([*CORPUS, *rule_fixtures(), heisenberg27()])
    verdicts = [agrees(g) for g in groups]
    assert any(verdicts) and not all(verdicts)
    assert any(not v and lattice_pairs(g) for g, v in zip(groups, verdicts))


FACTORS = st.one_of(
    st.integers(1, 7).map(CyclicGroup),
    st.sampled_from([(3, 1, 2), (5, 1, 4), (2, 2, 3), (7, 1, 3)]).map(
        lambda pak: field_semidirect(*pak)
    ),
    st.just(None).map(lambda _: c3_c4()),
)


@given(st.lists(FACTORS, min_size=1, max_size=3))
def test_random_products_agree(factors):
    group = factors[0]
    for f in factors[1:]:
        group = DirectProductGroup(group, f)
    answered = agrees(group)
    if sum(f.order > 1 for f in factors) > 1:
        assert not answered
