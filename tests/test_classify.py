import random
from collections import Counter
from math import lcm

import pytest

from agroups import (
    Action,
    CyclicGroup,
    DecompositionInvariantFailed,
    DirectProductGroup,
    FamilyParams,
    NotAGroup,
    SemidirectProductGroup,
    TooManyPrimes,
    build_family_group,
    direct_factor_pairs,
    field_semidirect,
    is_a_group,
    is_a_prime_group,
    normal_hall,
    power_action,
    structure_report,
    two_prime_decompose,
)

S3 = field_semidirect(3, 1, 2)


def heisenberg27():
    """(C_3 x C_3) : C_3 via the shear (x, y) -> (x + ty, y): nonabelian 3-group."""
    kernel = DirectProductGroup(CyclicGroup(3), CyclicGroup(3))
    acting = CyclicGroup(3)

    def shear(t, d):
        x, y = kernel.pair_of(d)
        return kernel.id_of_pair((x + t * y) % 3, y)

    rows = [[shear(t, d) for d in range(9)] for t in range(3)]
    return SemidirectProductGroup(kernel, acting, Action(kernel, acting, rows))


def c3_c4():
    c3, c4 = CyclicGroup(3), CyclicGroup(4)
    return SemidirectProductGroup(c3, c4, power_action(c3, c4, 2))


def cyclic_semidirect(n, k, unit):
    base, top = CyclicGroup(n), CyclicGroup(k)
    return SemidirectProductGroup(base, top, power_action(base, top, unit))


def test_structure_report_fixture1(family1):
    rep = structure_report(family1)
    assert rep.order == 12000
    assert rep.factorization == ((2, 5), (3, 1), (5, 3))
    assert not rep.abelian
    assert rep.solvable
    assert rep.derived_length == 2
    assert rep.derived_orders == (12000, 400, 1)
    assert rep.metabelian
    by_prime = {row.prime: row for row in rep.sylow}
    assert set(by_prime) == {2, 3, 5}
    assert by_prime[5].order == 125 and by_prime[5].abelian
    assert by_prime[2].order == 32 and by_prime[2].abelian
    assert all(not row.normal for row in rep.sylow)
    assert all(row.exponent == row.prime for row in rep.sylow)


def test_structure_report_fixture2(family2):
    rep = structure_report(family2)
    assert rep.order == 27378
    assert rep.factorization == ((2, 1), (3, 4), (13, 2))
    assert rep.derived_length == 2
    assert rep.derived_orders == (27378, 351, 1)
    assert all(row.abelian and not row.normal for row in rep.sylow)


def test_is_a_group(family1, family2):
    assert is_a_group(family1)
    assert is_a_group(family2)
    assert is_a_group(S3)
    assert is_a_group(CyclicGroup(8))
    assert not is_a_group(heisenberg27())


def test_normal_hall_frozen(family1):
    h = normal_hall(family1, {5, 2})
    assert h is not None and h.order == 4000 and not h.is_abelian()
    assert normal_hall(family1, {3}) is None
    assert normal_hall(family1, {5}) is None
    assert normal_hall(family1, {2, 3}) is None


def test_normal_hall_small():
    c6 = CyclicGroup(6)
    assert normal_hall(c6, {2}).order == 2
    assert normal_hall(c6, {3}).order == 3
    assert normal_hall(c6, {2, 3}).order == 6
    assert normal_hall(S3, {3}).order == 3
    assert normal_hall(S3, {2}) is None
    # primes not dividing the order contribute a trivial factor
    assert normal_hall(S3, {3, 7}).order == 3
    assert normal_hall(S3, {7}).order == 1


def test_direct_factor_pairs():
    c6 = CyclicGroup(6)
    pairs = direct_factor_pairs(c6)
    assert len(pairs) == 1
    assert sorted(n.order for n in pairs[0]) == [2, 3]
    assert direct_factor_pairs(S3) == []
    g = DirectProductGroup(S3, CyclicGroup(5))
    pairs = direct_factor_pairs(g)
    assert any(sorted(n.order for n in pair) == [5, 6] for pair in pairs)


def test_recognizer_fixtures_negative(family1, family2):
    r1 = is_a_prime_group(family1)
    assert r1.value is False and bool(r1) is False
    assert any("normal hall {2,5}" in line for line in r1.trace)
    assert is_a_prime_group(family2).value is False


def test_recognizer_heisenberg_negative():
    res = is_a_prime_group(heisenberg27())
    assert res.value is False
    assert any("every rule exhausted" in line for line in res.trace)


def rule_fixtures():
    """20+ groups assembled by the class's own three rules, order <= 5000."""
    groups = [
        CyclicGroup(1),
        CyclicGroup(2),
        CyclicGroup(12),
        CyclicGroup(30),
        CyclicGroup(4900),
        DirectProductGroup(CyclicGroup(2), CyclicGroup(2)),
        DirectProductGroup(CyclicGroup(6), CyclicGroup(10)),
        DirectProductGroup(CyclicGroup(9), CyclicGroup(27)),
        S3,
        field_semidirect(5, 1, 2),
        field_semidirect(5, 1, 4),
        field_semidirect(7, 1, 3),
        field_semidirect(7, 1, 6),
        field_semidirect(11, 1, 10),
        field_semidirect(13, 1, 4),
        field_semidirect(5, 2, 2),
        field_semidirect(2, 4, 5),
        field_semidirect(3, 2, 8),
        field_semidirect(3, 3, 13),
        c3_c4(),
        cyclic_semidirect(9, 2, 8),
        cyclic_semidirect(5, 8, 2),
        DirectProductGroup(S3, CyclicGroup(4)),
        DirectProductGroup(S3, S3),
        DirectProductGroup(field_semidirect(5, 1, 2), field_semidirect(7, 1, 3)),
        DirectProductGroup(field_semidirect(5, 2, 2), field_semidirect(2, 4, 5)),
        DirectProductGroup(c3_c4(), field_semidirect(11, 1, 5)),
    ]
    assert len(groups) >= 20
    assert all(g.order <= 5000 for g in groups)
    return groups


@pytest.mark.parametrize("group", rule_fixtures(), ids=lambda g: f"order{g.order}")
def test_recognizer_accepts_rule_built_groups(group):
    assert is_a_prime_group(group).value is True


def two_prime_corpus():
    h1 = field_semidirect(5, 2, 2)
    h2 = field_semidirect(2, 4, 5)
    corpus = [
        (CyclicGroup(6), 2, 3),
        (c3_c4(), 12, 1),
        (h1, 50, 1),
        (h2, 1, 80),
        (DirectProductGroup(h1, h2), 50, 80),
    ]
    return corpus


def test_two_prime_decompose_corpus():
    for group, kp, kq in two_prime_corpus():
        dec = two_prime_decompose(group)
        assert dec.k_p.order == kp, (group, dec.k_p.order)
        assert dec.k_q.order == kq
        assert all(dec.certificate.values())
        assert is_a_prime_group(group).value is True


def test_two_prime_decompose_randomized_components():
    # Seeded sample of one-component family pieces GF(p^a)+ : C_m with a
    # prime-power m, so each group has at most two prime divisors.
    candidates = [
        (3, 1, 2),
        (5, 1, 2),
        (5, 1, 4),
        (7, 1, 2),
        (7, 1, 3),
        (11, 1, 2),
        (11, 1, 5),
        (13, 1, 3),
        (13, 1, 4),
        (3, 2, 2),
        (3, 2, 4),
        (3, 2, 8),
        (2, 2, 3),
        (2, 4, 3),
        (2, 4, 5),
        (5, 2, 3),
        (5, 2, 8),
        (3, 3, 13),
    ]
    rng = random.Random(20260815)
    picks = rng.sample(candidates, 7)
    assert len(picks) >= 5
    for p, a, m in picks:
        group = field_semidirect(p, a, m)
        dec = two_prime_decompose(group)
        assert all(dec.certificate.values()), (p, a, m, dec.certificate)
        assert dec.k_p.order * dec.k_q.order == group.order
        assert is_a_prime_group(group).value is True


def test_two_prime_order_multisets_multiply():
    # G = K_p x K_q internally, so element orders are lcm pairs.
    for group, _, _ in two_prime_corpus():
        dec = two_prime_decompose(group)
        orders = group.element_orders()
        left = Counter(orders[i] for i in dec.k_p.ids)
        right = Counter(orders[i] for i in dec.k_q.ids)
        combined = Counter()
        for a, na in left.items():
            for b, nb in right.items():
                combined[lcm(a, b)] += na * nb
        assert combined == Counter(orders)


def test_two_prime_decompose_one_prime():
    dec = two_prime_decompose(CyclicGroup(8))
    assert dec.p == 2 and dec.q is None
    assert dec.k_p.order == 8 and dec.k_q.order == 1
    dec = two_prime_decompose(CyclicGroup(1))
    assert dec.p is None and dec.q is None
    assert dec.k_p.order == 1


def test_two_prime_decompose_rejections(family1):
    with pytest.raises(TooManyPrimes):
        two_prime_decompose(family1)
    with pytest.raises(NotAGroup):
        two_prime_decompose(heisenberg27())
    with pytest.raises((NotAGroup, TooManyPrimes, DecompositionInvariantFailed)):
        two_prime_decompose(
            DirectProductGroup(heisenberg27(), CyclicGroup(2))
        )


def test_decomposition_parts_are_the_coordinates():
    h1 = field_semidirect(5, 2, 2)
    h2 = field_semidirect(2, 4, 5)
    g = DirectProductGroup(h1, h2)
    dec = two_prime_decompose(g)
    left = {g.id_of_pair(i, 0) for i in range(h1.order)}
    right = {g.id_of_pair(0, j) for j in range(h2.order)}
    assert dec.k_p.idset == left
    assert dec.k_q.idset == right
