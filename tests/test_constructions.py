import time

import pytest

from agroups import (
    BadParams,
    CyclicGroup,
    FamilyParams,
    FieldAddGroup,
    NonPrime,
    NotFamilyGroup,
    SizeCapExceeded,
    WrongOrder,
    build_family_group,
    cr_coordinate_ids,
    cr_coordinate_subgroup,
    field_semidirect,
    gamma_coordinate_ids,
    kernel_coordinate_ids,
    make_field,
    power_action,
    scalar_action,
    search_family,
)
from agroups import constructions
from agroups.fields import element_of_order
from agroups.numtheory import multiplicative_order, primes_up_to


def test_params_parse_and_validate():
    params = FamilyParams.parse("5, 2, 3, 2, 4")
    assert params == FamilyParams(5, 2, 3, 2, 4)
    assert params.order() == 12000
    assert str(params) == "5,2,3,2,4"
    assert params.as_dict() == {"p": 5, "q": 2, "r": 3, "a": 2, "b": 4}


def test_params_rejections():
    with pytest.raises(BadParams):
        FamilyParams.parse("5,2,3,2")
    with pytest.raises(BadParams):
        FamilyParams.parse("5,2,3,x,4")
    with pytest.raises(NonPrime):
        FamilyParams.parse("4,2,3,2,4")
    with pytest.raises(BadParams):
        FamilyParams.parse("5,5,3,2,4")
    with pytest.raises(BadParams):
        FamilyParams.parse("5,2,3,0,4")
    with pytest.raises(BadParams, match="6 does not divide 5\\^1 - 1 = 4"):
        FamilyParams.parse("5,2,3,1,4")
    with pytest.raises(BadParams, match="does not divide 2\\^3 - 1"):
        FamilyParams.parse("5,2,3,2,3")


def test_mirror():
    params = FamilyParams(5, 2, 3, 2, 4)
    assert params.mirror() == FamilyParams(2, 5, 3, 4, 2)
    assert params.mirror().order() == params.order()
    params.mirror().validate()


def test_family_orders(family1, family2):
    assert family1.order == 12000
    assert family2.order == 27378
    g3 = build_family_group(FamilyParams(7, 2, 3, 1, 6))
    assert g3.order == 18816


def test_family_metadata(family1):
    assert family1.family_params == FamilyParams(5, 2, 3, 2, 4)
    inner = family1.left
    assert inner.left.order == 50
    assert inner.right.order == 80
    assert inner.order == 4000
    assert family1.right.order == 3


def test_family_cap():
    with pytest.raises(SizeCapExceeded):
        build_family_group(FamilyParams(5, 2, 3, 2, 4), cap=4000)


def test_family_cap_comes_before_primality():
    # 10^25 + 13 is past exact Miller-Rabin, so validate() would trial-divide.
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded):
        build_family_group(FamilyParams(10**25 + 13, 2, 3, 1, 1))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(BadParams):
        build_family_group(FamilyParams(5, 2, 3, 0, 4))


def test_mirror_groups_share_order_statistics(family1):
    mirror = build_family_group(FamilyParams(2, 5, 3, 4, 2))
    assert mirror.order == family1.order
    assert sorted(mirror.element_orders()) == sorted(family1.element_orders())


def test_coordinate_id_sets(family1):
    params = family1.family_params
    cr = cr_coordinate_ids(family1)
    assert len(cr) == params.r
    assert cr[0] == 0
    gamma = gamma_coordinate_ids(family1)
    assert len(gamma) == params.p * params.q * params.r
    kernel = kernel_coordinate_ids(family1)
    assert len(kernel) == params.p**params.a * params.q**params.b
    assert set(cr) <= set(gamma)
    assert set(gamma) & set(kernel) == {0}
    sub = cr_coordinate_subgroup(family1)
    assert sub.order == params.r
    with pytest.raises(NotFamilyGroup):
        cr_coordinate_ids(CyclicGroup(6))


def test_scalar_action_requires_exact_order():
    field = make_field(5, 2)
    add = FieldAddGroup(field)
    with pytest.raises(WrongOrder):
        scalar_action(add, CyclicGroup(4), element_of_order(field, 2))


def test_power_action_allows_divisor_order():
    field = make_field(5, 2)
    add = FieldAddGroup(field)
    action = power_action(add, CyclicGroup(4), element_of_order(field, 2))
    assert action.apply(2, 7) == 7  # unit^2 = 1, so the row is the identity
    with pytest.raises(WrongOrder):
        power_action(add, CyclicGroup(3), element_of_order(field, 2))


def test_h1_action_is_fixed_point_free(family1):
    # Nonidentity scalars fix only the zero vector, which is what makes
    # the field part the full centralizer boundary inside H1.
    h1 = family1.left.left
    add1, cq = h1.left, h1.right
    action = power_action(add1, cq, element_of_order(add1.field, cq.n))
    for t in range(1, cq.n):
        row = action.rows[t]
        assert [v for v in range(add1.order) if row[v] == v] == [0]


def test_field_semidirect_shapes():
    s3 = field_semidirect(3, 1, 2)
    assert s3.order == 6 and not s3.is_abelian()
    h2 = field_semidirect(2, 4, 5)
    assert h2.order == 80
    assert h2.derived_subgroup().order == 16


def test_search_frozen_results():
    rows = search_family(30000)
    listing = [(p.p, p.q, p.r, p.a, p.b, order) for p, order in rows]
    assert listing == [
        (2, 5, 3, 4, 2, 12000),
        (5, 2, 3, 2, 4, 12000),
        (2, 7, 3, 6, 1, 18816),
        (7, 2, 3, 1, 6, 18816),
        (3, 13, 2, 3, 1, 27378),
        (13, 3, 2, 1, 3, 27378),
    ]


def test_search_includes_mirrors_and_validates():
    rows = search_family(30000)
    tuples = {(p.p, p.q, p.r, p.a, p.b) for p, _ in rows}
    for params, order in rows:
        params.validate()
        assert params.order() == order
        m = params.mirror()
        assert (m.p, m.q, m.r, m.a, m.b) in tuples


def test_search_small_bounds():
    assert search_family(100) == []
    assert [order for _, order in search_family(12000)] == [12000, 12000]
    with pytest.raises(BadParams):
        search_family(0)


def test_search_against_direct_arithmetic_oracle():
    # Independent check: brute-force every prime triple and exponent pair
    # by direct divisibility arithmetic, no multiplicative-order logic.
    limit = 30000
    expected = set()
    small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    big = list(range(2, limit // 36 + 1))
    primes = [n for n in big if all(n % d for d in range(2, n)) and n > 1]
    for p in small:
        for q in small:
            for r in primes:
                if len({p, q, r}) != 3:
                    continue
                for a in range(1, 15):
                    if (p**a - 1) % (q * r):
                        continue
                    for b in range(1, 15):
                        if (q**b - 1) % (p * r):
                            continue
                        order = p ** (a + 1) * q ** (b + 1) * r
                        if order <= limit:
                            expected.add((p, q, r, a, b, order))
    got = {(x.p, x.q, x.r, x.a, x.b, o) for x, o in search_family(limit)}
    assert got == expected


def unpruned_search(max_order):
    """The family search before its p^2 q^2 r^3 bound: sieve to N/36 and
    take every multiplicative order by the linear loop."""
    found = []
    primes = primes_up_to(max(2, max_order // 36))
    for p in primes:
        if p * p * 2 * 2 * 2 > max_order:
            break
        for q in primes:
            if q == p:
                continue
            if p * p * q * q * 2 > max_order:
                break
            for r in primes:
                if r == p or r == q:
                    continue
                if p * p * q * q * r > max_order:
                    break
                a0 = multiplicative_order(p, q * r)
                b0 = multiplicative_order(q, p * r)
                a = a0
                while p ** (a + 1) * q ** (b0 + 1) * r <= max_order:
                    b = b0
                    while p ** (a + 1) * q ** (b + 1) * r <= max_order:
                        found.append(((p, q, r, a, b), p ** (a + 1) * q ** (b + 1) * r))
                        b += b0
                    a += a0
    return sorted(found, key=lambda row: (row[1], row[0]))


@pytest.mark.parametrize(
    "limit", [1, 287, 288, 11999, 12000, 27378, 60750, 60751, 123456, 200000]
)
def test_search_matches_unpruned_loop(limit):
    got = [((x.p, x.q, x.r, x.a, x.b), o) for x, o in search_family(limit)]
    assert got == unpruned_search(limit)


def test_search_bound_is_enforced():
    with pytest.raises(SizeCapExceeded):
        search_family(constructions.MAX_SEARCH_ORDER + 1)
