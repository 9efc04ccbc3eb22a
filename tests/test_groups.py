import random

import pytest

from agroups import (
    Action,
    BadParams,
    CyclicGroup,
    DirectProductGroup,
    GeneratorsDoNotGenerate,
    InvalidAction,
    NotNormal,
    PrimeDoesNotDivide,
    SemidirectProductGroup,
    SizeCapExceeded,
    field_semidirect,
    make_field,
    trivial_action,
)
from agroups.groups import _TABLE_LIMIT, FieldAddGroup

from naive import naive_derived_ids

C6 = CyclicGroup(6)
S3 = field_semidirect(3, 1, 2)
V4 = DirectProductGroup(CyclicGroup(2), CyclicGroup(2))


def test_identity_is_id_zero():
    for g in (C6, S3, V4):
        assert g.element_order(0) == 1
        for i in range(g.order):
            assert g.compose(0, i) == i
            assert g.compose(i, 0) == i


def test_associativity_exhaustive_small():
    for g in (C6, S3, V4):
        n = g.order
        for a in range(n):
            for b in range(n):
                ab = g.compose(a, b)
                for c in range(n):
                    assert g.compose(ab, c) == g.compose(a, g.compose(b, c))


def test_associativity_sampled_medium():
    g = field_semidirect(2, 4, 5)
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randrange(g.order) for _ in range(3))
        assert g.compose(g.compose(a, b), c) == g.compose(a, g.compose(b, c))


def test_inverses():
    for g in (C6, S3, V4, field_semidirect(5, 2, 2)):
        for i in range(g.order):
            assert g.compose(i, g.invert(i)) == 0
            assert g.compose(g.invert(i), i) == 0


def test_cyclic_structure():
    assert C6.order == 6
    assert C6.is_abelian()
    assert C6.element_order(1) == 6
    assert sorted(C6.element_orders()) == [1, 2, 3, 3, 6, 6]
    assert CyclicGroup(1).order == 1


def test_s3_structure():
    assert S3.order == 6
    assert not S3.is_abelian()
    assert sorted(S3.element_orders()) == [1, 2, 2, 2, 3, 3]
    assert len(S3.conjugacy_classes()) == 3
    assert S3.center().order == 1
    assert S3.derived_length() == 2
    assert [s.order for s in S3.derived_series()] == [6, 3, 1]


def test_lagrange_on_all_subgroup_closures():
    for g in (C6, S3, V4, field_semidirect(3, 2, 8)):
        for i in range(g.order):
            for j in range(0, g.order, 3):
                assert g.order % g.closure([i, j]).order == 0


def test_closure_is_generator_order_independent():
    g = field_semidirect(2, 4, 5)
    rng = random.Random(3)
    for _ in range(20):
        seed = [rng.randrange(g.order) for _ in range(3)]
        shuffled = list(seed)
        rng.shuffle(shuffled)
        assert g.closure(seed).ids == g.closure(shuffled).ids


def test_class_equation():
    for g in (S3, field_semidirect(5, 2, 2), field_semidirect(2, 4, 5)):
        classes = g.conjugacy_classes()
        assert sum(len(c) for c in classes) == g.order
        for cls in classes:
            rep = cls[0]
            assert rep == min(cls)
            cz = g.centralizer([rep])
            assert len(cls) * cz.order == g.order


def test_normal_subgroup_counts():
    assert len(C6.normal_subgroups()) == 4
    assert len(S3.normal_subgroups()) == 3
    assert len(V4.normal_subgroups()) == 5


def test_normal_subgroups_are_normal_and_sorted():
    for g in (C6, S3, V4, field_semidirect(2, 4, 5)):
        normals = g.normal_subgroups()
        orders = [n.order for n in normals]
        assert orders == sorted(orders)
        assert normals[0].order == 1 and normals[-1].order == g.order
        for n in normals:
            assert n.is_normal()


def test_derived_subgroup_matches_double_loop_definition():
    for g in (C6, S3, V4, field_semidirect(5, 2, 2), field_semidirect(2, 4, 5)):
        assert list(g.derived_subgroup().ids) == naive_derived_ids(g)


def test_quotient_basics():
    n3 = C6.closure([2])
    q = C6.quotient(n3)
    assert q.order == 2 and q.is_abelian()
    qs = S3.quotient(S3.derived_subgroup())
    assert qs.order == 2
    with pytest.raises(NotNormal):
        orders = S3.element_orders()
        flip = next(i for i in range(6) if orders[i] == 2)
        S3.quotient(S3.closure([flip]))
    with pytest.raises(BadParams):
        S3.quotient(C6.closure([2]))


def test_quotient_reps_are_coset_minima():
    g = field_semidirect(2, 4, 5)
    n = g.derived_subgroup()
    q = g.quotient(n)
    assert q.order == 5
    for k in range(q.order):
        coset = q.preimage_ids([k])
        assert q.rep(k) == min(coset)
        for x in coset:
            assert q.nat(x) == k


def test_quotient_is_homomorphic_image():
    g = field_semidirect(5, 2, 2)
    n = g.derived_subgroup()
    q = g.quotient(n)
    for a in range(0, g.order, 7):
        for b in range(0, g.order, 11):
            assert q.nat(g.compose(a, b)) == q.compose(q.nat(a), q.nat(b))


def test_sylow_frozen_orders(family1, family2):
    assert family1.sylow(5).order == 125
    assert family1.sylow(2).order == 32
    assert family1.sylow(3).order == 3
    assert family2.sylow(3).order == 81
    assert family2.sylow(13).order == 169


def test_sylow_errors():
    with pytest.raises(PrimeDoesNotDivide):
        S3.sylow(5)
    with pytest.raises(BadParams):
        S3.sylow(4)


def test_sylow_is_deterministic():
    a = field_semidirect(2, 4, 5)
    b = field_semidirect(2, 4, 5)
    assert a.sylow(2).ids == b.sylow(2).ids
    assert a.sylow(2).ids == a.sylow(2).ids


def test_sylow_order_is_full_prime_power():
    for g in (C6, S3, field_semidirect(3, 2, 8), field_semidirect(2, 4, 5)):
        rest = g.order
        ell = 2
        while rest > 1:
            if rest % ell == 0:
                part = 1
                while rest % ell == 0:
                    rest //= ell
                    part *= ell
                p_sub = g.sylow(ell)
                assert p_sub.order == part
            ell += 1


def test_centralizer_of_whole_group_is_center():
    for g in (S3, field_semidirect(5, 2, 2)):
        assert g.centralizer(g.whole_subgroup()).ids == g.center().ids


def test_exponent():
    assert C6.exponent_of(range(6)) == 6
    assert S3.exponent_of(range(6)) == 6
    assert V4.exponent_of(range(4)) == 2


def test_trivial_and_whole_subgroups():
    assert S3.trivial_subgroup().order == 1
    assert S3.whole_subgroup().order == 6
    assert S3.whole_subgroup().is_normal()


def test_whole_subgroup_shares_the_pair_node_id_objects(family1):
    # The whole group's ids are the pair node's own tuple, whose int objects
    # the id table holds, so no second set of ints is allocated for them.
    whole = family1.whole_subgroup()
    assert whole.ids == tuple(range(family1.order))
    assert whole.ids is family1._ids
    assert all(whole.ids[i] is i for i in family1._id_of_code)


def test_direct_product_center_and_orders():
    g = DirectProductGroup(S3, CyclicGroup(4))
    assert g.order == 24
    assert g.center().order == 4
    orders = g.element_orders()
    assert max(orders) == 12


def test_pair_group_coordinates():
    g = DirectProductGroup(C6, S3)
    for i in range(g.order):
        l, r = g.pair_of(i)
        assert g.id_of_pair(l, r) == i


def test_every_id_decodes_through_the_public_codecs():
    # Cyclic leaf: the id is the residue.
    for i in range(C6.order):
        assert C6.compose(i, 1) == (i + 1) % 6
        assert C6.invert(i) == -i % 6
    # Field leaf: the id is the field element, its base-p code, and the
    # leaf is the field's addition (checked against sympy in test_fields).
    # GF(243) is above the table limit, so its compose is field.add itself.
    for p, a in [(3, 2), (2, 3), (3, 5)]:
        f = make_field(p, a)
        add = FieldAddGroup(f)
        assert add.gens == tuple(p**k for k in range(a))
        for i in range(add.order):
            assert f.encode(f.decode(i)) == i
            assert add.invert(i) == f.neg(i)
            for j in range(add.order):
                assert add.compose(i, j) == f.add(i, j)
    # Pair node: pair_of / id_of_pair.
    g = field_semidirect(3, 2, 8)
    assert sorted(g.id_of_pair(*g.pair_of(i)) for i in range(g.order)) == list(
        range(g.order)
    )
    # Quotient: rep / nat, with qids in ascending order of the least rep.
    q = g.quotient(g.derived_subgroup())
    reps = [q.rep(k) for k in range(q.order)]
    assert reps == sorted(reps)
    for k in range(q.order):
        assert q.nat(q.rep(k)) == k
    for x in range(g.order):
        assert q.rep(q.nat(x)) <= x
        for y in range(g.order):
            assert q.compose(q.nat(x), q.nat(y)) == q.nat(g.compose(x, y))


def test_semidirect_flip_squares_to_identity():
    # (x, 1)^2 = (x - x, 0) = identity in GF(25) : C_2 acting by -1.
    g = field_semidirect(5, 2, 2)
    for v in range(25):
        i = g.id_of_pair(v, 1)
        assert g.compose(i, i) == 0


def test_action_verification_rejects_non_automorphism():
    kernel = CyclicGroup(4)
    acting = CyclicGroup(2)
    with pytest.raises(InvalidAction):
        Action(kernel, acting, [[(d + t) % 4 for d in range(4)] for t in range(2)])
    with pytest.raises(InvalidAction):
        rows = [[0, 1, 2, 3], [0, 0, 0, 0]]
        Action(kernel, acting, rows)


def test_action_must_respect_acting_composition():
    kernel = CyclicGroup(5)
    acting = CyclicGroup(4)
    # t -> multiplication by 2^t is a homomorphism only if 2^4 = 1 mod 5,
    # which holds; truncating to 2^min(t,1) breaks it.
    with pytest.raises(InvalidAction):
        rows = [[d * pow(2, min(t, 1), 5) % 5 for d in range(5)] for t in range(4)]
        Action(kernel, acting, rows)


def test_action_rejects_a_bijective_row_off_the_generator_products():
    # Row 2 of x -> 2^t x on C5 should be x -> 4x; a bijection that is
    # not the square of row 1 must fail functoriality.
    kernel = CyclicGroup(5)
    acting = CyclicGroup(4)
    rows = [[pow(2, t, 5) * h % 5 for h in range(5)] for t in range(4)]
    rows[2] = [0, 2, 1, 3, 4]
    with pytest.raises(InvalidAction):
        Action(kernel, acting, rows)


@pytest.mark.parametrize(
    "kernel",
    [FieldAddGroup(make_field(3, 5)), field_semidirect(3, 3, 13)],
    ids=["GF(3^5)+", "h2"],
)
def test_action_law_catches_a_bijective_involution_above_the_table_limit(kernel):
    # Swapping ids 1 and 2 fixes the identity and squares to the identity
    # row, so shape, functoriality and bijectivity all hold; only the
    # homomorphism law, checked on kernel columns, can catch it.
    assert kernel.order > _TABLE_LIMIT
    swap = list(range(kernel.order))
    swap[1], swap[2] = 2, 1
    rows = [list(range(kernel.order)), swap]
    law = r"^row 1 fails the homomorphism law at generator \d+$"
    with pytest.raises(InvalidAction, match=law):
        Action(kernel, CyclicGroup(2), rows)


def test_trivial_action_gives_direct_product_structure():

    top = CyclicGroup(3)
    g = SemidirectProductGroup(C6, top, trivial_action(C6, top))
    assert g.order == 18
    assert g.is_abelian()


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        CyclicGroup(100, cap=10)
    with pytest.raises(SizeCapExceeded):
        DirectProductGroup(CyclicGroup(100), CyclicGroup(100), cap=50)


def test_whole_subgroup_needs_generators():
    shell = CyclicGroup(5)
    shell.gens = (0,)
    shell._whole = None
    with pytest.raises(GeneratorsDoNotGenerate):
        shell.whole_subgroup()
