import pytest
from hypothesis import given
from hypothesis import strategies as st

from agroups.errors import (
    BadParams,
    MixedFields,
    NonPrime,
    OrderDoesNotDivide,
    SizeCapExceeded,
)
from agroups.fields import (
    canonical_generator,
    element_of_order,
    make_field,
)

F13 = make_field(13, 1)
F16 = make_field(2, 4)
F25 = make_field(5, 2)
F27 = make_field(3, 3)


def test_modulus_frozen_values():
    assert F13.modulus == (0, 1)
    assert F25.modulus == (2, 0, 1)
    assert F16.modulus == (1, 1, 0, 0, 1)


def test_modulus_is_first_irreducible_by_sympy():
    # Independent oracle: sympy agrees the modulus is irreducible and
    # that every smaller monic polynomial of the same degree is not.
    from sympy import GF, Poly
    from sympy.abc import x

    def irreducible(coeffs, p):
        return Poly(list(reversed(coeffs)), x, domain=GF(p)).is_irreducible

    for field in (F16, F25, F27, make_field(7, 2), make_field(3, 4)):
        p, a = field.p, field.a
        assert len(field.modulus) == a + 1 and field.modulus[-1] == 1
        assert irreducible(field.modulus, p)
        lower = sum(c * p**i for i, c in enumerate(field.modulus[:a]))
        for code in range(lower):
            cand = []
            rem = code
            for _ in range(a):
                cand.append(rem % p)
                rem //= p
            cand.append(1)
            assert not irreducible(tuple(cand), p)


def test_make_field_rejects_bad_params():
    with pytest.raises(NonPrime):
        make_field(4, 2)
    with pytest.raises(BadParams):
        make_field(5, 0)
    with pytest.raises(SizeCapExceeded):
        make_field(2, 30)


def test_element_reduces_and_validates():
    assert F25.encode((7, 5)) == 2
    with pytest.raises(MixedFields):
        F25.encode((1, 2, 3))
    for bad in (-1, 25):
        with pytest.raises(MixedFields):
            F25.add(bad, 0)
        with pytest.raises(MixedFields):
            F25.neg(bad)
        with pytest.raises(MixedFields):
            F25.mul(1, bad)
        with pytest.raises(MixedFields):
            F25.decode(bad)


def test_mul_frozen_value():
    x = F25.encode((0, 1))
    assert x == 5
    assert F25.mul(x, x) == F25.encode((3, 0)) == 3


def test_pow_and_fermat():
    two = F13.encode((2,))
    assert F13.pow(two, 12) == 1
    assert F13.pow(two, -1) == F13.inv(two)
    with pytest.raises(ZeroDivisionError):
        F13.inv(0)


def test_canonical_generator():
    assert canonical_generator(F13) == 2
    for field in (F13, F16, F25, F27):
        g = canonical_generator(field)
        assert field.multiplicative_order(g) == field.order - 1


def test_element_of_order():
    assert element_of_order(F25, 2) == F25.encode((4, 0)) == 4
    assert F16.multiplicative_order(element_of_order(F16, 5)) == 5
    assert element_of_order(F13, 1) == 1
    with pytest.raises(OrderDoesNotDivide):
        element_of_order(F13, 7)


def test_elements_enumeration():
    seen = [F16.decode(i) for i in range(F16.order)]
    assert len(set(seen)) == 16
    assert seen[0] == (0, 0, 0, 0)
    assert all(F16.encode(F16.decode(i)) == i for i in range(F16.order))


def test_arithmetic_matches_sympy_polynomials():
    # Independent oracle: sympy polynomial arithmetic over GF(p), reduced
    # by the field's modulus, against decode of add, neg and mul.
    import random

    from sympy import GF, Poly
    from sympy.abc import t

    def check(field, pairs):
        p, a = field.p, field.a

        def poly(coeffs):
            return Poly(list(reversed(coeffs)), t, domain=GF(p))

        def coeffs(P):
            # sympy's GF(p) may hold symmetric residues; take them mod p.
            c = [int(v) % p for v in reversed(P.rem(modulus).all_coeffs())]
            return tuple(c + [0] * (a - len(c)))

        modulus = poly(field.modulus)
        for x, y in pairs:
            px, py = poly(field.decode(x)), poly(field.decode(y))
            assert field.decode(field.add(x, y)) == coeffs(px + py)
            assert field.decode(field.neg(x)) == coeffs(-px)
            assert field.decode(field.mul(x, y)) == coeffs(px * py)

    for field in (make_field(2, 3), make_field(3, 2), F25):
        n = field.order
        check(field, [(x, y) for x in range(n) for y in range(n)])
    F243 = make_field(3, 5)
    rng = random.Random(243)
    check(F243, [(rng.randrange(243), rng.randrange(243)) for _ in range(500)])


FIELDS = [F13, F16, F25, F27]


def elt(field):
    return st.integers(0, field.order - 1)


@given(st.sampled_from(FIELDS), st.data())
def test_ring_laws(field, data):
    x = data.draw(elt(field))
    y = data.draw(elt(field))
    z = data.draw(elt(field))
    assert field.add(x, y) == field.add(y, x)
    assert field.mul(x, y) == field.mul(y, x)
    assert field.add(field.add(x, y), z) == field.add(x, field.add(y, z))
    assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))
    assert field.mul(x, field.add(y, z)) == field.add(
        field.mul(x, y), field.mul(x, z)
    )
    assert field.add(x, field.neg(x)) == 0
    assert field.sub(x, y) == field.add(x, field.neg(y))


@given(st.sampled_from(FIELDS), st.data())
def test_frobenius_is_additive(field, data):
    x = data.draw(elt(field))
    y = data.draw(elt(field))
    p = field.p
    lhs = field.pow(field.add(x, y), p)
    rhs = field.add(field.pow(x, p), field.pow(y, p))
    assert lhs == rhs


@given(st.sampled_from(FIELDS), st.data())
def test_characteristic_kills_everything(field, data):
    x = data.draw(elt(field))
    acc = 0
    for _ in range(field.p):
        acc = field.add(acc, x)
    assert acc == 0


@given(st.sampled_from(FIELDS), st.data())
def test_inverse_law(field, data):
    x = data.draw(elt(field))
    if x == 0:
        return
    assert field.mul(x, field.inv(x)) == 1


@given(st.sampled_from(FIELDS), st.data())
def test_pow_matches_repeated_mul(field, data):
    x = data.draw(elt(field))
    n = data.draw(st.integers(0, 12))
    acc = 1
    for _ in range(n):
        acc = field.mul(acc, x)
    assert field.pow(x, n) == acc


@given(st.sampled_from(FIELDS))
def test_multiplicative_order_divides_group_order(field):
    g = canonical_generator(field)
    n = field.order - 1
    for m in range(1, n + 1):
        if n % m == 0:
            e = element_of_order(field, m)
            assert field.multiplicative_order(e) == m
