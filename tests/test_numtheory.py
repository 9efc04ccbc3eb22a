import pytest
from hypothesis import given
from hypothesis import strategies as st

from agroups.numtheory import (
    is_prime,
    multiplicative_order,
    p_part,
    prime_divisors,
    prime_factors,
    primes_up_to,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(-3, 40):
        assert is_prime(n) == (n in primes)


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if trial_division_is_prime(n)
    ]


def test_is_prime_rejects_pseudoprimes():
    carmichael = (561, 1105, 1729, 41041, 825265, 321197185, 5394826801,
                  232250619601, 9746347772161)
    # Strong pseudoprimes to every prime base up to 31 and up to 37.
    strong = (3825123056546413051, 318665857834031151167461)
    for n in carmichael + strong:
        assert not is_prime(n), n


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert is_prime(2**31 - 1)
    assert not is_prime((2**61 - 1) * (2**19 - 1))
    # Past the Miller-Rabin bound trial division decides; 43 is found first.
    assert not is_prime(43 * 10**24)


def test_prime_factors():
    assert prime_factors(1) == {}
    assert prime_factors(12000) == {2: 5, 3: 1, 5: 3}
    assert prime_factors(27378) == {2: 1, 3: 4, 13: 2}
    assert prime_divisors(18816) == (2, 3, 7)


def test_p_part():
    assert p_part(12000, 2) == 32
    assert p_part(12000, 5) == 125
    assert p_part(12000, 7) == 1
    assert p_part(1, 3) == 1


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(1000)) == 168


def test_multiplicative_order_known():
    assert multiplicative_order(2, 15) == 4
    assert multiplicative_order(5, 6) == 2
    assert multiplicative_order(13, 6) == 1
    assert multiplicative_order(3, 26) == 3
    assert multiplicative_order(7, 1) == 1


def test_multiplicative_order_requires_coprime():
    with pytest.raises(ValueError):
        multiplicative_order(6, 15)


@given(st.integers(2, 500), st.integers(1, 500))
def test_multiplicative_order_is_minimal(m, x):
    from math import gcd

    if gcd(x, m) != 1:
        return
    d = multiplicative_order(x, m)
    assert pow(x, d, m) == 1
    for e in range(1, d):
        if d % e == 0:
            assert pow(x, e, m) != 1
