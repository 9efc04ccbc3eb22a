"""Small integer helpers: primality, factorization, multiplicative orders."""
from __future__ import annotations

import math


# Miller-Rabin with the primes up to 41 as bases has no strong
# pseudoprime below this bound (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
# User-supplied integers have at most this many digits: 10^24 is below
# _MR_EXACT_BELOW, so their primality test is exact and fast, and no
# enumerable group comes near 10^24 elements.
MAX_INPUT_DIGITS = 24
# Default bound on enumerated elements; a field of order p^a is a leaf of p^a.
DEFAULT_ELEMENT_CAP = 10**6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3e24; trial division above."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        d = 43
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> dict[int, int]:
    """Factor n >= 1 into {prime: exponent}."""
    if n < 1:
        raise ValueError("factorization needs a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(sorted(prime_factors(n)))


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    part = 1
    while n % p == 0:
        part *= p
        n //= p
    return part


def is_prime_power_of(n: int, p: int) -> bool:
    """True when n is p^k for some k >= 0."""
    return p_part(n, p) == n


def multiplicative_order(x: int, m: int, limit: int | None = None) -> int | None:
    """Order of x in the unit group mod m; requires gcd(x, m) == 1.

    With a limit, give up and return None once x^k exceeds it (for
    x >= 2 that is after about log_x(limit) steps): the order is then
    some k with x^k > limit.
    """
    if m == 1:
        return 1
    power = x
    x %= m
    if math.gcd(x, m) != 1:
        raise ValueError(f"{x} is not a unit mod {m}")
    k, y = 1, x
    while y != 1:
        if limit is not None and power > limit:
            return None
        y = y * x % m
        power *= x
        k += 1
    return k


def primes_up_to(n: int) -> list[int]:
    """Ascending primes <= n via a sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for d in range(2, int(math.isqrt(n)) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(sieve[d * d :: d]))
    return [i for i, flag in enumerate(sieve) if flag]
