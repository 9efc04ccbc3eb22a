"""Exact arithmetic in finite fields GF(p^a).

A field is described by a `FieldSpec`: characteristic p, degree a, and a
monic irreducible modulus polynomial of degree a over Z_p.  A field
element is its base-p code, an int 0 <= x < p^a: coefficient k of the
polynomial (constant term k = 0) is digit k of the code.  Every
operation takes and returns codes; encode and decode convert to and from
coefficient tuples.  All operations are pure functions of (spec,
operands), so specs and elements can be shared freely.

The modulus is chosen deterministically: degree-a monic candidates are
scanned in ascending order of their lower-coefficient tuple encoded as a
base-p integer (constant term least significant), and the first irreducible
one wins.  Irreducibility is decided by exhaustive trial division by every
monic polynomial of degree at most a // 2, which is entirely adequate for
the desk-scale fields this library builds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    BadParams,
    MixedFields,
    NonPrime,
    OrderDoesNotDivide,
    SizeCapExceeded,
)
from .numtheory import DEFAULT_ELEMENT_CAP, is_prime, prime_divisors


def _decode_poly(code: int, length: int, p: int) -> tuple[int, ...]:
    coeffs = []
    for _ in range(length):
        code, c = divmod(code, p)
        coeffs.append(c)
    return tuple(coeffs)


def _poly_rem(num: list[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num by a monic polynomial den, coefficients mod p."""
    num = list(num)
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            for j in range(d):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return num[:d]


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """poly is monic of degree >= 1; exhaustive trial division."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            divisor = _decode_poly(code, d, p) + (1,)
            if not any(_poly_rem(list(poly), divisor, p)):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A concrete GF(p^a) with an explicit modulus polynomial.

    modulus has length a + 1, is monic, and is irreducible over Z_p.
    Elements are codes 0 <= x < order; an operand outside that range
    raises MixedFields.
    """

    p: int
    a: int
    modulus: tuple[int, ...]
    order: int = field(init=False, compare=False, repr=False)
    # Digit k of a code c is c // p^k mod p.
    _weights: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", self.p**self.a)
        object.__setattr__(self, "_weights", tuple(self.p**k for k in range(self.a)))

    def _check(self, x: int) -> None:
        if not 0 <= x < self.order:
            raise MixedFields(f"{x} is not an element code of GF({self.p}^{self.a})")

    def encode(self, coeffs: Sequence[int]) -> int:
        """Code of coefficients, constant term first, each reduced mod p."""
        if len(coeffs) != self.a:
            raise MixedFields(
                f"expected {self.a} coefficients, got {len(coeffs)}"
            )
        p = self.p
        code = 0
        for c in reversed(coeffs):
            code = code * p + c % p
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        """Coefficient tuple of a code, constant term first."""
        self._check(code)
        return _decode_poly(code, self.a, self.p)

    def add(self, x: int, y: int) -> int:
        n = self.order
        if not (0 <= x < n and 0 <= y < n):
            raise MixedFields(f"operands {x}, {y} outside GF({self.p}^{self.a})")
        p = self.p
        out = 0
        for w in self._weights:
            out += (x // w + y // w) % p * w
        return out

    def neg(self, x: int) -> int:
        self._check(x)
        p = self.p
        return sum(-(x // w) % p * w for w in self._weights)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        """Product of the decoded polynomials, reduced modulo the modulus."""
        p, a = self.p, self.a
        ys = self.decode(y)
        prod = [0] * (2 * a - 1)
        for i, xi in enumerate(self.decode(x)):
            if xi:
                for j, yj in enumerate(ys):
                    prod[i + j] = (prod[i + j] + xi * yj) % p
        return self.encode(_poly_rem(prod, self.modulus, p))

    def inv(self, x: int) -> int:
        """Multiplicative inverse via x^(q-2); raises on zero."""
        if x == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(x, self.order - 2)

    def pow(self, x: int, e: int) -> int:
        """x^e by square and multiply; negative e allowed for nonzero x."""
        self._check(x)
        if e < 0:
            x = self.inv(x)
            e = -e
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out

    def multiplicative_order(self, x: int) -> int:
        self._check(x)
        if x == 0:
            raise ZeroDivisionError("zero is not in the multiplicative group")
        o = self.order - 1
        for ell in prime_divisors(o) if o > 1 else ():
            while o % ell == 0 and self.pow(x, o // ell) == 1:
                o //= ell
        return o


def make_field(p: int, a: int, cap: int = DEFAULT_ELEMENT_CAP) -> FieldSpec:
    """GF(p^a) with the first irreducible monic modulus in encoding order."""
    if a < 1:
        raise BadParams(f"degree a = {a} must be positive")
    # The cap comes before the primality test, whose cost grows with p.
    # For p >= 2, an a past the cap's bit length is over the cap, before p**a.
    if p >= 2 and (a > cap.bit_length() or p**a > cap):
        raise SizeCapExceeded(f"field order {p}^{a} exceeds the cap {cap}")
    if not is_prime(p):
        raise NonPrime(f"p = {p} is not prime")
    for code in range(p**a):
        modulus = _decode_poly(code, a, p) + (1,)
        if _is_irreducible(modulus, p):
            return FieldSpec(p=p, a=a, modulus=modulus)
    raise AssertionError("no irreducible polynomial found; unreachable")


def canonical_generator(F: FieldSpec) -> int:
    """Least code of multiplicative order p^a - 1."""
    target = F.order - 1
    for x in range(1, F.order):
        if F.multiplicative_order(x) == target:
            return x
    raise AssertionError("multiplicative group has no generator; unreachable")


def element_of_order(F: FieldSpec, m: int) -> int:
    """Deterministic unit of exact multiplicative order m."""
    q1 = F.order - 1
    if m < 1 or q1 % m != 0:
        raise OrderDoesNotDivide(
            f"order {m} does not divide |GF({F.p}^{F.a})^x| = {q1}"
        )
    g = canonical_generator(F)
    x = F.pow(g, q1 // m)
    if F.multiplicative_order(x) != m:
        raise AssertionError("power of a generator has the wrong order; unreachable")
    return x
