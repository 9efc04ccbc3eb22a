"""Exact arithmetic in finite fields GF(p^a).

A field is described by a `FieldSpec`: characteristic p, degree a, and a
monic irreducible modulus polynomial of degree a over Z_p.  Field elements
are bare coefficient tuples of length a, constant term first, every entry
reduced mod p.  All operations are pure functions of (spec, operands), so
specs and elements can be shared freely.

The modulus is chosen deterministically: degree-a monic candidates are
scanned in ascending order of their lower-coefficient tuple encoded as a
base-p integer (constant term least significant), and the first irreducible
one wins.  Irreducibility is decided by exhaustive trial division by every
monic polynomial of degree at most a // 2, which is entirely adequate for
the desk-scale fields this library builds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    BadParams,
    MixedFields,
    NonPrime,
    OrderDoesNotDivide,
    SizeCapExceeded,
)
from .numtheory import is_prime, prime_divisors

FieldElement = tuple[int, ...]

DEFAULT_FIELD_CAP = 10**6


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
    """

    p: int
    a: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.a

    def zero(self) -> FieldElement:
        return (0,) * self.a

    def one(self) -> FieldElement:
        return (1,) + (0,) * (self.a - 1)

    def element(self, coeffs: Sequence[int]) -> FieldElement:
        """Build a field element, reducing each coefficient mod p."""
        if len(coeffs) != self.a:
            raise MixedFields(
                f"expected {self.a} coefficients, got {len(coeffs)}"
            )
        return tuple(c % self.p for c in coeffs)

    def _check(self, x: FieldElement) -> None:
        if len(x) != self.a:
            raise MixedFields(
                f"operand of length {len(x)} does not live in GF({self.p}^{self.a})"
            )

    def encode(self, x: FieldElement) -> int:
        """Base-p integer encoding, constant term least significant."""
        self._check(x)
        code = 0
        for c in reversed(x):
            code = code * self.p + c
        return code

    def decode(self, code: int) -> FieldElement:
        if not 0 <= code < self.order:
            raise MixedFields(f"encoding {code} out of range for order {self.order}")
        return _decode_poly(code, self.a, self.p)

    def elements(self) -> Iterator[FieldElement]:
        """All elements in ascending encoding order."""
        for code in range(self.order):
            yield _decode_poly(code, self.a, self.p)

    def add(self, x: FieldElement, y: FieldElement) -> FieldElement:
        self._check(x)
        self._check(y)
        p = self.p
        return tuple((u + v) % p for u, v in zip(x, y))

    def neg(self, x: FieldElement) -> FieldElement:
        self._check(x)
        p = self.p
        return tuple(-u % p for u in x)

    def sub(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return self.add(x, self.neg(y))

    def mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        self._check(x)
        self._check(y)
        p, a = self.p, self.a
        prod = [0] * (2 * a - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    prod[i + j] = (prod[i + j] + xi * yj) % p
        return tuple(_poly_rem(prod, self.modulus, p))

    def inv(self, x: FieldElement) -> FieldElement:
        """Multiplicative inverse via x^(q-2); raises on zero."""
        self._check(x)
        if not any(x):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(x, self.order - 2)

    def pow(self, x: FieldElement, e: int) -> FieldElement:
        """x^e by square and multiply; negative e allowed for nonzero x."""
        self._check(x)
        if e < 0:
            x = self.inv(x)
            e = -e
        out = self.one()
        base = x
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def multiplicative_order(self, x: FieldElement) -> int:
        self._check(x)
        if not any(x):
            raise ZeroDivisionError("zero is not in the multiplicative group")
        o = self.order - 1
        for ell in prime_divisors(o) if o > 1 else ():
            while o % ell == 0 and self.pow(x, o // ell) == self.one():
                o //= ell
        return o


def make_field(p: int, a: int, cap: int = DEFAULT_FIELD_CAP) -> FieldSpec:
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


def canonical_generator(F: FieldSpec) -> FieldElement:
    """First element, in ascending encoding order, of order p^a - 1."""
    target = F.order - 1
    for x in F.elements():
        if any(x) and F.multiplicative_order(x) == target:
            return x
    raise AssertionError("multiplicative group has no generator; unreachable")


def element_of_order(F: FieldSpec, m: int) -> FieldElement:
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
