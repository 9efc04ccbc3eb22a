"""Group builders: scalar and power actions, field semidirect products, the
counterexample family with its coordinate ids, and the search for small
family parameters.

The family construction takes pairwise-distinct primes p, q, r and
exponents a, b with qr | p^a - 1 and pr | q^b - 1, and assembles

    G = (H1 x H2) : C_r,   H1 = GF(p^a)+ : C_q,   H2 = GF(q^b)+ : C_p,

where each cyclic factor acts on the written field by multiplication by
a canonical unit of matching order, C_r rescales both field coordinates
simultaneously, and the C_q and C_p coordinates ride along untouched.
The resulting group has order p^(a+1) * q^(b+1) * r.

The pieces are the built group g's tree nodes: g.left = H1 x H2,
g.left.left = H1, g.left.right = H2 (each is field group : cyclic
factor) and g.right = C_r.  The C_r rescale and the retraction onto
C_q x C_p x C_r are field maps lifted to ids with pair_map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import BadParams, NonPrime, NotFamilyGroup, SizeCapExceeded, WrongOrder
from .fields import element_of_order, make_field
from .groups import (
    Action,
    CyclicGroup,
    DirectProductGroup,
    FieldAddGroup,
    FiniteGroup,
    SemidirectProductGroup,
    Subgroup,
    DEFAULT_ELEMENT_CAP,
)
from .numtheory import MAX_INPUT_DIGITS, is_prime, multiplicative_order, primes_up_to

# search_family refuses larger bounds; its sieve reaches sqrt(bound / 72).
MAX_SEARCH_ORDER = 10**12


def power_action(
    kernel: FieldAddGroup | CyclicGroup, acting: CyclicGroup, unit: int
) -> Action:
    """Action where acting residue e multiplies the kernel by unit^e.

    The unit's multiplicative order must divide the acting order, so the
    exponent map is well defined on residues.  The unit is an int: a
    field element for field kernels, a residue coprime to n for cyclic
    ones.
    """
    if isinstance(kernel, FieldAddGroup):
        f = kernel.field
        d = f.multiplicative_order(unit)

        def row(e: int) -> list[int]:
            s = f.pow(unit, e)
            return [f.mul(s, h) for h in range(f.order)]
    elif isinstance(kernel, CyclicGroup):
        n = kernel.n
        d = multiplicative_order(unit, n)

        def row(e: int) -> list[int]:
            return [pow(unit, e, n) * h % n for h in range(n)]
    else:
        raise BadParams("power actions need a cyclic or field-additive kernel")
    k = acting.order
    if k % d:
        raise WrongOrder(f"unit order {d} does not divide the acting order {k}")
    return Action(kernel, acting, [row(e) for e in range(k)])


def scalar_action(
    field_group: FieldAddGroup, acting: CyclicGroup, unit: int
) -> Action:
    """Faithful scalar action: the unit's order must equal the acting order."""
    d = field_group.field.multiplicative_order(unit)
    if d != acting.order:
        raise WrongOrder(
            f"unit has order {d}, expected exactly {acting.order}"
        )
    return power_action(field_group, acting, unit)


def field_semidirect(
    p: int, a: int, m: int, cap: int = DEFAULT_ELEMENT_CAP
) -> SemidirectProductGroup:
    """GF(p^a)+ : C_m through the canonical unit of multiplicative order m."""
    field = make_field(p, a, cap)
    add = FieldAddGroup(field, cap)
    top = CyclicGroup(m, cap)
    return SemidirectProductGroup(
        add, top, scalar_action(add, top, element_of_order(field, m)), cap
    )


@dataclass(frozen=True)
class FamilyParams:
    """Parameter tuple (p, q, r; a, b) for the counterexample family."""

    p: int
    q: int
    r: int
    a: int
    b: int

    @classmethod
    def parse(cls, text: str) -> "FamilyParams":
        parts = [t.strip() for t in text.split(",")]
        if len(parts) != 5:
            raise BadParams(f"expected 5 comma-separated integers, got {len(parts)}")
        if any(len(t) > MAX_INPUT_DIGITS for t in parts):
            raise BadParams(f"parameter has more than {MAX_INPUT_DIGITS} digits")
        try:
            p, q, r, a, b = (int(t) for t in parts)
        except ValueError as exc:
            raise BadParams(f"non-integer parameter in {text!r}") from exc
        params = cls(p, q, r, a, b)
        params.validate()
        return params

    def validate(self) -> None:
        for n in (self.p, self.q, self.r):
            if not is_prime(n):
                raise NonPrime(f"{n} is not prime")
        if len({self.p, self.q, self.r}) != 3:
            raise BadParams(f"primes {self.p}, {self.q}, {self.r} must be distinct")
        if self.a < 1 or self.b < 1:
            raise BadParams("exponents a and b must be positive")
        # Residues only: a and b are unbounded here, so p^a may be huge.
        qr = self.q * self.r
        rem = (pow(self.p, self.a, qr) - 1) % qr
        if rem:
            raise BadParams(
                f"{qr} does not divide {self.p}^{self.a} - 1 = {rem} mod {qr}"
            )
        pr = self.p * self.r
        rem = (pow(self.q, self.b, pr) - 1) % pr
        if rem:
            raise BadParams(
                f"{pr} does not divide {self.q}^{self.b} - 1 = {rem} mod {pr}"
            )

    def order(self) -> int:
        return self.p ** (self.a + 1) * self.q ** (self.b + 1) * self.r

    def mirror(self) -> "FamilyParams":
        return FamilyParams(self.q, self.p, self.r, self.b, self.a)

    def as_dict(self) -> dict[str, int]:
        return {"p": self.p, "q": self.q, "r": self.r, "a": self.a, "b": self.b}

    def __str__(self) -> str:
        return f"{self.p},{self.q},{self.r},{self.a},{self.b}"


def build_family_group(
    params: FamilyParams, cap: int = DEFAULT_ELEMENT_CAP
) -> SemidirectProductGroup:
    """Assemble the family group for validated parameters.

    The returned group carries a `family_params` attribute, which marks
    it for the coordinate-level reports; its pieces are its tree nodes.
    """
    p, q, r, a, b = params.p, params.q, params.r, params.a, params.b
    # The cap comes before validate(), whose primality tests grow with the
    # primes.  For p, q >= 2 an exponent past the cap's bit length is over it.
    if min(p, q) >= 2 and min(a, b) >= 1 and (
        max(a, b) > cap.bit_length() or params.order() > cap
    ):
        raise SizeCapExceeded(
            f"family order {p}^{a + 1} * {q}^{b + 1} * {r} exceeds the cap {cap}"
        )
    params.validate()
    h1 = field_semidirect(p, a, q, cap)
    h2 = field_semidirect(q, b, p, cap)
    inner = DirectProductGroup(h1, h2, cap)
    cr = CyclicGroup(r, cap)
    rows1 = scalar_action(h1.left, cr, element_of_order(h1.left.field, r)).rows
    rows2 = scalar_action(h2.left, cr, element_of_order(h2.left.field, r)).rows
    rows = [_lift_field_maps(inner, f1, f2) for f1, f2 in zip(rows1, rows2)]
    group = SemidirectProductGroup(inner, cr, Action(inner, cr, rows), cap)
    group.family_params = params
    return group


def _lift_field_maps(
    inner: DirectProductGroup, f1: Sequence[int], f2: Sequence[int]
) -> list[int]:
    """Inner id of (f1[v1], c1, f2[v2], c2) for each inner id (v1, c1, v2, c2)."""
    h1, h2 = inner.left, inner.right
    return inner.pair_map(
        h1.pair_map(f1, range(h1.right.order)), h2.pair_map(f2, range(h2.right.order))
    )


def _family_params(group: FiniteGroup) -> FamilyParams:
    params = getattr(group, "family_params", None)
    if params is None:
        raise NotFamilyGroup("group was not built by the family constructor")
    return params


def _coordinate_ids(group, v1s, c1s, v2s, c2s, ts) -> tuple[int, ...]:
    """Sorted ids of the elements with coordinates in the given ranges."""
    inner = group.left
    h1 = [inner.left.id_of_pair(v, c) for v, c in product(v1s, c1s)]
    h2 = [inner.right.id_of_pair(v, c) for v, c in product(v2s, c2s)]
    ds = [inner.id_of_pair(x, y) for x, y in product(h1, h2)]
    return tuple(sorted(group.id_of_pair(d, t) for d, t in product(ds, ts)))


def cr_coordinate_ids(group: SemidirectProductGroup) -> tuple[int, ...]:
    """Ids of the acting C_r coordinate inside a family group."""
    fp = _family_params(group)
    return _coordinate_ids(group, (0,), (0,), (0,), (0,), range(fp.r))


def gamma_coordinate_ids(group: SemidirectProductGroup) -> tuple[int, ...]:
    """Ids of the C_q x C_p x C_r coordinate set (field parts zero)."""
    fp = _family_params(group)
    return _coordinate_ids(group, (0,), range(fp.q), (0,), range(fp.p), range(fp.r))


def kernel_coordinate_ids(group: SemidirectProductGroup) -> tuple[int, ...]:
    """Ids of the field-coordinate set (both cyclic coordinates zero)."""
    fp = _family_params(group)
    return _coordinate_ids(
        group, range(fp.p**fp.a), (0,), range(fp.q**fp.b), (0,), (0,)
    )


def complement_retraction(group: SemidirectProductGroup) -> tuple[int, ...]:
    """Id of each element's complement part: both field coordinates zeroed."""
    fp = _family_params(group)
    zero = _lift_field_maps(group.left, [0] * fp.p**fp.a, [0] * fp.q**fp.b)
    return tuple(group.pair_map(zero, range(fp.r)))


def cr_coordinate_subgroup(group: SemidirectProductGroup) -> Subgroup:
    return group._subgroup_from_ids(cr_coordinate_ids(group))


def search_family(max_order: int) -> list[tuple[FamilyParams, int]]:
    """All family parameter tuples whose group order fits under max_order.

    For each ordered triple of distinct primes the minimal exponents are
    the multiplicative orders of p mod qr and of q mod pr; any multiples
    also satisfy the divisibility constraints, so every multiple pair
    that still fits is emitted.  Results are sorted by group order, then
    by parameter tuple.

    The scan is bounded by a theorem rather than by trial: qr | p^a0 - 1
    forces p^a0 > qr, and likewise q^b0 > pr, so every order is greater
    than p^2 q^2 r^3.  Each prime is therefore below sqrt(max_order / 72)
    (72 = 3^2 2^3 is the least q^2 r^3 over distinct primes) and the
    exponent searches stop once p^a0 or q^b0 is provably too large.
    """
    if max_order < 1:
        raise BadParams("max_order must be at least 1")
    if max_order > MAX_SEARCH_ORDER:
        raise SizeCapExceeded(
            f"max_order {max_order} exceeds the search bound {MAX_SEARCH_ORDER}"
        )
    found: list[tuple[FamilyParams, int]] = []
    primes = primes_up_to(math.isqrt(max_order // 72) + 1)
    for p in primes:
        if p * p * 72 >= max_order:
            break
        for q in primes:
            if q == p:
                continue
            if p * p * q * q * 8 >= max_order:
                break
            for r in primes:
                if r == p or r == q:
                    continue
                if p * p * q * q * r**3 >= max_order:
                    break
                # order >= p^(a0+1) q^(b0+1) r > p^(a0+2) q r^2, and symmetrically.
                a0 = multiplicative_order(p, q * r, max_order // (p * p * q * r * r))
                if a0 is None:
                    continue
                b0 = multiplicative_order(q, p * r, max_order // (q * q * p * r * r))
                if b0 is None:
                    continue
                a = a0
                while p ** (a + 1) * q ** (b0 + 1) * r <= max_order:
                    b = b0
                    while True:
                        order = p ** (a + 1) * q ** (b + 1) * r
                        if order > max_order:
                            break
                        found.append((FamilyParams(p, q, r, a, b), order))
                        b += b0
                    a += a0
    found.sort(key=lambda row: (row[1], (row[0].p, row[0].q, row[0].r, row[0].a, row[0].b)))
    return found
