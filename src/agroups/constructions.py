"""Group builders: cyclic and field-additive leaves, products, semidirect
products with scalar actions, the counterexample family, and the search
for small family parameters.

The family construction takes pairwise-distinct primes p, q, r and
exponents a, b with qr | p^a - 1 and pr | q^b - 1, and assembles

    G = (H1 x H2) : C_r,   H1 = GF(p^a)+ : C_q,   H2 = GF(q^b)+ : C_p,

where each cyclic factor acts on the written field by multiplication by
a canonical unit of matching order, C_r rescales both field coordinates
simultaneously, and the C_q and C_p coordinates ride along untouched.
The resulting group has order p^(a+1) * q^(b+1) * r.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParams, NonPrime, SizeCapExceeded, WrongOrder
from .fields import FieldElement, FieldSpec, element_of_order, make_field
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
from .numtheory import is_prime, multiplicative_order, primes_up_to


def cyclic(n: int, cap: int = DEFAULT_ELEMENT_CAP) -> CyclicGroup:
    return CyclicGroup(n, cap)


def additive_group(field: FieldSpec, cap: int = DEFAULT_ELEMENT_CAP) -> FieldAddGroup:
    return FieldAddGroup(field, cap)


def direct_product(
    left: FiniteGroup, right: FiniteGroup, cap: int = DEFAULT_ELEMENT_CAP
) -> DirectProductGroup:
    return DirectProductGroup(left, right, cap)


def semidirect_product(
    kernel: FiniteGroup,
    acting: FiniteGroup,
    action: Action,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> SemidirectProductGroup:
    return SemidirectProductGroup(kernel, acting, action, cap)


def make_action(kernel: FiniteGroup, acting: FiniteGroup, fn) -> Action:
    """Tabulate fn(acting-id, kernel-id) -> kernel-id and verify the laws."""
    return Action.tabulate(kernel, acting, fn)


def power_action(
    kernel: FieldAddGroup | CyclicGroup, acting: CyclicGroup, unit
) -> Action:
    """Action where acting residue e multiplies the kernel by unit^e.

    The unit's multiplicative order must divide the acting order, so the
    exponent map is well defined on residues.  Field kernels take a
    field-element unit; cyclic kernels take an integer unit coprime to n.
    """
    k = acting.order
    if isinstance(kernel, FieldAddGroup):
        f = kernel.field
        u = f.element(unit)
        d = f.multiplicative_order(u)
        if k % d:
            raise WrongOrder(
                f"unit order {d} does not divide the acting order {k}"
            )
        rows = []
        power = f.one()
        for _ in range(k):
            rows.append(kernel.scalar_row(power))
            power = f.mul(power, u)
        return Action(kernel, acting, rows)
    if isinstance(kernel, CyclicGroup):
        n = kernel.n
        d = multiplicative_order(unit, n) if n > 1 else 1
        if k % d:
            raise WrongOrder(
                f"unit order {d} does not divide the acting order {k}"
            )
        rows = []
        power = 1 % n if n > 1 else 0
        for _ in range(k):
            rows.append([(power * h) % n for h in range(n)] if n > 1 else [0])
            power = (power * unit) % n
        return Action(kernel, acting, rows)
    raise BadParams("power actions need a cyclic or field-additive kernel")


def scalar_action(
    field_group: FieldAddGroup, acting: CyclicGroup, unit: FieldElement
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


@dataclass
class FamilyParts:
    """Component groups of a family construction, kept for coordinate access."""

    field1: FieldSpec
    field2: FieldSpec
    add1: FieldAddGroup
    add2: FieldAddGroup
    cq: CyclicGroup
    cp: CyclicGroup
    cr: CyclicGroup
    h1: SemidirectProductGroup
    h2: SemidirectProductGroup
    inner: DirectProductGroup


def build_family_group(
    params: FamilyParams, cap: int = DEFAULT_ELEMENT_CAP
) -> SemidirectProductGroup:
    """Assemble the family group for validated parameters.

    The returned group carries `family_params` and `family_parts`
    attributes so coordinate-level reports can find the pieces.
    """
    params.validate()
    # p, q >= 2: an exponent past the cap's bit length is over the cap.
    if max(params.a, params.b) > cap.bit_length() or params.order() > cap:
        raise SizeCapExceeded(
            f"family order {params.p}^{params.a + 1} * {params.q}^{params.b + 1}"
            f" * {params.r} exceeds the cap {cap}"
        )
    p, q, r, a, b = params.p, params.q, params.r, params.a, params.b
    f1 = make_field(p, a, cap)
    f2 = make_field(q, b, cap)
    add1 = FieldAddGroup(f1, cap)
    add2 = FieldAddGroup(f2, cap)
    cq = CyclicGroup(q, cap)
    cp = CyclicGroup(p, cap)
    h1 = SemidirectProductGroup(
        add1, cq, scalar_action(add1, cq, element_of_order(f1, q)), cap
    )
    h2 = SemidirectProductGroup(
        add2, cp, scalar_action(add2, cp, element_of_order(f2, p)), cap
    )
    inner = DirectProductGroup(h1, h2, cap)
    cr = CyclicGroup(r, cap)

    rho1 = element_of_order(f1, r)
    rho2 = element_of_order(f2, r)
    rows1 = []
    rows2 = []
    u1 = f1.one()
    u2 = f2.one()
    for _ in range(r):
        rows1.append(add1.scalar_row(u1))
        rows2.append(add2.scalar_row(u2))
        u1 = f1.mul(u1, rho1)
        u2 = f2.mul(u2, rho2)

    h1_pair = h1.id_of_pair
    h2_pair = h2.id_of_pair
    inner_pair = inner.id_of_pair
    inner_of = inner.pair_of
    h1_of = h1.pair_of
    h2_of = h2.pair_of

    def rescale(t: int, d: int) -> int:
        x, y = inner_of(d)
        v1, c1 = h1_of(x)
        v2, c2 = h2_of(y)
        return inner_pair(h1_pair(rows1[t][v1], c1), h2_pair(rows2[t][v2], c2))

    group = SemidirectProductGroup(
        inner, cr, Action.tabulate(inner, cr, rescale), cap
    )
    group.family_params = params
    group.family_parts = FamilyParts(
        field1=f1, field2=f2, add1=add1, add2=add2,
        cq=cq, cp=cp, cr=cr, h1=h1, h2=h2, inner=inner,
    )
    return group


def _family_parts(group: FiniteGroup) -> FamilyParts:
    from .errors import NotFamilyGroup

    parts = getattr(group, "family_parts", None)
    if parts is None:
        raise NotFamilyGroup("group was not built by the family constructor")
    return parts


def cr_coordinate_ids(group: SemidirectProductGroup) -> tuple[int, ...]:
    """Ids of the acting C_r coordinate inside a family group."""
    parts = _family_parts(group)
    return tuple(sorted(group.id_of_pair(0, t) for t in range(parts.cr.n)))


def gamma_coordinate_ids(group: SemidirectProductGroup) -> tuple[int, ...]:
    """Ids of the C_q x C_p x C_r coordinate set (field parts zero)."""
    parts = _family_parts(group)
    out = []
    for cq in range(parts.cq.n):
        x = parts.h1.id_of_pair(0, cq)
        for cp in range(parts.cp.n):
            d = parts.inner.id_of_pair(x, parts.h2.id_of_pair(0, cp))
            for t in range(parts.cr.n):
                out.append(group.id_of_pair(d, t))
    return tuple(sorted(out))


def kernel_coordinate_ids(group: SemidirectProductGroup) -> tuple[int, ...]:
    """Ids of the field-coordinate set (both cyclic coordinates zero)."""
    parts = _family_parts(group)
    out = []
    for v1 in range(parts.add1.order):
        x = parts.h1.id_of_pair(v1, 0)
        for v2 in range(parts.add2.order):
            d = parts.inner.id_of_pair(x, parts.h2.id_of_pair(v2, 0))
            out.append(group.id_of_pair(d, 0))
    return tuple(sorted(out))


def cr_coordinate_subgroup(group: SemidirectProductGroup) -> Subgroup:
    return group._subgroup_from_ids(cr_coordinate_ids(group))


def search_family(max_order: int) -> list[tuple[FamilyParams, int]]:
    """All family parameter tuples whose group order fits under max_order.

    For each ordered triple of distinct primes the minimal exponents are
    the multiplicative orders of p mod qr and of q mod pr; any multiples
    also satisfy the divisibility constraints, so every multiple pair
    that still fits is emitted.  A triple can only contribute when
    p^2 q^2 r <= max_order, which bounds the prime scan.  Results are
    sorted by group order, then by parameter tuple.
    """
    if max_order < 1:
        raise BadParams("max_order must be at least 1")
    found: list[tuple[FamilyParams, int]] = []
    # r is only bounded by max_order / (p^2 q^2) and the smallest distinct
    # prime pair gives p^2 q^2 = 36, so the sieve must reach that far.
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
                    while True:
                        order = p ** (a + 1) * q ** (b + 1) * r
                        if order > max_order:
                            break
                        found.append((FamilyParams(p, q, r, a, b), order))
                        b += b0
                    a += a0
    found.sort(key=lambda row: (row[1], (row[0].p, row[0].q, row[0].r, row[0].a, row[0].b)))
    return found
