"""Order-ell element classification for constructed family groups.

A family group splits as an abelian kernel H (the two field
coordinates) with a complement made of the three cyclic coordinates.
For each prime ell dividing the order, the order-ell elements fall
into conjugacy classes of two kinds:

- kind "a": the class projects onto order-ell elements of the
  complement.  Certified by the identity N(<t>) = C(t) for a class
  representative t; both sides are conjugation-equivariant, so
  checking one representative settles the whole class.  The identity
  is decided without building either subgroup: N(<t>)/C(t) embeds in
  Aut<t> (orbit-stabiliser), so N(<t>) = C(t) exactly when the class
  of t meets <t> only in t, an O(ell) test on the cached class.
- kind "b": the class lies inside the kernel.

Each class carries the rational weight (ell - 1) |G| / (2 ell).  At
even order the weight of an involution class is a half-integer, which
callers must surface rather than round (the parity caveat).  The
classification feeds the ideal-class bookkeeping done downstream of
the decomposition machinery; here only the group-theoretic facts are
computed and certified.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .constructions import (
    complement_retraction,
    gamma_coordinate_ids,
    kernel_coordinate_ids,
)
from .errors import BadParams, DecompositionInvariantFailed, PrimeDoesNotDivide
from .groups import FiniteGroup, Subgroup
from .numtheory import is_prime, prime_divisors


@dataclass
class FamilyProjection:
    """Splitting data: kernel, complement, and the retraction onto it.

    to_complement[i] is the id of the complement part of element i
    (field coordinates zeroed).  It is a group homomorphism fixing the
    complement pointwise, with the kernel as its kernel.
    """

    group: FiniteGroup
    kernel: Subgroup
    complement: Subgroup
    to_complement: tuple[int, ...]


def family_projection(group: FiniteGroup) -> FamilyProjection:
    """Extract and verify the kernel/complement splitting.

    Raises NotFamilyGroup when the group lacks construction metadata.
    Every structural identity is recorded rather than trusted; a failed
    one raises DecompositionInvariantFailed naming it.  The coordinate
    data comes from build_family_group, so a failure is a bug, not bad input.
    """
    kernel = group._subgroup_from_ids(kernel_coordinate_ids(group))
    complement = group._subgroup_from_ids(gamma_coordinate_ids(group))
    params = group.family_params
    record = {
        "kernel_order": kernel.order == params.p**params.a * params.q**params.b,
        "kernel_abelian": kernel.is_abelian(),
        "kernel_normal": kernel.is_normal(),
        "complement_order": complement.order == params.p * params.q * params.r,
        "kernel_meets_complement_trivially": (
            len(kernel.idset & complement.idset) == 1
        ),
        "kernel_times_complement_covers_group": (
            kernel.order * complement.order == group.order
        ),
    }
    pi = complement_retraction(group)

    record["retraction_fixes_identity"] = pi[0] == 0
    record["retraction_image_is_complement"] = set(pi) == complement.idset
    record["retraction_kernel_size"] = (
        sum(1 for v in pi if v == 0) == kernel.order
    )
    record["retraction_fixes_complement"] = all(pi[i] == i for i in complement.ids)
    # The checks above give G = K : C, so each x is k c uniquely and
    # x -> c is a homomorphism; pi is that map iff x pi(x)^-1 lies in K.
    comp = group.compose
    c_inv = {c: group.invert(c) for c in complement.ids}
    k_ids = kernel.idset
    record["retraction_is_homomorphism"] = all(
        pi[x] in c_inv and comp(x, c_inv[pi[x]]) in k_ids
        for x in range(group.order)
    )
    bad = [name for name, ok in record.items() if not ok]
    if bad:
        raise DecompositionInvariantFailed(
            "projection checks failed: " + ", ".join(bad)
        )
    return FamilyProjection(
        group=group, kernel=kernel, complement=complement, to_complement=pi
    )


def sylow_exponent_report(group: FiniteGroup) -> dict[int, int]:
    """Exponent of one Sylow subgroup per prime divisor."""
    return {
        ell: group.exponent_of(group.sylow(ell).ids)
        for ell in prime_divisors(group.order)
    }


@dataclass
class SteinitzRow:
    """One conjugacy class of order-ell elements, classified."""

    ell: int
    class_rep: int
    class_size: int
    case: str
    normalizer_equals_centralizer: bool | None
    in_kernel: bool | None
    exponent: Fraction
    absorbed: bool

    def holds(self) -> bool:
        if self.case == "a":
            return self.normalizer_equals_centralizer is True
        return self.in_kernel is True


def class_weight(ell: int, order: int) -> Fraction:
    """The weight (ell - 1) |G| / (2 ell) attached to an order-ell class."""
    return Fraction((ell - 1) * (order // ell), 2)


def class_meets_cycle_only_at_rep(group: FiniteGroup, cls: Sequence[int]) -> bool:
    """N(<t>) = C(t) for the class representative t = cls[0], without a scan.

    g normalizes <t> exactly when g t g^-1, a member of the class, lies
    in <t>; any member of <t> in the class other than t is such a
    conjugate by some g in N(<t>) outside C(t).
    """
    members = set(cls)
    return sum(1 for x in group.closure([cls[0]]).ids if x in members) == 1


def order_ell_classification(
    group: FiniteGroup, ell: int, projection: FamilyProjection | None = None
) -> list[SteinitzRow]:
    """Classify the conjugacy classes of order-ell elements.

    Rows come back ordered by least class member.  The case tag reads
    off the projection of a representative: full order ell means the
    class maps onto complement elements (case "a"), trivial projection
    means the class sits inside the kernel (case "b").  No other
    projection order can occur for an element of prime order.
    """
    if not is_prime(ell):
        raise BadParams(f"{ell} is not prime")
    if group.order % ell:
        raise PrimeDoesNotDivide(f"{ell} does not divide {group.order}")
    if projection is None:
        projection = family_projection(group)
    orders = group.element_orders()
    weight = class_weight(ell, group.order)
    rows = []
    for cls in group.conjugacy_classes():
        rep = cls[0]
        if orders[rep] != ell:
            continue
        image_order = orders[projection.to_complement[rep]]
        if image_order == ell:
            rows.append(
                SteinitzRow(
                    ell=ell,
                    class_rep=rep,
                    class_size=len(cls),
                    case="a",
                    normalizer_equals_centralizer=class_meets_cycle_only_at_rep(
                        group, cls
                    ),
                    in_kernel=None,
                    exponent=weight,
                    absorbed=True,
                )
            )
        elif image_order == 1:
            rows.append(
                SteinitzRow(
                    ell=ell,
                    class_rep=rep,
                    class_size=len(cls),
                    case="b",
                    normalizer_equals_centralizer=None,
                    in_kernel=set(cls) <= projection.kernel.idset,
                    exponent=weight,
                    absorbed=False,
                )
            )
        else:
            raise AssertionError(
                f"projection of an order-{ell} element has order {image_order}"
            )
    return rows


def steinitz_exponent_table(
    group: FiniteGroup, projection: FamilyProjection | None = None
) -> list[SteinitzRow]:
    """Classification rows for every prime divisor, primes ascending."""
    if projection is None:
        projection = family_projection(group)
    table = []
    for ell in prime_divisors(group.order):
        table.extend(order_ell_classification(group, ell, projection))
    return table


@dataclass
class SteinitzReport:
    order: int
    parity_caveat: bool
    kernel_order: int
    complement_order: int
    sylow_exponents: dict[int, int]
    rows: list[SteinitzRow]
    checks_pass: bool


def steinitz_report(group: FiniteGroup) -> SteinitzReport:
    """Full classification with the certifying checks folded in.

    checks_pass requires: every Sylow exponent equals its prime (the
    Sylow subgroups are elementary abelian), every kind-a row passes
    the normalizer test, every kind-b row sits in the kernel, and per
    prime the class sizes add up to the count of order-ell elements.
    """
    projection = family_projection(group)
    rows = steinitz_exponent_table(group, projection)
    exponents = sylow_exponent_report(group)
    orders = group.element_orders()
    ok = all(exponents[ell] == ell for ell in exponents)
    ok = ok and all(row.holds() for row in rows)
    for ell in prime_divisors(group.order):
        counted = sum(r.class_size for r in rows if r.ell == ell)
        ok = ok and counted == sum(1 for o in orders if o == ell)
    return SteinitzReport(
        order=group.order,
        parity_caveat=group.order % 2 == 0,
        kernel_order=projection.kernel.order,
        complement_order=projection.complement.order,
        sylow_exponents=exponents,
        rows=rows,
        checks_pass=ok,
    )
