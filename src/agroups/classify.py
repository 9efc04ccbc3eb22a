"""Decision procedures over enumerated groups.

Three layers live here:

- structure_report / is_a_group: Sylow-wise structure facts (a group is
  in the all-abelian-Sylow class iff one Sylow per prime is abelian,
  since conjugate Sylows are isomorphic).
- is_a_prime_group: the recognizer for the inductive class generated by
  three rules — (1) finite abelian groups, (2) semidirect extensions of
  an abelian normal Hall kernel by a group already in the class, and
  (3) direct products of members.  Rule 2 descends to the quotient by
  the kernel: a normal Hall subgroup always splits off a complement
  isomorphic to that quotient, and membership is treated as an
  isomorphism invariant.  Rule 3 reads direct factors off the normal
  lattice, built only when certified_indecomposable has no answer: a
  solvable G is indecomposable when J = <C_G(M) : M minimal normal> is
  not G, each C_G(M) being the union of the classes whose least member
  commutes with M's generators.
- two_prime_decompose: for a group with at most two prime divisors and
  all Sylow subgroups abelian, constructs the pair of normal subgroups
  K_p, K_q with G = K_p x K_q, each an extension of an abelian Sylow by
  an abelian Sylow.  Every structural identity the construction leans
  on is re-verified at runtime and returned as a certificate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    DecompositionInvariantFailed,
    NotAGroup,
    TooManyPrimes,
)
from .groups import FiniteGroup, Subgroup
from .numtheory import is_prime, p_part, prime_divisors, prime_factors


@dataclass(frozen=True)
class SylowInfo:
    prime: int
    order: int
    abelian: bool
    normal: bool
    exponent: int


@dataclass(frozen=True)
class StructureReport:
    order: int
    factorization: tuple[tuple[int, int], ...]
    abelian: bool
    solvable: bool
    derived_length: int
    derived_orders: tuple[int, ...]
    metabelian: bool
    sylow: tuple[SylowInfo, ...]


def structure_report(group: FiniteGroup) -> StructureReport:
    """Solvability, derived length, and the per-prime Sylow table."""
    series = group.derived_series()
    solvable = series[-1].order == 1
    length = len(series) - 1
    rows = []
    for ell in prime_divisors(group.order):
        p_sub = group.sylow(ell)
        rows.append(
            SylowInfo(
                prime=ell,
                order=p_sub.order,
                abelian=p_sub.is_abelian(),
                normal=p_sub.is_normal(),
                exponent=group.exponent_of(p_sub.ids),
            )
        )
    return StructureReport(
        order=group.order,
        factorization=tuple(sorted(prime_factors(group.order).items())),
        abelian=group.is_abelian(),
        solvable=solvable,
        derived_length=length,
        derived_orders=tuple(s.order for s in series),
        metabelian=solvable and length <= 2,
        sylow=tuple(rows),
    )


def is_a_group(group: FiniteGroup) -> bool:
    """True when every Sylow subgroup is abelian."""
    return all(
        group.sylow(ell).is_abelian() for ell in prime_divisors(group.order)
    )


def normal_hall(group: FiniteGroup, pi: frozenset[int] | set[int]) -> Subgroup | None:
    """The normal Hall subgroup for the prime set pi, if it exists.

    Collects every element whose order involves only primes in pi.  If
    the count equals the pi-part of the group order and the set is
    composition-closed, it is a subgroup — and automatically normal,
    because conjugation preserves element orders.
    """
    pi = frozenset(pi)
    orders = group.element_orders()
    inside = {o for o in set(orders) if pi.issuperset(prime_divisors(o))}
    ids = [i for i, o in enumerate(orders) if o in inside]
    target = 1
    for ell in pi:
        target *= p_part(group.order, ell)
    if len(ids) != target:
        return None
    sub = group.closure(ids)
    if sub.order != target:
        return None
    return sub


def certified_indecomposable(group: FiniteGroup) -> bool:
    """Whether G is solvable and J = <C_G(M) : M minimal normal> is not G.

    Then G is directly indecomposable.  Let G = A x B with A, B != 1.  If
    Z(G) != 1, a central subgroup of prime order is minimal normal with
    centralizer G, so J = G.  If Z(G) = 1, a minimal normal M meets A and
    B in normal subgroups, each 1 or M, and not both 1: then [M, A] =
    [M, B] = 1 and M <= Z(G).  So M lies in one factor and the other
    centralizes it; A and B each hold a minimal normal subgroup, so
    G = AB <= J.  The test for a central class is only a cheap way out.

    In a solvable group a minimal normal M is elementary abelian, so M =
    <x^G> for each x != 1 in M, of prime order and commuting with its
    class.  Conversely, for such an x the conjugates commute pairwise
    (conjugating x^g, x^h by g^-1 gives x and a conjugate of x), so
    N = <x^G> is elementary abelian, and it holds a minimal normal M with
    C_G(N) <= C_G(M): closing all such classes yields J.  C_G(N) is
    normal, the union of the classes whose least member commutes with
    N's generators.  Two such unions A, B join to |A||B| / |A ∩ B|
    elements; three or more need a closure.  False means no answer.
    """
    classes = group.conjugacy_classes()
    if any(len(c) == 1 for c in classes[1:]) or group.derived_series()[-1].order > 1:
        return False
    comp, orders = group.compose, group.element_orders()

    def commutes(x: int, ys: Iterable[int]) -> bool:
        return all(comp(x, y) == comp(y, x) for y in ys)

    def size(ks: frozenset[int]) -> int:
        return sum(len(classes[k]) for k in ks)

    closed = (group.closure(c) for c in classes[1:]
              if is_prime(orders[c[0]]) and commutes(c[0], c))
    normals = {n.ids: n.gens for n in closed}
    cents = list({
        frozenset(k for k, c in enumerate(classes) if commutes(c[0], gens))
        for gens in normals.values()
    })
    if len(cents) in (1, 2):
        a, b = cents[0], cents[-1]
        join = size(a) * size(b) // size(a & b)
    else:
        join = group.closure(x for k in set().union(*cents) for x in classes[k]).order
    return join < group.order


def direct_factor_pairs(group: FiniteGroup) -> list[tuple[Subgroup, Subgroup]]:
    """Unordered pairs of proper normal subgroups exhibiting G = N1 x N2.

    Trivial intersection makes the two factors commute elementwise, so
    matching orders are enough to force an internal direct product.  The
    lattice is built only where certified_indecomposable has no answer.
    """
    if certified_indecomposable(group):
        return []
    normals = group.normal_subgroups()
    pairs = []
    for i, n1 in enumerate(normals):
        if n1.order in (1, group.order):
            continue
        for n2 in normals[i + 1 :]:
            if n2.order in (1, group.order):
                continue
            if n1.order * n2.order != group.order:
                continue
            if len(n1.idset & n2.idset) == 1:
                pairs.append((n1, n2))
    return pairs


@dataclass
class RecognizerResult:
    value: bool
    trace: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.value


def _proper_prime_subsets(order: int) -> list[tuple[int, ...]]:
    primes = prime_divisors(order)
    out: list[tuple[int, ...]] = []
    for mask in range(1, (1 << len(primes)) - 1):
        out.append(tuple(p for k, p in enumerate(primes) if mask >> k & 1))
    out.sort(key=lambda s: (len(s), s))
    return out


def is_a_prime_group(group: FiniteGroup) -> RecognizerResult:
    """Decide membership in the three-rule inductive class, with a trace.

    The trace records, per group visited, which rule certified
    membership or that every rule was exhausted.  Rule 2 tries each
    nonempty proper subset of the prime divisors; rule 3 tries each
    direct factorization read off the normal lattice.
    """
    trace: list[str] = []

    def decide(g: FiniteGroup, depth: int) -> bool:
        pad = "  " * depth
        n = g.order
        if g.is_abelian():
            trace.append(f"{pad}order {n}: abelian, in the class by rule 1")
            return True
        trace.append(f"{pad}order {n}: not abelian")
        for pi in _proper_prime_subsets(n):
            label = "{" + ",".join(map(str, pi)) + "}"
            hall = normal_hall(g, set(pi))
            if hall is None:
                trace.append(f"{pad}  normal hall {label}: absent")
                continue
            if not hall.is_abelian():
                trace.append(
                    f"{pad}  normal hall {label}: order {hall.order}, not abelian"
                )
                continue
            trace.append(
                f"{pad}  normal hall {label}: abelian of order {hall.order}, "
                f"testing the complement via the quotient"
            )
            if decide(g.quotient(hall), depth + 2):
                trace.append(f"{pad}  order {n}: in the class by rule 2")
                return True
        pairs = direct_factor_pairs(g)
        if not pairs:
            trace.append(f"{pad}  no direct factorizations")
        for n1, n2 in pairs:
            trace.append(
                f"{pad}  direct factors of orders {n1.order} and {n2.order}:"
                f" testing both"
            )
            if decide(g.quotient(n2), depth + 2) and decide(g.quotient(n1), depth + 2):
                trace.append(f"{pad}  order {n}: in the class by rule 3")
                return True
        trace.append(f"{pad}order {n}: every rule exhausted, not in the class")
        return False

    return RecognizerResult(decide(group, 0), trace)


@dataclass
class TwoPrimeDecomposition:
    """G = K_p x K_q for the (at most two) primes dividing the order.

    Primes are ascending; a missing second prime leaves q None and K_q
    trivial.  K_p is the factor whose Sylow p-subgroup sits on top,
    i.e. K_p = (abelian q-group) extended by (abelian p-group).
    """

    group: FiniteGroup
    p: int | None
    q: int | None
    k_p: Subgroup
    k_q: Subgroup
    certificate: dict[str, bool]


def _torsion_ids(group: FiniteGroup, ids: tuple[int, ...], ell: int) -> list[int]:
    orders = group.element_orders()
    return [i for i in ids if p_part(orders[i], ell) == orders[i]]


def _abelian_by_abelian(group: FiniteGroup, part: Subgroup, base: int) -> bool:
    """part is an extension of an abelian base-Sylow by an abelian quotient.

    Checks that the base-prime torsion of `part` is a closed abelian
    subgroup of full base-part order and that it absorbs the derived
    subgroup of `part`, which makes the quotient abelian; the quotient
    is then the other Sylow, abelian as a quotient of one.
    """
    torsion = _torsion_ids(group, part.ids, base)
    if len(torsion) != p_part(part.order, base):
        return False
    bottom = group.closure(sorted(torsion))
    if bottom.order != len(torsion) or not bottom.is_abelian():
        return False
    derived = group.derived_subgroup(part)
    return derived.idset <= bottom.idset


def _half_decomposition(
    group: FiniteGroup,
    derived: Subgroup,
    target: int,
    other: int,
    record: dict[str, bool],
) -> Subgroup:
    """Build K_target by reducing mod the other prime's part of G'.

    Mod out the other-prime torsion of the derived subgroup; in the
    reduction the target Sylow P is normal and the other Sylow Q acts
    on it coprimely, so P splits as (derived part) x (Q-fixed part).
    The Q-fixed part F is the canonical invariant complement, and
    K_target is its full preimage.  Each structural identity is
    recorded rather than trusted.
    """
    tag = f"k{target}"
    s_other = group._subgroup_from_ids(_torsion_ids(group, derived.ids, other))
    reduced = group.quotient(s_other)
    p_syl = (
        reduced.sylow(target)
        if p_part(reduced.order, target) > 1
        else reduced.trivial_subgroup()
    )
    record[f"{tag}_reduced_sylow_normal"] = p_syl.is_normal()
    q_syl = (
        reduced.sylow(other)
        if p_part(reduced.order, other) > 1
        else reduced.trivial_subgroup()
    )
    comp = reduced.compose
    fixed = [
        x
        for x in p_syl.ids
        if all(comp(g, x) == comp(x, g) for g in q_syl.gens)
    ]
    f_sub = reduced._subgroup_from_ids(fixed)
    reduced_derived = reduced.derived_subgroup()
    record[f"{tag}_fixed_meets_derived_trivially"] = (
        len(f_sub.idset & reduced_derived.idset) == 1
    )
    record[f"{tag}_derived_inside_sylow"] = (
        reduced_derived.idset <= p_syl.idset
    )
    record[f"{tag}_fixed_times_derived_covers_sylow"] = (
        f_sub.order * reduced_derived.order == p_syl.order
    )
    record[f"{tag}_fixed_normal_in_reduction"] = f_sub.is_normal()
    return group._subgroup_from_ids(reduced.preimage_ids(f_sub.ids))


def two_prime_decompose(group: FiniteGroup) -> TwoPrimeDecomposition:
    """Split an all-abelian-Sylow group over at most two primes.

    Raises NotAGroup when some Sylow subgroup is nonabelian,
    TooManyPrimes beyond two prime divisors, and
    DecompositionInvariantFailed if any certified identity fails (which
    would signal an implementation bug, not bad input).
    """
    primes = prime_divisors(group.order)
    if len(primes) > 2:
        raise TooManyPrimes(
            f"order {group.order} has prime divisors {primes}"
        )
    if not is_a_group(group):
        raise NotAGroup("a Sylow subgroup is not abelian")
    whole = group.whole_subgroup()
    trivial = group.trivial_subgroup()
    if len(primes) <= 1:
        cert = {"abelian": group.is_abelian()}
        if not cert["abelian"]:
            raise DecompositionInvariantFailed(
                "one-prime group with abelian Sylow must be abelian"
            )
        p = primes[0] if primes else None
        return TwoPrimeDecomposition(
            group=group, p=p, q=None, k_p=whole, k_q=trivial, certificate=cert
        )

    p, q = primes
    derived = group.derived_subgroup()
    record: dict[str, bool] = {
        "derived_subgroup_abelian": derived.is_abelian()
    }
    if not record["derived_subgroup_abelian"]:
        raise DecompositionInvariantFailed(
            "derived subgroup of a two-prime all-abelian-Sylow group "
            "must be abelian"
        )
    k_p = _half_decomposition(group, derived, p, q, record)
    k_q = _half_decomposition(group, derived, q, p, record)
    record["kp_normal"] = k_p.is_normal()
    record["kq_normal"] = k_q.is_normal()
    record["kp_kq_intersect_trivially"] = len(k_p.idset & k_q.idset) == 1
    record["kp_kq_cover_group"] = k_p.order * k_q.order == group.order
    record["kp_abelian_by_abelian"] = _abelian_by_abelian(group, k_p, q)
    record["kq_abelian_by_abelian"] = _abelian_by_abelian(group, k_q, p)
    bad = sorted(k for k, v in record.items() if not v)
    if bad:
        raise DecompositionInvariantFailed(
            "certificate checks failed: " + ", ".join(bad)
        )
    return TwoPrimeDecomposition(
        group=group, p=p, q=q, k_p=k_p, k_q=k_q, certificate=record
    )
