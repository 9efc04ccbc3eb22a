"""Finite group engine: enumerated groups and the standard subgroup algorithms.

Groups are built as construction trees (cyclic leaves, field-additive
leaves, direct and semidirect pair nodes, quotients) and enumerated up
front.  Every element is a dense integer id; id 0 is the identity.
Leaves are their own coordinates: a cyclic id is its residue and a field
id is the field element itself, its base-p code.  Pair ids are
breadth-first discovery ranks over the Cayley graph, from the identity
by right-multiplying with the generators in a fixed order; they depend
on that graph and order alone, not on the children's labels (pair_of and
id_of_pair translate); a direct pair derives them from its factors'.
Quotient ids follow the least coset representative in ascending order
(rep and nat translate).

Each node's compose is one closure, bound in its constructor over that
node's own tables (the children's compose, the pair tables, the action
rows or the coset tables); _finish() swaps it for a dense table when the
order is at most _TABLE_LIMIT.  A field leaf's compose is FieldSpec.add.

All queries after construction are pure.  Caches (element orders,
conjugacy classes, Sylow subgroups, the normal lattice) are filled
idempotently, so concurrent readers can at worst duplicate work.

Algorithm notes, since several follow less-travelled routes:

- closure() uses Dimino's method: when a new generator g is absorbed,
  the enlarged subgroup is filled in whole right-cosets of the previous
  subgroup, so the total cost is proportional to the answer's size, not
  to its square.
- Subgroup products never materialize all pairs; membership tests go
  through per-subgroup frozensets.
- Action verification checks functoriality first: once rows[g1 g2] =
  rows[g1] o rows[g2] for generators g1 and all g2, every row is a
  product of generator rows, so only those must be automorphisms.  Each
  one's homomorphism law is checked at every kernel generator against
  every element, a proof since the elements obeying it form a subgroup.
- Direct pairs are ranked by theorem, not searched: BFS over ordered
  generators ranks each element by the ShortLex order of its lex-least
  geodesic word (Epstein et al., Word Processing in Groups, 1992, ch. 2).
  In L x R, L's generators come first, so that word is w_L(l)·w_R(r):
  pairs come by total distance, then by l in the post-order of L's BFS
  tree (a prefix last: its next letter is R's), then by r's BFS rank.
- Classes, centralizers, the action law and the pair BFS read columns
  [x·s] and [s·x] over all x, looked up from the children's columns.  In
  a semidirect pair l·φ_r(ls) = φ_r(φ_r⁻¹(l)·ls): one kernel column, of
  ls, serves every r.  Columns are never stored: keeping x·g, g·x, x·g⁻¹
  per generator took peak RSS at order 27378 from 26.2 to 32.9 MB.
  A pair node lifts child maps to its ids with pair_map, (l, r) to
  (fl[l], fr[r]).  Direct columns and the semidirect left column are such
  lifts; the semidirect right column's kernel side depends on r.
- element_orders() reads orders off the construction tree instead of
  powering every element: ord(i) = n / gcd(i, n) in C_n, p off the
  identity in GF(p^a)+, lcm(ord l, ord r) in a direct pair, and in a
  semidirect pair x = (l, r) with m = ord(r) the power x^m lies in the
  kernel as some l', so ord(x) = m * ord(l').  In a quotient G/N the
  order of xN is the least d with x^d in N, which divides ord(x), so it
  is found by dividing primes out of ord(x).
- normal_subgroups() closes one conjugacy class per rational class:
  when x^e (e prime to ord x) lies in an already closed class, the two
  classes generate the same normal subgroup, since each of x and x^e is
  a power of the other (Holt, Eick and O'Brien, Handbook of
  Computational Group Theory, 2005, ch. 4).
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .errors import (
    BadParams,
    GeneratorsDoNotGenerate,
    InvalidAction,
    LatticeCapExceeded,
    NotNormal,
    PrimeDoesNotDivide,
    SizeCapExceeded,
)
from .fields import FieldSpec
from .numtheory import (
    DEFAULT_ELEMENT_CAP,
    is_prime,
    is_prime_power_of,
    p_part,
    prime_divisors,
)

# normal_subgroups raises LatticeCapExceeded past this many subgroups.
LATTICE_CAP = 10**4

# Below this order a dense composition table is cheap and pays for itself
# in the scan-heavy algorithms.
_TABLE_LIMIT = 200


def _generators_commute(comp: Callable[[int, int], int], g: Sequence[int]) -> bool:
    """Pairwise commuting generators force the whole (sub)group abelian."""
    return all(
        comp(g[i], g[j]) == comp(g[j], g[i])
        for i in range(len(g))
        for j in range(i + 1, len(g))
    )


class Subgroup:
    """A verified subgroup: ambient group, sorted ids, and generating ids."""

    __slots__ = ("group", "ids", "gens", "_idset")

    def __init__(self, group: "FiniteGroup", ids: Sequence[int], gens: Sequence[int]):
        self.group = group
        self.ids = tuple(ids)
        self.gens = tuple(gens)
        self._idset: frozenset[int] | None = None

    @property
    def order(self) -> int:
        return len(self.ids)

    @property
    def idset(self) -> frozenset[int]:
        if self._idset is None:
            self._idset = frozenset(self.ids)
        return self._idset

    def __contains__(self, i: int) -> bool:
        return i in self.idset

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and self.ids == other.ids
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.ids))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.group!r})"

    def is_abelian(self) -> bool:
        return _generators_commute(self.group.compose, self.gens)

    def is_normal(self) -> bool:
        """Normal iff every ambient generator normalizes it (conjugations compose)."""
        return all(self.group.normalizes(g, self) for g in self.group.gens)


class Action:
    """Tabulated action of a quotient-factor group on a kernel group.

    rows[g][h] is the id of the image of kernel element h under the
    automorphism attached to acting element g.  Construction verifies,
    by complete generator induction, that every row is an automorphism
    and that rows compose like the acting group.
    """

    __slots__ = ("kernel", "acting", "rows")

    def __init__(
        self, kernel: "FiniteGroup", acting: "FiniteGroup", rows: list[list[int]]
    ):
        self.kernel = kernel
        self.acting = acting
        self.rows = rows
        self._verify()

    def apply(self, g: int, h: int) -> int:
        return self.rows[g][h]

    def _verify(self) -> None:
        """Functoriality first, then the automorphism laws on generator rows."""
        nk = self.kernel.order
        rows = self.rows
        if len(rows) != self.acting.order or any(len(r) != nk for r in rows):
            raise InvalidAction("table shape does not match the groups")
        if any(min(r) < 0 or max(r) >= nk for r in rows):
            raise InvalidAction("a row leaves the kernel's id range")
        if any(rows[0][h] != h for h in range(nk)):
            raise InvalidAction("identity row is not the identity map")
        acomp = self.acting.compose
        for g1 in self.acting.gens:
            r1 = rows[g1]
            for g2, r2 in enumerate(rows):
                if list(rows[acomp(g1, g2)]) != [r1[h] for h in r2]:
                    raise InvalidAction(
                        f"rows at {g1}*{g2} do not compose functorially"
                    )
        for g in self.acting.gens:
            row = rows[g]
            if row[0] != 0:
                raise InvalidAction(f"row {g} moves the identity")
            if len(set(row)) != nk:
                raise InvalidAction(f"row {g} is not a bijection of the kernel")
            for k in self.kernel.gens:
                k_col, rk_col = map(self.kernel.left_column, (k, row[k]))
                if any(row[kh] != rk_col[rh] for kh, rh in zip(k_col, row)):
                    raise InvalidAction(
                        f"row {g} fails the homomorphism law at generator {k}"
                    )


def trivial_action(kernel: "FiniteGroup", acting: "FiniteGroup") -> Action:
    row = list(range(kernel.order))
    return Action(kernel, acting, [list(row) for _ in range(acting.order)])


class FiniteGroup:
    """Base engine: a fully enumerated group addressed by dense ids.

    Subclasses provide the primitive layer (compose, invert, order,
    gens); this class provides every algorithm on top of it.  Id 0 is
    the identity everywhere.
    """

    order: int
    gens: tuple[int, ...]
    # A pair node's ids 0..order-1 as the very int objects its id tables hold,
    # so the whole-group subgroup shares them instead of allocating copies.
    _ids: tuple[int, ...] = ()

    def __init__(self, cap: int):
        self._cap = cap
        self._orders: list[int] | None = None
        self._classes: list[tuple[int, ...]] | None = None
        self._normals: list[Subgroup] | None = None
        self._sylows: dict[int, Subgroup] = {}
        self._whole: Subgroup | None = None

    # -- primitive layer -------------------------------------------------

    def compose(self, i: int, j: int) -> int:
        """The id of i·j; each constructor binds a closure over its own tables."""
        raise NotImplementedError

    def invert(self, i: int) -> int:
        raise NotImplementedError

    def right_column(self, s: int) -> list[int]:
        """[x·s for every id x]; pair nodes derive it from their children's."""
        return [self.compose(x, s) for x in range(self.order)]

    def left_column(self, s: int) -> list[int]:
        """[s·x for every id x]."""
        return [self.compose(s, x) for x in range(self.order)]

    def _check_cap(self, predicted: int) -> None:
        if predicted > self._cap:
            raise SizeCapExceeded(
                f"group of order {predicted} exceeds the element cap {self._cap}"
            )

    def _finish(self) -> None:
        """Swap the compose closure for a dense table; call at the end of __init__."""
        if self.order <= _TABLE_LIMIT:
            tab = [self.left_column(i) for i in range(self.order)]
            self.compose = lambda i, j: tab[i][j]

    # -- enumeration helpers ---------------------------------------------

    def _shortlex(self) -> tuple[list[list[int]], list[int], list[int]]:
        """BFS over self.gens: ids by distance in discovery order, the search
        tree in post-order (children in generator order), each id's distance."""
        cols = [self.right_column(g) for g in self.gens]
        kids: list[list[int]] = [[] for _ in range(self.order)]
        dist = [-1] * self.order
        dist[0] = 0
        layers = [[0]]
        for layer in layers:
            nxt = []
            for x in layer:
                for col in cols:
                    y = col[x]
                    if dist[y] < 0:
                        dist[y] = len(layers)
                        nxt.append(y)
                        kids[x].append(y)
            if nxt:
                layers.append(nxt)
        post, stack = [], [0]
        while stack:  # pre-order with reversed children, read backwards
            x = stack.pop()
            post.append(x)
            stack += kids[x]
        return layers, post[::-1], dist

    def element_order(self, i: int) -> int:
        comp = self.compose
        k = 1
        x = i
        while x != 0:
            x = comp(x, i)
            k += 1
        return k

    def element_orders(self) -> list[int]:
        if self._orders is None:
            self._orders = self._element_orders()
        return self._orders

    def _element_orders(self) -> list[int]:
        """Per-node rule behind element_orders(); the default powers."""
        return [self.element_order(i) for i in range(self.order)]

    def exponent_of(self, ids: Iterable[int]) -> int:
        out = 1
        orders = self.element_orders()
        for i in ids:
            out = math.lcm(out, orders[i])
        return out

    def is_abelian(self) -> bool:
        return _generators_commute(self.compose, self.gens)

    # -- subgroup machinery ----------------------------------------------

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, (0,), ())

    def whole_subgroup(self) -> Subgroup:
        if self._whole is None:
            self._whole = self.closure(self.gens)
            if self._whole.order != self.order:
                raise GeneratorsDoNotGenerate(
                    f"generators span {self._whole.order} of {self.order} elements"
                )
        return self._whole

    def closure(self, seed: Iterable[int]) -> Subgroup:
        """Least subgroup containing the seed ids (Dimino coset filling).

        The returned generators are the seed entries that actually
        enlarged the subgroup, in seed order.  Once the partial subgroup
        passes half the group order it must be the whole group by
        Lagrange, so the scan stops early.
        """
        comp = self.compose
        elems = [0]
        inset = {0}
        used: list[int] = []
        for g in seed:
            if g in inset:
                continue
            used.append(g)
            prev = list(elems)
            reps = [g]
            ri = 0
            while ri < len(reps):
                r = reps[ri]
                ri += 1
                if r in inset:
                    continue
                for l in prev:
                    t = comp(l, r)
                    if t not in inset:
                        inset.add(t)
                        elems.append(t)
                for h in used:
                    reps.append(comp(r, h))
            if 2 * len(elems) > self.order:
                return Subgroup(self, self._ids or range(self.order), tuple(used))
        return Subgroup(self, sorted(elems), tuple(used))

    def _subgroup_from_ids(self, ids: Sequence[int]) -> Subgroup:
        """Wrap an already-closed id set, recovering a small generating set."""
        s = self.closure(sorted(set(ids)))
        if s.order != len(set(ids)):
            raise AssertionError("id set was not composition-closed")
        return s

    def centralizer(self, target: Subgroup | Iterable[int]) -> Subgroup:
        """Elements commuting with the whole target.

        For a Subgroup the scan runs over its generators only: commuting
        with generators extends to all their products.
        """
        if isinstance(target, Subgroup):
            scan: tuple[int, ...] = target.gens
        else:
            scan = tuple(sorted(set(target)))
        ids: Sequence[int] = range(self.order)
        for s in scan:
            right, left = self.right_column(s), self.left_column(s)
            ids = [x for x in ids if right[x] == left[x]]
        return self._subgroup_from_ids(ids)

    def center(self) -> Subgroup:
        return self.centralizer(self.whole_subgroup())

    def normalizes(self, g: int, sub: Subgroup) -> bool:
        """Whether g·S·g^-1 ⊆ S (so = S), tested on S's generators.

        Conjugation by g is an automorphism, so it maps S into S iff it
        maps S's generators into S.
        """
        comp = self.compose
        gi = self.invert(g)
        inside = sub.idset
        return all(comp(comp(g, s), gi) in inside for s in sub.gens)

    def _conjugation(self, g: int) -> list[int]:
        """[g·x·g^-1 for every id x]: the left column of g read at x·g^-1."""
        left = self.left_column(g)
        return [left[y] for y in self.right_column(self.invert(g))]

    def normalizer(self, target: Subgroup) -> Subgroup:
        """Elements g with g·S·g^-1 = S."""
        return self._subgroup_from_ids(
            [g for g in range(self.order) if self.normalizes(g, target)]
        )

    def derived_subgroup(self, sub: Subgroup | None = None) -> Subgroup:
        """Commutator subgroup of sub (default: of the whole group).

        Computed as the normal closure, within sub, of the commutators
        of sub's generators.  That equals the usual all-pairs commutator
        subgroup: the closure N makes sub/N abelian, so N contains every
        commutator, and conversely commutators of generators together
        with their sub-conjugates lie in the derived subgroup.
        """
        if sub is None:
            sub = self.whole_subgroup()
        comp = self.compose
        inv = self.invert
        seed: list[int] = []
        seen = set()
        for x in sub.gens:
            for y in sub.gens:
                c = comp(comp(comp(x, y), inv(x)), inv(y))
                if c and c not in seen:
                    seen.add(c)
                    seed.append(c)
        while True:
            n = self.closure(seed)
            extra = []
            for s in sub.gens:
                si = inv(s)
                for g in n.gens:
                    c = comp(comp(s, g), si)
                    if c not in n.idset:
                        extra.append(c)
            if not extra:
                return n
            seed = list(n.gens) + extra

    def derived_series(self) -> list[Subgroup]:
        """Descending commutator series starting at the whole group."""
        series = [self.whole_subgroup()]
        while True:
            nxt = self.derived_subgroup(series[-1])
            if nxt.order == series[-1].order:
                return series
            series.append(nxt)

    def derived_length(self) -> int:
        return len(self.derived_series()) - 1

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Conjugation orbits, each sorted, listed by least member.

        Orbits under repeated conjugation by the generators equal full
        group orbits: conjugation maps form a finite group, where the
        maps generated by the generators already include their inverses.
        """
        if self._classes is not None:
            return self._classes
        conj = [self._conjugation(g) for g in self.gens]
        seen = bytearray(self.order)
        classes = []
        for i in range(self.order):
            if seen[i]:
                continue
            seen[i] = 1
            orbit = [i]
            for x in orbit:
                for c in conj:
                    y = c[x]
                    if not seen[y]:
                        seen[y] = 1
                        orbit.append(y)
            classes.append(tuple(sorted(orbit)))
        self._classes = classes
        return classes

    def normal_subgroups(self) -> list[Subgroup]:
        """All normal subgroups, via class closures and pairwise joins.

        Every normal subgroup is a union of conjugacy classes and hence
        the join of the closures of the classes it contains, so closing
        the class-closure atoms under pairwise join yields exactly the
        normal lattice.  A class holding a power x^e, e prime to
        ord(x), of an earlier closed class's least member x is skipped:
        each of x and x^e is a power of the other, so it would close to
        the atom already pushed for x, which push() would discard.
        """
        if self._normals is not None:
            return self._normals
        comp = self.compose
        classes = self.conjugacy_classes()
        class_of = [0] * self.order
        for k, cls in enumerate(classes):
            for x in cls:
                class_of[x] = k
        covered = bytearray(len(classes))
        items: list[Subgroup] = []
        keys: set[tuple[int, ...]] = set()

        def push(s: Subgroup) -> None:
            if s.ids not in keys:
                keys.add(s.ids)
                items.append(s)
                if len(items) > LATTICE_CAP:
                    raise LatticeCapExceeded(
                        f"normal lattice exceeds {LATTICE_CAP} subgroups"
                    )

        for k, cls in enumerate(classes):
            if covered[k]:
                continue
            x = cls[0]
            powers = [0]  # powers[e] = x^e for 0 <= e < ord(x)
            y = x
            while y:
                powers.append(y)
                y = comp(y, x)
            n = len(powers)
            for e in range(2, n):
                if math.gcd(e, n) == 1:
                    covered[class_of[powers[e]]] = 1
            push(self.closure(cls))
        i = 0
        while i < len(items):
            a = items[i]
            for j in range(i):
                b = items[j]
                if self.order in (a.order, b.order):  # never build G's idset
                    continue
                if a.idset <= b.idset or b.idset <= a.idset:
                    continue
                # The join of normal A, B is AB, of order |A||B|/|A∩B|: past
                # |G|/2 it is G; an item of that order holding both is AB.
                join = a.order * b.order // len(a.idset & b.idset)
                if 2 * join > self.order:
                    push(self.whole_subgroup())
                elif not any(
                    c.order == join and a.idset <= c.idset and b.idset <= c.idset
                    for c in items
                ):
                    push(self.closure(a.gens + b.gens))
            i += 1
        self._normals = sorted(items, key=lambda s: (s.order, s.ids))
        return self._normals

    def quotient(self, normal: Subgroup) -> "QuotientGroup":
        if normal.group is not self:
            raise BadParams("subgroup belongs to a different group")
        if not normal.is_normal():
            raise NotNormal("cannot quotient by a non-normal subgroup")
        return QuotientGroup(self, normal)

    def sylow(self, ell: int) -> Subgroup:
        """The Sylow ell-subgroup reached by deterministic normalizer ascent.

        Seed with the lowest-id element of maximal ell-power order, then
        repeatedly adjoin the lowest-id ell-element of the normalizer
        that is still outside; each step multiplies the order by at
        least ell, and normalizer ell-elements keep the extension an
        ell-group.  The normalizer is never built: ids are scanned in
        ascending order and the first ell-element outside P that
        conjugates every generator of P into P is taken, which is the
        same element.
        """
        if ell in self._sylows:
            return self._sylows[ell]
        if not is_prime(ell):
            raise BadParams(f"{ell} is not prime")
        target = p_part(self.order, ell)
        if target == 1:
            raise PrimeDoesNotDivide(f"{ell} does not divide {self.order}")
        orders = self.element_orders()
        powers = {o for o in set(orders) if is_prime_power_of(o, ell)}
        p = self.closure((orders.index(max(powers)),))
        while p.order < target:
            inside = p.idset
            ext = -1
            for y, o in enumerate(orders):
                if o in powers and y not in inside and self.normalizes(y, p):
                    ext = y
                    break
            if ext < 0:
                raise AssertionError("normalizer ascent stalled; unreachable")
            p = self.closure(p.ids + (ext,))
        if p.order != target:
            raise AssertionError("ascent overshot the Sylow order; unreachable")
        self._sylows[ell] = p
        return p


class CyclicGroup(FiniteGroup):
    """C_n with generator residue 1; ids equal residues.

    Breadth-first discovery from residue 1 visits 0, 1, 2, ... in order,
    so the direct residue table below is exactly the enumerated one.
    """

    def __init__(self, n: int, cap: int = DEFAULT_ELEMENT_CAP):
        super().__init__(cap)
        if n < 1:
            raise BadParams(f"cyclic order {n} must be positive")
        self._check_cap(n)
        self.n = n
        self.order = n
        self.gens = (1,) if n > 1 else ()
        self.compose = lambda i, j: (i + j) % n
        self._finish()

    def invert(self, i: int) -> int:
        return (-i) % self.n

    def _element_orders(self) -> list[int]:
        n = self.n
        return [n // math.gcd(i, n) for i in range(n)]

    def __repr__(self) -> str:
        return f"C{self.n}"


class FieldAddGroup(FiniteGroup):
    """Additive group of a finite field; an id is the field element itself.

    The leaf composes with field.add and inverts with field.neg.  The
    generators are the codes 1, p, ..., p^(a-1) of the coefficient basis.
    """

    def __init__(self, field: FieldSpec, cap: int = DEFAULT_ELEMENT_CAP):
        super().__init__(cap)
        self._check_cap(field.order)
        self.field = field
        self.order = field.order
        self.gens = tuple(field.p**k for k in range(field.a))
        self.compose = field.add
        self._finish()

    def invert(self, i: int) -> int:
        return self.field.neg(i)

    def _element_orders(self) -> list[int]:
        return [1] + [self.field.p] * (self.order - 1)

    def __repr__(self) -> str:
        return f"F{self.field.p}^{self.field.a}+"


class _PairGroup(FiniteGroup):
    """Shared machinery for direct and semidirect pair nodes."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup, cap: int):
        super().__init__(cap)
        self.left = left
        self.right = right
        predicted = left.order * right.order
        self._check_cap(predicted)
        self.order = predicted
        self._nr = right.order
        self._ids = tuple(range(predicted))

    def _store(self, l_of: list[int], r_of: list[int]) -> tuple:
        """Index a complete enumeration; being complete, it is _whole."""
        if len(l_of) != self.order:
            raise GeneratorsDoNotGenerate(
                f"pair generators reached {len(l_of)} of {self.order} elements"
            )
        nr = self._nr
        id_of_code = [-1] * self.order
        for i, l, r in zip(self._ids, l_of, r_of):
            id_of_code[l * nr + r] = i
        self._l_of, self._r_of, self._id_of_code = l_of, r_of, id_of_code
        self.gens = tuple(
            dict.fromkeys(
                [id_of_code[gl * nr] for gl in self.left.gens]
                + [id_of_code[gr] for gr in self.right.gens]
            )
        )
        self._whole = Subgroup(self, self._ids, self.gens)
        return l_of, r_of, id_of_code

    def pair_of(self, i: int) -> tuple[int, int]:
        return self._l_of[i], self._r_of[i]

    def id_of_pair(self, l: int, r: int) -> int:
        return self._id_of_code[l * self._nr + r]

    def pair_map(self, fl: Sequence[int], fr: Sequence[int]) -> list[int]:
        """Child maps lifted to ids: [id of (fl[l], fr[r]) for each id (l, r)]."""
        ioc, nr = self._id_of_code, self._nr
        return [ioc[fl[l] * nr + fr[r]] for l, r in zip(self._l_of, self._r_of)]


class DirectProductGroup(_PairGroup):
    """Coordinatewise product of two enumerated groups."""

    def __init__(
        self, left: FiniteGroup, right: FiniteGroup, cap: int = DEFAULT_ELEMENT_CAP
    ):
        super().__init__(left, right, cap)
        # The BFS ranks of L x R from the factors' searches (module notes).
        _, lpost, dl = left._shortlex()
        rlayers, _, _ = right._shortlex()
        by_total: list[list[int]] = [[] for _ in range(max(dl) + len(rlayers))]
        for l in lpost:
            for k in range(len(rlayers)):
                by_total[dl[l] + k].append(l)
        l_of, r_of = [], []
        for total, same_total in enumerate(by_total):
            for l in same_total:
                layer = rlayers[total - dl[l]]
                l_of += [l] * len(layer)
                r_of += layer
        l_of, r_of, id_of_code = self._store(l_of, r_of)
        lcomp, rcomp, nr = left.compose, right.compose, self._nr
        self.compose = lambda i, j: id_of_code[
            lcomp(l_of[i], l_of[j]) * nr + rcomp(r_of[i], r_of[j])
        ]
        self._finish()

    def invert(self, i: int) -> int:
        l = self.left.invert(self._l_of[i])
        r = self.right.invert(self._r_of[i])
        return self._id_of_code[l * self._nr + r]

    def right_column(self, s: int) -> list[int]:
        l, r = self.pair_of(s)
        return self.pair_map(self.left.right_column(l), self.right.right_column(r))

    def left_column(self, s: int) -> list[int]:
        l, r = self.pair_of(s)
        return self.pair_map(self.left.left_column(l), self.right.left_column(r))

    def _element_orders(self) -> list[int]:
        lo = self.left.element_orders()
        ro = self.right.element_orders()
        return [math.lcm(lo[l], ro[r]) for l, r in zip(self._l_of, self._r_of)]

    def __repr__(self) -> str:
        return f"({self.left!r} x {self.right!r})"


class SemidirectProductGroup(_PairGroup):
    """Kernel-by-acting pair with (h1,g1)(h2,g2) = (h1 * g1.h2, g1 g2)."""

    def __init__(
        self,
        kernel: FiniteGroup,
        acting: FiniteGroup,
        action: Action,
        cap: int = DEFAULT_ELEMENT_CAP,
    ):
        if action.kernel is not kernel or action.acting is not acting:
            raise InvalidAction("action was tabulated for different groups")
        super().__init__(kernel, acting, cap)
        self.action = action
        rows = action.rows
        self._rinv = [rows[acting.invert(r)] for r in range(acting.order)]
        l_of, r_of, id_of_code = self._bfs()
        lcomp, rcomp, nr = kernel.compose, acting.compose, self._nr
        self.compose = lambda i, j: id_of_code[
            lcomp(l_of[i], rows[r_of[i]][l_of[j]]) * nr + rcomp(r_of[i], r_of[j])
        ]
        self._finish()

    def _bfs(self) -> tuple:
        """Enumerate by breadth-first right-multiplication by generators.

        States are (left-id, right-id) pairs packed as left*|R| + right.
        The packed code only dedupes states, so the discovery ranks
        depend on the Cayley graph and the generator order alone, not
        on how the children label their elements.  Steps read children's
        columns.
        """
        nr, rows, rinv = self._nr, self.action.rows, self._rinv
        lcols = [self.left.right_column(gl) for gl in self.left.gens]
        rcols = [self.right.right_column(gr) for gr in self.right.gens]
        seen = bytearray(self.order)
        seen[0] = 1
        l_of = [0]
        r_of = [0]
        for l1, r1 in zip(l_of, r_of):
            row, lr = rows[r1], rinv[r1][l1]
            steps = [(row[col[lr]], r1) for col in lcols]
            steps += [(l1, col[r1]) for col in rcols]
            for l, r in steps:
                code = l * nr + r
                if not seen[code]:
                    seen[code] = 1
                    l_of.append(l)
                    r_of.append(r)
        return self._store(l_of, r_of)

    def invert(self, i: int) -> int:
        r = self.right.invert(self._r_of[i])
        l = self.action.rows[r][self.left.invert(self._l_of[i])]
        return self._id_of_code[l * self._nr + r]

    def right_column(self, s: int) -> list[int]:
        """x·s = (l·φ_r(ls), r·rs) = (φ_r(φ_r⁻¹(l)·ls), r·rs)."""
        lc = self.left.right_column(self._l_of[s])
        rc = self.right.right_column(self._r_of[s])
        ioc, nr, rows, rinv = self._id_of_code, self._nr, self.action.rows, self._rinv
        return [
            ioc[rows[r][lc[rinv[r][l]]] * nr + rc[r]]
            for l, r in zip(self._l_of, self._r_of)
        ]

    def left_column(self, s: int) -> list[int]:
        """s·x = (ls·φ_rs(l), rs·r)."""
        ls, rs = self.pair_of(s)
        lc, row = self.left.left_column(ls), self.action.rows[rs]
        return self.pair_map([lc[h] for h in row], self.right.left_column(rs))

    def _element_orders(self) -> list[int]:
        """(l, r)^k = (l * r.l * ... * r^(k-1).l, r^k); stop at k = ord(r)."""
        lo = self.left.element_orders()
        ro = self.right.element_orders()
        lcomp = self.left.compose
        rcomp = self.right.compose
        rows = self.action.rows
        out = []
        for l, r in zip(self._l_of, self._r_of):
            m = ro[r]
            acc, g = l, r
            for _ in range(m - 1):
                acc = lcomp(acc, rows[g][l])
                g = rcomp(g, r)
            out.append(m * lo[acc])
        return out

    def __repr__(self) -> str:
        return f"({self.left!r} : {self.right!r})"


class QuotientGroup(FiniteGroup):
    """G/N addressed by minimal-id coset representatives.

    Scanning parent ids in ascending order and claiming whole cosets
    makes each first-touched id the minimum of its coset, so qids are
    ordered by minimal representative and qid 0 is the identity coset.
    """

    def __init__(self, parent: FiniteGroup, normal: Subgroup):
        super().__init__(parent._cap)
        self.parent = parent
        self.normal = normal
        reps: list[int] = []
        qid_of = [-1] * parent.order
        comp = parent.compose
        for x in range(parent.order):
            if qid_of[x] >= 0:
                continue
            q = len(reps)
            reps.append(x)
            for n_id in normal.ids:
                qid_of[comp(x, n_id)] = q
        if len(reps) * normal.order != parent.order:
            raise AssertionError("cosets do not tile the parent; unreachable")
        self._rep = reps
        self._qid_of = qid_of
        self.order = len(reps)
        self.gens = tuple(
            dict.fromkeys(q for q in (qid_of[g] for g in parent.gens) if q != 0)
        )
        self.compose = lambda i, j: qid_of[comp(reps[i], reps[j])]
        self._finish()

    def invert(self, i: int) -> int:
        return self._qid_of[self.parent.invert(self._rep[i])]

    def _element_orders(self) -> list[int]:
        """Least d with x^d in N, from the parent order o of each rep x.

        The exponents e with x^e in N are the multiples of d, and d | o,
        so dividing each prime out of o while x^(o/l) stays in N ends at d.
        """
        comp = self.parent.compose
        orders = self.parent.element_orders()
        inside = self.normal.idset

        def power(x: int, e: int) -> int:
            out = 0
            while e:
                if e & 1:
                    out = comp(out, x)
                x = comp(x, x)
                e >>= 1
            return out

        out = []
        for x in self._rep:
            o = orders[x]
            for ell in prime_divisors(o):
                while o % ell == 0 and power(x, o // ell) in inside:
                    o //= ell
            out.append(o)
        return out

    def nat(self, parent_id: int) -> int:
        """The natural projection on ids."""
        return self._qid_of[parent_id]

    def rep(self, qid: int) -> int:
        return self._rep[qid]

    def preimage_ids(self, qids: Iterable[int]) -> tuple[int, ...]:
        wanted = set(qids)
        qid_of = self._qid_of
        return tuple(
            x for x in range(self.parent.order) if qid_of[x] in wanted
        )

    def __repr__(self) -> str:
        return f"({self.parent!r})/(order {self.normal.order})"
