"""Subgroup enumeration and lattice annotations.

Subgroups are stored as bitmasks over element indices plus sorted member
tuples.  The full lattice is found by cyclic extension up to conjugacy
(Neubueser's method): only one representative per conjugacy class is
extended, by the least element of each right coset it does not cover, and
each new subgroup's class is filled in from the conjugation maps.  For x
normalising H, <H, x^-1 g x> = x^-1 <H, g> x lies in the class of <H, g>,
so only one coset Hg per orbit of the normaliser N_G(H) is extended.  Both
annotations come out of the enumeration: a subgroup is normal exactly when
its class has one member, and a proper subgroup is maximal exactly when
every extension of its class representative is the whole group.
Every closure goes through one kernel, ``groups._close``: a seed closed
under index maps, which are the conjugation maps or rows of the table,
left multiplications read in place as memoryviews, so no closure copies
the table.  A normal closure takes its seed elements' rows.
The enumeration charges its work to one _Budget, which raises
LatticeLimitExceeded past _LATTICE_BUDGET units, so the cost of a lattice,
not the group's order, decides whether it is built.  Normal subgroups can
also be found without the full lattice, as joins of the normal closures of
element classes, so decision rules can run on groups whose lattice is
beyond the budget.  That scan takes one normal closure per class of cyclic
subgroups, and gathers a join from the table only when its result is not
already known.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import LatticeLimitExceeded
from .groups import GroupTable, _close, _gather_blocks

__all__ = [
    "Subgroup",
    "SubgroupLattice",
    "enumerate_subgroups",
    "get_lattice",
    "maximal_subgroups",
    "normal_subgroups",
    "element_conjugacy_classes",
    "normal_closure",
    "normal_subgroups_direct",
    "lattice_to_json",
]

_LATTICE_BUDGET = 60_000_000


class _Budget:
    """Work units a computation may spend; past the limit, tick raises
    ``error`` with a message that names ``subject``."""

    __slots__ = ("spent", "limit", "error", "subject")

    def __init__(self, limit: int, error: type[Exception], subject: str):
        self.spent, self.limit, self.error, self.subject = 0, limit, error, subject

    def tick(self, cost: int):
        self.spent += cost
        if self.spent > self.limit:
            raise self.error(f"{self.subject} exceeded {self.limit} work units; the instance is beyond desk scale")


def _mask(members) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


class Subgroup:
    """A subgroup as a bitmask plus its sorted members."""

    __slots__ = ("mask", "order", "members", "generators")

    def __init__(self, mask: int, members: tuple[int, ...], generators: tuple[int, ...]):
        self.mask = mask
        self.order = len(members)
        self.members = members
        self.generators = generators

    @classmethod
    def from_members(cls, members, generators=()) -> "Subgroup":
        mem = tuple(sorted(members))
        return cls(_mask(mem), mem, tuple(generators))

    def contains(self, other: "Subgroup") -> bool:
        return self.mask & other.mask == other.mask

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={self.members[:6]}{'...' if self.order > 6 else ''})"


def _subgroup(G: GroupTable, members: set[int] | None, generators: tuple[int, ...]) -> Subgroup:
    """A ``_close`` result as a Subgroup; None (closed past half) means all of G."""
    if members is None:
        n = G.order
        return Subgroup((1 << n) - 1, tuple(range(n)), G.generators)
    return Subgroup.from_members(members, generators)


def _conjugation_maps(G: GroupTable) -> list[list[int]]:
    """For each group generator g, the map x -> g x g^-1, cached on G.

    Callers must not modify the returned lists.
    """
    if G._conjugation is None:
        T = G.table
        G._conjugation = [T[T[g], G.inverse[g]].tolist() for g in G.generators]
    return G._conjugation


def _conjugate_mask(cmap: list[int], H: Subgroup) -> int:
    """Bitmask of the image of H under one conjugation map."""
    conj = 0
    for x in H.members:
        conj |= 1 << cmap[x]
    return conj


@dataclass(eq=False)
class SubgroupLattice:
    """Every subgroup of a group, its conjugacy classes and annotations.

    Built from the subgroups, their conjugation orbits and the maximality
    flags the enumeration found.  ``classes`` lists the subgroup indices of
    each orbit in ascending order, and the classes are numbered by their
    least index.  It holds the group's order, not the group, so a group and
    its cached lattice form no reference cycle.
    """

    order: int
    subgroups: tuple[Subgroup, ...]
    orbits: InitVar[list[list[Subgroup]]]
    maximal_flags: tuple[bool, ...] = field(repr=False)
    classes: tuple[tuple[int, ...], ...] = field(init=False)
    class_of: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self, orbits):
        index = {s.mask: i for i, s in enumerate(self.subgroups)}
        self.classes = tuple(sorted(tuple(sorted(index[S.mask] for S in orbit)) for orbit in orbits))
        class_of = [0] * len(self.subgroups)
        for cid, cls in enumerate(self.classes):
            for i in cls:
                class_of[i] = cid
        self.class_of = tuple(class_of)

    def of_order(self, d: int) -> list[Subgroup]:
        return [s for s in self.subgroups if s.order == d]

    @property
    def normal_flags(self) -> tuple[bool, ...]:
        """A subgroup is normal exactly when its conjugacy class is itself alone."""
        return tuple(len(self.classes[c]) == 1 for c in self.class_of)

    def __len__(self) -> int:
        return len(self.subgroups)


def enumerate_subgroups(G: GroupTable) -> SubgroupLattice:
    """All subgroups of G by cyclic extension of one representative per class.

    Every subgroup K is <H, g> for a proper subgroup H.  If H = R^x for the
    representative R of its class, then K^(x^-1) = <R, g^(x^-1)> is an
    extension of R, so extending representatives reaches every class.  When
    an extension is new, a BFS over the conjugation maps adds its whole class.

    In a non-abelian group, H is extended by one coset minimum per orbit of
    N_G(H) on the cosets Hg: for x in N_G(H), <H, x^-1 g x> = x^-1 <H, g> x
    is proper exactly when <H, g> is, and its class was added with <H, g>,
    so the lattice and flags are unchanged.  For x in H the orbit is HgH.

    A proper H is maximal exactly when each of these extensions is G.  For
    H < K < G, take g in K outside H: the least element of the coset Hg is
    some h*g, so it lies in K and its extension lies in K.  Maximality is
    kept under conjugation, so the representative's flag holds for its
    class.

    Work is counted, not timed, so the machine changes no answer.  A unit
    is one element the coset scan tests or marks (n - 1, plus |H| per coset
    minimum), one table entry that the normaliser pruning reads (one per
    conjugate it forms) or a closure reads (its size, or n // 2 + 1 when it
    passes half of G, times its generators), or one member of a new class.
    Past _LATTICE_BUDGET units, the enumeration's _Budget raises LatticeLimitExceeded.
    """
    n = G.order
    R = [memoryview(row) for row in G.table]  # R[a][b] is a*b, read from the table in place
    identity = list(range(n))
    inv = G.inverse
    maps = [cmap for cmap in _conjugation_maps(G) if cmap != identity]
    seen: dict[int, Subgroup] = {}
    orbits: list[list[Subgroup]] = []
    maximal: set[int] = set()
    budget = _Budget(_LATTICE_BUDGET, LatticeLimitExceeded, "subgroup enumeration")

    def add_class(K: Subgroup) -> list[Subgroup]:
        seen[K.mask] = K
        orbit = [K]
        for S in orbit:
            for cmap in maps:
                mask = _conjugate_mask(cmap, S)
                if mask not in seen:
                    C = Subgroup(
                        mask,
                        tuple(sorted(cmap[x] for x in S.members)),
                        tuple(cmap[g] for g in S.generators),
                    )
                    seen[mask] = C
                    orbit.append(C)
        orbits.append(orbit)
        budget.tick(K.order * len(orbit))
        return orbit

    worklist = [add_class(Subgroup.from_members((0,), ()))]
    while worklist:
        orbit = worklist.pop()
        H = orbit[0]
        covered = H.mask
        minima = []
        for g in range(1, n):
            if (covered >> g) & 1:
                continue
            minima.append(g)
            for h in H.members:
                covered |= 1 << R[h][g]
        budget.tick(n - 1 + H.order * len(minima))
        if maps and len(minima) > 1:  # a lone minimum is its own orbit
            index = n // (H.order * len(orbit))  # |N_G(H) : H|
            known = index in (1, len(minima) + 1)  # N_G(H) is H or G; else Hg lies in it when g^-1 H g = H
            normalising = [g for g in [0, *minima] if known or all(H.mask >> R[R[inv[g]][h]][g] & 1 for h in H.generators)]
            label = {R[h][g]: g for g in minima for h in H.members}  # the least element of each coset Hy outside H
            conj = [(R[inv[x]], x) for g in normalising[:index] for x in (R[h][g] for h in H.members)]
            kept, reached = [], set()
            for g in minima:
                if g not in reached:
                    kept.append(g)
                    reached.update([label[R[rx[g]][x]] for rx, x in conj])  # cosets of x^-1 g x
            minima = kept
            budget.tick(len(conj) * len(kept))
        any_proper = False
        for g in minima:
            gens = H.generators + (g,)
            members = _close([R[x] for x in gens], H.members + (g,), n // 2)
            budget.tick((n // 2 + 1 if members is None else len(members)) * len(gens))
            any_proper = any_proper or members is not None
            K = _subgroup(G, members, gens)
            if K.mask not in seen:
                added = add_class(K)
                if K.order < n:
                    worklist.append(added)
        if H.order < n and not any_proper:
            maximal.update(S.mask for S in orbit)
    subs = tuple(sorted(seen.values(), key=lambda s: (s.order, s.members)))
    return SubgroupLattice(n, subs, orbits, tuple(s.mask in maximal for s in subs))


def get_lattice(G: GroupTable) -> SubgroupLattice:
    """Full lattice of G, cached on G so that it is freed with G."""
    if G._lattice is None:
        G._lattice = enumerate_subgroups(G)
    return G._lattice


def maximal_subgroups(L: SubgroupLattice) -> list[Subgroup]:
    """Proper subgroups contained in no larger proper subgroup."""
    flags = L.maximal_flags
    return [s for s, f in zip(L.subgroups, flags) if f]


def normal_subgroups(L: SubgroupLattice) -> list[Subgroup]:
    """Subgroups stable under conjugation (trivial and full included)."""
    flags = L.normal_flags
    return [s for s, f in zip(L.subgroups, flags) if f]


def element_conjugacy_classes(G: GroupTable) -> list[tuple[int, ...]]:
    """Conjugacy classes of elements, sorted by least member."""
    maps = _conjugation_maps(G)
    assigned: set[int] = set()
    classes = []
    for start in range(G.order):
        if start not in assigned:
            orbit = _close(maps, (start,))
            assigned |= orbit
            classes.append(tuple(sorted(orbit)))
    return classes


def normal_closure(G: GroupTable, elements) -> Subgroup:
    """Least normal subgroup containing the given elements.

    Let S be the identity closed under left multiplication by each x in
    X (the given elements) and under conjugation by each group generator.
    S lies in <X^G>, which is normal and holds X.  S is closed under
    conjugation by all of G, since the generators' conjugations generate
    the inner automorphisms.  So for s in S, x in X and g in G,
    g^-1 x g * s = g^-1 (x * g s g^-1) g lies in S: S is closed under left
    multiplication by every conjugate of X, and holds the identity, so it
    holds <X^G>.  Hence S = <X^G>, from |X| + |gens| maps.
    """
    seed = tuple(sorted({int(x) for x in elements} - {0}))
    maps = [memoryview(G.table[x]) for x in seed] + _conjugation_maps(G)
    return _subgroup(G, _close(maps, (0,), G.order // 2), seed)


def normal_subgroups_direct(G: GroupTable) -> list[Subgroup]:
    """All normal subgroups without enumerating the full lattice.

    A normal subgroup is the join of the normal closures <x^G> of the
    element classes it meets, and the join of normal N and M is N*M.  So
    the trivial subgroup, closed under products with each distinct class
    closure, gives every normal subgroup.  A join records the sorted class
    representatives it was built from as its generators.

    For k prime to |x|, <x^k> = <x>, so x^k has the normal closure of x:
    one closure is taken per class of cyclic subgroups, from the class
    representative met first, and the classes of its x^k are skipped.  A product N*C is skipped when its result is already known:
    C lies in N (N*C = N); N lies in C with N not trivial (N*C = C, found
    from the trivial subgroup, which is processed first); or G has been
    found and |N||C|/|N & C| = |G|.  Every other product is gathered from
    the table, N's rows at C's columns, in row blocks, and becomes a
    Subgroup only when its mask is new.
    """
    n = G.order
    T = G.table
    classes = element_conjugacy_classes(G)
    class_of = np.empty(n, dtype=np.intp)
    for i, cls in enumerate(classes):
        class_of[list(cls)] = i
    done = np.zeros(len(classes), dtype=bool)
    closures = {}
    for i, cls in enumerate(classes[1:], 1):
        if done[i]:
            continue
        x = cls[0]
        C = normal_closure(G, (x,))
        closures.setdefault(C.mask, C)
        powers = [x]  # x^1, x^2, ..., x^|x| = 1
        while powers[-1]:
            powers.append(int(T[x, powers[-1]]))
        order = len(powers)
        done[class_of[[y for k, y in enumerate(powers, 1) if math.gcd(k, order) == 1]]] = True
    full = (1 << n) - 1
    trivial = Subgroup.from_members((0,), ())
    seen: dict[int, Subgroup] = {trivial.mask: trivial}
    worklist = [trivial]
    columns = [(C, np.array(C.members)) for C in closures.values()]
    while worklist:
        N = worklist.pop()
        rows = np.array(N.members)
        for C, cols in columns:
            if N.contains(C) or (N.order > 1 and C.contains(N)):
                continue
            if full in seen and N.order * C.order == n * (N.mask & C.mask).bit_count():
                continue
            inside = np.zeros(n, dtype=bool)
            for _, block in _gather_blocks(T, rows, cols):
                inside[block] = True
            mask = int.from_bytes(np.packbits(inside, bitorder="little").tobytes(), "little")
            if mask not in seen:
                gens = tuple(sorted(set(N.generators) | set(C.generators)))
                if mask == full:
                    K = _subgroup(G, None, gens)
                else:
                    K = Subgroup(mask, tuple(np.flatnonzero(inside).tolist()), gens)
                seen[mask] = K
                worklist.append(K)
    return sorted(seen.values(), key=lambda s: (s.order, s.members))


def lattice_to_json(L: SubgroupLattice) -> list[dict]:
    """Annotation export: order, members, maximality, normality, class id."""
    maximal = L.maximal_flags
    normal = L.normal_flags
    class_of = L.class_of
    return [
        {
            "order": s.order,
            "members": list(s.members),
            "maximal": maximal[i],
            "normal": normal[i],
            "class": class_of[i],
        }
        for i, s in enumerate(L.subgroups)
    ]
