"""Subgroup enumeration and lattice annotations.

Subgroups are stored as bitmasks over element indices plus sorted member
tuples.  The full lattice is found by cyclic extension up to conjugacy
(Neubueser's method): only one representative per conjugacy class is
extended, by the least element of each right coset it does not cover, and
each new subgroup's class is filled in from the conjugation maps.  Both
annotations come out of the enumeration: a subgroup is normal exactly when
its class has one member, and a proper subgroup is maximal exactly when
every extension of its class representative is the whole group.
Every closure goes through one list kernel, ``groups._close``: a seed
closed under index maps, which are columns of the table (right
multiplications) or the conjugation maps.  A generated subgroup closes the
identity under its generators' columns; a normal closure adds the
conjugation maps, so it needs one map per seed element and per group
generator.  Only the lattice, whose extensions range over every element,
takes all columns at once.
Normal subgroups can also be found without the full lattice, as joins of
the normal closures of element classes, so decision rules can run on
groups too large to enumerate fully.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import LatticeLimitExceeded
from .groups import GroupTable, _close

__all__ = [
    "FULL_LATTICE_LIMIT",
    "Subgroup",
    "SubgroupLattice",
    "generated_subgroup",
    "enumerate_subgroups",
    "get_lattice",
    "maximal_subgroups",
    "normal_subgroups",
    "conjugacy_classes_of_subgroups",
    "is_normal",
    "element_conjugacy_classes",
    "normal_closure",
    "normal_subgroups_direct",
    "lattice_to_json",
]

FULL_LATTICE_LIMIT = 1500


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
        mask = 0
        for m in mem:
            mask |= 1 << m
        return cls(mask, mem, tuple(generators))

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


def generated_subgroup(G: GroupTable, generators) -> Subgroup:
    """The subgroup generated by the given element indices."""
    gens = tuple(sorted({int(g) for g in generators} - {0}))
    T = G.table
    return _subgroup(G, _close([T[:, g].tolist() for g in gens], (0,), G.order // 2), gens)


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


def enumerate_subgroups(G: GroupTable, limit: int = FULL_LATTICE_LIMIT) -> SubgroupLattice:
    """All subgroups of G by cyclic extension of one representative per class.

    Every subgroup K is <H, g> for a proper subgroup H.  If H = R^x for the
    representative R of its class, then K^(x^-1) = <R, g^(x^-1)> is an
    extension of R, so extending representatives reaches every class.  When
    an extension is new, a BFS over the conjugation maps adds its whole class.

    A proper H is maximal exactly when each of these extensions is G.  For
    H < K < G, take g in K outside H: the least element of the coset Hg is
    some h*g, so it lies in K and its extension lies in K.  Maximality is
    kept under conjugation, so the representative's flag holds for its
    class.
    """
    n = G.order
    if n > limit:
        raise LatticeLimitExceeded(
            f"group order {n} exceeds the lattice limit {limit}; raise --lattice-limit to force"
        )
    ints = np.arange(n).astype(object)
    cols = [ints[c].tolist() for c in G.table.T]  # n shared ints, not n^2 fresh ones
    identity = list(range(n))
    maps = [cmap for cmap in _conjugation_maps(G) if cmap != identity]
    seen: dict[int, Subgroup] = {}
    orbits: list[list[Subgroup]] = []
    maximal: set[int] = set()

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
        return orbit

    trivial = Subgroup.from_members((0,), ())
    worklist = [add_class(trivial)]
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
                covered |= 1 << cols[g][h]
        any_proper = False
        for g in minima:
            gens = H.generators + (g,)
            members = _close([cols[x] for x in gens], H.members + (g,), n // 2)
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


def get_lattice(G: GroupTable, limit: int = FULL_LATTICE_LIMIT) -> SubgroupLattice:
    """Full lattice of G, cached on G so that it is freed with G."""
    if G._lattice is None:
        G._lattice = enumerate_subgroups(G, limit)
    return G._lattice


def maximal_subgroups(L: SubgroupLattice) -> list[Subgroup]:
    """Proper subgroups contained in no larger proper subgroup."""
    flags = L.maximal_flags
    return [s for s, f in zip(L.subgroups, flags) if f]


def normal_subgroups(L: SubgroupLattice) -> list[Subgroup]:
    """Subgroups stable under conjugation (trivial and full included)."""
    flags = L.normal_flags
    return [s for s, f in zip(L.subgroups, flags) if f]


def conjugacy_classes_of_subgroups(L: SubgroupLattice) -> list[list[Subgroup]]:
    """Orbits of subgroups under conjugation by the whole group."""
    return [[L.subgroups[i] for i in cls] for cls in L.classes]


def is_normal(G: GroupTable, sub: Subgroup) -> bool:
    """Whether conjugation by every group generator preserves the subgroup."""
    return all(_conjugate_mask(cmap, sub) == sub.mask for cmap in _conjugation_maps(G))


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

    Let S be the identity closed under right multiplication by each x in
    X (the given elements) and under conjugation by each group generator.
    S lies in <X^G>, which is normal and holds X.  S is closed under
    conjugation by all of G, since the generators' conjugations generate
    the inner automorphisms.  So for s in S, x in X and g in G,
    s * g^-1 x g = g^-1 (g s g^-1 * x) g lies in S: S is closed under right
    multiplication by every conjugate of X, and holds the identity, so it
    holds <X^G>.  Hence S = <X^G>, from |X| + |gens| maps.
    """
    seed = tuple(sorted({int(x) for x in elements} - {0}))
    T = G.table
    maps = [T[:, x].tolist() for x in seed] + _conjugation_maps(G)
    return _subgroup(G, _close(maps, (0,), G.order // 2), seed)


def normal_subgroups_direct(G: GroupTable) -> list[Subgroup]:
    """All normal subgroups without enumerating the full lattice.

    A normal subgroup is the join of the normal closures <x^G> of the
    element classes it meets, and the join of normal N and M is N*M.  So
    the trivial subgroup, closed under products with each distinct class
    closure, gives every normal subgroup.  N*C is the union of the cosets
    Nc for c in C, one gather of the table each.  A join records the
    sorted class representatives it was built from as its generators.
    """
    n = G.order
    T = G.table
    closures = {}
    for cls in element_conjugacy_classes(G)[1:]:
        C = normal_closure(G, (cls[0],))
        closures.setdefault(C.mask, C)
    trivial = Subgroup.from_members((0,), ())
    seen: dict[int, Subgroup] = {trivial.mask: trivial}
    worklist = [trivial]
    while worklist:
        N = worklist.pop()
        rows = np.array(N.members)
        for C in closures.values():
            if N.contains(C):
                continue
            inside = np.zeros(n, dtype=bool)
            inside[rows] = True
            for c in C.members:
                if not inside[c]:
                    inside[T[rows, c]] = True
            members = np.flatnonzero(inside).tolist()
            gens = tuple(sorted(set(N.generators) | set(C.generators)))
            K = _subgroup(G, None if len(members) == n else members, gens)
            if K.mask not in seen:
                seen[K.mask] = K
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
