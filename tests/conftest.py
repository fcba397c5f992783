"""Shared fixtures, and small oracles that read the table directly.

The oracles compute by definition what the tests compare the engine with:
a generated subgroup, normality, a Klein four quotient, nilpotence by the
upper central series, the subgroup lattice by extending each class
representative by every coset minimum, and equal partitions by search.
"""

from __future__ import annotations

import pytest

from ecov.analysis import center_members, is_cyclic
from ecov.covering import (
    _SEARCH_BUDGET,
    Certificate,
    _Budget,
    _covering_family,
    _min_cover,
    _witness,
    qualifying_divisors,
)
from ecov.errors import SearchBudgetExceeded
from ecov.groups import GroupTable, _close, _is_prime, build_group, exponent, quotient
from ecov.lattice import Subgroup, SubgroupLattice, get_lattice


@pytest.fixture(scope="session")
def grp():
    """Session-cached group builder; lattices piggyback on the table cache."""
    cache: dict[str, GroupTable] = {}

    def make(spec: str) -> GroupTable:
        if spec not in cache:
            cache[spec] = build_group(spec)
        return cache[spec]

    return make


def generated(G: GroupTable, gens) -> tuple[int, ...]:
    """The members of <gens>: the identity closed under right multiplication by each generator."""
    rows = G.table.tolist()
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = rows[x][g]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return tuple(sorted(members))


def is_normal(G: GroupTable, members) -> bool:
    """Whether g x g^-1 lies in the member set for every g in G and x in it."""
    T, inv = G.table.tolist(), G.inverse
    inside = set(members)
    return all(T[T[g][x]][inv[g]] in inside for g in range(G.order) for x in inside)


def klein_quotient(G: GroupTable) -> Subgroup | None:
    """A normal index-4 subgroup from the lattice whose quotient is not cyclic, if any."""
    L = get_lattice(G)
    for H, normal in zip(L.subgroups, L.normal_flags):
        if normal and 4 * H.order == G.order and not is_cyclic(quotient(G, H.members)[0]):
            return H
    return None


def nilpotent_by_upper_central_series(G: GroupTable) -> bool:
    """Whether quotienting by the center again and again reaches the trivial group."""
    while True:
        z = center_members(G)
        if len(z) == G.order:
            return True
        if len(z) == 1:
            return False
        G, _ = quotient(G, z)


def lattice_by_every_coset_minimum(G: GroupTable) -> SubgroupLattice:
    """The lattice by cyclic extension, with no normaliser-orbit cut.

    Each class representative H is extended by the least element of every
    right coset Hg outside H, and each new subgroup's class is filled in by
    conjugating it, with its generators, by every element.  A proper H is
    maximal exactly when each of its extensions is G.
    """
    n = G.order
    T, inv = G.table.tolist(), G.inverse
    cols = G.table.T.tolist()
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}  # members -> generators
    orbits, maximal = [], set()

    def add_class(members, gens) -> list[tuple[int, ...]]:
        orbit = []
        for x in range(n):
            conj = tuple(sorted(T[T[x][m]][inv[x]] for m in members))
            if conj not in seen:
                seen[conj] = tuple(T[T[x][g]][inv[x]] for g in gens)
                orbit.append(conj)
        orbits.append([Subgroup.from_members(c) for c in orbit])
        return orbit

    worklist = [add_class((0,), ())]
    while worklist:
        orbit = worklist.pop()
        H = orbit[0]
        covered = set(H)
        any_proper = False
        for g in range(n):
            if g in covered:
                continue
            covered.update(cols[g][h] for h in H)
            gens = seen[H] + (g,)
            K = tuple(sorted(_close([cols[x] for x in gens], (0,))))
            any_proper = any_proper or len(K) < n
            if K not in seen:
                added = add_class(K, gens)
                if len(K) < n:
                    worklist.append(added)
        if len(H) < n and not any_proper:
            maximal.update(orbit)
    subs = tuple(Subgroup.from_members(m) for m in sorted(seen, key=lambda m: (len(m), m)))
    return SubgroupLattice(n, subs, orbits, tuple(s.members in maximal for s in subs))


def equal_partition_by_search(G: GroupTable) -> tuple[bool, Certificate | None]:
    """Equal partitions by search over the subgroup lattice, with no theorem.

    Candidate orders d are proper divisors with exp(G) | d (a partition is a
    covering) and (d-1) | (|G|-1) (the blocks tile the non-identity
    elements).  Distinct subgroups of prime order d meet trivially, so the
    union test decides d; a composite d runs the exact-cover search over the
    order-d subgroups.  The witness is the first order's blocks, sorted.
    """
    if is_cyclic(G):
        return False, None
    n = G.order
    for d in qualifying_divisors(n, exponent(G)):
        if (n - 1) % (d - 1):
            continue
        fams = _covering_family(get_lattice(G), d)
        if fams is None:
            continue
        if not _is_prime(d):
            found = _min_cover(fams, n, (n - 1) // (d - 1), _Budget(_SEARCH_BUDGET, SearchBudgetExceeded, "search"), disjoint=True)
            if found is None:
                continue
            fams = found[1]
        return True, _witness(G, "EqualPartition", "equal_partition_by_search", fams)
    return False, None
