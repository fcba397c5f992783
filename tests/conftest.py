"""Shared fixtures, and small oracles that read the table directly.

The oracles compute by definition what the tests compare the engine with:
a generated subgroup, normality, a Klein four quotient and nilpotence by
the upper central series.
"""

from __future__ import annotations

import pytest

from ecov.analysis import center_members, is_cyclic
from ecov.groups import GroupTable, build_group, quotient
from ecov.lattice import Subgroup, get_lattice


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
