"""Subgroup enumeration against brute force, plus lattice annotations."""

from __future__ import annotations

import gc
import subprocess
import sys
import tracemalloc
import weakref
from itertools import combinations

import numpy as np
import pytest

from ecov import covering, lattice
from ecov.analysis import is_abelian
from ecov.census import catalog
from ecov.errors import LatticeLimitExceeded, SearchBudgetExceeded
from ecov.groups import _close, build_group
from ecov.lattice import (
    Subgroup,
    element_conjugacy_classes,
    enumerate_subgroups,
    get_lattice,
    lattice_to_json,
    maximal_subgroups,
    normal_closure,
    normal_subgroups,
    normal_subgroups_direct,
)

from conftest import generated, is_normal, lattice_by_every_coset_minimum


def brute_force_subgroups(G) -> set[tuple[int, ...]]:
    """Every subset containing the identity that is closed under the product.

    A finite subset closed under multiplication is closed under inverses,
    so this is exactly the subgroup collection.
    """
    n = G.order
    rows = G.table.tolist()
    found = {(0,)}
    rest = [g for g in range(n) if g]
    for size in range(1, n):
        for extra in combinations(rest, size):
            cand = {0, *extra}
            if all(rows[a][b] in cand for a in cand for b in cand):
                found.add(tuple(sorted(cand)))
    return found


@pytest.mark.parametrize("spec", ["C6", "D12", "Q8", "A4", "C2xC3", "E(2,3)", "Dic3"])
def test_enumeration_matches_brute_force(grp, spec):
    G = grp(spec)
    L = get_lattice(G)
    assert {s.members for s in L.subgroups} == brute_force_subgroups(G)


@pytest.mark.parametrize(
    "spec,count",
    [
        ("S3", 6),
        ("C6", 4),
        ("E(2,2)", 5),
        ("Q8", 6),
        ("D12", 16),
        ("A4", 10),
        ("S4", 30),
        ("A5", 59),
        ("E(2,4)", 67),
    ],
)
def test_subgroup_counts(grp, spec, count):
    assert len(get_lattice(grp(spec)).subgroups) == count


def test_lagrange_and_canonical_order(grp):
    for spec in ("D12", "S4", "W"):
        G = grp(spec)
        L = get_lattice(G)
        keys = [(s.order, s.members) for s in L.subgroups]
        assert keys == sorted(keys)
        assert all(G.order % s.order == 0 for s in L.subgroups)
        assert L.subgroups[0].members == (0,)
        assert L.subgroups[-1].order == G.order


def test_enumeration_is_deterministic(grp):
    G = grp("S4")
    a = enumerate_subgroups(G)
    b = enumerate_subgroups(G)
    assert [s.members for s in a.subgroups] == [s.members for s in b.subgroups]


def test_lattice_cache_reuses_object(grp):
    G = grp("A4")
    assert get_lattice(G) is get_lattice(G)


def test_lattice_cache_frees_the_group():
    G = build_group("S4")
    get_lattice(G)
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None


def test_lattice_cache_frees_the_group_without_the_cycle_collector():
    # A reference cycle between a group and its lattice would keep both
    # alive until the next full collection, so memory use would depend on
    # when that happens to run.
    gc.disable()
    try:
        G = build_group("PSL(2,7)")
        get_lattice(G)
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "spec,subgroups,classes",
    [
        ("S4", 30, 11),
        ("A5", 59, 9),
        ("PSL(2,7)", 179, 15),
        ("A6", 501, 22),
        ("PSL(2,9)", 501, 22),
        ("PSL(2,8)", 386, 12),
        ("PSL(2,11)", 620, 16),
        ("PSL(2,13)", 942, 16),
        ("S6", 1455, 56),
        ("A7", 3786, 40),
    ],
)
def test_subgroup_and_class_counts_match_theory(grp, spec, subgroups, classes):
    L = get_lattice(grp(spec))
    assert (len(L.subgroups), len(L.classes)) == (subgroups, classes)


def test_lattice_masks_are_subgroups_and_classes_are_orbits():
    """Over catalog(60): closure under the product, and each class one full orbit.

    Orbits are taken under conjugation by every element, not only by the
    generators the enumerator uses.
    """
    for entry in catalog(60):
        G = build_group(entry.spec)
        L = get_lattice(G)
        T = G.table
        for s in L.subgroups:
            inside = np.zeros(G.order, dtype=bool)
            inside[list(s.members)] = True
            assert inside[T[np.ix_(s.members, s.members)]].all(), entry.display
        assert sorted(i for cls in L.classes for i in cls) == list(range(len(L.subgroups)))
        assert [cls[0] for cls in L.classes] == sorted(cls[0] for cls in L.classes)
        for cid, cls in enumerate(L.classes):
            members = np.array(L.subgroups[cls[0]].members)
            orbit = {
                tuple(sorted(T[T[g, members], G.inverse[g]].tolist())) for g in range(G.order)
            }
            assert orbit == {L.subgroups[i].members for i in cls}, entry.display
            assert all(L.class_of[i] == cid for i in cls)


def test_lattice_matches_extension_by_every_coset_minimum():
    """Over catalog(64): one extension per normaliser orbit loses nothing."""
    for entry in catalog(64):
        G = build_group(entry.spec)
        assert lattice_to_json(get_lattice(G)) == lattice_to_json(lattice_by_every_coset_minimum(G)), entry.display


@pytest.mark.parametrize("spec", ["S5", "PSL(2,7)", "PSL(2,8)", "A6"])
def test_simple_and_symmetric_lattices_match_extension_by_every_coset_minimum(grp, spec):
    G = grp(spec)
    assert lattice_to_json(get_lattice(G)) == lattice_to_json(lattice_by_every_coset_minimum(G))


def test_psl_2_11_lattice_closes_one_extension_per_normaliser_orbit(monkeypatch):
    # Extending by every coset minimum takes 2,092 closures here, 1,099 of
    # them of extensions that are all of G; one per orbit takes 177.
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return _close(*args, **kwargs)

    monkeypatch.setattr(lattice, "_close", counting)
    enumerate_subgroups(build_group("PSL(2,11)"))
    assert len(calls) <= 200


def test_lattice_limit_enforced():
    """The group's order bounds no lattice; the work budget stops E(2,8)'s
    (order 256, about 417,000 subgroups) in bounded memory.

    The E(2,8) run is a child process that reports its own peak resident
    set (VmHWM), since tracemalloc slows this enumeration about ninefold;
    getrusage would report the forking parent's peak.
    """
    assert len(enumerate_subgroups(build_group("C1600")).subgroups) == 21  # divisors of 1600
    code = (
        "from ecov.errors import LatticeLimitExceeded\n"
        "from ecov.groups import build_group\n"
        "from ecov.lattice import get_lattice\n"
        "try:\n"
        "    get_lattice(build_group('E(2,8)'))\n"
        "except LatticeLimitExceeded:\n"
        "    print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    assert int(proc.stdout) < 160 * 1024  # kB; about 40 MB on Linux with numpy loaded


def recording_budgets(monkeypatch, module) -> list:
    """Patch module's _Budget with a subclass that keeps every budget it makes."""
    budgets = []

    class Recording(lattice._Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    monkeypatch.setattr(module, "_Budget", Recording)
    return budgets


# Units of one enumeration, measured before the lattice and the searches
# shared one budget class.  E(2,4) is abelian, so the normaliser pruning
# charges nothing there; S5 and PSL(2,7) show that charge.
@pytest.mark.parametrize(
    "spec,units",
    [("S4", 1_312), ("D8", 299), ("A5", 2_878), ("S5", 14_728), ("PSL(2,7)", 15_660), ("E(2,4)", 5_992), ("E(2,6)", 1_558_736)],
)
def test_lattice_spends_its_measured_units_and_stops_one_below(monkeypatch, spec, units):
    budgets = recording_budgets(monkeypatch, lattice)
    G = build_group(spec)
    whole = enumerate_subgroups(G)
    assert [b.spent for b in budgets] == [units]
    monkeypatch.setattr(lattice, "_LATTICE_BUDGET", units)
    assert len(enumerate_subgroups(G)) == len(whole)
    monkeypatch.setattr(lattice, "_LATTICE_BUDGET", units - 1)
    with pytest.raises(LatticeLimitExceeded) as exc:
        enumerate_subgroups(G)
    assert str(exc.value) == f"subgroup enumeration exceeded {units - 1} work units; the instance is beyond desk scale"


# Units of one search, measured as above.  The E(2,6) partition search is
# the search budget's binding case: with no group seen as nilpotent or
# abelian, rho reaches it instead of the Desarguesian spread.
@pytest.mark.parametrize(
    "spec,name,units",
    [
        ("S4", "sigma", 11), ("S4", "rho", 723), ("D12", "epsilon", 7), ("D12", "rho", 104), ("S5", "sigma", 395),
        ("A5", "rho", 21_533), ("PSL(2,7)", "sigma", 341), ("E(2,6)", "rho", 4_688_566),
    ],
)
def test_searches_spend_their_measured_units_and_stop_one_below(grp, monkeypatch, spec, name, units):
    monkeypatch.setattr(covering, "is_nilpotent", lambda G: False)
    monkeypatch.setattr(covering, "is_abelian", lambda G: False)
    G = grp(spec)
    get_lattice(G)
    search = getattr(covering, name)
    budgets = recording_budgets(monkeypatch, covering)
    search(G)
    assert [b.spent for b in budgets] == [units]
    monkeypatch.setattr(covering, "_SEARCH_BUDGET", units - 1)
    with pytest.raises(SearchBudgetExceeded) as exc:
        search(G)
    assert str(exc.value) == f"search exceeded {units - 1} work units; the instance is beyond desk scale"


def test_q8_maximal_subgroups(grp):
    G = grp("Q8")
    L = get_lattice(G)
    maxes = maximal_subgroups(L)
    assert [m.order for m in maxes] == [4, 4, 4]
    assert all(is_normal(G, m.members) for m in maxes)
    # one involution, and every nontrivial subgroup contains it
    central = next(g for g in range(8) if g and G.table[g, g] == 0)
    assert all(central in s.members for s in L.subgroups if s.order > 1)


@pytest.mark.parametrize(
    "spec,count",
    [
        ("S4", 8),  # A4, 3 D8, 4 S3
        ("S5", 22),  # A5, 5 S4, 6 of order 20, 10 S3xS2
        ("A5", 21),  # 5 A4, 6 D10, 10 S3
        ("PSL(2,7)", 22),  # 7 + 7 S4, 8 of order 21
        ("A6", 52),  # 6 + 6 A5, 10 of order 36, 15 + 15 S4
        ("PSL(2,8)", 73),  # 9 of order 56, 28 D18, 36 D14
        ("PSL(2,11)", 89),  # 11 + 11 A5, 12 of order 55, 55 A4
        ("PSL(2,13)", 274),  # 14 of order 78, 91 D12, 78 D14, 91 A4
        ("S6", 53),  # A6, 6 + 6 S5, 10 S3 wr S2, 15 S4xS2, 15 S2 wr S3
        ("D12", 6),  # C6, 2 D6, 3 Klein four-groups
        ("Q8", 3),  # 3 cyclic of order 4
        ("E(2,6)", 63),  # hyperplanes: (p^k - 1)/(p - 1)
        ("E(3,4)", 40),
    ],
)
def test_maximal_subgroup_counts_match_theory(grp, spec, count):
    assert len(maximal_subgroups(get_lattice(grp(spec)))) == count


def test_psl_2_13_maximal_subgroups_by_order_and_largest_element_order(grp):
    """14 Borel subgroups 13:6, 91 D12, 78 D14 and 91 A4 (Dickson).

    Each is self-normalising, so a class has 1092 / |M| members.  D12 and
    A4 share their order; D12 has an element of order 6, A4 none.
    """
    G = grp("PSL(2,13)")
    orders = G.element_orders()
    shapes: dict[tuple[int, int], int] = {}
    for M in maximal_subgroups(get_lattice(G)):
        key = (M.order, max(orders[x] for x in M.members))
        shapes[key] = shapes.get(key, 0) + 1
    assert shapes == {(78, 13): 14, (12, 6): 91, (14, 7): 78, (12, 3): 91}


def test_maximal_flags_match_the_definition():
    """Over catalog(60): flagged exactly when proper and no lattice member
    lies strictly between the subgroup and G."""
    for entry in catalog(60):
        L = get_lattice(build_group(entry.spec))
        n = L.order
        for H, flag in zip(L.subgroups, L.maximal_flags):
            between = any(H.order < K.order < n and K.contains(H) for K in L.subgroups)
            assert flag == (H.order < n and not between), (entry.display, H)


def test_normal_subgroups_s4_and_a5(grp):
    L4 = get_lattice(grp("S4"))
    assert sorted(s.order for s in normal_subgroups(L4)) == [1, 4, 12, 24]
    L5 = get_lattice(grp("A5"))
    assert sorted(s.order for s in normal_subgroups(L5)) == [1, 60]


def nonabelian_specs(max_order: int) -> list[str]:
    return [e.spec.text() for e in catalog(max_order) if not is_abelian(build_group(e.spec))]


SCAN_SPECS = ["S4", "D12", "A4", "Q8", "C6xC2", "W"]
DICYCLIC_SPECS = [e.spec.text() for e in catalog(240) if e.spec.family == "dicyclic"]


@pytest.mark.parametrize(
    "spec",
    SCAN_SPECS
    + [s for s in dict.fromkeys(nonabelian_specs(60) + DICYCLIC_SPECS + ["S5", "S6"]) if s not in SCAN_SPECS]
)
def test_direct_normal_scan_agrees_with_lattice(grp, spec):
    G = grp(spec)
    L = get_lattice(G)
    direct = {s.members for s in normal_subgroups_direct(G)}
    assert direct == {s.members for s in normal_subgroups(L)}


def test_conjugacy_classes_of_subgroups(grp):
    G = grp("S3")
    L = get_lattice(G)
    classes = [[L.subgroups[i] for i in cls] for cls in L.classes]
    assert len(classes) == 4  # trivial, the three reflections, rotation, full
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 1, 1, 3]
    for cls in classes:
        assert len({s.order for s in cls}) == 1


def test_element_conjugacy_classes_s3(grp):
    classes = element_conjugacy_classes(grp("S3"))
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    assert sum(len(c) for c in classes) == 6


def test_normal_closure_matches_minimal_normal_over(grp):
    """Over the non-abelian catalog(60) groups, the closure of every element
    and of a spread of pairs is the intersection of the lattice's normal
    subgroups that contain the seed."""
    for spec in nonabelian_specs(60):
        G = grp(spec)
        n = G.order
        normals = normal_subgroups(get_lattice(G))
        seeds = [(x,) for x in range(n)]
        seeds += [(x, y) for x in range(1, n, 5) for y in range(x + 1, n, 7)]
        for seed in seeds:
            want = Subgroup.from_members((0, *seed)).mask
            meet = (1 << n) - 1
            for s in normals:
                if s.mask & want == want:
                    meet &= s.mask
            closure = normal_closure(G, seed)
            assert closure.mask == meet, (spec, seed)
            assert is_normal(G, closure.members)
            recorded = G.generators if closure.order == n else tuple(sorted(set(seed) - {0}))
            assert closure.generators == recorded, (spec, seed)


def num_divisors(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_dihedral_normal_subgroup_counts_match_theory():
    """D(2n) has tau(n) + 1 normal subgroups for odd n and tau(n) + 3 for even n:
    every rotation subgroup, G, and for even n the two dihedral halves of
    index 2."""
    for entry in catalog(240):
        if entry.spec.family != "dihedral":
            continue
        n = entry.order // 2
        want = num_divisors(n) + (3 if n % 2 == 0 else 1)
        assert len(normal_subgroups_direct(build_group(entry.spec))) == want, entry.display


def test_dicyclic_normal_subgroup_counts_match_theory():
    """Dic_n = <a, b | a^2n, b^2 = a^n, b^-1 a b = a^-1> has tau(2n) + 1 normal
    subgroups for odd n and tau(2n) + 3 for even n: every subgroup of <a>,
    G, and for even n the two halves <a^2, b> and <a^2, ab> of index 2."""
    assert DICYCLIC_SPECS[-1] == "Dic60"
    for spec in DICYCLIC_SPECS:
        G = build_group(spec)
        n = G.order // 4
        want = num_divisors(2 * n) + (3 if n % 2 == 0 else 1)
        assert len(normal_subgroups_direct(G)) == want, spec


def test_normal_scan_closes_one_class_of_cyclic_subgroups_once(monkeypatch):
    """Dic60 has 62 non-identity element classes but 17 classes of
    non-trivial cyclic subgroups: 15 in <a> of order 120 and two generated
    by a^i b.  x and x^k with k prime to |x| generate one cyclic subgroup,
    so they have one normal closure."""
    calls = []
    closure = lattice.normal_closure
    monkeypatch.setattr(lattice, "normal_closure", lambda G, seed: calls.append(seed) or closure(G, seed))
    G = build_group("Dic60")
    assert len(element_conjugacy_classes(G)) == 63
    assert len(normal_subgroups_direct(G)) == 19
    assert len(calls) == 17


def test_normal_scan_builds_no_square_list():
    """The scan gathers each product N*C from N's table rows at C's columns,
    in row blocks of at most ``groups._LIGHT_BLOCK_CELLS`` cells, so its
    temporaries stay near that size whatever |N| and |C| are."""
    G = build_group("D600")
    tracemalloc.start()
    try:
        normals = normal_subgroups_direct(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(normals) == 21  # 18 rotation subgroups, two dihedral halves of index 2, G
    assert peak < 5_000_000, f"peak {peak / 1e6:.1f} MB"


def test_lattice_builds_no_square_list():
    """Closures read the int16 table's rows in place: no n x n copy of it,
    which for PSL(2,13) as Python lists would take about 9.5 MB."""
    G = build_group("PSL(2,13)")
    tracemalloc.start()
    try:
        L = enumerate_subgroups(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(L) == 942
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_generated_subgroup(grp):
    """Each lattice subgroup is generated by the generators it records."""
    for spec in ("D12", "S4", "Q8xC3"):
        G = grp(spec)
        for H in get_lattice(G).subgroups:
            assert generated(G, H.generators) == H.members, (spec, H)


def test_subgroups_of_order(grp):
    L = get_lattice(grp("D12"))
    assert [s.order for s in L.of_order(6)] == [6, 6, 6]
    assert L.of_order(5) == []


def test_subgroup_value_semantics(grp):
    G = grp("C6")
    a = next(s for s in get_lattice(G).subgroups if s.order == 3)
    b = Subgroup.from_members((0, 2, 4), (4,))
    assert a == b and hash(a) == hash(b)
    trivial = Subgroup.from_members((0,), ())
    assert a.contains(trivial) and not trivial.contains(a)


def test_lattice_json_export(grp):
    G = grp("Q8")
    L = get_lattice(G)
    doc = lattice_to_json(L)
    assert len(doc) == len(L.subgroups)
    assert doc[0] == {
        "order": 1,
        "members": [0],
        "maximal": False,
        "normal": True,
        "class": 0,
    }
    assert all(set(row) == {"order", "members", "maximal", "normal", "class"} for row in doc)


def test_conjugation_maps_are_built_once_per_group():
    G = build_group("S4")
    maps = lattice._conjugation_maps(G)
    T = G.table
    assert maps == [[T[T[g, x], G.inverse[g]] for x in range(G.order)] for g in G.generators]
    element_conjugacy_classes(G)
    normal_subgroups_direct(G)
    assert lattice._conjugation_maps(G) is maps
