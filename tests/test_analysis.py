"""Structural predicates, cross-checked against lattice-level definitions."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import pytest

from ecov import analysis, covering, groups
from ecov.analysis import (
    _elementary_coordinates,
    center_members,
    elementary_abelian_quotient,
    factorize,
    index_p_subgroups,
    is_abelian,
    is_cyclic,
    is_nilpotent,
    is_simple,
    is_square_free_distinct_primes,
    p_group_prime,
    smallest_prime_divisor,
    structure_report,
)
from ecov.census import catalog
from ecov.covering import decide, epsilon, rho, sigma
from ecov.errors import UndefinedForOne
from ecov.gf import factor_prime_power
from ecov.groups import _is_prime, build_group, exponent
from ecov.lattice import get_lattice

from conftest import (
    elementary_coordinates_through_the_quotient,
    generated,
    klein_quotient,
    nilpotent_by_upper_central_series,
)

# ---------------------------------------------------------------------------
# Integer helpers


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(7920) == {2: 4, 3: 2, 5: 1, 11: 1}


def test_smallest_prime_divisor():
    assert smallest_prime_divisor(2) == 2
    assert smallest_prime_divisor(15) == 3
    assert smallest_prime_divisor(97) == 97
    with pytest.raises(UndefinedForOne):
        smallest_prime_divisor(1)


def test_prime_helpers_match_a_sieve():
    limit = 10_000
    least = list(range(limit + 1))  # least prime factor, by the sieve of Eratosthenes
    for p in range(2, math.isqrt(limit) + 1):
        if least[p] == p:
            for q in range(p * p, limit + 1, p):
                least[q] = min(least[q], p)
    for n in range(1, limit + 1):
        want: dict[int, int] = {}
        m = n
        while m > 1:
            want[least[m]] = want.get(least[m], 0) + 1
            m //= least[m]
        assert list(factorize(n).items()) == list(want.items()), n
        assert _is_prime(n) is (n > 1 and least[n] == n), n
        assert factor_prime_power(n) == (next(iter(want.items())) if len(want) == 1 else None), n
        if n > 1:
            assert smallest_prime_divisor(n) == least[n], n


def test_square_free():
    assert is_square_free_distinct_primes(1)
    assert is_square_free_distinct_primes(30)
    assert not is_square_free_distinct_primes(12)
    assert not is_square_free_distinct_primes(49)


# ---------------------------------------------------------------------------
# Predicates on groups


@pytest.mark.parametrize(
    "spec,cyclic,abelian,pgroup,nilpotent,simple",
    [
        ("C1", True, True, False, True, False),
        ("C12", True, True, False, True, False),
        ("C7", True, True, True, True, True),
        ("C2xC3", True, True, False, True, False),
        ("E(2,3)", False, True, True, True, False),
        ("Q8", False, False, True, True, False),
        ("D8", False, False, True, True, False),
        ("D12", False, False, False, False, False),
        ("S3", False, False, False, False, False),
        ("S4", False, False, False, False, False),
        ("A4", False, False, False, False, False),
        ("A5", False, False, False, False, True),
        ("PSL(2,7)", False, False, False, False, True),
        ("W", False, False, False, False, False),
        ("C6xC2", False, True, False, True, False),
        ("E(2,4)", False, True, True, True, False),
        ("S6", False, False, False, False, False),
        ("C2xA5", False, False, False, False, False),
        ("A6", False, False, False, False, True),
        ("A7", False, False, False, False, True),
        ("PSL(2,16)", False, False, False, False, True),
        ("PSL(2,25)", False, False, False, False, True),
        ("M11", False, False, False, False, True),
        ("S7", False, False, False, False, False),
        ("C1510", True, True, False, True, False),
        ("C1600", True, True, False, True, False),
    ],
)
def test_predicate_table(grp, spec, cyclic, abelian, pgroup, nilpotent, simple):
    G = grp(spec)
    assert is_cyclic(G) is cyclic
    assert is_abelian(G) is abelian
    assert (p_group_prime(G) is not None) is pgroup
    assert is_nilpotent(G) is nilpotent
    assert is_simple(G) is simple


@pytest.mark.parametrize("spec,prime_classes", [("M11", 5), ("A7", 6)])
def test_is_simple_closes_only_prime_order_classes(grp, monkeypatch, spec, prime_classes):
    # ATLAS: the non-identity prime-order classes are 2A, 3A, 5A, 11A, 11B in
    # M11 and 2A, 3A, 3B, 5A, 7A, 7B in A7.  A simple group closes each once.
    closed = []
    normal_closure = analysis.normal_closure
    monkeypatch.setattr(analysis, "normal_closure", lambda G, xs: closed.append(xs) or normal_closure(G, xs))
    assert is_simple(grp(spec))
    assert len(closed) == prime_classes


def test_is_simple_matches_classification_over_catalog():
    # By the classification, the non-abelian simple groups of order below
    # 360 have order 60 (A5 = PSL(2,4) = PSL(2,5)) or 168 (PSL(2,7)); the
    # abelian ones have prime order.
    for entry in catalog(240):
        G = build_group(entry.spec)
        expected = factorize(G.order) == {G.order: 1} or entry.display in (
            "A5", "PSL(2,4)", "PSL(2,5)", "PSL(2,7)"
        )
        assert is_simple(G) is expected, entry.display
        # The generator-only center and abelian tests against all pairs.
        T = G.table
        assert center_members(G) == tuple(x for x in range(G.order) if (T[x] == T[:, x]).all())
        assert is_abelian(G) is bool((T == T.T).all())


@pytest.mark.parametrize("spec", ["A7", "C1600"])
def test_structure_report_builds_no_square_list(spec):
    # A nested-list copy of the table costs about 40 bytes a cell: 254 MB
    # for A7 and 102 MB for C1600.
    G = build_group(spec)
    tracemalloc.start()
    try:
        structure_report(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_p_group_prime(grp):
    assert p_group_prime(grp("Q8")) == 2
    assert p_group_prime(grp("E(3,2)")) == 3
    assert p_group_prime(grp("C1")) is None
    assert p_group_prime(grp("D12")) is None


@pytest.mark.parametrize(
    "spec,center_size",
    [("D12", 2), ("Q8", 2), ("S4", 1), ("A4", 1), ("E(2,3)", 8), ("Dic3", 2)],
)
def test_center_sizes(grp, spec, center_size):
    members = center_members(grp(spec))
    assert len(members) == center_size
    assert members[0] == 0


def test_nilpotence_matches_sylow_normality_up_to_60(grp):
    # Nilpotent iff every Sylow subgroup is unique (hence normal).
    for entry in catalog(60):
        G = build_group(entry.spec)
        L = get_lattice(G)
        expected = True
        for p, k in factorize(G.order).items():
            if len(L.of_order(p**k)) != 1:
                expected = False
                break
        assert is_nilpotent(G) is expected, entry.display
        # The lattice is the reference for the table-only simplicity test.
        assert (sum(L.normal_flags) == 2) is is_simple(G), entry.display


def test_nilpotence_matches_the_upper_central_series():
    specs = [entry.spec for entry in catalog(240)]
    specs += ["D1920", "D3840", "Dic480", "Dic960", "C2xA5", "S4xC2", "E(2,8)", "C1600"]
    for spec in specs:
        G = build_group(spec)
        assert is_nilpotent(G) is nilpotent_by_upper_central_series(G), spec


@pytest.mark.parametrize("spec,nilpotent", [("D1920", False), ("Dic480", False), ("C2xA5", False), ("Q8xC3", True)])
def test_nilpotence_builds_no_quotient(grp, monkeypatch, spec, nilpotent):
    def no_quotient(*args):
        raise AssertionError("quotient called")

    # analysis imports no quotient; these are the two bindings left.
    monkeypatch.setattr(groups, "quotient", no_quotient)
    monkeypatch.setattr(covering, "quotient", no_quotient)
    G = grp(spec)
    assert is_nilpotent(G) is nilpotent
    assert structure_report(G).is_nilpotent is nilpotent


def test_klein_quotient_detection(grp):
    for spec, expect in (
        ("D12", True),
        ("Q8", True),
        ("C2xC4", True),
        ("E(2,2)", True),
        ("C4", False),
        ("A4", False),
        ("S3", False),
        ("C2xC3", False),
    ):
        G = grp(spec)
        found = klein_quotient(G)
        assert (found is not None) is expect, spec
        # a Klein four quotient is G/N for N the intersection of two index-2 subgroups
        assert (len(index_p_subgroups(G, 2)) >= 2) is expect, spec
        if found is not None:
            assert G.order // found.order == 4
            # all squares fall into the witness subgroup
            assert all(G.table[g, g] in found.members for g in range(G.order))


def test_structure_report_fields(grp):
    rep = structure_report(grp("D12"))
    d = dataclasses.asdict(rep)
    assert d["order"] == 12 and d["exponent"] == 6
    assert not d["is_cyclic"] and not d["is_abelian"] and not d["is_nilpotent"]
    assert d["center_order"] == 2 and d["smallest_prime_divisor"] == 2
    assert not d["is_simple"] and not d["order_is_square_free"]

    rep1 = structure_report(grp("C1"))
    assert rep1.smallest_prime_divisor is None and rep1.center_order == 1


# ---------------------------------------------------------------------------
# Elementary abelian quotients and index-p subgroups


@pytest.mark.parametrize(
    "spec,p,rank",
    [
        ("C2xC4", 2, 2),
        ("D12", 2, 2),
        ("Q8", 2, 2),
        ("E(3,2)", 3, 2),
        ("E(2,5)", 2, 5),
        ("A4", 2, 0),
        ("S4", 2, 1),
        ("W", 2, 1),
        ("C12", 2, 1),
        ("C12", 3, 1),
    ],
)
def test_elementary_abelian_quotient_rank(grp, spec, p, rank):
    G = grp(spec)
    got_rank, kernel = elementary_abelian_quotient(G, p)
    assert got_rank == rank
    assert kernel.order * p**rank == G.order
    # the kernel absorbs all p-th powers and commutators
    for g in range(G.order):
        acc = 0
        for _ in range(p):
            acc = G.table[acc, g]
        assert acc in kernel.members


@pytest.mark.parametrize(
    "spec,p,count",
    [
        ("D12", 2, 3),
        ("C2xC4", 2, 3),
        ("E(2,3)", 2, 7),
        ("E(3,2)", 3, 4),
        ("S4", 2, 1),
        ("S4", 3, 0),  # S4 has three index-3 subgroups, none of them normal
        ("A4", 2, 0),
        ("Q8", 2, 3),
    ],
)
def test_index_p_subgroup_counts(grp, spec, p, count):
    G = grp(spec)
    subs = index_p_subgroups(G, p)
    assert len(subs) == count
    L = get_lattice(G)
    index_p = {s.members for s in L.of_order(G.order // p)}
    for members in subs:
        assert len(members) * p == G.order
        assert members in index_p
    if count:
        # the listing is exactly the index-p subgroups of the lattice
        assert {tuple(m) for m in subs} == index_p


def test_index_p_subgroups_are_the_normal_subgroups_of_index_p(grp):
    """For every catalog(64) group G and prime p dividing |G|, the listing is
    the lattice's normal subgroups of order |G|/p."""
    pairs = 0
    for entry in catalog(64):
        G = grp(entry.spec.text())
        L = get_lattice(G)
        for p in factorize(G.order):
            normal = [s.members for s, flag in zip(L.subgroups, L.normal_flags) if flag and s.order * p == G.order]
            assert index_p_subgroups(G, p) == sorted(normal), (entry.display, p)
            pairs += 1
    assert pairs == 374


def test_index_p_subgroups_are_genuine(grp):
    G = grp("D12")
    for members in index_p_subgroups(G, 2):
        assert generated(G, members) == members


def test_exponent_of_elementary_quotient_group(grp):
    # the quotient by the kernel really has exponent p
    from ecov.groups import quotient

    G = grp("D12")
    rank, kernel = elementary_abelian_quotient(G, 2)
    Q, _ = quotient(G, kernel.members)
    assert Q.order == 2**rank
    assert exponent(Q) == 2


def test_coordinates_grown_on_the_table_match_the_quotient_route():
    """_elementary_coordinates equals the coordinates read through G/N for
    every catalog(240) group and every prime dividing its order.  At rank 0
    only the shape is compared: the quotient route gives a float (n, 0) array."""
    specs = [entry.spec.text() for entry in catalog(240)] + ["E(2,9)", "E(3,6)", "C6xC21", "C2xC4000"]
    pairs = 0
    for spec in specs:
        G = build_group(spec)
        for p in factorize(G.order):
            got, want = _elementary_coordinates(G, p), elementary_coordinates_through_the_quotient(G, p)
            assert got.shape == want.shape, (spec, p)
            if want.shape[1]:
                assert got.dtype == want.dtype and (got == want).all(), (spec, p)
            pairs += 1
    assert pairs == 1950


def test_nilpotent_invariants_and_decisions_build_no_quotient(monkeypatch):
    def no_quotient(*args):
        raise AssertionError("quotient called")

    assert not hasattr(analysis, "quotient")
    monkeypatch.setattr(groups, "quotient", no_quotient)
    monkeypatch.setattr(covering, "quotient", no_quotient)
    checked = 0
    for entry in catalog(96):
        G = build_group(entry.spec)
        if is_nilpotent(G):
            decide(G)
            sigma(G)
            epsilon(G)
            rho(G)
            checked += 1
    assert checked == 254
