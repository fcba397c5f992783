"""Decision ladder, certificates, hint path, and covering invariants."""

from __future__ import annotations

import json
import math
import re
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from ecov import covering, lattice
from ecov.analysis import index_p_subgroups, is_cyclic, is_nilpotent
from ecov.census import catalog
from ecov.covering import (
    _LADDER,
    CITATIONS,
    INFINITY,
    Certificate,
    _Budget,
    _min_cover,
    decide,
    decide_with_hints,
    epsilon,
    equal_covering_exhaustive,
    equal_partition_exists,
    load_hints,
    qualifying_divisors,
    rho,
    sigma,
    verify_certificate,
)
from ecov.errors import (
    HintFileError,
    InconclusiveHints,
    LatticeLimitExceeded,
    RulesInconclusive,
    SearchBudgetExceeded,
    SpecError,
)
from ecov.groups import _is_prime, build_group, exponent, semidirect_product
from ecov.lattice import Subgroup, get_lattice, maximal_subgroups

from conftest import equal_partition_by_search

HINTS_DIR = "src/ecov/data/hints"

# ---------------------------------------------------------------------------
# Divisors and certificate plumbing


def test_qualifying_divisors():
    assert qualifying_divisors(12, 6) == [6]
    assert qualifying_divisors(24, 12) == [12]
    assert qualifying_divisors(8, 2) == [2, 4]
    assert qualifying_divisors(6, 6) == []
    assert qualifying_divisors(1, 1) == []


def test_certificate_json_roundtrip():
    cert = Certificate("EqualCovering", ((0, 1), (0, 2)))
    doc = cert.to_json("D4")
    assert doc == {"mode": "EqualCovering", "group": "D4", "members": [[0, 1], [0, 2]]}
    assert Certificate.from_json(doc) == cert

    strict = Certificate("StrictSPartition", ((0, 1), (0, 2)), s_members=(0,))
    again = Certificate.from_json(strict.to_json("X"))
    assert again.s_members == (0,)

    with pytest.raises(SpecError):
        Certificate("NoSuchMode", ((0,),))
    with pytest.raises(SpecError):
        Certificate.from_json({"mode": "EqualCovering"})


@pytest.mark.parametrize(
    "field,value",
    [
        ("members", 5),
        ("members", [["a"]]),
        ("members", [[0, 1.5]]),
        ("members", [[0, True]]),
        ("members", [5]),
        ("s", 3),
        ("s", ["0"]),
    ],
    ids=["members-int", "members-str", "members-float", "members-bool", "members-flat", "s-int", "s-str"],
)
def test_certificate_from_json_rejects_non_integer_lists(field, value):
    doc = {"mode": "StrictSPartition", "members": [[0, 1], [0, 2]], "s": [0]}
    doc[field] = value
    with pytest.raises(SpecError):
        Certificate.from_json(doc)


# ---------------------------------------------------------------------------
# Certificate verification, mode by mode


def members_of_order(G, d):
    return tuple(s.members for s in get_lattice(G).subgroups if s.order == d)


def test_verify_equal_covering_d12(grp):
    G = grp("D12")
    cert = Certificate("EqualCovering", members_of_order(G, 6))
    assert verify_certificate(G, cert).ok


def test_verify_rejects_non_subgroups_and_improper_members(grp):
    G = grp("D12")
    bad = Certificate("Covering", ((0, 1), (0, 6)))
    report = verify_certificate(G, bad)
    assert report.code == "NotASubgroup" and report.detail == (0,)

    full = Certificate("Covering", (tuple(range(12)),))
    assert verify_certificate(G, full).code == "NotProper"

    out_of_range = Certificate("Covering", ((0, 99),))
    assert verify_certificate(G, out_of_range).code == "NotASubgroup"

    empty = Certificate("Covering", ())
    assert verify_certificate(G, empty).code == "UnionIncomplete"


def test_verify_reports_first_uncovered_element(grp):
    G = grp("D12")
    mems = members_of_order(G, 6)
    report = verify_certificate(G, Certificate("EqualCovering", mems[:2]))
    assert report.code == "UnionIncomplete"
    missing = report.detail[0]
    assert all(missing not in m for m in mems[:2])


def test_verify_rejects_unequal_orders(grp):
    G = grp("D12")
    cert = Certificate("EqualCovering", members_of_order(G, 6) + ((0, 6),))
    report = verify_certificate(G, cert)
    assert report.code == "UnequalOrders" and report.detail == (0, 3)


def test_verify_partition_modes(grp):
    G = grp("E(2,2)")
    blocks = members_of_order(G, 2)
    assert verify_certificate(G, Certificate("Partition", blocks)).ok
    assert verify_certificate(G, Certificate("EqualPartition", blocks)).ok

    D12 = grp("D12")
    overlapping = Certificate("Partition", members_of_order(D12, 6))
    report = verify_certificate(D12, overlapping)
    assert report.code == "BadPairwiseIntersection"
    i, j = report.detail
    shared = set(overlapping.members[i]) & set(overlapping.members[j])
    assert shared != {0}


def test_verify_partition_names_the_first_overlapping_pair(grp):
    """A bad partition reports its first overlapping pair in (i, j) order, a repeated member included."""
    G = grp("E(2,3)")
    lines, planes = members_of_order(G, 2), members_of_order(G, 4)
    cases = [
        ("Partition", lines + lines[:1]),
        ("EqualPartition", lines[:4] + lines[2:]),
        ("Partition", lines[3:] + planes[:1] + lines[:3]),
        ("Partition", planes[1:3] + lines),
    ]
    for mode, members in cases:
        first = next(
            (i, j) for i, j in combinations(range(len(members)), 2) if set(members[i]) & set(members[j]) != {0}
        )
        report = verify_certificate(G, Certificate(mode, members))
        assert (report.code, report.detail) == ("BadPairwiseIntersection", first), members


def test_verify_strict_s_partition_d8(grp):
    G = grp("D8")
    quads = members_of_order(G, 4)
    assert len(quads) == 3
    center = (0, 2)
    good = Certificate("StrictSPartition", quads, s_members=center)
    assert verify_certificate(G, good).ok

    wrong_s = Certificate("StrictSPartition", quads, s_members=(0,))
    assert verify_certificate(G, wrong_s).code == "BadPairwiseIntersection"

    not_sub = Certificate("StrictSPartition", quads, s_members=(0, 1))
    assert verify_certificate(G, not_sub).code == "NotASubgroup"

    for s in ((0, 8), (0, -6), ()):
        report = verify_certificate(G, Certificate("StrictSPartition", quads, s_members=s))
        assert (report.code, report.detail) == ("NotASubgroup", (-1,)), s


def test_verify_semi_partition(grp):
    G = grp("D12")
    # C6 and one order-6 dihedral share the rotation squares; every third
    # member meets that overlap trivially, so the family is a semi-partition
    # without being a partition.
    members = (
        (0, 1, 2, 3, 4, 5),
        (0, 2, 4, 6, 8, 10),
        (0, 7),
        (0, 9),
        (0, 11),
    )
    semi = Certificate("SemiPartition", members)
    assert verify_certificate(G, semi).ok
    assert verify_certificate(G, Certificate("Partition", members)).code == (
        "BadPairwiseIntersection"
    )

    triple_bad = Certificate("SemiPartition", members_of_order(G, 6))
    report = verify_certificate(G, triple_bad)
    assert report.code == "BadTripleIntersection" and report.detail == (0, 1, 2)


# ---------------------------------------------------------------------------
# The decision ladder, method by method


@pytest.mark.parametrize(
    "spec,method",
    [
        ("C7", "RuleT1_Cyclic"),
        ("C12", "RuleT1_Cyclic"),
        ("C2xC3", "RuleT1_Cyclic"),
        ("Dic1", "RuleT1_Cyclic"),
        ("S3", "RuleT20_SquareFree"),
        ("D6", "RuleT20_SquareFree"),
        ("D10", "RuleT20_SquareFree"),
        ("D14", "RuleT20_SquareFree"),
        ("D22", "RuleT20_SquareFree"),
        ("D18", "RuleC1_Exponent"),
        ("D50", "RuleC1_Exponent"),
        ("W", "RuleC1_Exponent"),
        ("Dic3", "RuleC1_Exponent"),
        ("Dic5", "RuleC1_Exponent"),
        ("Dic7", "RuleC1_Exponent"),
    ],
)
def test_no_decisions_by_rule(grp, spec, method):
    d = decide(grp(spec))
    assert d.status == "No"
    assert d.method == method
    assert d.certificate is None
    assert d.citation


@pytest.mark.parametrize(
    "spec,method,order",
    [
        ("D4", "RuleT16_Dihedral", 2),
        ("D8", "RuleT16_Dihedral", 4),
        ("D12", "RuleT16_Dihedral", 6),
        ("D16", "RuleT16_Dihedral", 8),
        ("D100", "RuleT16_Dihedral", 50),
        ("Q8", "RuleT17_PGroup", 4),
        ("Dic4", "RuleT17_PGroup", 8),
        ("E(2,2)", "RuleT17_PGroup", 2),
        ("E(3,2)", "RuleT17_PGroup", 3),
        ("E(2,5)", "RuleT17_PGroup", 16),
        ("C2xC4", "RuleT17_PGroup", 4),
        ("C5xC5", "RuleT17_PGroup", 5),
        ("C6xC2", "RuleT19_Nilpotent", 6),
        ("C6xC10", "RuleT19_Nilpotent", 30),
        ("D12xC3", "RuleT18_DirectFactor", 18),
        ("C3xD12", "RuleT18_DirectFactor", 18),
        ("C2xD10", "RuleT21_Quotient", 10),
        ("S3xC2", "RuleT21_Quotient", 6),
    ],
)
def test_yes_decisions_by_rule(grp, spec, method, order):
    G = grp(spec)
    d = decide(G)
    assert d.status == "Yes"
    assert d.method == method
    cert = d.certificate
    assert cert is not None and cert.mode == "EqualCovering"
    assert {len(m) for m in cert.members} == {order}
    assert verify_certificate(G, cert).ok


def test_nilpotent_certificate_is_the_least_prime_with_several_normal_index_q_subgroups():
    """T19's members are the normal index-q subgroups of the lattice, for q the
    least prime with more than one of them."""
    decided = 0
    for entry in catalog(120):
        G = build_group(entry.spec)
        d = decide(G)
        if d.method != "RuleT19_Nilpotent":
            continue
        L = get_lattice(G)
        normal = {}
        for H, flag in zip(L.subgroups, L.normal_flags):
            if flag and _is_prime(G.order // H.order):
                normal.setdefault(G.order // H.order, []).append(H.members)
        q = min(q for q, members in normal.items() if len(members) > 1)
        assert sorted(d.certificate.members) == sorted(normal[q]), entry.display
        decided += 1
    assert decided == 66


@pytest.mark.parametrize("spec,factor", [("D12xC3", "A"), ("C3xD12", "B"), ("D8xD12", "A")])
def test_direct_factor_certificate_is_the_crossed_lift(grp, spec, factor):
    # (a, b) in A x B has index a * |B| + b.  The first factor with an equal
    # covering lends it; its members are crossed with all of the other.
    G = grp(spec)
    A, B = G.meta.children
    nA, nB = A.order, B.order
    d = decide(G)
    assert d.method == "RuleT18_DirectFactor"
    if factor == "A":
        members = decide(A).certificate.members
        lift = [sorted(a * nB + b for a in mem for b in range(nB)) for mem in members]
    else:
        members = decide(B).certificate.members
        lift = [sorted(a * nB + b for a in range(nA) for b in mem) for mem in members]
    assert [list(m) for m in d.certificate.members] == lift


def test_ladder_order_matches_the_readme_and_every_tag_has_a_citation():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Decision methods", 1)[1].split("\n## ", 1)[0]
    table = re.findall(r"^\| `(\w+)`", section, flags=re.M)
    tags = [tag for tag, _ in _LADDER]
    assert tags == [t for t in table if t not in ("HintC1", "Exhaustive")]
    assert len(set(tags)) == len(tags)
    assert set(table) == set(CITATIONS)


def test_semidirect_rule_fires_for_built_semidirect(grp):
    # C3 : (C2 x C2), with the first factor acting by inversion; the
    # complement has an equal covering, which lifts through the projection.
    C3, V = grp("C3"), grp("E(2,2)")
    inv = (0, 2, 1)
    ident = (0, 1, 2)
    action = [ident, inv, ident, inv]
    G = semidirect_product(C3, V, action)
    assert G.order == 12
    d = decide(G)
    assert d.status == "Yes"
    assert d.method == "RuleC3_Semidirect"
    assert {len(m) for m in d.certificate.members} == {6}
    assert verify_certificate(G, d.certificate).ok


@pytest.mark.parametrize(
    "spec",
    ["A5", "PSL(2,4)", "PSL(2,5)", "PSL(2,7)", "PSL(2,11)", "PSL(2,13)"],
)
def test_simple_half_exponent_rule(grp, spec):
    G = grp(spec)
    assert exponent(G) * 2 == G.order
    d = decide(G)
    assert d.status == "No"
    assert d.method == "RuleP2_SimpleHalfExp"


def test_simple_group_above_the_lattice_limit_fails_fast():
    # A7 is simple with 2 * exp(A7) = 840 != 2520, so no rule settles it.
    # The lattice limit must be reached without an n^2 nested-list copy of
    # the table, which costs about 254 MB for A7.
    G = build_group("A7")
    tracemalloc.start()
    try:
        with pytest.raises(LatticeLimitExceeded):
            decide(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("spec", ["S4", "A4"])
def test_exhaustive_no_decisions(grp, spec):
    d = decide(grp(spec))
    assert d.status == "No"
    assert d.method == "Exhaustive"


def test_exhaustive_no_confirmed_by_independent_union_scan(grp):
    # Re-derive the negative answers without the engine: for each proper
    # divisor d that the exponent divides, the union of all order-d
    # subgroups must miss some element.
    for spec in ("S4", "A4"):
        G = grp(spec)
        L = get_lattice(G)
        n, e = G.order, exponent(G)
        for d in qualifying_divisors(n, e):
            covered = set()
            for s in L.subgroups:
                if s.order == d:
                    covered.update(s.members)
            assert covered != set(range(n)), f"{spec} has an equal covering at {d}"


def test_exhaustive_mode_on_yes_group(grp):
    G = grp("D12")
    d = decide(G, "exhaustive")
    assert d.status == "Yes" and d.method == "Exhaustive"
    assert {len(m) for m in d.certificate.members} == {6}
    assert verify_certificate(G, d.certificate).ok
    # the cyclic fast path is bypassed: exhaustive on a cyclic group still
    # answers through the union test
    assert decide(grp("C12"), "exhaustive").method == "Exhaustive"


def test_exhaustive_yes_is_verified(grp, monkeypatch):
    G = grp("D8")
    checked = []

    def counting(group, cert):
        checked.append(cert)
        return verify_certificate(group, cert)

    monkeypatch.setattr(covering, "verify_certificate", counting)
    d = decide(G, "exhaustive")
    assert d.status == "Yes" and d.method == "Exhaustive"
    assert checked == [d.certificate]


def test_c2xd10_regression_yes_both_ways(grp):
    # Adversarial case: both direct factors lack equal coverings, yet the
    # product has one (three order-10 subgroups).
    G = grp("C2xD10")
    auto = decide(G)
    assert auto.status == "Yes" and auto.method == "RuleT21_Quotient"
    ex = decide(G, "exhaustive")
    assert ex.status == "Yes"
    assert {len(m) for m in ex.certificate.members} == {10}
    assert len(ex.certificate.members) == 3
    assert verify_certificate(G, ex.certificate).ok


def test_rules_mode_raises_when_inconclusive(grp):
    with pytest.raises(RulesInconclusive):
        decide(grp("A4"), "rules")
    d = decide(grp("D12"), "rules")
    assert d.status == "Yes" and d.method == "RuleT16_Dihedral"


def test_decide_validates_mode(grp):
    with pytest.raises(SpecError):
        decide(grp("C2"), "bogus")


def test_decision_reports_coverability(grp):
    # Only a cyclic group has no covering of any kind (sigma is infinite),
    # and only the cyclic rule says so.
    for spec, cyclic in (("C12", True), ("S3", False), ("D12", False)):
        G = grp(spec)
        assert (decide(G).method == "RuleT1_Cyclic") is cyclic
        assert (sigma(G).value == INFINITY) is cyclic


# ---------------------------------------------------------------------------
# Hint path


def test_hint_files_decide_no(grp):
    for name in ("m11", "m12"):
        doc = load_hints(f"{HINTS_DIR}/{name}.json")
        d = decide_with_hints(
            doc["name"],
            doc["order"],
            doc["exponent"],
            doc["maximal_orders"],
            doc.get("exponent_multiple_union_covers"),
        )
        assert d.status == "No" and d.method == "HintC1"
        assert d.certificate is None


def test_hint_path_is_inconclusive_without_union_fact():
    with pytest.raises(InconclusiveHints):
        decide_with_hints("X", 24, 6, [12, 8])
    with pytest.raises(InconclusiveHints):
        decide_with_hints("X", 24, 6, [12, 8], exponent_multiple_union_covers=True)


def test_hint_path_rejects_inconsistent_data():
    with pytest.raises(HintFileError):
        decide_with_hints("X", 24, 5, [12])
    with pytest.raises(HintFileError):
        decide_with_hints("X", 24, 6, [])


@pytest.mark.parametrize(
    "doc",
    [
        {"order": 10, "exponent": 10, "maximal_orders": [5]},  # missing name
        {"name": "X", "order": 10, "exponent": 3, "maximal_orders": [5]},
        {"name": "X", "order": 10, "exponent": 5, "maximal_orders": [10]},
        {"name": "X", "order": 10, "exponent": 5, "maximal_orders": [3]},
        {"name": "X", "order": 10, "exponent": 5, "maximal_orders": []},
        {"name": "X", "order": 10, "exponent": 5, "maximal_orders": [5], "simple": "yes"},
        {
            "name": "X",
            "order": 10,
            "exponent": 5,
            "maximal_orders": [5],
            "exponent_multiple_union_covers": 0,
        },
        [1, 2, 3],
        # JSON booleans are not integers, although bool subclasses int.
        {"name": "X", "order": True, "exponent": 1, "maximal_orders": [1]},
        {"name": "X", "order": 7920, "exponent": True, "maximal_orders": [720]},
        {"name": "X", "order": 7920, "exponent": 1320, "maximal_orders": [720, True]},
    ],
)
def test_load_hints_validation(tmp_path, doc):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(HintFileError):
        load_hints(str(path))


def test_load_hints_io_errors(tmp_path):
    with pytest.raises(HintFileError):
        load_hints(str(tmp_path / "missing.json"))
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(HintFileError):
        load_hints(str(path))


# ---------------------------------------------------------------------------
# Sigma


def brute_invariant(G, invariant):
    """sigma, epsilon or rho by direct subset search over the lattice's subgroups.

    sigma takes any proper subgroups; epsilon the order-d ones, for each d;
    rho proper nontrivial ones that meet pairwise in the identity alone.
    """
    proper = [s for s in get_lattice(G).subgroups if s.order < G.order]
    if invariant == "sigma":
        families = [proper]
    elif invariant == "epsilon":
        families = [[s for s in proper if s.order == d] for d in sorted({s.order for s in proper})]
    else:
        families = [[s for s in proper if s.order > 1]]
    everything = set(range(G.order))
    best = INFINITY
    for family in families:
        for size in range(1, min(len(family), best - 1) + 1):
            if any(
                set().union(*(s.members for s in chosen)) == everything
                and (
                    invariant != "rho"
                    or all(set(a.members) & set(b.members) == {0} for a, b in combinations(chosen, 2))
                )
                for chosen in combinations(family, size)
            ):
                best = size
                break
    return best


@pytest.mark.parametrize(
    "spec,value",
    [
        ("E(2,2)", 3),
        ("S3", 4),
        ("E(3,2)", 4),
        ("A4", 5),
        ("D10", 6),
        ("E(5,2)", 6),
        ("W", 6),
        # Cohn 1994; Bryce, Fedri and Serena 1999
        ("PSL(2,7)", 15),
        ("S5", 16),
        ("PSL(2,8)", 36),
        ("PSL(2,11)", 67),
    ],
)
def test_sigma_primitive_values(grp, spec, value):
    G = grp(spec)
    result = sigma(G)
    assert result.value == value
    assert len(result.witness.members) == value
    assert result.witness.mode == "Covering"
    assert verify_certificate(G, result.witness).ok


@pytest.mark.parametrize(
    "invariant,spec",
    [
        (invariant, e.spec.text())
        for invariant in ("sigma", "epsilon", "rho")
        for e in catalog(12)
        if not is_cyclic(build_group(e.spec))
    ],
)
def test_sigma_matches_brute_force(grp, invariant, spec):
    """sigma, epsilon and rho each equal the subset search's value."""
    G = grp(spec)
    value = {"sigma": lambda: sigma(G).value, "epsilon": lambda: epsilon(G)[0], "rho": lambda: rho(G)[0]}[invariant]()
    assert value == brute_invariant(G, invariant)


@pytest.mark.parametrize(
    "spec,order,value,disjoint",
    [
        ("S4", None, 4, False),
        ("E(2,3)", 4, 3, False),
        ("E(2,4)", 4, 5, False),
        ("E(2,4)", 8, 3, False),
        ("E(3,2)", 3, 4, False),
        ("E(2,4)", 4, 5, True),
    ],
    ids=["S4-None-4", "E(2,3)-4-3", "E(2,4)-4-5", "E(2,4)-8-3", "E(3,2)-3-4", "E(2,4)-4-5-disjoint"],
)
def test_set_cover_bound_ignores_the_identity_bit(grp, spec, order, value, disjoint):
    """The target leaves out the identity, so bit 0 of the members' masks must change nothing.

    With stop_at 0 the search has to prove optimality, so the node count shows
    whether the lower bound counted the identity as coverable, or, for a
    partition, whether every member looked dead once the identity was covered.
    """
    G = grp(spec)
    L = get_lattice(G)
    subs = maximal_subgroups(L) if order is None else L.of_order(order)
    runs = []
    for family in (subs, [Subgroup(s.mask & ~1, s.members, s.generators) for s in subs]):
        budget = _Budget(10**6)
        size, chosen = _min_cover(family, G.order, 0, budget, disjoint=disjoint)
        runs.append((size, [s.members for s in chosen], budget.spent))
    assert runs[0] == runs[1]
    assert runs[0][0] == value


def test_set_cover_counts_only_covers_below_the_bound(grp):
    """Covers of the bound's size or more are no answer, nor is a family that does not cover."""
    G = grp("E(2,3)")
    subs = maximal_subgroups(get_lattice(G))
    assert _min_cover(subs, G.order, 3, _Budget(10**6), 4)[0] == 3
    assert _min_cover(subs, G.order, 0, _Budget(10**6), 3) is None
    assert _min_cover(subs[:2], G.order, 0, _Budget(10**6)) is None


def test_sigma_of_cyclic_is_infinite(grp):
    result = sigma(grp("C12"))
    assert result.value == INFINITY
    assert result.witness is None


def test_sigma_a5(grp):
    assert sigma(grp("A5")).value == 10


def test_sigma_bounds_log(grp):
    result = sigma(grp("D10"))
    values = [v for v, _ in result.bounds_log]
    assert values[0] == 3
    assert values[1] == 3  # least prime divisor 2, so the prime bound is p+1
    assert values[-1] == 6
    assert all(isinstance(reason, str) and reason for _, reason in result.bounds_log)


# ---------------------------------------------------------------------------
# Epsilon


@pytest.mark.parametrize(
    "spec,value",
    [("E(2,2)", 3), ("D12", 3), ("Q8", 3), ("C2xC4", 3), ("E(2,3)", 3)],
)
def test_epsilon_values(grp, spec, value):
    G = grp(spec)
    got, witness = epsilon(G)
    assert got == value
    assert witness.mode == "EqualCovering"
    assert len({len(m) for m in witness.members}) == 1
    assert verify_certificate(G, witness).ok
    assert got >= sigma(G).value


@pytest.mark.parametrize("spec", ["C12", "S3", "S4", "D10"])
def test_epsilon_infinite_when_no_equal_covering(grp, spec):
    got, witness = epsilon(grp(spec))
    assert got == INFINITY and witness is None


def test_epsilon_matches_decide(grp):
    for spec in ("D12", "Q8", "S4", "W", "C2xD10"):
        G = grp(spec)
        got, _ = epsilon(G)
        assert (got != INFINITY) == (decide(G).status == "Yes")


# ---------------------------------------------------------------------------
# Rho and equal partitions


@pytest.mark.parametrize(
    "spec,value",
    [
        ("E(2,2)", 3),
        ("E(2,3)", 5),
        ("E(3,2)", 4),
        ("D10", 6),
        ("D12", 7),
        ("S3", 4),
        ("A4", 5),
    ],
)
def test_rho_values(grp, spec, value):
    G = grp(spec)
    got, witness = rho(G)
    assert got == value
    assert witness.mode == "Partition"
    assert verify_certificate(G, witness).ok


def test_rho_infinite_for_q8_and_cyclic(grp):
    assert rho(grp("Q8"))[0] == INFINITY
    assert rho(grp("C6"))[0] == INFINITY


def test_rho_has_no_order_cut_off():
    """rho searches above order 200: D202 has the rotations and its 101
    reflections as a least partition, and no equal partition."""
    G = build_group("D202")
    value, witness = rho(G)
    assert value == 102 and len(witness.members) == 102
    assert verify_certificate(G, witness).ok
    assert equal_partition_exists(G) == (False, None)
    E35 = build_group("E(3,5)")
    got, cert = equal_partition_exists(E35)
    assert got is True and len(cert.members) == (3**5 - 1) // 2
    assert {len(m) for m in cert.members} == {3}
    assert verify_certificate(E35, cert).ok


_DIHEDRAL_UP_TO_200 = [e.spec.text() for e in catalog(200) if e.spec.family == "dihedral"]


@pytest.mark.parametrize("spec", _DIHEDRAL_UP_TO_200 + ["D402"])
def test_rho_of_dihedral_groups_is_n_plus_1(grp, spec):
    """rho(D2n) = n + 1.  The block holding the rotation r holds <r>, the
    whole rotation subgroup, and no reflection, since r and any reflection
    generate G.  Every other block meets the rotations trivially, so it has
    order at most 2."""
    G = grp(spec)
    n = G.order // 2
    value, witness = rho(G)
    assert value == len(witness.members) == n + 1
    assert verify_certificate(G, witness).ok


def test_rho_of_s6_is_infinite(grp):
    """A finite group with a partition is a p-group, of Hughes-Thompson type,
    Frobenius, PGL(2,q), PSL(2,q), Sz(q) or S4 (Baer, Kegel and Suzuki).
    S6 is none of these: it is almost simple, so not Frobenius, and for each
    prime p its elements of order other than p generate it (transpositions
    for odd p; the 3-cycles and the odd 4-cycles for p = 2)."""
    assert rho(grp("S6")) == (INFINITY, None)


@pytest.mark.parametrize("invariant,spec", [(rho, "PSL(2,8)"), (sigma, "A6")], ids=["rho-PSL(2,8)", "sigma-A6"])
def test_searches_beyond_desk_scale_spend_their_budget(grp, invariant, spec):
    with pytest.raises(SearchBudgetExceeded, match="exceeded 5000000 work units"):
        invariant(grp(spec))


@pytest.mark.parametrize(
    "spec,expect",
    [
        ("E(2,2)", True),
        ("E(2,3)", True),
        ("E(3,2)", True),
        ("E(5,2)", True),
        ("E(2,6)", True),
        ("Q8", False),
        ("D12", False),
        ("S3", False),
        ("C2xC4", False),
        ("C6", False),
        ("A4", False),
    ],
)
def test_equal_partition_exists(grp, spec, expect):
    G = grp(spec)
    got, cert = equal_partition_exists(G)
    assert got is expect
    if expect:
        assert cert.mode == "EqualPartition"
        assert verify_certificate(G, cert).ok
    else:
        assert cert is None


def _order_27_groups(grp):
    """E(3,3), C3xC9, C27, the Heisenberg group (exponent 3) and C9:C3 (exponent 9)."""
    E32, C3, C9 = grp("E(3,2)"), grp("C3"), grp("C9")
    # k acts on a + 3b (a, b the coordinates of E(3,2)) by the shear a -> a + k*b.
    shears = [tuple((a + k * b) % 3 + 3 * b for b in range(3) for a in range(3)) for k in range(3)]
    heisenberg = semidirect_product(E32, C3, shears)
    c9_c3 = semidirect_product(C9, C3, [tuple(4**k * x % 9 for x in range(9)) for k in range(3)])
    return [grp("E(3,3)"), grp("C3xC9"), grp("C27"), heisenberg, c9_c3]


def test_order_27_equal_partitions_follow_the_exponent(grp):
    E33, C3xC9, C27, heisenberg, c9_c3 = _order_27_groups(grp)
    assert (exponent(heisenberg), exponent(c9_c3)) == (3, 9)
    for G, members in ((E33, 13), (heisenberg, 13)):
        got, cert = equal_partition_exists(G)
        assert got is True and len(cert.members) == members and verify_certificate(G, cert).ok
    for G in (C3xC9, C27, c9_c3):
        assert equal_partition_exists(G) == (False, None)


def test_equal_partition_matches_the_search_oracle(grp):
    groups = [grp(e.spec.text()) for e in catalog(64)] + _order_27_groups(grp)
    for G in groups:
        assert equal_partition_exists(G) == equal_partition_by_search(G), G.meta.name


def _has_equal_partition_by_brute_force(G) -> bool:
    """Some order d has a set of order-d subgroups, from the power set, tiling the non-identity elements."""
    n, rows = G.order, G.table.tolist()
    subgroups = []
    for bits in range(1, 1 << n, 2):  # the identity is in every subgroup
        members = [x for x in range(n) if bits >> x & 1]
        if 1 < len(members) < n and all(bits >> rows[a][b] & 1 for a in members for b in members):
            subgroups.append(bits & ~1)

    def tiles(blocks, left):
        if not left:
            return True
        low = left & -left
        return any(tiles(blocks, left & ~b) for b in blocks if b & low and b & left == b)

    return any(tiles([b for b in subgroups if b.bit_count() == d - 1], ((1 << n) - 1) & ~1) for d in range(2, n))


@pytest.mark.parametrize("spec", [e.spec.text() for e in catalog(16)])
def test_equal_partition_matches_power_set_brute_force(grp, spec):
    G = grp(spec)
    assert equal_partition_exists(G)[0] is _has_equal_partition_by_brute_force(G)


def test_equal_partition_certificate_for_klein(grp):
    G = grp("E(2,2)")
    _, cert = equal_partition_exists(G)
    assert len(cert.members) == 3
    assert {len(m) for m in cert.members} == {2}


def test_rho_agrees_with_equal_partition_on_elementary_abelian(grp):
    # 1 + p^ceil(k/2) for E(p,k)
    assert rho(grp("E(2,2)"))[0] == 1 + 2
    assert rho(grp("E(2,3)"))[0] == 1 + 4
    assert rho(grp("E(3,2)"))[0] == 1 + 3
    assert rho(grp("E(5,2)"))[0] == 1 + 5


# ---------------------------------------------------------------------------
# Theory oracles for the searches


def least_prime(n):
    return next(p for p in range(2, n + 1) if n % p == 0)


@pytest.mark.parametrize("spec,p", [("E(2,4)", 2), ("E(2,5)", 2), ("E(3,3)", 3), ("E(3,4)", 3), ("E(5,3)", 5)])
def test_sigma_and_epsilon_of_elementary_abelian_are_p_plus_one(grp, spec, p):
    G = grp(spec)
    result = sigma(G)
    value, witness = epsilon(G)
    assert result.value == value == p + 1
    assert verify_certificate(G, result.witness).ok
    assert verify_certificate(G, witness).ok and len(witness.members) == p + 1


def assert_partition(G, members):
    """Each member is a proper nontrivial subgroup, and the members tile G minus the identity."""
    rows = G.table.tolist()
    for m in members:
        inside = set(m)
        assert 0 in inside and 1 < len(m) < G.order
        assert all(rows[a][b] in inside for a in m for b in m)
    others = sorted(x for m in members for x in m if x)
    assert others == list(range(1, G.order))


_ELEMENTARY = [(f"E({q},{k})", q, k) for q, k in [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 3), (7, 2), (2, 7), (2, 8), (3, 5)]]


@pytest.mark.parametrize(
    "spec,q,k",
    _ELEMENTARY + [("C5xC5", 5, 2), ("C2xC2xC2", 2, 3)],
    ids=[f"{q}-{k}" for _, q, k in _ELEMENTARY] + ["C5xC5", "C2xC2xC2"],
)
def test_rho_of_elementary_abelian_is_beutelspacher(grp, spec, q, k):
    """rho(E(q,k)) = q^ceil(k/2) + 1 (Beutelspacher 1979), also on large
    lattices and for elementary abelian groups not spelled E(q,k)."""
    G = grp(spec)
    value, witness = rho(G)
    assert value == q ** -(-k // 2) + 1
    assert witness.mode == "Partition" and len(witness.members) == value
    assert_partition(G, witness.members)
    assert verify_certificate(G, witness).ok


def search_only(monkeypatch):
    """Route sigma, epsilon and rho through the lattice and the search: with
    no group seen as nilpotent or abelian, no theory path applies."""
    monkeypatch.setattr(covering, "is_nilpotent", lambda G: False)
    monkeypatch.setattr(covering, "is_abelian", lambda G: False)


def test_searches_finish_within_a_small_node_budget(grp, monkeypatch):
    """Nodes, not work units: each node ticks the budget once."""
    search_only(monkeypatch)
    nodes = []

    class Counting(_Budget):
        def tick(self, cost):
            nodes.append(cost)
            super().tick(cost)

    monkeypatch.setattr(covering, "_Budget", Counting)
    for run, value in ((lambda: rho(grp("E(2,6)"))[0], 9), (lambda: epsilon(grp("E(2,5)"))[0], 3)):
        nodes.clear()
        assert run() == value
        assert 0 < len(nodes) <= 5_000


# ---------------------------------------------------------------------------
# Nilpotent groups from theory, with no lattice and no search


def element_orders_by_powering(G):
    rows = G.table.tolist()
    orders = [1]
    for g in range(1, G.order):
        x, k = g, 1
        while x != 0:
            x, k = rows[x][g], k + 1
        orders.append(k)
    return orders


def least_noncyclic_sylow_prime(G):
    """For nilpotent G, the least prime p whose Sylow p-subgroup is not cyclic:
    no element has the full p-part of |G| as its order."""
    n, orders = G.order, set(element_orders_by_powering(G))
    for p in range(2, n + 1):
        if n % p == 0 and _is_prime(p):
            part = p ** next(a for a in range(1, n) if n % p ** (a + 1))
            if part not in orders:
                return p
    return None


_NILPOTENT_UP_TO_16 = [
    e.spec.text() for e in catalog(16) if is_nilpotent(build_group(e.spec)) and not is_cyclic(build_group(e.spec))
] + ["C2xC2xC4", "C2xD8", "C2xQ8", "C3xC6"]


@pytest.mark.parametrize("spec", _NILPOTENT_UP_TO_16)
def test_sigma_and_epsilon_of_nilpotent_groups_are_cohn(grp, spec):
    """sigma = epsilon = p + 1, p the least prime whose Sylow subgroup is not
    cyclic (Cohn 1994), and so is the power-set search.  C3xC6 = C2 x E(3,2)
    has p = 3, not its least prime divisor 2."""
    G = grp(spec)
    p = least_noncyclic_sylow_prime(G)
    result = sigma(G)
    value, witness = epsilon(G)
    assert result.value == value == p + 1 == brute_invariant(G, "sigma") == brute_invariant(G, "epsilon")
    assert result.bounds_log[0][0] == p + 1 and "Cohn" in result.bounds_log[0][1]
    for cert, mode in ((result.witness, "Covering"), (witness, "EqualCovering")):
        assert cert.mode == mode and len(cert.members) == p + 1
        assert {len(m) for m in cert.members} == {G.order // p}
        assert verify_certificate(G, cert).ok


_NILPOTENT_UP_TO_96 = [
    e.spec.text() for e in catalog(96) if is_nilpotent(build_group(e.spec)) and not is_cyclic(build_group(e.spec))
]


def test_nilpotent_theory_equals_the_search(grp, monkeypatch):
    """On every nilpotent non-cyclic catalog(96) group, sigma, epsilon and rho
    from theory equal the search path's values."""
    assert len(_NILPOTENT_UP_TO_96) == 80
    theory = {spec: (sigma(grp(spec)).value, epsilon(grp(spec))[0], rho(grp(spec))[0]) for spec in _NILPOTENT_UP_TO_96}
    search_only(monkeypatch)
    for spec in _NILPOTENT_UP_TO_96:
        G = grp(spec)
        assert theory[spec] == (sigma(G).value, epsilon(G)[0], rho(G)[0]), spec


def test_nilpotent_witness_is_the_pencil_of_the_first_two_index_p_subgroups(grp):
    """The sigma and epsilon witness is every index_p_subgroups(G, p) member
    containing the meet of the first two listed, for p the least prime whose
    Sylow subgroup is not cyclic; the engine finds them without listing the rest."""
    for spec in _NILPOTENT_UP_TO_96 + ["E(2,7)", "C4xC4xC4", "D8xD8", "E(5,3)xC4"]:
        G = grp(spec)
        members = index_p_subgroups(G, least_noncyclic_sylow_prime(G))
        meet = set(members[0]) & set(members[1])
        pencil = tuple(m for m in members if meet <= set(m))
        assert sigma(G).witness.members == epsilon(G)[1].members == pencil, spec


@pytest.mark.parametrize("spec", ["C2xC4", "C4xC4", "C3xC9"])
def test_abelian_p_groups_of_exponent_above_p_have_no_partition(grp, spec):
    """Kontorovich 1939, checked by the power-set search."""
    G = grp(spec)
    assert rho(G) == (INFINITY, None)
    assert brute_invariant(G, "rho") == INFINITY


def test_nilpotent_invariants_build_no_lattice_and_run_no_search(monkeypatch):
    """C2xC1000 is above the lattice limit; E(2,8) and E(3,5) have large lattices."""

    def refuse(*args, **kwargs):
        raise AssertionError("the lattice or the search was used")

    monkeypatch.setattr(lattice, "enumerate_subgroups", refuse)
    monkeypatch.setattr(covering, "_min_cover", refuse)
    for spec, values in (("E(2,8)", (3, 3, 17)), ("E(3,5)", (4, 4, 28)), ("C2xC1000", (3, 3, INFINITY))):
        G = build_group(spec)
        assert (sigma(G).value, epsilon(G)[0], rho(G)[0]) == values, spec


@pytest.mark.parametrize(
    "spec",
    [f"D{2 * n}" for n in range(3, 17)]
    + [f"C{a}xC{b}" for a in range(2, 11) for b in range(a, 31) if a * b <= 60],
)
def test_epsilon_closed_forms(grp, spec):
    """epsilon(D(2n)) is 3 iff n is even; epsilon(Ca x Cb) is p+1 for p the least prime of gcd(a, b)."""
    if spec.startswith("D"):
        n = int(spec[1:]) // 2
        expect = 3 if n % 2 == 0 else INFINITY
    else:
        a, b = map(int, spec[1:].split("xC"))
        g = math.gcd(a, b)
        expect = INFINITY if g == 1 else least_prime(g) + 1
    G = grp(spec)
    value, witness = epsilon(G)
    assert value == expect
    if witness is not None:
        assert len(witness.members) == value and verify_certificate(G, witness).ok


def brute_subgroup_orders(G):
    """Orders of all subgroups, by closing every found subgroup with one more element."""
    rows = G.table.tolist()

    def close(seed):
        members = set(seed)
        while True:
            new = {rows[a][b] for a in members for b in members} - members
            if not new:
                return frozenset(members)
            members |= new

    found = {frozenset((0,))}
    frontier = list(found)
    while frontier:
        H = frontier.pop()
        for g in range(G.order):
            if g not in H:
                K = close(H | {g})
                if K not in found:
                    found.add(K)
                    frontier.append(K)
    return {len(H) for H in found}


@pytest.mark.parametrize("spec", [e.spec for e in catalog(48)])
def test_rho_meets_the_trivial_intersection_bound(grp, spec):
    """Two blocks H, K of a partition have |H||K| <= |G|, which bounds rho from below."""
    G = grp(spec)
    if is_cyclic(G):
        return
    value, _ = rho(G)
    if value == INFINITY:
        return
    n = G.order
    orders = [m for m in brute_subgroup_orders(G) if 1 < m < n]
    bound = min(1 + math.ceil((n - m) / (min(m, n // m) - 1)) for m in orders)
    assert value >= bound


def test_exhaustive_decide_matches_module_level_helper(grp):
    G = grp("Q8")
    a = equal_covering_exhaustive(G)
    b = decide(G, "exhaustive")
    assert (a.status, a.method) == (b.status, b.method) == ("Yes", "Exhaustive")
