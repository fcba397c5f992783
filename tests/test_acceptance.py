"""Acceptance gate: the nine headline guarantees, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Each criterion times itself and fails honestly if
it exceeds its stated budget.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from pathlib import Path

import ecov
from ecov.analysis import (
    index_p_subgroups,
    is_cyclic,
    p_group_prime,
    smallest_prime_divisor,
)
from ecov.census import catalog, emit, run_census
from ecov.covering import (
    INFINITY,
    decide,
    decide_with_hints,
    epsilon,
    equal_partition_exists,
    load_hints,
    rho,
    sigma,
    verify_certificate,
)
from ecov.errors import RulesInconclusive
from ecov.groups import build_group, exponent, quotient
from ecov.lattice import get_lattice

from conftest import klein_quotient

SHIPPED_HINTS = Path(ecov.__file__).parent / "data" / "hints"


@contextmanager
def criterion(number: int, description: str, budget: float | None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed <= budget, (
                f"criterion {number} took {elapsed:.1f}s, over its {budget:.0f}s budget"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} ({elapsed:.1f}s)")


def test_criterion_1_dihedral_family():
    with criterion(1, "dihedral groups D(2n), n=2..50: Yes iff n even, 3-member certificates", 10.0):
        for n in range(2, 51):
            G = build_group(f"D{2 * n}")
            assert exponent(G) == math.lcm(n, 2)
            d = decide(G)
            if n % 2 == 0:
                assert d.status == "Yes", f"D{2*n} should have an equal covering"
                cert = d.certificate
                assert len(cert.members) == 3
                assert {len(m) for m in cert.members} == {n}
                assert verify_certificate(G, cert).ok
            else:
                assert d.status == "No", f"D{2*n} should have no equal covering"


def test_criterion_2_rule_and_search_parity():
    with criterion(2, "structural rules agree with exhaustive search on every catalog group", 120.0):
        for entry in catalog(60):
            G = build_group(entry.spec)
            truth = decide(G, "exhaustive")
            assert decide(G).status == truth.status, f"auto disagrees on {entry.display}"
            try:
                ruled = decide(G, "rules")
            except RulesInconclusive:
                continue
            assert ruled.status == truth.status, f"rules disagree on {entry.display}"


def test_criterion_3_order_tables():
    p_group_orders = {4, 8, 9, 16, 25, 27, 32, 49}
    square_free_orders = {
        6, 10, 14, 15, 21, 22, 26, 30, 33, 34, 35,
        38, 39, 42, 46, 51, 55, 57, 58,
    }
    with criterion(3, "order tables: p-group Yes, square-free No, prime cyclic no covering", None):
        entries = catalog(60)
        for entry in entries:
            G = build_group(entry.spec)
            if entry.order in p_group_orders and p_group_prime(G) is not None and not is_cyclic(G):
                assert decide(G).status == "Yes", f"{entry.display} should be Yes"
            if entry.order in square_free_orders:
                assert decide(G).status == "No", f"{entry.display} should be No"
            if entry.display == f"C{entry.order}" and smallest_prime_divisor(
                max(entry.order, 2)
            ) == entry.order:
                d = decide(G)
                assert d.status == "No" and d.method == "RuleT1_Cyclic"
        result = run_census(entries)
        assert result.mismatches == [], result.mismatches
        assert result.errors == [], result.errors


def test_criterion_4_simple_group_rows():
    rows = [
        ("A5", 60, 30, None),
        ("A6", 360, 60, "Exhaustive"),
        ("PSL(2,8)", 504, 126, "Exhaustive"),
        ("PSL(2,11)", 660, 330, "RuleP2_SimpleHalfExp"),
        ("PSL(2,13)", 1092, 546, "RuleP2_SimpleHalfExp"),
    ]
    with criterion(4, "simple groups through order 1092 decide No with the stated mechanisms", 900.0):
        for spec, order, exp, method in rows:
            G = build_group(spec)
            assert G.order == order
            assert exponent(G) == exp, f"{spec}: exponent {exponent(G)} != {exp}"
            d = decide(G)
            assert d.status == "No", f"{spec} should be No"
            if method is not None:
                assert d.method == method, f"{spec}: {d.method} != {method}"


def test_criterion_5_hint_files():
    with criterion(5, "externally hinted Mathieu groups decide No without construction", 1.0):
        for stem, order in (("m11", 7920), ("m12", 95040)):
            doc = load_hints(str(SHIPPED_HINTS / f"{stem}.json"))
            assert doc["order"] == order
            d = decide_with_hints(
                doc["name"],
                doc["order"],
                doc["exponent"],
                doc["maximal_orders"],
                doc.get("exponent_multiple_union_covers"),
            )
            assert d.status == "No" and d.method == "HintC1"


def test_criterion_6_sigma_suite():
    primitives = {
        "E(2,2)": 3,
        "S3": 4,
        "E(3,2)": 4,
        "A4": 5,
        "D10": 6,
        "E(5,2)": 6,
        "W": 6,
    }
    with criterion(6, "covering numbers: primitive values and structural laws", 600.0):
        for spec, value in primitives.items():
            G = build_group(spec)
            result = sigma(G)
            assert result.value == value, f"sigma({spec}) = {result.value} != {value}"
            assert verify_certificate(G, result.witness).ok
        for entry in catalog(60):
            G = build_group(entry.spec)
            if is_cyclic(G):
                assert sigma(G).value == INFINITY
                continue
            result = sigma(G)
            s = result.value
            name = entry.display
            assert s >= 3, f"sigma({name}) = {s} < 3"
            assert s != 7, f"sigma({name}) = 7 is impossible"
            assert s > smallest_prime_divisor(G.order), f"sigma({name}) = {s} too small"
            assert verify_certificate(G, result.witness).ok
            L = get_lattice(G)
            klein = klein_quotient(G) is not None
            assert (s == 3) == klein, f"{name}: sigma=3 vs Klein quotient mismatch"
            assert klein == (len(index_p_subgroups(G, 2)) >= 2), name
            for i, sub in enumerate(L.subgroups):
                if sub.order == G.order or not L.normal_flags[i]:
                    continue
                Q, _ = quotient(G, sub.members)
                if is_cyclic(Q):
                    continue
                sq = sigma(Q).value
                assert s <= sq, f"sigma({name}) = {s} > sigma of its quotient {sq}"


def test_criterion_7_partition_suite():
    with criterion(7, "partition numbers and exact equal-partition classification", 600.0):
        for spec, value in (("E(2,2)", 3), ("E(2,3)", 5), ("E(3,2)", 4)):
            G = build_group(spec)
            got, witness = rho(G)
            assert got == value, f"rho({spec}) = {got} != {value}"
            assert verify_certificate(G, witness).ok
        d10, d12 = build_group("D10"), build_group("D12")
        assert rho(d10)[0] == sigma(d10).value == 6
        assert rho(d12)[0] > sigma(d12).value
        for entry in catalog(81):
            G = build_group(entry.spec)
            p = p_group_prime(G)
            predicate = not is_cyclic(G) and p is not None and exponent(G) == p
            got, cert = equal_partition_exists(G)
            assert got == predicate, f"{entry.display}: equal partition {got}, predicate {predicate}"
            if got:
                assert verify_certificate(G, cert).ok


def brute_force_subgroup_masks(G):
    n = G.order
    masks = set()
    for bits in range(1 << n):
        if not bits & 1:
            continue
        members = [i for i in range(n) if bits >> i & 1]
        if all(G.table[a, b] in members for a in members for b in members):
            masks.add(bits)
    return masks


def test_criterion_8_oracle_equivalence():
    with criterion(8, "lattice matches the power-set oracle; witnesses re-verify", 60.0):
        for entry in catalog(12):
            G = build_group(entry.spec)
            L = get_lattice(G)
            assert {s.mask for s in L.subgroups} == brute_force_subgroup_masks(G), entry.display
            if is_cyclic(G):
                continue
            result = sigma(G)
            assert verify_certificate(G, result.witness).ok
            value, witness = epsilon(G)
            if value != INFINITY:
                assert witness.mode == "EqualCovering"
                assert verify_certificate(G, witness).ok


def test_criterion_9_census_determinism():
    entries = catalog(60)
    with criterion(9, "census output is byte-identical across worker counts", None):
        # Best of three for each side, interleaved, so a burst of load on the
        # machine slows the baseline as much as the runs it bounds.
        runs = {"baseline": {}, "serial": {"jobs": 1}, "parallel": {"jobs": 8}}
        best = dict.fromkeys(runs, math.inf)
        results = {}
        for _ in range(3):
            for name, kwargs in runs.items():
                t0 = time.perf_counter()
                results[name] = run_census(entries, **kwargs)
                best[name] = min(best[name], time.perf_counter() - t0)
        serial, parallel = results["serial"], results["parallel"]
        budget = 2 * best["baseline"]
        assert serial.ok and parallel.ok
        assert emit(serial.rows) == emit(parallel.rows)
        assert emit(serial.rows, format="json") == emit(parallel.rows, format="json")
        assert best["serial"] <= budget, f"serial census {best['serial']:.2f}s over {budget:.2f}s"
        assert best["parallel"] <= budget, f"parallel census {best['parallel']:.2f}s over {budget:.2f}s"
