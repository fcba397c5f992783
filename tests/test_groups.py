"""Spec parsing, table builders, verification, and group constructions."""

from __future__ import annotations

import json
import math
import tracemalloc
from collections import Counter
from typing import Callable

import numpy as np
import pytest

from ecov import analysis, cli, covering, groups
from ecov.analysis import is_cyclic
from ecov.census import catalog
from ecov.errors import (
    BadPrimePower,
    CycleNotationError,
    InvalidAction,
    InvalidRawTable,
    MalformedParameter,
    NotHomomorphism,
    NotNormal,
    OrderLimitExceeded,
    SpecError,
    UnknownFamily,
)
from ecov.gf import factor_prime_power, small_field
from ecov.groups import (
    _generating_set,
    _light_witness,
    GroupSpec,
    build_group,
    direct_product,
    exponent,
    parse_group_spec,
    quotient,
    semidirect_product,
    spec_order,
    verify_table,
)
from ecov.lattice import normal_subgroups_direct
from ecov.perms import parse_cycles

from conftest import generated

# ---------------------------------------------------------------------------
# Parsing


_SINGLE_TOKENS = [
    ("C12", "cyclic", 12),
    ("c12", "cyclic", 12),
    ("C1", "cyclic", 1),
    ("D12", "dihedral", 12),
    (" d 8 ", "dihedral", 8),
    ("Dic3", "dicyclic", 12),
    ("dIc 1", "dicyclic", 4),
    ("Q8", "dicyclic", 8),
    ("S4", "symmetric", 24),
    ("s1", "symmetric", 1),
    ("S8", "symmetric", 40320),
    ("A5", "alternating", 60),
    ("A2", "alternating", 1),
    ("E(2,3)", "elementary", 8),
    ("e( 3 , 2 )", "elementary", 9),
    ("PSL(2,7)", "psl2", 168),
    ("psl(2, 9)", "psl2", 360),
    ("PSL(2,4)", "psl2", 60),
    ("M11", "mathieu", 7920),
    ("M12", "mathieu", 95040),
    ("W", "w", 20),
    ("w", "w", 20),
]


@pytest.mark.parametrize("text,family,order", _SINGLE_TOKENS)
def test_parse_single_tokens(grp, text, family, order):
    assert {case[1] for case in _SINGLE_TOKENS} == set(groups._FAMILIES)
    spec = parse_group_spec(text)
    assert spec.family == family
    assert spec_order(spec) == order
    assert parse_group_spec(spec.text()) == spec
    if order <= groups.MAX_ORDER:
        assert grp(spec.text()).order == order
    else:
        with pytest.raises(OrderLimitExceeded):
            build_group(spec)
    with pytest.raises(UnknownFamily):
        build_group(GroupSpec("zork"))


def test_parse_products_and_roundtrip():
    spec = parse_group_spec("C2xS3")
    assert spec.family == "product"
    assert [c.family for c in spec.children] == ["cyclic", "symmetric"]
    assert spec_order(spec) == 12
    assert spec.text() == "C2xS3"
    assert parse_group_spec(spec.text()) == spec

    triple = parse_group_spec("C2XC2xC2")
    assert spec_order(triple) == 8
    assert triple.text() == "C2xC2xC2"


def test_parse_q8_normalizes_to_dic2():
    assert parse_group_spec("Q8").text() == "Dic2"
    assert parse_group_spec("Q8") == parse_group_spec("Dic2")


def test_parse_file_specs():
    spec = parse_group_spec("cayley:tables/g.json")
    assert spec.family == "cayley" and spec.path == "tables/g.json"
    assert spec_order(spec) is None
    assert parse_group_spec("perm:gens.txt").family == "perm"


@pytest.mark.parametrize(
    "text,exc",
    [
        ("D7", MalformedParameter),
        ("D0", MalformedParameter),
        ("C0", MalformedParameter),
        ("E(4,2)", MalformedParameter),
        ("E(2,0)", MalformedParameter),
        ("PSL(2,6)", BadPrimePower),
        ("PSL(2,64)", BadPrimePower),
        ("X99", UnknownFamily),
        ("C2xxC3", UnknownFamily),
        ("Zork9", UnknownFamily),
        ("", SpecError),
        ("cayley:", MalformedParameter),
        ("C" + "9" * 5000, MalformedParameter),
        ("E(2," + "1" * 4301 + ")", MalformedParameter),
        ("C2xDic" + "7" * 4400, MalformedParameter),
    ],
)
def test_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_group_spec(text)


def test_psl_bound_is_checked_before_factoring_q(monkeypatch):
    # Factoring a huge q by trial division would run for minutes.
    from ecov import gf

    factor = gf.factor_prime_power

    def small_only(q):
        if q > gf.MAX_Q:
            raise AssertionError(f"factor_prime_power({q}) called above MAX_Q")
        return factor(q)

    monkeypatch.setattr(gf, "factor_prime_power", small_only)
    for q in (1000000000000000003, 64):
        with pytest.raises(BadPrimePower, match=rf"needs a prime power q in 2\.\.32, got {q}$"):
            parse_group_spec(f"PSL(2,{q})")
    assert parse_group_spec("PSL(2,32)").params == (32,)


# ---------------------------------------------------------------------------
# Builders: orders and exponents


@pytest.mark.parametrize(
    "spec,order,expo",
    [
        ("C1", 1, 1),
        ("C12", 12, 12),
        ("D8", 8, 4),
        ("D12", 12, 6),
        ("D18", 18, 18),
        ("Dic1", 4, 4),
        ("Q8", 8, 4),
        ("Dic3", 12, 12),
        ("E(2,3)", 8, 2),
        ("E(3,2)", 9, 3),
        ("S3", 6, 6),
        ("S4", 24, 12),
        ("A4", 12, 6),
        ("A5", 60, 30),
        ("W", 20, 20),
        ("PSL(2,4)", 60, 30),
        ("PSL(2,7)", 168, 84),
        ("PSL(2,9)", 360, 60),
        ("C2xC3", 6, 6),
        ("C2xD10", 20, 10),
    ],
)
def test_builder_orders_and_exponents(grp, spec, order, expo):
    G = grp(spec)
    assert G.order == order
    assert exponent(G) == expo
    assert verify_table(G.table).ok


def _twisted_cyclic_reference(order: int, m: int, shift: int) -> np.ndarray:
    # The int64 formula the dihedral (shift 0) and dicyclic (shift n) builders
    # used before they built by blocks: a^i b^e indexed i + m*e.
    idx = np.arange(order, dtype=np.int64)
    i, e = idx % m, idx // m
    sign = 1 - 2 * e
    rot = (i[:, None] + sign[:, None] * i[None, :] + shift * (e[:, None] & e[None, :])) % m
    return rot + m * (e[:, None] ^ e[None, :])


def _pair_reference(TH: np.ndarray, TK: np.ndarray, P) -> Callable[[np.ndarray], np.ndarray]:
    """Rows of the H : K table by its int64 definition: (h1, k1)(h2, k2) =
    (h1 * P[k1][h2], k1 k2), with (h, k) at h*|K| + k.  With P[k] the
    identity for every k it is the direct product H x K."""
    TH, TK, P = (np.asarray(a, dtype=np.int64) for a in (TH, TK, P))
    nK = len(TK)
    cols = np.arange(len(TH) * nK)
    h2, k2 = cols // nK, cols % nK

    def rows(r: np.ndarray) -> np.ndarray:
        h1, k1 = r[:, None] // nK, r[:, None] % nK
        return TH[h1, P[k1, h2]] * nK + TK[k1, k2]

    return rows


def _assert_rows_match(table: np.ndarray, reference: Callable[[np.ndarray], np.ndarray], name: str) -> None:
    # Block by block, so no int64 square of the largest tables is built.
    assert table.dtype == np.int16, name
    for start in range(0, len(table), 512):
        r = np.arange(start, min(len(table), start + 512))
        assert np.array_equal(table[r], reference(r)), (name, start)


def test_dihedral_and_dicyclic_tables_match_the_int64_formula(grp):
    # Every order up to 400 and the largest up to 2,000.
    for order in [*range(2, 401, 2), 1000, 1998, 2000]:
        table = groups._build_dihedral(order).table
        assert table.dtype == np.int16
        assert np.array_equal(table, _twisted_cyclic_reference(order, order // 2, 0)), order
    for n in [*range(1, 101), 250, 499, 500]:
        table = groups._build_dicyclic(n).table
        assert table.dtype == np.int16
        assert np.array_equal(table, _twisted_cyclic_reference(4 * n, 2 * n, n)), n
    # C_n, reduced by one subtraction, against (i + j) % n up to the order limit.
    for n in [*range(1, 301), 4096, 9973, 10000]:
        _assert_rows_match(groups._build_cyclic(n).table, lambda r: (r[:, None] + np.arange(n)) % n, f"C{n}")
    # Direct products, built as one block product, against their definition.
    for a, b in [("C2", "A7"), ("A7", "C2"), ("C12", "C20"), ("S3", "C4"), ("C4", "S3"), ("Q8", "D10"), ("E(2,3)", "S4")]:
        A, B = grp(a), grp(b)
        identity = [range(A.order)] * B.order
        _assert_rows_match(direct_product(A, B).table, _pair_reference(A.table, B.table, identity), f"{a}x{b}")
    for spec in ("C2xA7", "A7xC2", "C2xS3xC2"):
        G = grp(spec)
        A, B = G.meta.children
        _assert_rows_match(G.table, _pair_reference(A.table, B.table, [range(A.order)] * B.order), spec)
    # Semidirect products: W, C7:C3, V4:C3 (A4), C3:C2 (S3), and S3 and A5
    # twisted by an inner automorphism of order 2.
    actions = [
        ("C5", "C4", [[h * 2**k % 5 for h in range(5)] for k in range(4)]),
        ("C7", "C3", [[h * 2**k % 7 for h in range(7)] for k in range(3)]),
        ("E(2,2)", "C3", [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]),
        ("C3", "C2", [[0, 1, 2], [0, 2, 1]]),
    ]
    for spec in ("S3", "A5"):
        H = grp(spec)
        g = H.element_orders().index(2)
        T = H.table.tolist()
        actions.append((spec, "C2", [list(range(H.order)), [T[T[g][x]][H.inverse[g]] for x in range(H.order)]]))
    for h, k, action in actions:
        H, K = grp(h), grp(k)
        _assert_rows_match(semidirect_product(H, K, action).table, _pair_reference(H.table, K.table, action), f"{h}:{k}")
    _assert_rows_match(grp("W").table, _pair_reference(grp("C5").table, grp("C4").table, actions[0][2]), "W")


_PRIME_POWERS = [q for q in range(2, 33) if factor_prime_power(q)]


@pytest.mark.parametrize("q", _PRIME_POWERS)
def test_small_field_satisfies_the_field_axioms(q):
    F = small_field(q)
    A, M = np.array(F.add), np.array(F.mul)
    x = np.arange(q)
    digits = x[:, None] // F.p ** np.arange(F.k) % F.p
    assert (F.p**F.k, F.q) == (q, q)
    # Addition is digit-wise mod p: the base-p digit encoding.
    assert np.array_equal(A, (digits[:, None] + digits[None, :]) % F.p @ F.p ** np.arange(F.k))
    for T in (A, M):
        assert np.array_equal(T, T.T)
        assert np.array_equal(T[T[:, :, None], x], T[x[:, None, None], T[None, :, :]])
    assert np.array_equal(A[0], x) and np.array_equal(M[1], x) and not M[0].any()
    assert (A[x, F.neg] == 0).all()
    assert F.inv[0] == 0 and (M[x[1:], np.array(F.inv)[1:]] == 1).all()
    assert np.array_equal(M[x[:, None, None], A[None, :, :]], A[M[:, :, None], M[:, None, :]])
    assert all(F.div(a, b) == M[a, F.inv[b]] for a in range(q) for b in range(1, q))
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)


def _poly_remainder(f: list[int], g: list[int], p: int) -> list[int]:
    """f mod the monic g over GF(p), coefficients least significant first."""
    f, d = list(f), len(g) - 1
    for top in range(len(f) - 1, d - 1, -1):
        c = f[top]
        for i, gi in enumerate(g):
            f[top - d + i] = (f[top - d + i] - c * gi) % p
    return f[:d]


def _is_irreducible(f: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 to deg(f) / 2."""
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for low in range(p**d):
            if not any(_poly_remainder(f, [low // p**i % p for i in range(d)] + [1], p)):
                return False
    return True


@pytest.mark.parametrize("q", _PRIME_POWERS)
def test_small_field_modulus_is_the_first_monic_irreducible(q):
    # The moduli x^k + c(x) are searched with c read as a base-p number.
    F = small_field(q)
    p, k = F.p, F.k
    first = next(c for c in range(q) if _is_irreducible([c // p**i % p for i in range(k)] + [1], p))
    if k == 1:
        assert first == 0  # the modulus x: plain mod-p arithmetic
        assert F.mul == [[a * b % p for b in range(p)] for a in range(p)]
        return
    # x is the element p; x^i is p^i below degree k, and x^k = -c(x).
    power = 1
    for i in range(k):
        assert power == p**i
        power = F.mul[power][p]
    assert F.neg[power] == first


def test_psl_2_8_order_and_exponent(grp):
    G = grp("PSL(2,8)")
    assert G.order == 504
    assert exponent(G) == 126


@pytest.mark.parametrize(
    "spec",
    [
        "C1", "C30", "D208", "Q8", "A5", "E(3,3)", "C2xD10",
        # three or more primes
        "C210", "C4xC60", "S5",
        # 2^4 divides the order but no element has a 2-part above 2
        "E(2,4)xC9",
        "Dic15", "PSL(2,8)",
    ],
)
def test_element_orders_match_powering_loop(grp, spec):
    G = grp(spec)
    T = G.table.tolist()
    expected = [1]
    for g in range(1, G.order):
        x, k = g, 1
        while x != 0:
            x, k = T[x][g], k + 1
        expected.append(k)
    assert G.element_orders() == expected


def test_power_matches_repeated_multiplication(grp):
    G = grp("D12")
    T = G.table.tolist()
    x = np.arange(G.order)
    expected = [0] * G.order
    for m in range(G.order + 1):
        assert groups._power(G.table, x, m).tolist() == expected
        expected = [T[e][g] for g, e in enumerate(expected)]


# Elements of each order in M11 and A7, from the ATLAS of Finite Groups.
_ORDER_COUNTS = {
    "M11": {1: 1, 2: 165, 3: 440, 4: 990, 5: 1584, 6: 1320, 8: 1980, 11: 1440},
    "A7": {1: 1, 2: 105, 3: 350, 4: 630, 5: 504, 6: 210, 7: 720},
}


@pytest.mark.parametrize("spec", sorted(_ORDER_COUNTS))
def test_element_order_counts_match_atlas(grp, spec):
    assert Counter(grp(spec).element_orders()) == _ORDER_COUNTS[spec]


@pytest.mark.parametrize("n", [1, 2, 210, 1510])
def test_cyclic_group_has_phi_d_elements_of_each_order_d(grp, n):
    G = grp(f"C{n}")
    phi = {d: sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) for d in range(1, n + 1) if n % d == 0}
    assert Counter(G.element_orders()) == phi
    assert exponent(G) == n
    assert is_cyclic(G)


def test_c2xc3_is_cyclic(grp):
    G = grp("C2xC3")
    assert max(G.element_orders()) == 6


def test_group_table_operations(grp):
    G = grp("D12")
    for a in range(G.order):
        assert G.table[a, G.inverse[a]] == 0
        assert G.table[G.inverse[a], a] == 0
    assert G.meta.name == "D12"
    assert build_group("C2xC3xC2").meta.name == "C2xC3xC2"


def test_order_limit_enforced():
    with pytest.raises(OrderLimitExceeded):
        build_group("C20000")
    with pytest.raises(OrderLimitExceeded):
        build_group("PSL(2,32)")
    with pytest.raises(OrderLimitExceeded):
        build_group("M12")


# ---------------------------------------------------------------------------
# Table verification


def test_verify_accepts_real_tables(grp):
    assert verify_table(grp("S4").table).ok


def test_verify_rejects_malformed_shapes():
    assert verify_table([[0, 1]]).code == "MalformedTable"
    assert verify_table([[0, 1], [2, 0]]).code == "MalformedTable"
    assert verify_table(np.zeros((0, 0), dtype=int)).code == "MalformedTable"


def test_verify_rejects_missing_identity():
    # Subtraction mod 3 is a latin square but 0 is only a right identity.
    sub3 = [[(a - b) % 3 for b in range(3)] for a in range(3)]
    report = verify_table(sub3)
    assert not report.ok
    assert report.code == "NoIdentity"


def test_verify_rejects_non_latin_rows_and_columns():
    bad_row = [[0, 1, 2, 3], [1, 0, 1, 3], [2, 3, 0, 1], [3, 2, 1, 0]]
    report = verify_table(bad_row)
    assert report.code == "NotLatinSquare" and report.witness == ("row", 1)

    bad_col = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    report = verify_table(bad_col)
    assert report.code == "NotLatinSquare" and report.witness == ("column", 1)


def test_verify_rejects_one_sided_inverses():
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    report = verify_table(loop)
    assert report.code == "NoInverse"


# Unital, latin, every element self-inverse; if associative it would be a
# group of order 5 with exponent 2, which is impossible.
_ORDER5_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def _brute_force_associative(T) -> bool:
    """The O(n^3) triple check, kept here as the reference for Light's test."""
    T = np.asarray(T)
    return all(np.array_equal(T[T[a], :], T[a, T]) for a in range(T.shape[0]))


def _assert_fails_at(T, witness):
    a, b, c = witness
    assert T[T[a, b], c] != T[a, T[b, c]]


def _intercalate_cyclic(n: int) -> np.ndarray:
    """C_n with one intercalate swapped: still a Latin square with identity 0
    and two-sided inverses, but no longer associative."""
    idx = np.arange(n)
    T = (idx[:, None] + idx[None, :]) % n
    h = 1 + n // 2
    for r in (1, h):
        T[r, 1], T[r, h] = T[r, h], T[r, 1]
    return T


def test_verify_rejects_non_associative_loop():
    assert not _brute_force_associative(_ORDER5_LOOP)
    report = verify_table(_ORDER5_LOOP)
    assert report.code == "NotAssociative"
    _assert_fails_at(np.array(_ORDER5_LOOP), report.witness)


def test_light_verdict_matches_brute_force_on_catalog():
    for entry in catalog(24):
        G = build_group(entry.spec)
        assert verify_table(G.table).ok == _brute_force_associative(G.table), entry.display


@pytest.mark.parametrize("n", [8, 1024])
def test_light_rejects_intercalate_swap(n):
    T = _intercalate_cyclic(n)
    report = verify_table(T)
    assert report.code == "NotAssociative"
    _assert_fails_at(T, report.witness)
    assert not _brute_force_associative(T)


def test_verify_with_non_generating_generators_stays_exact(grp):
    # Light's test runs over the greedy generating set of each table, so
    # the swapped C8 is named at (1, 1, 2) whatever generators built it.
    assert verify_table(grp("C6").table).ok
    loop = _intercalate_cyclic(8)
    report = verify_table(loop)
    assert (report.code, report.witness) == ("NotAssociative", (1, 1, 2))
    _assert_fails_at(loop, report.witness)


def test_verify_large_table_methods(grp):
    G = build_group("C601")
    assert verify_table(G.table).ok


def _reference_verdict(T) -> tuple:
    """Each check in turn: identity, sorted rows, sorted columns, the first
    zero of each row as a left inverse, then brute-force associativity,
    whose witness is the one Light's test names."""
    T = np.asarray(T)
    n = T.shape[0]
    if T[0].tolist() != list(range(n)) or T[:, 0].tolist() != list(range(n)):
        return ("NoIdentity", (0,))
    for r in range(n):
        if sorted(T[r].tolist()) != list(range(n)):
            return ("NotLatinSquare", ("row", r))
    for c in range(n):
        if sorted(T[:, c].tolist()) != list(range(n)):
            return ("NotLatinSquare", ("column", c))
    for x in range(n):
        if T[T[x].tolist().index(0), x] != 0:
            return ("NoInverse", (x,))
    if not _brute_force_associative(T):
        return ("NotAssociative", _light_witness(T, _generating_set(T)))
    return (None, None)


def _single_cell_changes(T):
    n = T.shape[0]
    for i in range(n):
        for j in range(n):
            for v in range(n):
                if v != T[i, j]:
                    bad = T.copy()
                    bad[i, j] = v
                    yield bad


def _intercalate_swaps(T):
    """Latin squares that differ from T in one 2x2 subsquare."""
    n = T.shape[0]
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            for c1 in range(n):
                for c2 in range(c1 + 1, n):
                    if T[r1, c1] == T[r2, c2] and T[r1, c2] == T[r2, c1]:
                        bad = T.copy()
                        bad[[r1, r2], c1], bad[[r1, r2], c2] = T[[r1, r2], c2], T[[r1, r2], c1]
                        yield bad


# Row 1 repeats 1, but every zero is where it was in C4, so the first zero
# of each row is still a two-sided inverse.
_NON_LATIN_WITH_INVERSES = [[0, 1, 2, 3], [1, 2, 1, 0], [2, 3, 0, 1], [3, 0, 1, 2]]


def _rejection_fixtures() -> list[np.ndarray]:
    fixtures = [
        [[0, 1, 2, 3], [1, 0, 1, 3], [2, 3, 0, 1], [3, 2, 1, 0]],
        [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
        [[(a - b) % 3 for b in range(3)] for a in range(3)],
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
        _ORDER5_LOOP,
        _NON_LATIN_WITH_INVERSES,
    ]
    tables = [np.array(t) for t in fixtures] + [_intercalate_cyclic(8)]
    for entry in catalog(8):
        T = build_group(entry.spec).table.astype(np.int64)
        tables += list(_single_cell_changes(T)) + list(_intercalate_swaps(T))
    return tables


def test_rejections_match_the_checks_in_order():
    codes = set()
    for T in _rejection_fixtures():
        report = verify_table(T)
        code, witness = _reference_verdict(T)
        assert (report.code, report.witness) == (code, witness), T.tolist()
        if code == "NotAssociative":
            _assert_fails_at(T, report.witness)
        codes.add(code)
    assert {"NoIdentity", "NotLatinSquare", "NoInverse", "NotAssociative"} <= codes


def test_multi_block_light_path_names_the_same_rejections(monkeypatch):
    # With 16-cell blocks the order-8 tables take two rows a block and the
    # order-1024 one a row a block, so a failure past the first block must
    # still yield the first witness, the one a single block finds.
    tables = _rejection_fixtures() + [_intercalate_cyclic(1024)]
    expected = [_reference_verdict(T) for T in tables]
    monkeypatch.setattr(groups, "_LIGHT_BLOCK_CELLS", 16)
    for T, verdict in zip(tables, expected):
        report = verify_table(T)
        assert (report.code, report.witness) == verdict, T.tolist()
    assert any(code == "NotAssociative" and witness[0] >= 2 for code, witness in expected)


def test_only_cayley_files_go_through_verify_table(monkeypatch, tmp_path, capsys):
    # A cayley: file is the only table from outside the program, so it is the
    # only one the program verifies; every other table is a group by
    # construction, and the tests below check that instead.
    calls = []
    verify = groups.verify_table
    monkeypatch.setattr(groups, "verify_table", lambda T: calls.append(len(T)) or verify(T))
    perm = tmp_path / "f21.txt"
    perm.write_text("(1,2,3,4,5,6,7)\n(2,3,5)(4,7,6)\n", encoding="utf-8")
    specs = ["C12", "D12", "Dic3", "Q8", "S4", "A5", "E(2,3)", "PSL(2,7)", "M11", "W", "C2xS3xC2", f"perm:{perm}"]
    built = {spec: build_group(spec) for spec in specs}
    quotient(built["D12"], (0, 2, 4))
    assert calls == []

    G = built["A5"]
    path = tmp_path / "a5.json"
    path.write_text(json.dumps({"order": 60, "table": G.table.tolist()}), encoding="utf-8")
    H = build_group(f"cayley:{path}")
    assert calls == [60]
    assert np.array_equal(H.table, G.table)
    T = H.table
    assert all(T[x, H.inverse[x]] == 0 == T[H.inverse[x], x] for x in range(H.order))

    bad = tmp_path / "loop.json"
    bad.write_text(json.dumps({"order": 5, "table": _ORDER5_LOOP}), encoding="utf-8")
    with pytest.raises(InvalidRawTable):
        build_group(f"cayley:{bad}")
    assert calls == [60, 5]
    assert cli.main(["describe", f"cayley:{bad}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid Cayley table: NotAssociative witness=")
    assert calls == [60, 5, 5]


def test_over_limit_cayley_file_is_refused_before_it_is_copied_or_verified(monkeypatch, tmp_path, capsys):
    """The declared order is checked against MAX_ORDER before the table is
    copied to an array and run through verify_table."""
    path = tmp_path / "a5.json"
    path.write_text(json.dumps({"order": 60, "table": build_group("A5").table.tolist()}), encoding="utf-8")
    calls = []
    monkeypatch.setattr(groups, "verify_table", lambda T: calls.append(len(T)))
    monkeypatch.setattr(groups, "MAX_ORDER", 59)
    with pytest.raises(OrderLimitExceeded, match="table order 60 exceeds 59"):
        build_group(f"cayley:{path}")
    assert cli.main(["describe", f"cayley:{path}"]) == 3
    assert capsys.readouterr() == ("", "resource limit: table order 60 exceeds 59\n")
    assert calls == []


# ---------------------------------------------------------------------------
# Built tables are groups by construction
#
# The program checks no table it builds itself.  These tests carry that
# argument: every builder's tables pass verify_table and, up to order 64,
# the brute-force triple check as well.


def _assert_group_table(T, label):
    assert verify_table(T).ok, label
    if T.shape[0] <= 64:
        assert _brute_force_associative(T), label


@pytest.mark.parametrize(
    "spec",
    [
        "C1", "C2", "C12", "C601",
        "D2", "D12", "D64", "D400",
        "Dic1", "Q8", "Dic3", "Dic16", "Dic125",
        "E(2,1)", "E(2,6)", "E(3,3)", "E(5,2)", "E(7,3)",
        "S1", "S2", "S3", "S4", "S5", "S6",
        "A1", "A3", "A4", "A5", "A6",
        "PSL(2,2)", "PSL(2,3)", "PSL(2,4)", "PSL(2,5)", "PSL(2,7)", "PSL(2,8)", "PSL(2,9)", "PSL(2,11)",
        "W",
        # direct products of three or more factors
        "C2xC2xC3", "S3xC2xC2", "Q8xC3xC2", "C2xD10xC3", "WxC2xC2", "Dic3xE(2,2)xC5", "C2xC2xC2xC2xS3",
    ],
)
def test_built_tables_are_groups(spec):
    _assert_group_table(build_group(spec).table, spec)


def test_every_catalog_table_passes_verify_table():
    specs = [entry.spec.text() for entry in catalog(240)]
    specs += ["M11", "PSL(2,16)", "PSL(2,25)", "A7", "S7", "C1510"]
    bad = [(spec, report.code, report.witness) for spec in specs if not (report := verify_table(build_group(spec).table)).ok]
    assert len(specs) == 897
    assert bad == []


@pytest.mark.parametrize(
    "text,order",
    [
        ("(1,2)(3,4)\n(1,3)\n", 8),
        ("(1,2,3)\n(1,2)\n", 6),
        ("(1,2,3,4,5,6,7)\n(2,3,5)(4,7,6)\n", 21),
        ("(1,2,3,4,5)\n(1,2,3)\n", 60),
        ("(1,2,3,4,5,6,7,8,9,10,11)\n(3,7,11,8)(4,10,5,6)\n", 7920),
    ],
)
def test_perm_file_tables_are_groups(tmp_path, text, order):
    path = tmp_path / "gens.txt"
    path.write_text(text, encoding="utf-8")
    G = build_group(f"perm:{path}")
    assert G.order == order
    _assert_group_table(G.table, text)


def _inverting(H):
    """C2 acting on an abelian H by inversion."""
    return [tuple(range(H.order)), H.inverse]


def _cyclic_units(n, unit, k):
    """C_k acting on C_n by multiplication with powers of unit."""
    return [tuple(h * pow(unit, j, n) % n for h in range(n)) for j in range(k)]


@pytest.mark.parametrize(
    "H,K,action",
    [
        ("C7", "C3", lambda H: _cyclic_units(7, 2, 3)),
        ("C9", "C6", lambda H: _cyclic_units(9, 2, 6)),
        # the three involutions of E(2,2) permuted cyclically: A4
        ("E(2,2)", "C3", lambda H: [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)]),
        ("E(3,2)", "C2", _inverting),
        ("C4xC2", "C2", _inverting),
    ],
)
def test_semidirect_product_tables_are_groups(grp, H, K, action):
    G = semidirect_product(grp(H), grp(K), action(grp(H)))
    assert G.order == grp(H).order * grp(K).order
    assert not (G.table == G.table.T).all()
    _assert_group_table(G.table, G.meta.name)


def test_quotient_tables_of_the_decision_rules_are_groups(monkeypatch):
    # Every quotient that T21 (_noncyclic_quotients) takes while deciding
    # catalog(240), recorded at its call site, and the quotient by every
    # elementary_abelian_quotient kernel of catalog(120), which the index-p
    # coordinates are read from without building it.
    taken = []

    def recording(G, members):
        Q, proj = quotient(G, members)
        taken.append((f"{G.meta.name}/{len(proj) // Q.order}", Q))
        return Q, proj

    monkeypatch.setattr(covering, "quotient", recording)
    for entry in catalog(240):
        covering.decide(build_group(entry.spec))
    assert len(taken) == 104
    for entry in catalog(120):
        G = build_group(entry.spec)
        for p in groups.factorize(G.order):
            recording(G, analysis.elementary_abelian_quotient(G, p)[1])
    assert len(taken) > 500
    for label, Q in taken:
        _assert_group_table(Q.table, label)


def test_non_latin_table_with_inverses_is_named_not_latin():
    report = verify_table(_NON_LATIN_WITH_INVERSES)
    assert (report.code, report.witness) == ("NotLatinSquare", ("row", 1))


def test_verify_table_temporaries_stay_small():
    # Blockwise inverses and Light's test need a few blocks of
    # _LIGHT_BLOCK_CELLS cells; one sorted copy of the table would not fit.
    G = build_group("M11")
    tracemalloc.start()
    try:
        assert verify_table(G.table).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20


# ---------------------------------------------------------------------------
# Permutations and generator closure


def test_cycle_parsing_roundtrip():
    assert parse_cycles("(1,2,3)(4,5)") == (1, 2, 0, 4, 3)
    assert parse_cycles("()") == ()


@pytest.mark.parametrize("text", ["(1,2", "(1,2)(2,3)", "(0,1)", "(1,x)", "1,2"])
def test_cycle_parsing_errors(text):
    with pytest.raises(CycleNotationError):
        parse_cycles(text)


def test_permutation_closure_s3():
    G = build_group("S3")
    assert G.order == 6
    assert np.array_equal(G.table[0], np.arange(6))


def _reference_closure(generators):
    """Breadth-first closure on image tuples, each layer sorted, and the
    table by composing every pair; ``x * y`` applies y first."""
    degree = max(len(g) for g in generators)
    identity = tuple(range(degree))
    gens = sorted({tuple(g) + identity[len(g):] for g in generators} - {identity})
    elements, index = [identity], {identity: 0}
    layer = [identity]
    while layer:
        layer = sorted({tuple(x[p] for p in g) for x in layer for g in gens} - index.keys())
        for y in layer:
            index[y] = len(elements)
            elements.append(y)
    table = [[index[tuple(x[p] for p in y)] for y in elements] for x in elements]
    return np.array(table), tuple(index[g] for g in gens)


def _psl2_generators(q):
    from ecov.gf import small_field

    F = small_field(q)

    def moebius(a, b, c, d):
        images = []
        for x in range(q):
            den = F.add[F.mul[c][x]][d]
            images.append(q if den == 0 else F.div(F.add[F.mul[a][x]][b], den))
        return images + [q if c == 0 else F.div(a, c)]

    return [moebius(1, F.p**i, 0, 1) for i in range(F.k)] + [moebius(0, F.neg[1], 1, 0)]


_REFERENCE_GENERATORS = {
    "S4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "S5": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],
    "A5": [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]],
    "A6": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]],
    "PSL(2,7)": _psl2_generators(7),
    "PSL(2,8)": _psl2_generators(8),
}


@pytest.mark.parametrize("spec", sorted(_REFERENCE_GENERATORS))
def test_permutation_numbering_matches_reference_closure(grp, spec):
    table, gens = _reference_closure(_REFERENCE_GENERATORS[spec])
    G = grp(spec)
    assert np.array_equal(G.table, table)
    assert G.generators == gens


@pytest.mark.parametrize(
    "text",
    [
        "(1,2)\n()\n(1,2,3,4,5)\n(1,2)\n(2,3)(6,7)\n",
        "(1,2)\n(3)\n",
        "(2,3,4)\n(1,2)(3,4)\n(2,3,4)\n",
        "()\n",
    ],
    ids=["mixed-degrees", "identity-of-degree-3", "repeat", "trivial"],
)
def test_permutation_file_numbering_matches_reference_closure(tmp_path, text):
    # Mixed degrees, identities written at several degrees, and repeats.
    path = tmp_path / "gens.txt"
    path.write_text(text, encoding="utf-8")
    G = build_group(f"perm:{path}")
    table, gens = _reference_closure([parse_cycles(line) for line in text.splitlines()])
    assert np.array_equal(G.table, table)
    assert G.generators == gens


def test_permutation_closure_respects_limit(tmp_path):
    # S8 has order 40320, above MAX_ORDER: the closure stops once it passes the limit.
    path = tmp_path / "s8.txt"
    path.write_text("(1,2)\n(1,2,3,4,5,6,7,8)\n", encoding="utf-8")
    with pytest.raises(OrderLimitExceeded, match="closure exceeded the order limit 10000"):
        build_group(f"perm:{path}")


def test_psl27_from_permutation_file_matches_moebius_build(grp, tmp_path):
    # x -> x+1 and x -> -1/x on the projective line over the 7-element field,
    # written as permutations of the 8 points (point x is label x+1, label 8
    # is the point at infinity).
    path = tmp_path / "psl27.txt"
    path.write_text(
        "# generators on 8 points\n(1,2,3,4,5,6,7)\n(1,8)(2,7)(3,4)(5,6)\n",
        encoding="utf-8",
    )
    G = build_group(f"perm:{path}")
    H = grp("PSL(2,7)")
    assert G.order == H.order == 168
    assert exponent(G) == exponent(H) == 84
    assert sorted(set(G.element_orders())) == sorted(set(H.element_orders()))


def test_mathieu_generator_closures():
    from ecov.groups import _build_mathieu  # closure smoke without tabulating M12

    assert _build_mathieu(11).order == 7920


# ---------------------------------------------------------------------------
# Raw Cayley files


def test_cayley_file_roundtrip(grp, tmp_path):
    G = grp("D12")
    path = tmp_path / "d12.json"
    path.write_text(
        json.dumps({"order": 12, "table": G.table.tolist()}), encoding="utf-8"
    )
    H = build_group(f"cayley:{path}")
    assert H.order == 12
    assert np.array_equal(H.table, G.table)
    assert exponent(H) == 6
    # Greedy rule: add the least element outside the closure until it is all.
    T = G.table.tolist()
    gens, members = [], {0}
    while len(members) < 12:
        gens.append(min(set(range(12)) - members))
        frontier = [0]
        members = {0}
        while frontier:
            frontier = [T[x][g] for x in frontier for g in gens if T[x][g] not in members]
            members.update(frontier)
    assert H.generators == tuple(gens)


def test_cayley_file_rejects_bad_tables(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}),
        encoding="utf-8",
    )
    with pytest.raises(InvalidRawTable) as err:
        build_group(f"cayley:{path}")
    assert err.value.code == "NotLatinSquare"

    path.write_text(json.dumps({"order": 2}), encoding="utf-8")
    with pytest.raises(SpecError):
        build_group(f"cayley:{path}")

    path.write_text("not json", encoding="utf-8")
    with pytest.raises(SpecError):
        build_group(f"cayley:{path}")


# ---------------------------------------------------------------------------
# Products, semidirect products, quotients


def test_direct_product_structure(grp):
    A, B = grp("C2"), grp("C3")
    P = direct_product(A, B)
    assert P.order == 6
    orders = sorted(P.element_orders())
    assert orders == [1, 2, 3, 3, 6, 6]
    # embedded copies commute
    for a in range(2):
        for b in range(3):
            assert P.table[a * 3, b] == P.table[b, a * 3]


def test_semidirect_product_builds_w(grp):
    C5, C4 = grp("C5"), grp("C4")
    # k acts as multiplication by 2^k mod 5
    action = [tuple((h * pow(2, k, 5)) % 5 for h in range(5)) for k in range(4)]
    W = semidirect_product(C5, C4, action)
    assert W.order == 20
    assert exponent(W) == 20
    ref = grp("W")
    assert sorted(W.element_orders()) == sorted(ref.element_orders())


def test_semidirect_rejects_bad_actions(grp):
    C3, C2 = grp("C3"), grp("C2")
    with pytest.raises(InvalidAction):
        semidirect_product(C3, C2, [(0, 1, 2), (1, 0, 2)])  # not an automorphism
    with pytest.raises(InvalidAction):
        semidirect_product(C3, C2, [(0, 1, 2), (0, 0, 0)])  # not a bijection
    with pytest.raises(InvalidAction):
        semidirect_product(C3, C2, [(0, 1, 2)])  # missing part
    C5, C4 = grp("C5"), grp("C4")
    inversion = tuple((-h) % 5 for h in range(5))
    identity = tuple(range(5))
    with pytest.raises(NotHomomorphism):
        semidirect_product(C5, C4, [identity, inversion, inversion, identity])


def test_quotient_d12_by_rotation_square_is_klein(grp):
    G = grp("D12")
    Q, proj = quotient(G, (0, 2, 4))
    assert Q.order == 4
    assert exponent(Q) == 2  # order 4 and exponent 2: the Klein four-group
    assert proj[0] == 0 and len(proj) == 12


def test_quotient_s4_by_klein_is_s3(grp):
    G = grp("S4")
    v = next(
        s for s in normal_subgroups_direct(G) if s.order == 4
    )
    Q, _ = quotient(G, v)
    assert Q.order == 6
    assert exponent(Q) == 6
    assert not np.array_equal(Q.table, Q.table.T)  # non-abelian, so S3


def test_quotient_by_trivial_is_identity_map(grp):
    G = grp("A4")
    Q, proj = quotient(G, (0,))
    assert np.array_equal(Q.table, G.table)
    assert proj == tuple(range(12))


def test_quotient_rejects_non_normal_and_non_subgroups(grp):
    G = grp("D12")
    reflection = next(g for g in range(12) if G.element_orders()[g] == 2 and g >= 6)
    with pytest.raises(NotNormal):
        quotient(G, (0, reflection))
    with pytest.raises(NotNormal):
        quotient(G, (0, 1, 2))  # not closed
    with pytest.raises(NotNormal):
        quotient(G, (1, 2))  # missing identity


def test_quotient_numbers_cosets_by_least_member_on_catalog():
    # Checked against cosets built by hand.  The quotient rule's certificates
    # are preimages under this projection, so the numbering is part of them.
    for entry in catalog(60):
        G = build_group(entry.spec)
        rows = G.table.tolist()
        for N in normal_subgroups_direct(G):
            least = [min(rows[h][g] for h in N.members) for g in range(G.order)]
            reps = sorted(set(least))
            Q, proj = quotient(G, N.members)
            assert proj == tuple(reps.index(x) for x in least), (entry.display, N.order)
            p = np.asarray(proj)
            assert Q.order * N.order == G.order
            assert np.array_equal(Q.table[np.ix_(p, p)], p[G.table]), (entry.display, N.order)


def test_block_gathers_match_a_single_block(monkeypatch):
    # With one row a block, quotient, _is_subgroup and the normal scan must
    # give what one block gives, and quotient must name the same escape.
    specs = ["S4", "D12", "Dic6", "A5", "C2xS3xC2"]
    cases = []
    for spec in specs:
        G = build_group(spec)
        normals = normal_subgroups_direct(G)
        members = [N.members for N in normals]
        cases.append((G, members, [quotient(G, m) for m in members]))
    for G, members, _ in cases:
        assert all(covering._is_subgroup(G, m) for m in members)
    bad = build_group("D12")
    monkeypatch.setattr(groups, "_LIGHT_BLOCK_CELLS", 1)
    for G, members, quotients in cases:
        assert [N.members for N in normal_subgroups_direct(G)] == members, G.meta.name
        for m, (Q, proj) in zip(members, quotients):
            Q1, proj1 = quotient(G, m)
            assert np.array_equal(Q1.table, Q.table) and proj1 == proj and Q1.generators == Q.generators
            assert covering._is_subgroup(G, m)
        assert not covering._is_subgroup(G, (0, 1, 2))
    # 0, 2 and 4 close; the first escape is 2 * 5, in the second row and block.
    with pytest.raises(NotNormal, match=r"^member set is not closed: 2\*5 escapes$"):
        quotient(bad, (0, 2, 4, 5))


def test_elementary_tables_add_digits_mod_p():
    # The digits of an element of E(p,k) are its base-p digits, least first.
    for p, k in ((2, 1), (2, 5), (3, 4), (5, 3), (7, 2), (11, 1)):
        n = p**k
        digits = (np.arange(n)[:, None] // p ** np.arange(k)) % p
        sums = (digits[:, None, :] + digits[None, :, :]) % p
        assert np.array_equal(build_group(f"E({p},{k})").table, (sums * p ** np.arange(k)).sum(axis=2)), (p, k)


def test_stored_generators_generate_the_table(grp, tmp_path):
    # The center and the conjugation maps are computed from the stored
    # generators alone, so every builder must store a generating set, with
    # neither the identity nor a repeat.
    built = [build_group(entry.spec) for entry in catalog(240)]
    built += [build_group(spec) for spec in ("A7", "PSL(2,16)", "C1510", "W")]
    C7, C3 = grp("C7"), grp("C3")
    built.append(semidirect_product(C7, C3, [tuple(h * 2**k % 7 for h in range(7)) for k in range(3)]))
    built.append(quotient(grp("D12"), (0, 2, 4))[0])
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"order": 24, "table": grp("S4").table.tolist()}), encoding="utf-8")
    built.append(build_group(f"cayley:{path}"))
    for G in built:
        assert 0 not in G.generators and len(set(G.generators)) == len(G.generators), G.meta.name
        assert len(generated(G, G.generators)) == G.order, G.meta.name
