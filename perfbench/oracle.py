"""Theory oracle and independent checks for the benchmark's outputs.

Every expected answer here comes from a closed form in group theory, never
from a stored copy of ecov's output.  The only thing taken from ecov is a
group's multiplication table (as nested lists), which the brute-force and
witness checks below work over with their own code.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

INFINITY = math.inf


def least_prime(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and least_prime(n) == n


def _prime_powers(n: int) -> list[int]:
    """The full prime-power parts of n, e.g. 12 -> [4, 3]."""
    parts = []
    while n > 1:
        p, part = least_prime(n), 1
        while n % p == 0:
            n //= p
            part *= p
        parts.append(part)
    return parts


def _is_power_of_two(n: int) -> bool:
    return n & (n - 1) == 0


# ---------------------------------------------------------------------------
# Census rows


@dataclass(frozen=True)
class CensusFacts:
    """What theory says about one catalog group."""

    order: int
    exponent: int
    nilpotent: bool
    equal_covering: bool
    no_covering: bool  # cyclic: no covering by proper subgroups at all (Scorza)

    @property
    def status(self) -> str:
        """The `check` answer: Yes, No, or NoCovering for a cyclic group."""
        if self.equal_covering:
            return "Yes"
        return "NoCovering" if self.no_covering else "No"


# Simple or otherwise non-nilpotent named groups without an equal covering:
# (order, exponent).
_NAMED = {
    "A4": (12, 6),
    "A5": (60, 30),
    "W": (20, 20),
    "PSL(2,4)": (60, 30),
    "PSL(2,5)": (60, 30),
    "PSL(2,7)": (168, 84),
}


def census_facts(name: str) -> CensusFacts:
    """Closed forms for every family the census catalog names up to order 240."""
    if m := re.fullmatch(r"C(\d+)", name):
        n = int(m[1])
        return CensusFacts(n, n, True, False, True)
    if m := re.fullmatch(r"D(\d+)", name):
        order = int(m[1])
        n = order // 2
        return CensusFacts(order, math.lcm(n, 2), _is_power_of_two(n), n % 2 == 0, False)
    if name == "Q8" or (m := re.fullmatch(r"Dic(\d+)", name)):
        n = 2 if name == "Q8" else int(m[1])
        return CensusFacts(4 * n, math.lcm(2 * n, 4), _is_power_of_two(n), n % 2 == 0, n == 1)
    if m := re.fullmatch(r"E\((\d+),(\d+)\)", name):
        p, k = int(m[1]), int(m[2])
        return CensusFacts(p**k, p, True, True, False)
    if m := re.fullmatch(r"C(\d+)xC(\d+)", name):
        a, b = int(m[1]), int(m[2])
        g = math.gcd(a, b)
        return CensusFacts(a * b, math.lcm(a, b), True, g > 1, g == 1)
    if (m := re.fullmatch(r"S(\d+)", name)) and int(m[1]) >= 3:
        n = int(m[1])
        return CensusFacts(math.factorial(n), math.lcm(*range(1, n + 1)), False, False, False)
    if name in _NAMED:
        order, exp = _NAMED[name]
        return CensusFacts(order, exp, False, False, False)
    raise KeyError(f"no closed form for census group {name!r}")


def brute_force_facts(rows: list[list[int]]) -> CensusFacts:
    """Census facts of a small group from its table by a power-set search.

    Every subset holding the identity whose size divides |G| is tested for
    closure under the product; that yields every subgroup.  An equal covering
    exists iff, for some order d, the union of all proper subgroups of order
    d is the whole group.  The group is nilpotent iff each Sylow subgroup is
    unique.
    """
    n = len(rows)
    orders = []
    for g in range(n):
        x, k = g, 1
        while x != 0:
            x = rows[x][g]
            k += 1
        orders.append(k)
    full = (1 << n) - 1
    subgroups = []
    for bits in range(1 << (n - 1)):
        mask = (bits << 1) | 1
        if n % mask.bit_count():
            continue
        members = [x for x in range(n) if (mask >> x) & 1]
        if all((mask >> rows[a][b]) & 1 for a in members for b in members):
            subgroups.append(mask)
    union_by_order: dict[int, int] = {}
    for s in subgroups:
        if s != full:
            union_by_order[s.bit_count()] = union_by_order.get(s.bit_count(), 0) | s
    covered = 0
    for u in union_by_order.values():
        covered |= u
    sylow_counts = [sum(1 for s in subgroups if s.bit_count() == q) for q in _prime_powers(n)]
    return CensusFacts(
        order=n,
        exponent=math.lcm(*orders),
        nilpotent=all(c == 1 for c in sylow_counts),
        equal_covering=full in union_by_order.values(),
        no_covering=n == 1 or covered != full,
    )


# ---------------------------------------------------------------------------
# Invariant queries


def _elementary(spec: str) -> tuple[int, int] | None:
    m = re.fullmatch(r"E\((\d+),(\d+)\)", spec)
    return (int(m[1]), int(m[2])) if m else None


def _dihedral_half(spec: str) -> int | None:
    m = re.fullmatch(r"D(\d+)", spec)
    return int(m[1]) // 2 if m else None


def _two_cyclic(spec: str) -> tuple[int, int] | None:
    m = re.fullmatch(r"C(\d+)xC(\d+)", spec)
    return (int(m[1]), int(m[2])) if m else None


# sigma of single groups: Cohn (1994) for A5 and S5; Bryce, Fedri and
# Serena (1999) for PSL(2,8) and PSL(2,11).
_SIGMA_NAMED = {"A5": 10, "S5": 16, "PSL(2,8)": 36, "PSL(2,11)": 67}


def expected_answer(command: str, spec: str):
    """The closed-form answer of one CLI query.

    sigma/epsilon/rho give an int or INFINITY, partition gives a bool and
    check gives a census status string.
    """
    ek, dn, ab = _elementary(spec), _dihedral_half(spec), _two_cyclic(spec)
    if command == "check":
        if spec == "PSL(2,9)":
            return "No"
        return census_facts(spec).status
    if command in ("sigma", "epsilon"):
        if ek:
            return ek[0] + 1
        if ab:
            g = math.gcd(*ab)
            return least_prime(g) + 1 if g > 1 else INFINITY
        if dn and command == "sigma":
            return least_prime(dn) + 1
        if dn:
            return 3 if dn % 2 == 0 else INFINITY
        if command == "sigma" and spec in _SIGMA_NAMED:
            return _SIGMA_NAMED[spec]
    if command == "rho":
        # Minimal partitions of vector spaces (Beutelspacher 1979); an
        # abelian group has a partition iff it is elementary abelian
        # (Kontorovich 1939).
        if ek:
            q, k = ek
            return q ** ((k + 1) // 2) + 1
        if ab:
            a, b = ab
            return a + 1 if a == b and is_prime(a) else INFINITY
    if command == "partition":
        if ek:
            return True  # the order-p subgroups partition E(p,k)
        if ab:
            a, b = ab
            return a == b and is_prime(a)
    raise KeyError(f"no closed form for {command} {spec}")


WITNESS_MODES = {
    "sigma": "Covering",
    "epsilon": "EqualCovering",
    "rho": "Partition",
    "partition": "EqualPartition",
}


def witness_errors(rows: list[list[int]], doc: dict, command: str, size: int | None) -> list[str]:
    """Re-check a witness file over the group's table.

    Members must be proper subgroups whose union is the group; epsilon and
    partition members share one order; rho and partition members meet only
    in the identity.  size, when given, is the reported invariant value.
    """
    n = len(rows)
    errors = []
    if doc.get("mode") != WITNESS_MODES[command]:
        errors.append(f"mode {doc.get('mode')!r}, expected {WITNESS_MODES[command]!r}")
    members = doc.get("members") or []
    masks = []
    for i, mem in enumerate(members):
        mset = set(mem)
        if len(mset) != len(mem) or 0 not in mset or not all(0 <= x < n for x in mem):
            errors.append(f"member {i} is not a set of elements holding the identity")
            continue
        if len(mset) >= n:
            errors.append(f"member {i} is not proper")
        if any(rows[a][b] not in mset for a in mem for b in mem):
            errors.append(f"member {i} is not closed under the product")
        masks.append(sum(1 << x for x in mset))
    union = 0
    for m in masks:
        union |= m
    if union != (1 << n) - 1:
        errors.append("members do not cover the group")
    if command in ("epsilon", "partition") and len({len(m) for m in members}) > 1:
        errors.append("members have different orders")
    if command in ("rho", "partition"):
        for i in range(len(masks)):
            if any(masks[i] & masks[j] != 1 for j in range(i + 1, len(masks))):
                errors.append(f"member {i} meets another beyond the identity")
                break
    if size is not None and len(members) != size:
        errors.append(f"{len(members)} members, but the reported value is {size}")
    return errors


# ---------------------------------------------------------------------------
# describe of groups above the lattice limit


@dataclass(frozen=True)
class DescribeFacts:
    order: int
    exponent: int
    simple: bool
    cyclic: bool

    def expected_lines(self, name: str) -> tuple[str, str, str]:
        """The first three describe lines that these facts fix.

        A cyclic group is abelian, nilpotent and its own center; a
        non-abelian simple group has none of those and a trivial center.
        """
        c = self.cyclic
        parts = _prime_powers(self.order)
        p_group = f"yes (p = {least_prime(self.order)})" if len(parts) == 1 else "no"
        square_free = all(is_prime(q) for q in parts)
        return (
            f"{name}: order {self.order}, exponent {self.exponent}",
            f"cyclic {_yn(c)}; abelian {_yn(c)}; nilpotent {_yn(c)}; p-group {p_group}; "
            f"simple {_yn(self.simple)}; square-free order {_yn(square_free)}",
            f"center order {self.order if c else 1}; smallest prime divisor {least_prime(self.order)}",
        )


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


DESCRIBE = {
    "M11": DescribeFacts(7920, 1320, True, False),
    "PSL(2,16)": DescribeFacts(4080, 510, True, False),
    "A7": DescribeFacts(2520, 420, True, False),
    "C1510": DescribeFacts(1510, 1510, False, True),
}
