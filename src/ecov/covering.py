"""Equal-covering decisions, covering invariants, and certificate checks.

A covering is a family of proper subgroups whose union is the whole group;
an equal covering additionally has all members of one order.  decide()
answers "does an equal covering exist" by a ladder of structural rules
with an exhaustive divisor-by-divisor union test as the fallback.  The
ladder is the table _LADDER: its order is the order the rules are tried
(cheapest first), and a rule is one entry.  T18, C3 and T21 share one
pull-back step that decides a smaller image group and takes preimages.
Every Yes, the exhaustive test's included, is returned with a
certificate that is re-verified before leaving the engine.
sigma/epsilon/rho compute the minimum sizes of coverings, equal coverings,
and partitions.  Nilpotent groups are answered from theory with no lattice:
sigma = epsilon = p + 1 for p the least prime whose Sylow subgroup is not
cyclic (Cohn 1994); rho is infinite off p-groups (Baer, Kegel and Suzuki
1961) and on abelian p-groups of exponent above p (Kontorovich 1939), and
q^ceil(k/2) + 1 on E(q,k) (Beutelspacher 1979).  Other groups go to one
branch-and-bound search, _min_cover, whose partition mode differs only in
keeping live the members disjoint from what is covered and in its
branching pick.  The search has no greedy start: it counts only covers
smaller than the bound it is given.  Each search spends a lattice._Budget,
the subgroup enumeration's class, of _SEARCH_BUDGET units; a node costs 1
plus the candidate members it reads.  Every witness is verified the same
way.  equal_partition_exists answers by Isaacs' theorem, with no search.  A
function that needs the subgroup lattice takes it from get_lattice, which
caches it on the group.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analysis import (
    _elementary_coordinates,
    _hyperplanes,
    factorize,
    index_p_subgroups,
    is_abelian,
    is_cyclic,
    is_nilpotent,
    is_simple,
    is_square_free_distinct_primes,
    p_group_prime,
    smallest_prime_divisor,
)
from .errors import (
    HintFileError,
    InconclusiveHints,
    RulesInconclusive,
    SearchBudgetExceeded,
    SpecError,
)
from .groups import GroupTable, _first_escape, _read_user_file, exponent, quotient
from .lattice import (
    Subgroup,
    SubgroupLattice,
    _Budget,
    _mask,
    get_lattice,
    maximal_subgroups,
    normal_subgroups_direct,
)

__all__ = [
    "INFINITY",
    "CITATIONS",
    "Certificate",
    "CertificateReport",
    "Decision",
    "SigmaResult",
    "verify_certificate",
    "equal_covering_exhaustive",
    "decide",
    "decide_with_hints",
    "load_hints",
    "sigma",
    "epsilon",
    "rho",
    "equal_partition_exists",
    "qualifying_divisors",
]

INFINITY = math.inf
_SEARCH_BUDGET = 5_000_000

CERTIFICATE_MODES = (
    "Covering",
    "EqualCovering",
    "Partition",
    "EqualPartition",
    "StrictSPartition",
    "SemiPartition",
)

# One-line mathematical justification for every rule tag.
CITATIONS = {
    "RuleT1_Cyclic": "a group is covered by proper subgroups iff it is non-cyclic (Scorza)",
    "RuleT20_SquareFree": "a group of square-free order has no equal covering",
    "RuleC1_Exponent": "the exponent divides the common member order, so some proper divisor of |G| must be a multiple of exp(G)",
    "RuleT16_Dihedral": "the dihedral group of order 2n has an equal covering iff n is even; the rotation subgroup and the two half-turn subgroups cover",
    "RuleT17_PGroup": "every non-cyclic finite p-group is covered by its maximal subgroups, all of index p",
    "RuleT19_Nilpotent": "every non-cyclic nilpotent group has an equal covering by index-p subgroups for a prime p of quotient rank >= 2",
    "RuleT18_DirectFactor": "an equal covering of a direct factor lifts to the product by crossing every member with the other factor",
    "RuleC3_Semidirect": "an equal covering of the complement factor pulls back through the semidirect projection",
    "RuleT21_Quotient": "an equal covering of a quotient pulls back to an equal covering along the projection",
    "RuleP2_SimpleHalfExp": "a non-cyclic simple group whose exponent is half its order has no equal covering",
    "Exhaustive": "divisor-by-divisor test: the union of all order-d subgroups covers iff some equal covering of order d exists",
    "HintC1": "the exponent divides none of the (externally sourced) maximal subgroup orders",
}

# Citation variant for the hint path when divisibility alone cannot conclude
# but the hint file records a negative external union computation.
_HINT_UNION_CITATION = (
    "the hint file records an external check that the subgroups of "
    "exponent-multiple order do not cover the group"
)


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    out += [n // d for d in reversed(out) if d * d != n]
    return out


def qualifying_divisors(n: int, e: int) -> list[int]:
    """Proper divisors of n that are multiples of the exponent e, ascending."""
    return [d for d in _divisors(n) if d < n and d % e == 0]


# ---------------------------------------------------------------------------
# Certificates


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in x)


@dataclass(frozen=True)
class Certificate:
    """A covering-flavored family of subgroups, listed by member indices."""

    mode: str
    members: tuple[tuple[int, ...], ...]
    s_members: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.mode not in CERTIFICATE_MODES:
            raise SpecError(f"unknown certificate mode {self.mode!r}")

    def to_json(self, group: str) -> dict:
        doc = {
            "mode": self.mode,
            "group": group,
            "members": [list(m) for m in self.members],
        }
        if self.s_members is not None:
            doc["s"] = list(self.s_members)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Certificate":
        if not isinstance(doc, dict) or "mode" not in doc or "members" not in doc:
            raise SpecError("certificate JSON needs 'mode' and 'members'")
        members = doc["members"]
        if not isinstance(members, list) or not all(_is_int_list(m) for m in members):
            raise SpecError("certificate 'members' must be a list of integer lists")
        s = doc.get("s")
        if s is not None and not _is_int_list(s):
            raise SpecError("certificate 's' must be a list of integers")
        return cls(doc["mode"], tuple(tuple(m) for m in members), tuple(s) if s is not None else None)


@dataclass(frozen=True)
class CertificateReport:
    """ok, or the first violation with its code and witness indices."""

    ok: bool
    code: str | None = None
    detail: tuple = ()

    def __bool__(self) -> bool:  # pragma: no cover
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return f"{self.code}{self.detail}"


def _is_subgroup(G: GroupTable, members: tuple[int, ...]) -> bool:
    if 0 not in members or len(set(members)) != len(members):
        return False
    m = np.asarray(members, dtype=np.intp)
    inside = np.zeros(G.order, dtype=bool)
    inside[m] = True
    return _first_escape(G.table, m, inside) is None


def verify_certificate(G: GroupTable, cert: Certificate) -> CertificateReport:
    """Check a certificate against its mode's definition.

    Violations, in check order: NotASubgroup(i), NotProper(i),
    UnionIncomplete(element), UnequalOrders(i, j),
    BadPairwiseIntersection(i, j), BadTripleIntersection(i, j, k).
    """
    n = G.order
    members = cert.members
    if not members:
        return CertificateReport(False, "UnionIncomplete", (0,))
    for i, mem in enumerate(members):
        if not mem or any(not 0 <= x < n for x in mem):
            return CertificateReport(False, "NotASubgroup", (i,))
        if not _is_subgroup(G, mem):
            return CertificateReport(False, "NotASubgroup", (i,))
        if len(mem) >= n:
            return CertificateReport(False, "NotProper", (i,))
    masks = [_mask(mem) for mem in members]
    union = 0
    for m in masks:
        union |= m
    if union != (1 << n) - 1:
        missing = next(x for x in range(n) if not (union >> x) & 1)
        return CertificateReport(False, "UnionIncomplete", (missing,))
    if cert.mode in ("EqualCovering", "EqualPartition"):
        base = len(members[0])
        for i, mem in enumerate(members):
            if len(mem) != base:
                return CertificateReport(False, "UnequalOrders", (0, i))
    if cert.mode in ("Partition", "EqualPartition", "StrictSPartition"):
        meet = 1  # the mask every two members must meet in
        if cert.mode == "StrictSPartition":
            s = cert.s_members if cert.s_members is not None else (0,)
            if any(not 0 <= x < n for x in s) or not _is_subgroup(G, tuple(sorted(set(s)))):
                return CertificateReport(False, "NotASubgroup", (-1,))
            meet = _mask(s)
        # Subgroups whose union is G meet pairwise in the identity exactly when
        # their orders less one sum to n - 1; only then is the pairwise scan skipped.
        if meet != 1 or sum(len(mem) - 1 for mem in members) != n - 1:
            for i in range(len(masks)):
                for j in range(i + 1, len(masks)):
                    if masks[i] & masks[j] != meet:
                        return CertificateReport(False, "BadPairwiseIntersection", (i, j))
    if cert.mode == "SemiPartition":
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                pair = masks[i] & masks[j]
                if pair == 1:
                    continue
                for k in range(j + 1, len(masks)):
                    if pair & masks[k] != 1:
                        return CertificateReport(False, "BadTripleIntersection", (i, j, k))
    return CertificateReport(True)


# ---------------------------------------------------------------------------
# Decisions


@dataclass(frozen=True)
class Decision:
    """Outcome of an equal-covering decision with its justification."""

    status: str  # "Yes" | "No"
    method: str
    citation: str
    certificate: Certificate | None = None


def _decision(status: str, method: str, certificate: Certificate | None = None) -> Decision:
    return Decision(status, method, CITATIONS[method], certificate)


def _verify_yes(G: GroupTable, cert: Certificate, method: str) -> None:
    report = verify_certificate(G, cert)
    if not report.ok:  # pragma: no cover - soundness guard
        raise AssertionError(
            f"internal soundness failure: {method} produced an invalid certificate: {report.describe()}"
        )


def _covering_family(L: SubgroupLattice, d: int) -> list[Subgroup] | None:
    """The order-d subgroups, in member order, when their union is the group."""
    fams = L.of_order(d)
    union = 0
    for s in fams:
        union |= s.mask
    return fams if union == (1 << L.order) - 1 else None


def _witness(G: GroupTable, mode: str, method: str, subgroups) -> Certificate:
    """The chosen subgroups as a verified certificate, members in sorted order."""
    cert = Certificate(mode, tuple(sorted(s.members for s in subgroups)))
    _verify_yes(G, cert, method)
    return cert


def equal_covering_exhaustive(G: GroupTable) -> Decision:
    """Divisor-by-divisor union test over the full lattice.

    For each proper divisor d of |G| that the exponent divides, the union
    of ALL order-d subgroups covers G iff some equal covering with member
    order d exists (any such covering only grows by adding the rest).  The
    lattice is built only once some divisor qualifies.
    """
    for d in qualifying_divisors(G.order, exponent(G)):
        fams = _covering_family(get_lattice(G), d)
        if fams is not None:
            return _decision("Yes", "Exhaustive", _witness(G, "EqualCovering", "Exhaustive", fams))
    return _decision("No", "Exhaustive")


def _preimage(cert: Certificate, proj) -> Certificate:
    """The preimages of cert's members, where proj[x] is the image of x."""
    proj = np.asarray(proj)
    return Certificate(
        "EqualCovering",
        tuple(tuple(np.flatnonzero(np.isin(proj, mem)).tolist()) for mem in cert.members),
    )


_NO = ("No", None)
_STOP = object()  # a rule's answer that no later rule can apply


def _pull_back(depth: int, memo: dict, images) -> tuple[str, Certificate] | None:
    """Yes from the first image group that has an equal covering.

    images yields (Q, proj) pairs, proj[x] being the image in Q of x; the
    preimages of an equal covering of Q are an equal covering of G.  Image
    groups are decided at most three levels down, and memo keeps one
    decision per table for the whole tree.
    """
    if depth >= 3:
        return None
    for Q, proj in images:
        key = (Q.order, Q.table.tobytes())
        sub = memo.get(key)
        if sub is None:
            sub = memo[key] = decide(Q, "auto", depth + 1, memo)
        if sub.status == "Yes":
            return "Yes", _preimage(sub.certificate, proj)
    return None


def _dihedral(G: GroupTable, pull_back):
    """The rotations and the two index-2 subgroups holding half of them.

    Element r^i s^e of the dihedral group of order 2n has index i + n * e.
    For even n the three members are the preimages of the Klein
    four-group's order-2 subgroups under x -> 2 * e + i mod 2.
    """
    if G.meta.kind != "dihedral":
        return None
    n = G.meta.params[0]
    if n % 2:
        return _NO
    x = np.arange(G.order)
    klein = Certificate("EqualCovering", ((0, 1), (0, 2), (0, 3)))
    return "Yes", _preimage(klein, 2 * (x // n) + x % 2)


def _nilpotent(G: GroupTable, pull_back):
    """Every index_p_subgroups(G, p) member, for the least prime p with more
    than one (the prime of _nilpotent_pencil).  T17 and T19 share it: a
    p-group is nilpotent, and its only prime is p."""
    if not is_nilpotent(G):
        return None
    for p in factorize(G.order):
        members = index_p_subgroups(G, p)
        if len(members) > 1:
            return "Yes", Certificate("EqualCovering", tuple(members))


def _direct_factor(G: GroupTable, pull_back):
    """Element (a, b) of A x B has index a * |B| + b; a factor's covering crosses with the other."""
    if G.meta.kind != "product" or len(G.meta.children) != 2:
        return None
    A, B = G.meta.children
    x = np.arange(G.order)
    return pull_back(((A, x // B.order), (B, x % B.order)))


def _semidirect(G: GroupTable, pull_back):
    """Element (h, k) of H : K has index h * |K| + k, and x -> k projects onto K."""
    if G.meta.kind not in ("semidirect", "w") or len(G.meta.children) != 2:
        return None
    K = G.meta.children[1]
    return pull_back(((K, np.arange(G.order) % K.order),))


def _simple_half_exponent(G: GroupTable, pull_back):
    """A simple group has no proper quotient, so the ladder ends here for it."""
    if not is_simple(G):
        return None
    return _NO if 2 * exponent(G) == G.order else _STOP


def _noncyclic_quotients(G: GroupTable):
    """(G/N, projection) for each proper nontrivial normal N, largest N first."""
    for N in sorted(normal_subgroups_direct(G), key=lambda s: (-s.order, s.members)):
        if N.order in (1, G.order):
            continue
        Q, proj = quotient(G, N.members)
        if not is_cyclic(Q):
            yield Q, proj


# The rule ladder: one entry per rule, in the order the rules are tried.
# rule(G, pull_back) returns (status, certificate) to decide G, None to
# pass, or _STOP; pull_back is _pull_back bound to this decision's tree.
_LADDER = (
    ("RuleT1_Cyclic", lambda G, pull_back: _NO if is_cyclic(G) else None),
    ("RuleT20_SquareFree", lambda G, pull_back: _NO if is_square_free_distinct_primes(G.order) else None),
    ("RuleC1_Exponent", lambda G, pull_back: None if qualifying_divisors(G.order, exponent(G)) else _NO),
    ("RuleT16_Dihedral", _dihedral),
    ("RuleT17_PGroup", lambda G, pull_back: None if p_group_prime(G) is None else _nilpotent(G, pull_back)),
    ("RuleT19_Nilpotent", _nilpotent),
    ("RuleT18_DirectFactor", _direct_factor),
    ("RuleC3_Semidirect", _semidirect),
    ("RuleP2_SimpleHalfExp", _simple_half_exponent),
    ("RuleT21_Quotient", lambda G, pull_back: pull_back(_noncyclic_quotients(G))),
)


def decide(
    G: GroupTable,
    mode: str = "auto",
    _depth: int = 0,
    _memo: dict | None = None,
) -> Decision:
    """Does G have an equal covering?

    mode "auto" runs the rule ladder with exhaustive fallback, "rules"
    raises RulesInconclusive instead of falling back, and "exhaustive"
    skips the rules entirely.  Cyclic groups report No with method
    RuleT1_Cyclic, meaning no covering of any kind exists.
    """
    if mode not in ("auto", "rules", "exhaustive"):
        raise SpecError(f"unknown decide mode {mode!r}")
    if mode == "exhaustive":
        return equal_covering_exhaustive(G)
    pull_back = partial(_pull_back, _depth, {} if _memo is None else _memo)
    for tag, rule in _LADDER:
        found = rule(G, pull_back)
        if found is _STOP:
            break
        if found is not None:
            status, cert = found
            if status == "Yes":
                _verify_yes(G, cert, tag)
            return _decision(status, tag, cert)
    if mode == "rules":
        raise RulesInconclusive(
            f"no structural rule settles {G.meta.name}; exhaustive search disabled"
        )
    return equal_covering_exhaustive(G)


# ---------------------------------------------------------------------------
# Hints (externally sourced maximal subgroup orders)


def load_hints(path: str) -> dict:
    """Load and validate a hint file for one large group."""
    doc = _read_user_file(path, "hint file", json.load, HintFileError)
    if not isinstance(doc, dict):
        raise HintFileError(f"{path}: hint file must be a JSON object")
    for key, typ in (("name", str), ("order", int), ("exponent", int), ("maximal_orders", list)):
        if key not in doc or not isinstance(doc[key], typ) or isinstance(doc[key], bool):
            raise HintFileError(f"{path}: missing or mistyped field {key!r}")
    order, expo = doc["order"], doc["exponent"]
    if order < 2 or expo < 1 or order % expo:
        raise HintFileError(f"{path}: exponent {expo} must divide the order {order}")
    for m in doc["maximal_orders"]:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1 or m >= order or order % m:
            raise HintFileError(f"{path}: maximal order {m!r} is not a proper divisor of {order}")
    if not doc["maximal_orders"]:
        raise HintFileError(f"{path}: maximal_orders must be non-empty")
    for opt in ("exponent_multiple_union_covers", "simple"):
        flag = doc.get(opt)
        if flag is not None and not isinstance(flag, bool):
            raise HintFileError(f"{path}: {opt} must be a boolean")
    return doc


def _decide_hint_doc(doc: dict) -> Decision:
    """decide_with_hints on a document that load_hints returned."""
    return decide_with_hints(
        doc["name"], doc["order"], doc["exponent"], doc["maximal_orders"], doc.get("exponent_multiple_union_covers")
    )


def decide_with_hints(
    name: str,
    order: int,
    exponent: int,
    maximal_orders: list[int],
    exponent_multiple_union_covers: bool | None = None,
) -> Decision:
    """No-only decision from trusted maximal subgroup orders.

    Every equal covering consists of subgroups lying inside maximal ones of
    the same-or-larger order divisible by the exponent; when the exponent
    divides no maximal order, no equal covering can exist.  A hint file may
    also record the outcome of an external union computation for the
    remaining candidate orders; only a negative outcome is usable.  This
    path never proves Yes.
    """
    if order < 2 or exponent < 1 or order % exponent or not maximal_orders:
        raise HintFileError(f"inconsistent hint data for {name}")
    if all(m % exponent for m in maximal_orders):
        return _decision("No", "HintC1")
    if exponent_multiple_union_covers is False:
        return Decision("No", "HintC1", _HINT_UNION_CITATION)
    raise InconclusiveHints(
        f"{name}: some maximal subgroup order is a multiple of the exponent; "
        "the divisibility rule cannot conclude and this path never proves Yes"
    )


# ---------------------------------------------------------------------------
# Branch-and-bound searches


def _min_cover(
    family: list[Subgroup],
    n: int,
    stop_at: int,
    budget: _Budget,
    bound: int | float = INFINITY,
    disjoint: bool = False,
) -> tuple[int, tuple[Subgroup, ...]] | None:
    """Fewest members of family covering G minus the identity, among covers smaller than bound.

    disjoint asks for a partition: the chosen members meet pairwise in the
    identity.  None when no such cover exists.  stop_at is a proven lower
    bound: a solution of that size ends the search.  Each mode keeps the
    branching that prunes best for it.  A cover branches on the uncovered
    element in the fewest members, most new elements first (a chosen member
    lies inside what is covered, so it is never a candidate again), and
    prunes by the widest member.  A partition branches on the uncovered
    element with the fewest live members (those disjoint from what is
    covered), larger members first, and prunes by the widest live member.
    """
    if disjoint:
        family = sorted(family, key=lambda s: -s.order)
    target = ((1 << n) - 1) & ~1  # the identity is inside every subgroup
    masks = [s.mask & target for s in family]
    sizes = [m.bit_count() for m in masks]
    max_gain = max([1] + sizes)  # 1 when no member meets the target
    element_sets = [(x, [i for i, m in enumerate(masks) if (m >> x) & 1]) for x in range(1, n)]
    if not disjoint:
        element_sets.sort(key=lambda entry: len(entry[1]))
    best, best_chosen = bound, None

    def dfs(covered: int, chosen: list[int], start: int):
        nonlocal best, best_chosen
        remaining = target & ~covered
        pick, reads = (), 0
        if remaining == 0:
            if len(chosen) < best:
                best, best_chosen = len(chosen), tuple(chosen)
        elif disjoint:
            widest = 0
            for x, cands in element_sets:
                if not (remaining >> x) & 1:
                    continue
                reads += len(cands)
                live = [i for i in cands if not masks[i] & covered]
                if not live:
                    pick = ()
                    break
                widest = max(widest, sizes[live[0]])
                if not pick or len(live) < len(pick):
                    pick = live
            if pick and len(chosen) + -(-remaining.bit_count() // widest) >= best:
                pick = ()
        elif len(chosen) + -(-remaining.bit_count() // max_gain) < best:
            # element_sets[:start] is covered: each ancestor covered the element it branched on
            while not (remaining >> element_sets[start][0]) & 1:
                start += 1
            pick = sorted(element_sets[start][1], key=lambda i: -(masks[i] & remaining).bit_count())
            reads = len(pick)
        budget.tick(1 + reads)
        for i in pick:
            chosen.append(i)
            dfs(covered | masks[i], chosen, start + 1)
            chosen.pop()
            if best <= stop_at:
                return

    dfs(0, [], 0)
    return None if best_chosen is None else (best, tuple(family[i] for i in best_chosen))


@dataclass(frozen=True)
class SigmaResult:
    """Minimum covering size with its witness and the bounds that led there."""

    value: int | float
    witness: Certificate | None
    bounds_log: tuple = ()


def _nilpotent_pencil(G: GroupTable) -> tuple[int, list[Subgroup]] | None:
    """For a nilpotent non-cyclic G, the least prime p with more than one
    index-p subgroup and the p + 1 index-p subgroups containing the meet of
    the first two that index_p_subgroups lists; None when G is not nilpotent.

    Rank k gives (p^k - 1)/(p - 1) index-p subgroups, so more than one means
    k >= 2, and p is the least prime whose Sylow subgroup is not cyclic.
    Members are listed in sorted order, and the basis vectors are the images
    of the first independent elements, so the first member is the kernel of
    the last coordinate and the second meets it in the kernel of the last
    two: the p + 1 members are those of the functionals on the last two
    coordinates, found without listing the others.  They are the preimages
    of the lines of a quotient of order p^2, so they cover G and share one
    order.  Cohn ("On n-sum groups", Math. Scand. 75, 1994): sigma of a
    non-cyclic nilpotent group is p + 1, so sigma = epsilon = p + 1.
    """
    if not is_nilpotent(G):
        return None
    for p in factorize(G.order):
        X = _elementary_coordinates(G, p)
        if X.shape[1] > 1:
            return p, [Subgroup.from_members(m) for m in _hyperplanes(X, p, 2)]
    raise AssertionError("a non-cyclic nilpotent group has a Sylow subgroup that is not cyclic")  # pragma: no cover


def sigma(G: GroupTable) -> SigmaResult:
    """Minimum number of proper subgroups covering G; Infinity iff cyclic.

    A nilpotent group is answered by _nilpotent_pencil with no lattice.
    Otherwise the search runs over maximal subgroups only: any covering
    stays a covering of the same size after enlarging each member to a
    maximal subgroup above it, so the minimum is attained there.
    """
    if is_cyclic(G):
        return SigmaResult(INFINITY, None, ((INFINITY, "cyclic groups have no covering"),))
    pencil = _nilpotent_pencil(G)
    if pencil is not None:
        p, members = pencil
        log = (
            (p + 1, f"a non-cyclic nilpotent group needs p + 1 members, p = {p} the least prime "
                    "whose Sylow subgroup is not cyclic (Cohn, Math. Scand. 75, 1994)"),
            (p + 1, f"the {p + 1} index-{p} subgroups containing the meet of two of them"),
        )
        return SigmaResult(p + 1, _witness(G, "Covering", "sigma", members), log)
    L = get_lattice(G)
    n = G.order
    p = smallest_prime_divisor(n)
    lower = max(3, p + 1)
    log = [
        (3, "no group is the union of two proper subgroups"),
        (p + 1, f"no union of {p} or fewer proper subgroups covers (least prime {p})"),
    ]
    found = _min_cover(maximal_subgroups(L), n, lower, _Budget(_SEARCH_BUDGET, SearchBudgetExceeded, "search"))
    if found is None:  # pragma: no cover - non-cyclic groups are always coverable
        raise AssertionError("maximal subgroups fail to cover a non-cyclic group")
    value, chosen = found
    witness = _witness(G, "Covering", "sigma", chosen)
    log.append((value, "exact branch-and-bound over maximal subgroups"))
    return SigmaResult(value, witness, tuple(log))


def epsilon(G: GroupTable) -> tuple[int | float, Certificate | None]:
    """Minimum size of an equal covering; Infinity when none exists.

    Orders d are scanned from the largest down.  An order-d subgroup covers
    d - 1 non-identity elements, so order d needs ceil((|G|-1)/(d-1)) members
    or more, and the scan stops once that reaches the best size found.  Among
    orders that reach the minimum, the witness comes from the largest.  The
    lattice is built only once some divisor qualifies.  A nilpotent group
    is answered by _nilpotent_pencil, whose members share one order.
    """
    if is_cyclic(G):
        return INFINITY, None
    pencil = _nilpotent_pencil(G)
    if pencil is not None:
        return pencil[0] + 1, _witness(G, "EqualCovering", "epsilon", pencil[1])
    n = G.order
    p = smallest_prime_divisor(n)
    stop_at = max(3, p + 1)
    budget = _Budget(_SEARCH_BUDGET, SearchBudgetExceeded, "search")
    best: int | float = INFINITY
    best_family: tuple[Subgroup, ...] = ()
    for d in reversed(qualifying_divisors(n, exponent(G))):
        if -(-(n - 1) // (d - 1)) >= best:
            break  # the bound only grows as d falls
        fams = _covering_family(get_lattice(G), d)
        if fams is None:
            continue
        found = _min_cover(fams, n, stop_at, budget, best)
        if found is None:
            continue
        best, best_family = found
        if best <= stop_at:
            break
    if best == INFINITY:
        return INFINITY, None
    return best, _witness(G, "EqualCovering", "epsilon", best_family)


def _desarguesian_spread(G: GroupTable, p: int) -> list[Subgroup] | None:
    """A least partition of G, elementary abelian of order p^k with k >= 2.

    With t = ceil(k/2) and q = p^t, an element's first t coordinates of
    _elementary_coordinates are the base-p digits of x in GF(q), and the rest
    those of y; for odd k this reads G as the hyperplane of GF(q)^2 whose
    last digit is 0.  The q + 1 lines y = λx and x = 0 meet pairwise in 0
    and cover, and for odd k each meets the hyperplane in dimension
    t - 1 >= 1.  Beutelspacher (1979): no partition of GF(p)^k has fewer
    than p^t + 1 blocks.  None when q is above gf.MAX_Q.
    """
    from .gf import MAX_Q, small_field

    C = _elementary_coordinates(G, p)
    k = C.shape[1]
    t = -(-k // 2)
    if p**t > MAX_Q:
        return None
    F = small_field(p**t)
    digits = p ** np.arange(t)
    x, y = C[:, :t] @ digits, C[:, t:] @ digits[:k - t]
    line = np.where(x == 0, F.q, np.array(F.mul)[np.array(F.inv)[x], y])
    line[0] = -1  # the identity is in every block
    return [Subgroup.from_members([0, *np.flatnonzero(line == b).tolist()]) for b in range(F.q + 1)]


def rho(G: GroupTable) -> tuple[int | float, Certificate | None]:
    """Minimum partition size (pairwise-trivial intersections); Infinity if none.

    Abelian and nilpotent groups are answered from theory first, at any
    order.  A nilpotent group that is not a p-group has no partition (Baer,
    Kegel and Suzuki, 1961), nor has an abelian p-group of exponent above p
    (Kontorovich, 1939); an elementary abelian group gets the spread of
    _desarguesian_spread.  Otherwise a partition tiles the non-identity
    elements exactly, so this is an exact-cover search over all proper
    nontrivial subgroups, under the lattice and search budgets that sigma
    and epsilon have, stopped at a proven lower bound.  Two blocks H, K
    meet trivially, so |H||K| <= |G|.  With m the order of a largest block,
    each other block covers at most min(m, |G|/m) - 1 of the |G| - m
    elements outside it, so
    rho(G) >= min over block orders m of 1 + ceil((|G| - m) / (min(m, |G|/m) - 1)).
    """
    if is_cyclic(G):
        return INFINITY, None
    p = p_group_prime(G)
    if p is None:
        if is_nilpotent(G):
            return INFINITY, None
    elif is_abelian(G):
        if exponent(G) > p:
            return INFINITY, None
        spread = _desarguesian_spread(G, p)
        if spread is not None:
            return len(spread), _witness(G, "Partition", "rho", spread)
    n = G.order
    L = get_lattice(G)
    blocks = [s for s in L.subgroups if 1 < s.order < n]
    lower = min((1 + -(-(n - m) // (min(m, n // m) - 1)) for m in {s.order for s in blocks}), default=0)
    found = _min_cover(blocks, n, lower, _Budget(_SEARCH_BUDGET, SearchBudgetExceeded, "search"), disjoint=True)
    if found is None:
        return INFINITY, None
    value, chosen = found
    return value, _witness(G, "Partition", "rho", chosen)


def equal_partition_exists(G: GroupTable) -> tuple[bool, Certificate | None]:
    """Is there a partition whose members all share one order?

    Isaacs ("Equally partitioned groups", Pacific J. Math. 49, 1973): a
    finite group has a nontrivial equal partition exactly when it is a
    non-cyclic p-group of exponent p, and then its subgroups of order p form
    one.  Each is {1, x, ..., x^(p-1)} for a non-identity x, read from the
    table, so no lattice or search is needed at any order.
    """
    p = p_group_prime(G)
    if p is None or exponent(G) != p or G.order == p:  # exponent p: cyclic only at order p
        return False, None
    x = np.arange(G.order)
    powers = [np.zeros_like(x), x]
    for _ in range(p - 2):
        powers.append(G.table[powers[-1], x])
    blocks = {Subgroup.from_members(c) for c in np.vstack(powers).T[1:].tolist()}  # <x> for each x != 1; equal ones merge
    return True, _witness(G, "EqualPartition", "equal_partition_exists", blocks)
