"""Finite groups as Cayley tables.

Every group is a table over element indices 0..n-1 with the identity at
index 0.  Families are built by formula (cyclic, dihedral, dicyclic,
elementary abelian, products, quotients) or by closing permutation
generators (symmetric, alternating, PSL(2,q), Mathieu, user files).
Permutation-built groups number their elements breadth-first from the
identity with a lexicographic tie-break inside each layer, so identical
specs always produce identical tables.

Each of these tables is a group by construction, so only a table read
from a ``cayley:`` file goes through ``verify_table``; the tests run the
same check on the built ones.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BadPrimePower,
    ConstructionError,
    InvalidAction,
    InvalidRawTable,
    MalformedParameter,
    NotHomomorphism,
    NotNormal,
    OrderLimitExceeded,
    SpecError,
    UndefinedForOne,
    UnknownFamily,
)
from .perms import parse_cycles

__all__ = [
    "MAX_ORDER",
    "GroupSpec",
    "ConstructionMeta",
    "GroupTable",
    "TableReport",
    "parse_group_spec",
    "build_group",
    "verify_table",
    "exponent",
    "direct_product",
    "semidirect_product",
    "quotient",
]

MAX_ORDER = 10000
_INT16_MAX = int(np.iinfo(np.int16).max)  # _index_dtype's bound, read once

# Light's test compares (xg)y with x(gy) over all x, y for one generator g
# at a time, in blocks of rows holding about this many cells, so the
# temporaries stay near 1M cells whatever the order.  Sub-table gathers
# (``_gather_blocks``) use the same bound.
_LIGHT_BLOCK_CELLS = 1_000_000


def smallest_prime_divisor(n: int) -> int:
    """Least prime factor, by trial division up to sqrt(n); undefined below 2.

    ``_is_prime``, ``factorize`` and ``gf.factor_prime_power`` all call this
    one loop.  It returns at the first divisor, so a huge even n is answered
    at once.
    """
    if n < 2:
        raise UndefinedForOne(f"no prime divisor for n={n}")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_divisor(n) == n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity}, primes ascending."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    while n > 1:
        p = smallest_prime_divisor(n)
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class GroupSpec:
    """Parsed form of the group mini-language; round-trips through text()."""

    family: str
    params: tuple[int, ...] = ()
    children: tuple["GroupSpec", ...] = ()
    path: str | None = None

    def text(self) -> str:
        f = self.family
        if f in _FAMILIES:
            return _FAMILIES[f].template.format(*self.params)
        if f == "product":
            return "x".join(c.text() for c in self.children)
        if f in ("cayley", "perm"):
            return f"{f}:{self.path}"
        raise UnknownFamily(f"unknown family {f!r}")  # pragma: no cover


def _parse_token(token: str) -> GroupSpec:
    squeezed = re.sub(r"\s+", "", token).upper()
    if not squeezed:
        raise SpecError("empty group spec token")
    if squeezed == "Q8":
        return GroupSpec("dicyclic", (2,))
    for family, row in _FAMILIES.items():
        m = row.pattern.match(squeezed)
        if not m:
            continue
        try:
            params = tuple(int(x) for x in m.groups())
        except ValueError:  # past Python's int-from-str digit limit
            raise MalformedParameter(f"{family} parameter has too many digits") from None
        if family == "cyclic" and params[0] < 1:
            raise MalformedParameter("C<n> needs n >= 1")
        if family == "dihedral":
            if params[0] < 2 or params[0] % 2:
                raise MalformedParameter(f"D<m> is the dihedral group of order m; m must be even, got {params[0]}")
        if family == "dicyclic" and params[0] < 1:
            raise MalformedParameter("Dic<n> needs n >= 1")
        if family in ("symmetric", "alternating") and params[0] < 1:
            raise MalformedParameter(f"{family} degree must be >= 1")
        if family == "elementary":
            p, k = params
            if p <= MAX_ORDER and not _is_prime(p):  # a larger p meets the order check, not minutes of trial division
                raise MalformedParameter(f"E(p,k) needs prime p, got {p}")
            if k < 1:
                raise MalformedParameter("E(p,k) needs k >= 1")
        if family == "psl2":
            from .gf import MAX_Q, factor_prime_power

            if params[0] > MAX_Q or factor_prime_power(params[0]) is None:
                raise BadPrimePower(f"PSL(2,q) needs a prime power q in 2..{MAX_Q}, got {params[0]}")
        return GroupSpec(family, params)
    raise UnknownFamily(f"unrecognized group spec {token!r}")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the group mini-language (case-insensitive family names).

    Families: C<n>, D<m> (dihedral of order m, m even), Dic<n> (order 4n),
    Q8, S<n>, A<n>, E(p,k), PSL(2,q), M11, M12, W, direct products joined
    with 'x', plus file-backed specs 'cayley:<path>' and 'perm:<path>'.
    """
    stripped = text.strip()
    if not stripped:
        raise SpecError("empty group spec")
    lowered = stripped.lower()
    for prefix in ("cayley:", "perm:"):
        if lowered.startswith(prefix):
            path = stripped[len(prefix):].strip()
            if not path:
                raise MalformedParameter(f"{prefix} spec needs a file path")
            return GroupSpec(prefix[:-1], path=path)
    tokens = re.split(r"[xX]", stripped)
    if any(not tok.strip() for tok in tokens):
        raise UnknownFamily(f"unrecognized group spec {text!r}")
    parts = tuple(_parse_token(tok) for tok in tokens)
    if len(parts) == 1:
        return parts[0]
    return GroupSpec("product", children=parts)


def spec_order(spec: GroupSpec) -> int | None:
    """Predicted order, or None for file-backed specs; huge E(p,k), S<n> and A<n> raise OrderLimitExceeded."""
    if spec.family in _FAMILIES:
        return _FAMILIES[spec.family].order(*spec.params)
    if spec.family == "product":
        total = 1
        for child in spec.children:
            sub = spec_order(child)
            if sub is None:
                return None
            total *= sub
        return total
    return None


# ---------------------------------------------------------------------------
# Group tables


@dataclass(frozen=True, eq=False)
class ConstructionMeta:
    """How a table was built; decision rules read this for meta shortcuts."""

    kind: str
    name: str
    params: tuple = ()
    children: tuple["GroupTable", ...] = ()


class GroupTable:
    """Immutable multiplication table with identity at index 0.

    ``table`` is the only form of the group: scalar reads go to the array,
    and closures read its rows in place, as memoryviews.
    ``table`` must be a group table, which is not checked here: builders
    make one by construction, and ``cayley:`` files pass ``verify_table``.
    ``generators`` must generate it: the center and conjugation maps use them alone.
    """

    __slots__ = (
        "order",
        "table",
        "inverse",
        "meta",
        "generators",
        "_orders",
        "_exponent",
        "_lattice",
        "_conjugation",
        "__weakref__",
    )

    def __init__(self, table: np.ndarray, meta: ConstructionMeta, generators: tuple[int, ...]):
        self.order = int(table.shape[0])
        table = np.ascontiguousarray(table, dtype=_index_dtype(self.order))
        table.setflags(write=False)
        self.table = table
        self.inverse = tuple(_right_inverses(table).tolist())
        self.meta = meta
        self.generators = tuple(int(g) for g in generators)
        self._orders: list[int] | None = None
        self._exponent: int | None = None
        self._lattice = None  # the SubgroupLattice, set by lattice.get_lattice
        self._conjugation = None  # the maps x -> g x g^-1, set by lattice._conjugation_maps

    def element_orders(self) -> list[int]:
        if self._orders is None:
            # |x| is the product of its p-parts over the primes p of n = |G|.
            # For p^a exactly dividing n, y = x^(n/p^a) has order exactly the
            # p-part of |x|: p^k for the least k <= a with y^(p^k) = 1.
            T = self.table
            n = self.order
            orders = np.ones(n, dtype=np.int64)
            x = np.arange(n)
            for p, a in factorize(n).items():
                y = _power(T, x, n // p**a)
                live = np.flatnonzero(y)
                y = y[live]
                for _ in range(a):
                    if not live.size:
                        break
                    orders[live] *= p
                    y = _power(T, y, p)
                    keep = y != 0
                    live, y = live[keep], y[keep]
            self._orders = orders.tolist()
        return self._orders

    def __repr__(self) -> str:
        return f"GroupTable({self.meta.name!r}, order={self.order})"


def _power(T: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """x^m for every entry of x, by repeated squaring: O(log m) gathers."""
    square = T.diagonal()  # squaring is a one-index gather through the table's diagonal
    result = None
    while True:
        if m & 1:
            result = x if result is None else T[result, x]
        m >>= 1
        if not m:
            return np.zeros_like(x) if result is None else result
        x = square[x]


def exponent(G: GroupTable) -> int:
    """lcm of all element orders."""
    if G._exponent is None:
        e = 1
        for k in set(G.element_orders()):
            e = math.lcm(e, k)
        G._exponent = e
    return G._exponent


# ---------------------------------------------------------------------------
# Table verification


@dataclass(frozen=True)
class TableReport:
    """Outcome of verify_table; ok or the first violation found."""

    ok: bool
    code: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:  # pragma: no cover
        return self.ok


def _close(maps: list, seed, half: int | None = None) -> set[int] | None:
    """The seed closed under a list of index maps, by a list-based search.

    A map is an index sequence: a table row read in place,
    ``memoryview(T[a])``, is y -> a*y, and conjugation by g is
    ``lattice._conjugation_maps``.  With ``half`` given, returns None once
    the set has more than ``half`` elements: when the closure lies in a
    subgroup of a group of order n, more than n/2 elements means the whole
    group (Lagrange).  Unverified tables must close fully, and
    ``_generating_set`` says why it passes columns.
    """
    members = set(seed)
    queue = list(members)
    while queue:
        x = queue.pop()
        for m in maps:
            y = m[x]
            if y not in members:
                members.add(y)
                queue.append(y)
        if half is not None and len(members) > half:
            return None
    return members


def _generating_set(T: np.ndarray) -> tuple[int, ...]:
    """The greedy generating set of the table.

    The closure is taken under right multiplication starting from the
    identity.  While it misses an element, the least missing element is
    added as a generator.  It keeps columns: on a table not yet known to be
    associative a left closure can differ, and so would the generators a
    ``cayley:`` group stores and the witness Light's test names.
    """
    n = int(T.shape[0])
    gens, maps, seen = [], [], {0}
    while len(seen) < n:
        g = next(x for x in range(n) if x not in seen)
        gens.append(g)
        maps.append(T[:, g].tolist())
        seen = _close(maps, seen)
    return tuple(gens)


def _light_witness(T: np.ndarray, gens: tuple[int, ...]) -> tuple[int, int, int] | None:
    """First (x, g, y) with (xg)y != x(gy) for a generator g, or None."""
    n = int(T.shape[0])
    block = max(1, _LIGHT_BLOCK_CELLS // n)
    for g in gens:
        col_g = T[:, g]
        row_g = T[g, :].astype(np.intp)
        for start in range(0, n, block):
            stop = min(n, start + block)
            lhs = T[col_g[start:stop], :]
            rhs = np.take(T[start:stop], row_g, axis=1)
            if not np.array_equal(lhs, rhs):
                x_off, y = (int(v) for v in np.argwhere(lhs != rhs)[0])
                return (start + x_off, g, y)
    return None


def _gather_blocks(T: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Yield (start, T[rows[start:stop]][:, cols]) over blocks of rows.

    Each block of whole table rows holds at most ``_LIGHT_BLOCK_CELLS``
    cells (one row at least).  A row gather then a column gather is several
    times faster than one ``np.ix_`` gather of the same sub-table.
    """
    block = max(1, _LIGHT_BLOCK_CELLS // int(T.shape[1]))
    for start in range(0, len(rows), block):
        yield start, T[rows[start:start + block]][:, cols]


def _first_escape(T: np.ndarray, members: np.ndarray, inside: np.ndarray) -> tuple[int, int] | None:
    """The first (i, j), in row order, with T[members[i], members[j]] outside
    the mask ``inside``; None when the members are closed under the product."""
    for start, block in _gather_blocks(T, members, members):
        closed = inside[block]
        if not closed.all():
            i, j = divmod(int(closed.argmin()), len(members))
            return start + i, j
    return None


def _right_inverses(T: np.ndarray) -> np.ndarray:
    """For each row x, the first y with T[x, y] == 0 (0 when the row has none).

    Rows are scanned in blocks of about ``_LIGHT_BLOCK_CELLS`` cells, so no
    full n-by-n mask is built.
    """
    n = int(T.shape[0])
    block = max(1, _LIGHT_BLOCK_CELLS // n)
    return np.concatenate(
        [np.argmax(T[start:start + block] == 0, axis=1) for start in range(0, n, block)]
    )


def verify_table(table) -> TableReport:
    """Check that a square index table is a group table with identity 0.

    After the shape and identity checks come two-sided inverses and
    associativity.  Associativity is decided exactly, at every order, by
    Light's test over the greedy generating set, which adds the least
    element outside the closure of those before it.  This is exact because
    A = {a : (xa)y = x(ay) for all x, y} contains the identity and is
    closed under products, as (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) =
    x((ab)y); so once A holds a set whose closure under right
    multiplication from the identity is the whole table, A is the whole
    table.

    A table that passes these checks is a group, and a group table is a
    Latin square: ax = b and xa = b have the single solutions x = a^-1 b
    and x = b a^-1.  So the Latin-square sorts run only after a check has
    failed, to name the violation in a fixed order: rows, columns,
    inverses, then associativity with the witness Light's test found.  On
    a Latin table the first zero of row x is its only zero, so the inverse
    check fails exactly where that zero is no left inverse; every rejected
    table thus gets the code and witness the checks give in that order.
    """
    T = np.asarray(table)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        return TableReport(False, "MalformedTable", (T.shape,))
    n = int(T.shape[0])
    if n == 0:
        return TableReport(False, "MalformedTable", ((0, 0),))
    if T.min() < 0 or T.max() >= n:
        return TableReport(False, "MalformedTable", (int(T.min()), int(T.max())))
    idx = np.arange(n)
    if not (np.array_equal(T[0], idx) and np.array_equal(T[:, 0], idx)):
        return TableReport(False, "NoIdentity", (0,))
    right_inv = _right_inverses(T)
    two_sided = (T[idx, right_inv] == 0) & (T[right_inv, idx] == 0)
    witness = None
    if two_sided.all():
        witness = _light_witness(T, _generating_set(T))
        if witness is None:
            return TableReport(True)

    rows_ok = (np.sort(T, axis=1) == idx).all(axis=1)
    if not rows_ok.all():
        return TableReport(False, "NotLatinSquare", ("row", int(rows_ok.argmin())))
    cols_ok = (np.sort(T, axis=0) == idx[:, None]).all(axis=0)
    if not cols_ok.all():
        return TableReport(False, "NotLatinSquare", ("column", int(cols_ok.argmin())))
    if not two_sided.all():
        return TableReport(False, "NoInverse", (int(two_sided.argmin()),))
    return TableReport(False, "NotAssociative", witness)


def _index_dtype(n: int):
    return np.int16 if n <= _INT16_MAX else np.int32


# ---------------------------------------------------------------------------
# Family builders


def _cyclic_table(n: int, dtype) -> np.ndarray:
    """C_n's sum table, (i + j) mod n in ``dtype``, which must hold 2n - 2: each
    sum is below 2n, so one subtraction of n where it reaches n reduces it."""
    idx = np.arange(n, dtype=dtype)
    table = idx[:, None] + idx[None, :]
    np.subtract(table, n, out=table, where=table >= n)
    return table


def _twisted_cyclic_table(m: int, shift: int, dtype) -> np.ndarray:
    """The group a^i b^e, indexed i + m*e, with a^m = 1, b^2 = a^shift and b a = a^-1 b.

    a^i b^e times a^j b^f is a^(i + j) b^f for e = 0 and a^(i - j + s) b^(1 - f)
    for e = 1, with s = 0 for f = 0 and s = shift for f = 1.  The columns of
    (i - j + s) mod m are C_m's sum table's columns s, s - 1, ..., 0, m - 1,
    ..., s + 1, so the table is filled from slices of the sum table alone.
    """
    add = _cyclic_table(m, dtype)
    table = np.empty((2, m, 2, m), dtype=dtype)  # a^i b^e times a^j b^f sits at [e, i, f, j]
    table[0] = add[:, None, :]
    for f, s in enumerate((0, shift)):
        table[1, :, f, :s + 1], table[1, :, f, s + 1:] = add[:, s::-1], add[:, :s:-1]
    table[0, :, 1] += m
    table[1, :, 0] += m
    return table.reshape(2 * m, 2 * m)


def _block_product(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """The table of pairs (x, y), indexed x*m + y with m = len(inner), in one broadcast.

    The pairs multiply as (x1, y1)(x2, y2) = (outer[x1, y1, x2], inner[y1, y2]).
    ``outer`` is ``TA[:, None, :]`` for a direct product, and ``TH[:, P]``
    for H : K, which twists x2 by y1's automorphism P[y1].
    """
    n = outer.shape[0] * len(inner)
    dtype = _index_dtype(n)
    table = outer.astype(dtype, copy=False)[:, :, :, None] * len(inner) + inner[None, :, None, :]
    return table.reshape(n, n)


def _build_cyclic(n: int) -> GroupTable:
    meta = ConstructionMeta("cyclic", f"C{n}", (n,))
    gens = (1,) if n > 1 else ()
    return GroupTable(_cyclic_table(n, _index_dtype(n)), meta, gens)


def _build_dihedral(order: int) -> GroupTable:
    # Rotations r^i and reflections r^i s: a = r, b = s, m = order / 2 and b^2 = 1.
    n = order // 2
    meta = ConstructionMeta("dihedral", f"D{order}", (n,))
    gens = (1, n) if n >= 2 else (1,)
    return GroupTable(_twisted_cyclic_table(n, 0, _index_dtype(order)), meta, gens)


def _build_dicyclic(n: int) -> GroupTable:
    # Presentation a^(2n)=1, b^2=a^n, b^-1 a b = a^-1.
    name = "Q8" if n == 2 else f"Dic{n}"
    meta = ConstructionMeta("dicyclic", name, (n,))
    return GroupTable(_twisted_cyclic_table(2 * n, n, _index_dtype(4 * n)), meta, (1, 2 * n))


def _symmetric_order(n: int, alternating: bool = False) -> int:
    """n!, or max(1, n!/2) for A<n>; past 2^14 points a lower bound is raised instead."""
    if n > 1 << 14:  # n! would take 10 ms and more; its top n - n//2 factors are each >= n//2
        bound = (n - n // 2) * ((n // 2).bit_length() - 1) - alternating
        raise OrderLimitExceeded(f"{'A' if alternating else 'S'}{n} has order at least 2^{bound}, above the limit {MAX_ORDER}")
    return max(1, math.factorial(n) // 2) if alternating else math.factorial(n)


def _elementary_order(p: int, k: int) -> int:
    if k * p.bit_length() > 1 << 20:  # p**k would take 0.1 s and more; 2^(k * (bits of p - 1)) bounds it
        raise OrderLimitExceeded(f"E({p},{k}) has order at least 2^{k * (p.bit_length() - 1)}, above the limit {MAX_ORDER}")
    return p**k


def _build_elementary(p: int, k: int) -> GroupTable:
    # Element v has base-p digits v_i of weight p^i.  Each of the k passes
    # puts one more digit on top: C_p times the table of the lower digits.
    cyclic = _cyclic_table(p, _index_dtype(p))
    table = np.zeros((1, 1), dtype=cyclic.dtype)
    for _ in range(k):
        table = _block_product(cyclic[:, None, :], table)
    meta = ConstructionMeta("elementary", f"E({p},{k})", (p, k))
    gens = tuple(int(p**i) for i in range(k))
    return GroupTable(table, meta, gens)


def _close_and_tabulate(generators: list[list[int]], kind: str, name: str, params: tuple = ()) -> GroupTable:
    """Close generators given as image sequences, and tabulate the group.

    Generators are padded to one degree, rid of the identity and repeats,
    and sorted.  Elements are image rows numbered breadth-first from the
    identity, each layer in lexicographic order; ``x * g`` applies g first,
    so its images are ``x[g]``.  A closure that passes ``MAX_ORDER``
    elements raises ``OrderLimitExceeded``, and so, before the closure,
    does an orbit of more than ``MAX_ORDER`` points, since the order of a
    permutation group is at least the length of each of its orbits.
    """
    degree = max(len(g) for g in generators)
    identity = np.arange(degree, dtype=np.int64)
    gens = np.array([list(g) + list(range(len(g), degree)) for g in generators], dtype=np.int64)
    gens = gens[(gens != identity).any(axis=1)]
    meta = ConstructionMeta(kind, name, params)
    if not len(gens):
        return GroupTable(np.zeros((1, 1), dtype=np.int16), meta, ())
    gens = gens[np.lexsort(gens.T[::-1])]
    gens = gens[np.r_[True, (gens[1:] != gens[:-1]).any(axis=1)]]
    maps, placed = gens.tolist(), set()
    for x in range(degree):
        if x not in placed:
            orbit = _close(maps, {x}, MAX_ORDER)
            if orbit is None:
                raise OrderLimitExceeded(f"{name}: an orbit has more than {MAX_ORDER} points, so the order exceeds the limit")
            placed |= orbit
    index_of = {identity.tobytes(): 0}
    layers, parents = [identity[None, :]], [(0, 0)]
    while len(layers[-1]):
        start = len(index_of) - len(layers[-1])
        products = layers[-1][:, gens].reshape(-1, degree)
        found: dict[bytes, int] = {}
        for f, row in enumerate(products):
            if (key := row.tobytes()) not in index_of:
                found.setdefault(key, f)
        picked = np.fromiter(found.values(), dtype=np.intp, count=len(found))
        picked = picked[np.lexsort(products[picked].T[::-1])]
        for f in picked.tolist():
            index_of[products[f].tobytes()] = len(index_of)
            parents.append((start + f // len(gens), f % len(gens)))
        layers.append(products[picked])
        if len(index_of) > MAX_ORDER:
            raise OrderLimitExceeded(f"{name}: closure exceeded the order limit {MAX_ORDER}")
    elements = np.concatenate(layers)
    n = len(elements)
    # lmul[g][y] is the index of g * y, so row e = p * g of the table is
    # row p read through lmul[g]: e * y = p * (g * y).
    lmul = [np.fromiter((index_of[y.tobytes()] for y in g[elements]), dtype=np.intp, count=n) for g in gens]
    table = np.empty((n, n), dtype=_index_dtype(n))
    table[0] = np.arange(n)
    for e, (p, g) in enumerate(parents[1:], 1):
        np.take(table[p], lmul[g], out=table[e])
    return GroupTable(table, meta, tuple(index_of[g.tobytes()] for g in gens))


def _build_symmetric(n: int) -> GroupTable:
    # An n-cycle and a transposition; S1's n-cycle is the identity, and S2's two are equal.
    gens = [list(range(1, n)) + [0]]
    if n > 1:
        gens.append([1, 0] + list(range(2, n)))
    return _close_and_tabulate(gens, "symmetric", f"S{n}", (n,))


def _build_alternating(n: int) -> GroupTable:
    # A 3-cycle and an even n- or (n - 1)-cycle; A1 and A2 get the identity.
    gens = [[1, 2, 0] + list(range(3, n)) if n > 2 else [0]]
    if n > 3:
        if n % 2:
            gens.append(list(range(1, n)) + [0])
        else:
            gens.append([0] + list(range(2, n)) + [1])
    return _close_and_tabulate(gens, "alternating", f"A{n}", (n,))


def _psl2_order(q: int) -> int:
    return q * (q * q - 1) // math.gcd(2, q - 1)


def _build_psl2(q: int) -> GroupTable:
    from .gf import small_field

    F = small_field(q)
    infinity = q

    def moebius(a: int, b: int, c: int, d: int) -> list[int]:
        images = []
        for x in range(q):
            den = F.add[F.mul[c][x]][d]
            num = F.add[F.mul[a][x]][b]
            images.append(infinity if den == 0 else F.div(num, den))
        images.append(infinity if c == 0 else F.div(a, c))
        return images

    # x -> x + t^i for each basis element t^i = p^i of the field, and x -> -1/x.
    gens = [moebius(1, F.p**i, 0, 1) for i in range(F.k)] + [moebius(0, F.neg[1], 1, 0)]
    G = _close_and_tabulate(gens, "psl2", f"PSL(2,{q})", (q,))
    expected = _psl2_order(q)
    if G.order != expected:  # pragma: no cover
        raise ConstructionError(f"PSL(2,{q}) closure has order {G.order}, expected {expected}")
    return G


def _read_user_file(path: str, what: str, load=None, error: type[SpecError] = SpecError):
    """The text of a UTF-8 file, or ``load(fh)`` of it (``json.load``).

    Failing to open, decode or load it (``OSError``, or ``ValueError``,
    which covers ``UnicodeDecodeError`` and ``JSONDecodeError``) raises
    ``error`` naming ``what`` was read, so bad input exits as an input error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read() if load is None else load(fh)
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def _load_permutation_file(path: str) -> list[tuple[int, ...]]:
    lines = [line.strip() for line in _read_user_file(path, "permutation file").split("\n")]
    texts = [line for line in lines if line and not line.startswith("#")]
    if not texts:
        raise SpecError(f"no generators found in {path}")
    return [parse_cycles(text) for text in texts]


def _build_mathieu(n: int) -> GroupTable:
    data = resources.files("ecov").joinpath("data").joinpath(f"m{n}_generators.txt")
    with resources.as_file(data) as path:
        gens = _load_permutation_file(str(path))
    return _close_and_tabulate(gens, "mathieu", f"M{n}", (n,))


def _build_cayley_file(path: str, spec_text: str) -> GroupTable:
    payload = _read_user_file(path, "Cayley table file", json.load)
    if not isinstance(payload, dict) or "order" not in payload or "table" not in payload:
        raise SpecError(f"{path}: expected an object with 'order' and 'table'")
    n = payload["order"]
    rows = payload["table"]
    if not isinstance(n, int) or not isinstance(rows, list) or len(rows) != n:
        raise SpecError(f"{path}: table shape does not match order {n}")
    if n > MAX_ORDER:
        raise OrderLimitExceeded(f"table order {n} exceeds {MAX_ORDER}")
    try:
        table = np.array(rows, dtype=np.int64)
    except ValueError:
        raise SpecError(f"{path}: ragged or non-integer table") from None
    report = verify_table(table)
    if not report.ok:
        raise InvalidRawTable(report.code, report.witness)
    meta = ConstructionMeta("cayley", spec_text, (n,))
    return GroupTable(table, meta, _generating_set(table))


def direct_product(A: GroupTable, B: GroupTable) -> GroupTable:
    """Componentwise product; (a, b) is indexed a*|B| + b."""
    n = A.order * B.order
    if n > MAX_ORDER:
        raise OrderLimitExceeded(f"product order {n} exceeds {MAX_ORDER}")
    table = _block_product(A.table[:, None, :], B.table)
    name = f"{A.meta.name}x{B.meta.name}"
    meta = ConstructionMeta("product", name, (), (A, B))
    gens = tuple(g * B.order for g in A.generators) + tuple(B.generators)
    return GroupTable(table, meta, gens)


def _as_action(K: GroupTable, H: GroupTable, action) -> tuple[tuple[int, ...], ...]:
    phi = []
    for k in range(K.order):
        try:
            images = tuple(int(x) for x in action[k])
        except (KeyError, IndexError, TypeError):
            raise InvalidAction(f"action missing an automorphism for K element {k}") from None
        if sorted(images) != list(range(H.order)):
            raise InvalidAction(f"action of K element {k} is not a bijection of H")
        phi.append(images)
    return tuple(phi)


def semidirect_product(H: GroupTable, K: GroupTable, action) -> GroupTable:
    """H : K with multiplication (h1,k1)(h2,k2) = (h1 * phi_k1(h2), k1 k2).

    ``action`` maps each K index to a permutation of H indices; every part
    must be an automorphism of H and the whole map a homomorphism from K.
    """
    phi = _as_action(K, H, action)
    TH, TK = H.table, K.table
    P = np.asarray(phi, dtype=np.intp)
    for k in range(K.order):
        if not np.array_equal(P[k][TH], TH[np.ix_(P[k], P[k])]):
            raise InvalidAction(f"action of K element {k} is not an automorphism of H")
    # Row k1 compares phi(k1 k2) with phi(k1) o phi(k2) for every k2.
    for k1 in range(K.order):
        bad = (P[TK[k1]] != P[k1][P]).any(axis=1)
        if bad.any():
            raise NotHomomorphism(f"action is not a homomorphism at the pair ({k1}, {int(bad.argmax())})")
    n = H.order * K.order
    if n > MAX_ORDER:
        raise OrderLimitExceeded(f"semidirect order {n} exceeds {MAX_ORDER}")
    table = _block_product(TH[:, P], TK)
    name = f"{H.meta.name}:{K.meta.name}"
    meta = ConstructionMeta("semidirect", name, (), (H, K))
    gens = tuple(h * K.order for h in H.generators) + tuple(K.generators)
    return GroupTable(table, meta, gens)


def _build_w() -> GroupTable:
    """The order-20 group C5 : C4 with the generator of C4 squaring C5."""
    action = [tuple(h * 2**k % 5 for h in range(5)) for k in range(4)]
    G = semidirect_product(_build_cyclic(5), _build_cyclic(4), action)
    meta = ConstructionMeta("w", "W", (), G.meta.children)
    return GroupTable(G.table, meta, G.generators)


def quotient(G: GroupTable, members) -> tuple[GroupTable, tuple[int, ...]]:
    """Quotient of G by a normal subgroup given as its member indices.

    Returns the quotient table and the projection map; cosets are numbered
    by their least member, so the image of the identity coset is 0.
    """
    if hasattr(members, "members"):
        members = members.members
    mem = sorted({int(x) for x in members})
    if not mem or mem[0] != 0:
        raise NotNormal("subgroup must contain the identity")
    T = G.table
    m = np.asarray(mem, dtype=np.intp)
    inside = np.zeros(G.order, dtype=bool)
    inside[m] = True
    escape = _first_escape(T, m, inside)
    if escape is not None:
        raise NotNormal(f"member set is not closed: {mem[escape[0]]}*{mem[escape[1]]} escapes")
    for g in G.generators:
        moved = ~inside[T[T[g, m], G.inverse[g]]]
        if moved.any():
            raise NotNormal(f"subgroup is not normal: conjugation by {g} moves {mem[moved.argmax()]} out")
    # Column g of T[m] is the coset Ng; numbering the cosets by their least
    # members makes the image of the identity coset 0.
    reps, proj = np.unique(T[m].min(axis=0), return_inverse=True)
    qtable = np.concatenate([proj[block] for _, block in _gather_blocks(T, reps, reps)])
    proj = tuple(proj.tolist())
    gens = tuple(sorted({proj[g] for g in G.generators} - {0}))
    meta = ConstructionMeta("quotient", f"{G.meta.name}/N{len(mem)}", (len(mem),))
    return GroupTable(qtable, meta, gens), proj


class _Family(NamedTuple):
    """One family of the spec language that a single token names."""

    pattern: re.Pattern  # matches the squeezed, upper-cased token; its captures are the parameters
    template: str  # canonical text, filled with the parameters
    order: Callable[..., int]
    build: Callable[..., GroupTable]


_FAMILIES: dict[str, _Family] = {
    "cyclic": _Family(re.compile(r"^C(\d+)$"), "C{}", lambda n: n, _build_cyclic),
    "dihedral": _Family(re.compile(r"^D(\d+)$"), "D{}", lambda m: m, _build_dihedral),
    "dicyclic": _Family(re.compile(r"^DIC(\d+)$"), "Dic{}", lambda n: 4 * n, _build_dicyclic),
    "symmetric": _Family(re.compile(r"^S(\d+)$"), "S{}", _symmetric_order, _build_symmetric),
    "alternating": _Family(
        re.compile(r"^A(\d+)$"), "A{}", lambda n: _symmetric_order(n, alternating=True), _build_alternating
    ),
    "elementary": _Family(
        re.compile(r"^E\((\d+),(\d+)\)$"), "E({},{})", _elementary_order, _build_elementary
    ),
    "psl2": _Family(re.compile(r"^PSL\(2,(\d+)\)$"), "PSL(2,{})", _psl2_order, _build_psl2),
    "mathieu": _Family(
        re.compile(r"^M(11|12)$"), "M{}", lambda n: {11: 7920, 12: 95040}[n], _build_mathieu
    ),
    "w": _Family(re.compile(r"^W$"), "W", lambda: 20, _build_w),
}


def build_group(spec: GroupSpec | str) -> GroupTable:
    """Build the table for a spec (object or mini-language text)."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    predicted = spec_order(spec)
    if predicted is not None and predicted > MAX_ORDER:
        try:
            shown = str(predicted)
        except ValueError:  # past Python's int-to-str digit limit
            shown = f"at least 2^{predicted.bit_length() - 1}"
        raise OrderLimitExceeded(f"{spec.text()} has order {shown}, above the limit {MAX_ORDER}")
    f = spec.family
    if f in _FAMILIES:
        return _FAMILIES[f].build(*spec.params)
    if f == "product":
        built = build_group(spec.children[0])
        for child in spec.children[1:]:
            built = direct_product(built, build_group(child))
        if len(spec.children) > 2:
            meta = ConstructionMeta("product", spec.text(), (), built.meta.children)
            built = GroupTable(built.table, meta, built.generators)
        return built
    if f == "cayley":
        return _build_cayley_file(spec.path, spec.text())
    if f == "perm":
        gens = _load_permutation_file(spec.path)
        return _close_and_tabulate(gens, "perm", spec.text(), ())
    raise UnknownFamily(f"cannot build family {f!r}")  # pragma: no cover
