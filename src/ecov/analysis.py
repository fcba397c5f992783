"""Structural predicates feeding the covering decision rules.

Everything here works directly on multiplication tables.  Nilpotency is
read from the cached element orders by counting Sylow subgroups.  The
elementary abelian quotient helpers expose, for a prime p, the largest
exponent-p abelian quotient together with its index-p subgroup pullbacks;
those give covering certificates for p-groups and nilpotent groups without
touching the full subgroup lattice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupTable, _is_prime, _power, exponent, factorize, quotient, smallest_prime_divisor
from .lattice import Subgroup, element_conjugacy_classes, normal_closure

__all__ = [
    "StructureReport",
    "structure_report",
    "factorize",
    "is_cyclic",
    "is_abelian",
    "p_group_prime",
    "is_nilpotent",
    "is_simple",
    "is_square_free_distinct_primes",
    "smallest_prime_divisor",
    "center_members",
    "elementary_abelian_quotient",
    "index_p_subgroups",
]


def is_square_free_distinct_primes(n: int) -> bool:
    """True iff no prime divides n twice (vacuously true for 1)."""
    return all(m == 1 for m in factorize(n).values()) if n > 1 else True


def is_cyclic(G: GroupTable) -> bool:
    """True iff some element has full order."""
    return G.order == 1 or max(G.element_orders()) == G.order


def _central_mask(G: GroupTable) -> np.ndarray:
    """Elements commuting with every generator, which is the center."""
    T = G.table
    gens = list(G.generators)
    return (T[gens, :] == T[:, gens].T).all(axis=0)


def is_abelian(G: GroupTable) -> bool:
    return bool(_central_mask(G).all())


def p_group_prime(G: GroupTable) -> int | None:
    """The prime p when |G| is a nontrivial p-power, else None."""
    fac = factorize(G.order)
    if len(fac) == 1:
        return next(iter(fac))
    return None


def center_members(G: GroupTable) -> tuple[int, ...]:
    """Indices commuting with everything."""
    return tuple(_central_mask(G).nonzero()[0].tolist())


def is_nilpotent(G: GroupTable) -> bool:
    """Each Sylow subgroup is normal: exactly p^a elements have order dividing p^a.

    This is tested for each p^a exactly dividing |G|: a normal Sylow p-subgroup
    holds every such element, and two distinct ones hold more than p^a of them.
    """
    orders = np.array(G.element_orders())
    return all(np.count_nonzero(p**a % orders == 0) == p**a for p, a in factorize(G.order).items())


def is_simple(G: GroupTable) -> bool:
    """Exactly two normal subgroups, read from the table.

    An abelian group is simple iff its order is prime.  Otherwise every
    nontrivial normal subgroup contains the normal closure of some
    non-identity element, so G is simple iff each such closure is G; one
    element per conjugacy class suffices.  Every x != 1 has a power y of
    prime order, and <y^G> lies in <x^G>, so it is enough that the closures
    of the prime-order classes are G.  These are tested smallest class first.
    """
    n = G.order
    if n == 1:
        return False
    if is_abelian(G):
        return _is_prime(n)
    orders = G.element_orders()
    prime = [c for c in element_conjugacy_classes(G)[1:] if _is_prime(orders[c[0]])]
    return all(normal_closure(G, c[:1]).order == n for c in sorted(prime, key=len))


@dataclass(frozen=True)
class StructureReport:
    """Summary of the structural predicates for one group."""

    order: int
    exponent: int
    is_cyclic: bool
    is_abelian: bool
    is_p_group: bool
    p: int | None
    is_nilpotent: bool
    is_simple: bool
    order_is_square_free: bool
    smallest_prime_divisor: int | None
    center_order: int


def structure_report(G: GroupTable) -> StructureReport:
    p = p_group_prime(G)
    center = center_members(G)
    return StructureReport(
        order=G.order,
        exponent=exponent(G),
        is_cyclic=is_cyclic(G),
        is_abelian=len(center) == G.order,
        is_p_group=p is not None,
        p=p,
        is_nilpotent=is_nilpotent(G),
        is_simple=is_simple(G),
        order_is_square_free=is_square_free_distinct_primes(G.order),
        smallest_prime_divisor=None if G.order == 1 else smallest_prime_divisor(G.order),
        center_order=len(center),
    )


# ---------------------------------------------------------------------------
# Elementary abelian quotients (lattice-free index-p subgroup machinery)


def elementary_abelian_quotient(G: GroupTable, p: int) -> tuple[int, Subgroup]:
    """Rank k and kernel N of the largest exponent-p abelian quotient.

    N is the normal closure of all generator commutators and p-th powers
    of generators; the quotient G/N is then abelian of exponent dividing p,
    and any normal subgroup with such a quotient contains N.
    """
    T = G.table
    inv = G.inverse
    gens = G.generators
    powers = _power(T, np.asarray(gens, dtype=np.intp), p)  # intp: a trivial group has no generators
    seed: set[int] = set()
    for a, x in zip(gens, powers):
        for b in gens:
            seed.add(int(T[T[T[a, b], inv[a]], inv[b]]))
        seed.add(int(x))
    N = normal_closure(G, seed)
    index = G.order // N.order
    k = 0
    while index % p == 0:
        index //= p
        k += 1
    if index != 1:  # pragma: no cover - impossible by construction
        raise AssertionError("elementary quotient index is not a p-power")
    return k, N


def _gf_coordinates(Q: GroupTable, p: int, k: int) -> np.ndarray:
    """Row x is the coordinate vector over GF(p) of element x of Q, elementary abelian of order p^k.

    The basis is grown greedily from the table: each element not yet reached
    is the next basis vector, so the span of the first dim basis vectors has
    zeros from coordinate dim on.
    """
    coords = {0: (0,) * k}
    dim = 0
    for q in range(1, Q.order):
        if q in coords:
            continue
        times_q = Q.table[:, q].tolist()
        for x, vx in list(coords.items()):
            y = x
            for j in range(1, p):
                y = times_q[y]
                coords[y] = vx[:dim] + (j,) + vx[dim + 1:]
        dim += 1
    return np.array([coords[q] for q in range(Q.order)])


def _elementary_coordinates(G: GroupTable, p: int) -> np.ndarray:
    """Row x is the _gf_coordinates vector of x's image in G/N, N the kernel
    of elementary_abelian_quotient; there is one column per unit of rank.

    Cosets are numbered by their least member, so the basis vectors are the
    images of the elements of G, in index order, that are independent of
    those before them.  For trivial N, G is read directly, with no copy of
    its table.
    """
    k, N = elementary_abelian_quotient(G, p)
    if N.order == 1:
        return _gf_coordinates(G, p, k)
    Q, proj = quotient(G, N.members)
    return _gf_coordinates(Q, p, k)[list(proj)]


def _hyperplanes(X: np.ndarray, p: int, r: int) -> list[tuple[int, ...]]:
    """Sorted member tuples of the kernels of x -> f . X[x] mod p, for the
    nonzero functionals f on the last r columns of X, up to scalar."""
    # First nonzero coefficient 1 picks one functional per scalar class.
    vectors = np.arange(p**r)[:, None] // p ** np.arange(r) % p
    lead = vectors[np.arange(p**r), (vectors != 0).argmax(axis=1)]
    kernels = (X[:, X.shape[1] - r:] @ vectors[lead == 1].T) % p == 0
    return sorted(tuple(np.flatnonzero(col).tolist()) for col in kernels.T)


def index_p_subgroups(G: GroupTable, p: int) -> list[tuple[int, ...]]:
    """Member tuples of all normal index-p subgroups, via the elementary quotient.

    A normal index-p subgroup has cyclic order-p quotient, hence contains the
    kernel N of the maximal exponent-p abelian quotient; these subgroups are
    exactly the preimages of the hyperplanes of G/N.  An index-p subgroup
    that is not normal is not listed: S4 with p = 3 gives [], though S4 has
    three index-3 subgroups.  In a nilpotent group, p-groups included, every
    index-p subgroup is normal.
    """
    X = _elementary_coordinates(G, p)
    return _hyperplanes(X, p, X.shape[1]) if X.shape[1] else []
