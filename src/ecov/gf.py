"""Arithmetic tables for small prime-power fields GF(q), q <= 32.

Elements are encoded as integers 0..q-1 whose base-p digits are the
coefficients of a polynomial over GF(p) (least significant digit first).
Each table is one array expression over the digits of all q elements: the
sum adds digits mod p, and the product multiplies every pair of
polynomials at once and reduces the result through the residues of
x^0 ... x^(2k-2).  The modulus polynomial is found by search, so no
irreducibility table is hardcoded: a monic candidate works exactly when
every nonzero residue is invertible under the resulting multiplication.
"""
from __future__ import annotations

import numpy as np

from .errors import BadPrimePower
from .groups import smallest_prime_divisor

__all__ = ["SmallField", "small_field", "factor_prime_power"]

MAX_Q = 32


def factor_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q == p**k and p prime, or None."""
    if q < 2:
        return None
    p = smallest_prime_divisor(q)
    k, rest = 0, q
    while rest % p == 0:
        rest //= p
        k += 1
    return (p, k) if rest == 1 else None


class SmallField:
    """Add/mul/neg/inv tables for GF(p^k), as lists of ints."""

    def __init__(self, p: int, k: int, add: np.ndarray, mul: np.ndarray):
        self.p = p
        self.k = k
        self.q = p**k
        self.add = add.tolist()
        self.mul = mul.tolist()
        self.neg = np.argmax(add == 0, axis=1).tolist()
        self.inv = np.argmax(mul == 1, axis=1).tolist()  # inv[0] is 0 and must never be used

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(q)")
        return self.mul[a][self.inv[b]]


def small_field(q: int) -> SmallField:
    """Build GF(q) for a prime power q <= 32.

    The moduli x^k + c(x) are tried with c read as a base-p number from 0
    up, and the first that leaves every nonzero element invertible is used;
    for k = 1 that is x, plain mod-p arithmetic.
    """
    pk = factor_prime_power(q)
    if pk is None or q > MAX_Q:
        raise BadPrimePower(f"q={q} is not a prime power in range 2..{MAX_Q}")
    p, k = pk
    weights = p ** np.arange(k)
    digits = np.arange(q)[:, None] // weights % p
    add = (digits[:, None, :] + digits[None, :, :]) % p @ weights
    # product[a, b, d] is the coefficient of x^d in a(x) b(x), d < 2k - 1.
    product = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        product[:, :, i:i + k] += digits[:, None, i, None] * digits[None, :, :]
    for low in digits:
        # Row d holds the digits of x^d mod x^k + c(x): x times row d - 1,
        # with its x^k term replaced by -c(x).
        powers = list(np.eye(k, dtype=np.int64))
        while len(powers) < 2 * k - 1:
            top = powers[-1]
            powers.append((np.r_[0, top[:-1]] - top[-1] * low) % p)
        mul = product @ np.array(powers) % p @ weights
        if (mul[1:] == 1).any(axis=1).all():
            return SmallField(p, k, add, mul)
    raise BadPrimePower(f"no irreducible modulus found for q={q}")  # pragma: no cover
