"""Arithmetic tables for small prime-power fields GF(q), q <= 32.

Elements are encoded as integers 0..q-1 whose base-p digits are the
coefficients of a polynomial over GF(p) (least significant digit first).
The modulus polynomial is found by search, so no irreducibility table is
hardcoded: a monic candidate works exactly when every nonzero residue is
invertible under the resulting multiplication.
"""
from __future__ import annotations

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


def _digits(value: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(value % p)
        value //= p
    return out


def _undigits(coeffs: list[int], p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _polymulmod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    # modulus is monic of degree k; result reduced to degree < k.
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for deg in range(len(prod) - 1, k - 1, -1):
        coef = prod[deg]
        if not coef:
            continue
        prod[deg] = 0
        for j in range(k + 1):
            prod[deg - k + j] = (prod[deg - k + j] - coef * modulus[j]) % p
    return prod[:k] + [0] * (k - len(prod))


class SmallField:
    """Add/mul/neg/inv tables for GF(p^k)."""

    def __init__(self, p: int, k: int, modulus: list[int]):
        self.p = p
        self.k = k
        self.q = p**k
        q = self.q
        self.add = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        digits = [_digits(v, p, k) for v in range(q)]
        for a in range(q):
            da = digits[a]
            for b in range(a, q):
                db = digits[b]
                s = _undigits([(x + y) % p for x, y in zip(da, db)], p)
                m = _undigits(_polymulmod(da, db, modulus, p), p)
                self.add[a][b] = self.add[b][a] = s
                self.mul[a][b] = self.mul[b][a] = m
        self.neg = [0] * q
        for a in range(q):
            self.neg[a] = _undigits([(-x) % p for x in digits[a]], p)
        self.inv = [0] * q  # inv[0] stays 0 and must never be used
        ok = True
        for a in range(1, q):
            row = self.mul[a]
            try:
                self.inv[a] = row.index(1)
            except ValueError:
                ok = False
                break
        self.is_field = ok

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(q)")
        return self.mul[a][self.inv[b]]


def small_field(q: int) -> SmallField:
    """Build GF(q) for a prime power q <= 32."""
    pk = factor_prime_power(q)
    if pk is None or q > MAX_Q:
        raise BadPrimePower(f"q={q} is not a prime power in range 2..{MAX_Q}")
    p, k = pk
    if k == 1:
        return SmallField(p, 1, [0, 1])  # modulus x, i.e. plain mod-p arithmetic
    # Search monic moduli x^k + c_{k-1} x^{k-1} + ... + c_0 until the
    # multiplication table makes every nonzero element invertible.
    for low in range(p**k):
        modulus = _digits(low, p, k) + [1]
        field = SmallField(p, k, modulus)
        if field.is_field:
            return field
    raise BadPrimePower(f"no irreducible modulus found for q={q}")  # pragma: no cover
