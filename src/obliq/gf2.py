"""GF(2^m) arithmetic on integer-encoded polynomials (LSB = constant term).

Multiplication is carry-less polynomial multiplication reduced by a fixed
irreducible modulus per degree.  All arithmetic helpers broadcast over numpy
arrays so exhaustive sweeps stay cheap.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_DEGREE = 16


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def is_irreducible(p: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(p)//2."""
    deg = poly_degree(p)
    if deg < 1:
        return False
    if deg == 1:
        return True
    for q in range(2, 1 << (deg // 2 + 1)):
        if poly_degree(q) < 1:
            continue
        if _poly_rem(p, q) == 0:
            return False
    return True


def _poly_rem(a: int, b: int) -> int:
    db = poly_degree(b)
    while poly_degree(a) >= db:
        a ^= b << (poly_degree(a) - db)
    return a


@lru_cache(maxsize=None)
def irreducible_poly(m: int) -> int:
    """Lexicographically least irreducible polynomial of degree m (m <= 16)."""
    if not 1 <= m <= MAX_DEGREE:
        raise ValueError(f"degree {m} outside supported range 1..{MAX_DEGREE}")
    for low in range(1 << m):
        cand = (1 << m) | low
        if is_irreducible(cand):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {m}")  # unreachable


@lru_cache(maxsize=None)
def primitive_poly(m: int) -> int:
    """Least irreducible of degree m whose root generates the full unit group."""
    order = (1 << m) - 1
    for low in range(1 << m):
        cand = (1 << m) | low
        if not is_irreducible(cand):
            continue
        if m == 1 or _element_order(2, cand, m) == order:
            return cand
    raise RuntimeError(f"no primitive polynomial of degree {m}")  # unreachable


def _element_order(a: int, mod: int, m: int) -> int:
    order = (1 << m) - 1
    powers = np.array([a], dtype=np.int64)  # powers[j] = a^(j+1); each product doubles it
    while powers.size < order:
        powers = np.concatenate([powers, mul(powers, powers[-1], m, mod)])
    ones = np.flatnonzero(powers[:order] == 1)
    return int(ones[0]) + 1 if ones.size else 0


# ---------------------------------------------------------------------------
# field arithmetic, broadcasting over arrays


def mul(a, b, m: int, modulus: int | None = None):
    """Field product a * b in GF(2^m); accepts ints or integer arrays."""
    mod = irreducible_poly(m) if modulus is None else modulus
    aa = np.asarray(a, dtype=np.int64)
    bb = np.asarray(b, dtype=np.int64)
    aa, bb = np.broadcast_arrays(aa, bb)
    acc = np.zeros_like(aa)
    shifted = aa.copy()
    for bit in range(m):
        acc ^= np.where((bb >> bit) & 1, shifted, 0)
        shifted = shifted << 1
        shifted = np.where((shifted >> m) & 1, shifted ^ mod, shifted)
    if acc.ndim == 0:
        return int(acc)
    return acc


def power(a, e: int, m: int, modulus: int | None = None):
    """Field power a**e by square-and-multiply; broadcasts over arrays."""
    mod = irreducible_poly(m) if modulus is None else modulus
    base = np.asarray(a, dtype=np.int64)
    acc = np.ones_like(base)
    ee = int(e)
    while ee:
        if ee & 1:
            acc = np.asarray(mul(acc, base, m, mod), dtype=np.int64)
        base = np.asarray(mul(base, base, m, mod), dtype=np.int64)
        ee >>= 1
    if acc.ndim == 0:
        return int(acc)
    return acc


def inverse(a, m: int, modulus: int | None = None):
    """Multiplicative inverse; a must be nonzero everywhere."""
    aa = np.asarray(a, dtype=np.int64)
    if np.any(aa == 0):
        raise ZeroDivisionError("zero has no inverse in GF(2^m)")
    return power(a, (1 << m) - 2, m, modulus)
