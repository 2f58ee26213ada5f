"""GF(2^m) arithmetic on integer-encoded polynomials (LSB = constant term).

Every degree 1 <= m <= 16 has one modulus, the least primitive polynomial, so
x generates the unit group and a product or an inverse is a lookup in one
cached table of x's powers and their logarithms (Lidl & Niederreiter, *Finite
Fields*).  `mul` and `inverse` broadcast over arrays, returning ints for scalars.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_DEGREE = 16


@lru_cache(maxsize=None)
def _field(m: int) -> tuple:
    """(modulus, exp, log) of GF(2^m): exp[j] = x^j over two periods, log[exp[j]] = j."""
    if not 1 <= m <= MAX_DEGREE:
        raise ValueError(f"degree {m} outside supported range 1..{MAX_DEGREE}")
    order = (1 << m) - 1
    # a candidate with constant term 1 keeps x a unit, so its powers return to
    # 1; x has order 2^m - 1 exactly when the candidate is primitive
    for modulus in range((1 << m) | 1, 2 << m, 2):
        powers = [1]
        while (v := powers[-1] << 1 ^ (modulus if powers[-1] >> (m - 1) else 0)) != 1:
            powers.append(v)
        if len(powers) == order:
            break
    exp = np.array(powers * 2, dtype=np.int64)
    log = np.zeros(1 << m, dtype=np.int64)
    log[exp[:order]] = np.arange(order)
    # x + 1 is primitive at m = 1, but GF(2) is the same field modulo x, the
    # least irreducible modulus, which degree-1 masks report
    return (0b10 if m == 1 else modulus), exp, log


def modulus(m: int) -> int:
    """The degree-m modulus; ValueError unless 1 <= m <= MAX_DEGREE."""
    return _field(m)[0]


def mul(a, b, m: int):
    """Field product a * b in GF(2^m); accepts ints or integer arrays."""
    _, exp, log = _field(m)
    aa, bb = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    prod = np.where((aa == 0) | (bb == 0), 0, exp[log[aa] + log[bb]])
    return int(prod) if prod.ndim == 0 else prod


def inverse(a, m: int):
    """Multiplicative inverse; a must be nonzero everywhere."""
    _, exp, log = _field(m)
    aa = np.asarray(a, dtype=np.int64)
    if np.any(aa == 0):
        raise ZeroDivisionError("zero has no inverse in GF(2^m)")
    inv = exp[len(exp) // 2 - log[aa]]
    return int(inv) if inv.ndim == 0 else inv
