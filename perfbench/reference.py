"""Reference computations kept apart from the program under test.

Nothing here calls obliq: encoders are rebuilt densely with np.kron and a
block-rotation map of our own, gains go through scipy.linalg.expm, and
posteriors are plain Bayes' rule over the dense encoders.  Only the item
bases A_0..A_{k-1} of a family are taken from the program, as inputs.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

# The XOR-revealing basis of the two-item, one-bit scheme, written out.
PARITY_ROWS = np.array(
    [
        [1, 1, 1, -1],
        [1, 1, -1, 1],
        [math.sqrt(2), -math.sqrt(2), 0, 0],
        [0, 0, math.sqrt(2), math.sqrt(2)],
    ],
    dtype=complex,
) / 2.0


def items_of(d: int, k: int, m: int) -> list:
    """Item values of configuration d; item 0 is the most significant block."""
    return [(d >> (m * (k - 1 - r))) & ((1 << m) - 1) for r in range(k)]


def config_of(items, m: int) -> int:
    d = 0
    for v in items:
        d = (d << m) | int(v)
    return d


def rotation_map(k: int, m: int, i: int) -> np.ndarray:
    """rot[d] = configuration whose blocks are those of d rotated left by i."""
    n = 1 << (k * m)
    return np.array([config_of(_rotate(items_of(d, k, m), i), m) for d in range(n)], dtype=np.int64)


def _rotate(blocks, i):
    return blocks[i:] + blocks[:i]


def dense_encoders(bases) -> list:
    """E_i = (A_i x A_{i+1} x ... x A_{i-1}) P_i, built with np.kron."""
    k = len(bases)
    m = int(bases[0].shape[0]).bit_length() - 1
    out = []
    for i in range(k):
        c = np.ones((1, 1), dtype=complex)
        for r in range(k):
            c = np.kron(c, bases[(i + r) % k])
        out.append(c[:, rotation_map(k, m, i)])
    return out


def honest_rows(bases, j: int) -> np.ndarray:
    """Measurement matrix of the honest chooser of item j: (A_j^dag)^(x k)."""
    adj = bases[j].conj().T
    mat = np.ones((1, 1), dtype=complex)
    for _ in range(len(bases)):
        mat = np.kron(mat, adj)
    return mat


def bayes_posterior(meas_row: np.ndarray, encoder: np.ndarray, prior=None) -> np.ndarray:
    """P(d | outcome, announced encoder) for one measurement row."""
    lik = np.abs(meas_row @ encoder) ** 2
    weighted = lik if prior is None else lik * prior
    return weighted / weighted.sum()


def row_entropies(p: np.ndarray) -> np.ndarray:
    out = np.zeros(p.shape[:-1])
    for idx in np.ndindex(*p.shape[:-1]):
        row = p[idx]
        nz = row[row > 0.0]
        out[idx] = -float(np.sum(nz * np.log2(nz)))
    return out


def hermitian(theta: np.ndarray, n: int) -> np.ndarray:
    """H(theta): diagonal from theta[:n], upper triangle from (re, im) pairs."""
    h = np.zeros((n, n), dtype=complex)
    pos = n
    for a in range(n):
        h[a, a] = theta[a]
        for b in range(a + 1, n):
            h[a, b] = theta[pos] + 1j * theta[pos + 1]
            h[b, a] = np.conj(h[a, b])
            pos += 2
    return h


def gain(theta: np.ndarray, encoders) -> float:
    """Expected information gain (bits) of measuring in the rows of expm(iH)."""
    n = encoders[0].shape[0]
    u = scipy.linalg.expm(1j * hermitian(np.asarray(theta, dtype=float), n))
    h_total = sum(float(row_entropies(np.abs(u @ e) ** 2).sum()) for e in encoders)
    return math.log2(n) - h_total / (len(encoders) * n)


def attack_window(successes: int, trials: int, r: int, sigmas: float = 4.0) -> tuple:
    """(frequency, expected 2^-r, sigma, ok) for the guess-every-round attack."""
    expected = 0.5**r
    sigma = math.sqrt(expected * (1.0 - expected) / trials)
    freq = successes / trials
    return freq, expected, sigma, abs(freq - expected) <= sigmas * sigma


def gf_mul(a: int, b: int, m: int, modulus: int) -> int:
    """Carry-less product of a and b reduced by the degree-m modulus."""
    acc = 0
    for bit in range(m):
        if b >> bit & 1:
            acc ^= a << bit
    for deg in range(2 * m - 2, m - 1, -1):
        if acc >> deg & 1:
            acc ^= modulus << (deg - m)
    return acc


def strict_json(text: str):
    """json.loads that refuses NaN and +/-Infinity."""

    def refuse(token):
        raise ValueError(f"non-JSON constant {token} in output")

    return json.loads(text, parse_constant=refuse)
