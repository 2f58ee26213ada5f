"""Dense complex linear algebra, entropy functionals, block rotations, seeded RNG, the worker pool.

Conventions shared by the whole package:

* Kronecker products put the FIRST factor in the most significant index
  position (this is exactly ``numpy.kron``).
* A database configuration index packs item 0 into the most significant
  m-bit block.
* Entropies are base 2, with ``0 * log 0 == 0``.
* Certification (in max-entry norm) and every proven-bound verdict use DEFAULT_TOL.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# the one verdict tolerance: rounding in an entropy over n <= 4096 entries is far below it
DEFAULT_TOL = 1e-9
# a probability or amplitude above this is nonzero; rounding leaves probabilities near 1e-34 where 0 is exact
SUPPORT_EPS = 1e-18

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class BoundViolation(AssertionError):
    """A computed quantity broke a proven bound (the CLI's exit code 2)."""


def count_violations(slack) -> int:
    """The verdict of every proven-bound audit: how many slacks fall below -DEFAULT_TOL."""
    return int((slack < -DEFAULT_TOL).sum())


def _splitmix64(x):  # a Python int, or a uint64 array whose products wrap mod 2^64
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class _PhiloxKey(ISeedSequence):
    """Hands Philox its key (seed, stream) as is: no seeding hash, no system entropy."""

    def __init__(self, seed: int, stream: int):
        self.key = (seed, stream)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:  # any other request would change every stream
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return np.array(self.key, dtype=np.uint64)


class SeededRng:
    """Counter-based random source: Philox keyed (seed, stream) at counter 0.

    Derived streams are stable across runs, so parallel trials can each own
    a child stream without coordination.  No system entropy is read.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self.gen = np.random.Generator(np.random.Philox(_PhiloxKey(self.seed, self.stream)))

    def derive(self, index: int) -> "SeededRng":
        """Child stream number `index` of this stream."""
        mixed = _splitmix64(self.stream ^ ((int(index) + 1) * _GOLDEN & _MASK64))
        return SeededRng(self.seed, mixed)

    def child_words(self, children: range, words: int) -> np.ndarray:
        """The first `words` raw Philox words of each child stream in `children`, one uint64 row per child.

        A Generator draws integers(2^j), j <= 32, as the top j bits of a word's 32-bit halves, low
        half first, and random() as (w >> 11) * 2^-53.
        """
        index = np.arange(children.start, children.stop, children.step, dtype=np.uint64) + 1
        streams = _splitmix64(self.stream ^ index * np.uint64(_GOLDEN)).tolist()
        return np.stack([np.random.Philox(_PhiloxKey(self.seed, s)).random_raw(words) for s in streams])

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream={self.stream})"


# ---------------------------------------------------------------------------
# matrices and states


def as_operator(mat) -> np.ndarray:
    """Coerce to a square, finite complex matrix."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_state(u) -> np.ndarray:
    """Coerce to a unit complex vector (L2 norm 1 within DEFAULT_TOL)."""
    v = np.asarray(u, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > DEFAULT_TOL:
        raise ValueError(f"state norm {norm} deviates from 1 beyond {DEFAULT_TOL}")
    return v


def kron_chain(factors) -> np.ndarray:
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def kron_apply(factors, vec: np.ndarray, rotation: int = 0) -> np.ndarray:
    """Apply (F_0 x F_1 x ... x F_{k-1}) to `vec` without forming the product.

    With transposed factors this is the row-vector product vec @ (F_0 x ... x F_{k-1}).
    A nonzero `rotation` gathers the result through rotation_index_map(k, m,
    rotation) by rotating the k axes.  Each factor is one product against
    F^T of the tensor with that axis last, the operands np.tensordot forms.
    """
    k, dims = len(factors), [f.shape[0] for f in factors]
    t = np.asarray(vec, dtype=complex).reshape(dims)
    for axis, f in enumerate(factors):
        last = [a for a in range(k) if a != axis] + [axis]
        t = np.dot(t.transpose(last).reshape(-1, dims[axis]), np.asarray(f, complex).T)
        t = t.reshape([dims[a] for a in last]).transpose([last.index(a) for a in range(k)])
    return t.transpose([(a - rotation) % k for a in range(k)]).reshape(-1)


def kron_row(factors, index: int) -> np.ndarray:
    """Row `index` of F_0 x ... x F_{k-1} without forming the product.

    The row is the chain of the factor rows named by the mixed-radix digits of
    `index`; with transposed factors it is column `index`.
    """
    digits = []
    for f in reversed(factors):
        index, digit = divmod(index, f.shape[0])
        digits.append(digit)
    row = np.ones(1, dtype=complex)
    for f, b in zip(factors, reversed(digits)):
        row = (row[:, None] * f[b][None, :]).reshape(-1)
    return row


def is_unitary(mat, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-entry magnitude of (M^dag M - I) is at most `tol`."""
    m = as_operator(mat)
    gram = m.conj().T @ m
    return bool(np.abs(gram - np.eye(m.shape[0])).max() <= tol)


def is_hadamard(mat, tol: float = DEFAULT_TOL) -> bool:
    """True iff `mat` is unitary and every entry has magnitude 1/sqrt(n)."""
    m = as_operator(mat)
    n = m.shape[0]
    flat = 1.0 / np.sqrt(n)
    if np.abs(np.abs(m) - flat).max() > tol:
        return False
    return is_unitary(m, tol)


# ---------------------------------------------------------------------------
# entropy


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Base-2 entropy along the last axis; rows are trusted, not validated."""
    p = np.asarray(p, dtype=float)
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0.0)
    return -(p * logs).sum(axis=-1)


# ---------------------------------------------------------------------------
# Haar sampling


def haar_unitaries(dim: int, count: int, rng: SeededRng) -> np.ndarray:
    """Stack of `count` Haar-distributed dim x dim unitaries.

    QR of a complex standard-Gaussian matrix, with the R diagonal phase
    pulled into Q so the distribution is exactly Haar (Mezzadri,
    math-ph/0609050).  One draw and one batched QR on the calling thread;
    audits put whole chunks, each with its own stream, on the worker pool.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    g = rng.gen
    z = g.standard_normal((count, dim, dim)) + 1j * g.standard_normal((count, dim, dim))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.einsum("...ii->...i", r)
    return np.multiply(q, (d / np.abs(d))[:, None, :], out=q)


def haar_unitary(dim: int, rng: SeededRng) -> np.ndarray:
    """One Haar-distributed dim x dim unitary."""
    return haar_unitaries(dim, 1, rng)[0]


def random_states(dim: int, count: int, rng: SeededRng) -> np.ndarray:
    """Stack of `count` Haar-uniform unit vectors of dimension `dim`."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    g = rng.gen
    z = g.standard_normal((count, dim)) + 1j * g.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# block rotations of configuration indices


def rotation_index_map(k: int, m: int, i: int) -> np.ndarray:
    """Index map sending blocks (d_0..d_{k-1}) to (d_i..d_{k-1} d_0..d_{i-1})."""
    if not 0 <= i < k:
        raise ValueError(f"rotation offset {i} out of range for k={k}")
    return rotate_blocks(np.arange(1 << (k * m), dtype=np.int64), k, m, i)


def rotate_blocks(d, k: int, m: int, i: int):
    """Left-rotate the k m-bit blocks of index d by i; ints or integer arrays."""
    return ((d << (m * i)) | (d >> (m * (k - i)))) & ((1 << (k * m)) - 1)


# ---------------------------------------------------------------------------
# the worker pool


def worker_count() -> int:
    """Thread cap: OBLIQ_THREADS if set, else the cores when BLAS runs one thread, else 1.

    obliq pins OPENBLAS_NUM_THREADS to 1 when it is imported before numpy;
    otherwise BLAS may already run a thread per core, and a second pool of
    that size would multiply with it.
    """
    env = os.environ.get("OBLIQ_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
        return max(1, os.cpu_count() or 1)
    return 1


_LANE = threading.local()  # .busy is set once on every pool thread, so calls from items run inline


@functools.cache
def _executor(size: int) -> ThreadPoolExecutor:
    """The process-wide pool of `size` threads, each marked busy as it starts."""
    return ThreadPoolExecutor(size, "obliq", initializer=setattr, initargs=(_LANE, "busy", True))


def parallel_map(fn, items) -> list:
    """[fn(x) for x in items] on up to worker_count() threads, results in item order.

    Every item goes to the cached executor, which hands them out one at a
    time, so uneven items balance.  A call from a pool thread runs inline,
    so pools never nest.  Every item has finished before this returns or
    raises; the first error in item order reaches the caller.
    """
    items = list(items)
    workers = worker_count()
    if min(workers, len(items)) <= 1 or getattr(_LANE, "busy", False):
        return [fn(x) for x in items]
    futures = [_executor(workers).submit(fn, x) for x in items]
    wait(futures)
    return [f.result() for f in futures]
