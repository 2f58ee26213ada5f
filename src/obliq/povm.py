"""Generalized (POVM) measurements: validation, random draws and the gain account.

The gain account forms the normalized-operator posteriors of every outcome
and encoding and returns them with their entropies and gains;
`analysis.povm_gain_audit` checks them against the entropy-sum bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .qmath import DEFAULT_TOL, BoundViolation, SeededRng

_NORMALIZER_RTOL = 1e-12  # relative to s_j^2: |S_j E_i|^2 sums to 1 for unitary E_i, rounding moves it far less
_MIN_TRACE = 1e-15  # below this Tr(R^dag R) an operator has no scale to normalize by
_MIN_EIGENVALUE = 1e-12  # below this a completeness sum has no inverse square root to normalize with


@dataclass(frozen=True)
class Povm:
    """Operators R_1..R_N, one frozen (N, dim, dim) array, with sum_j R_j^dag R_j = I; N may exceed dim."""

    dim: int
    operators: np.ndarray

    def __post_init__(self):
        ops = np.array(self.operators, dtype=complex)  # a ragged list raises ValueError here
        if ops.ndim != 3 or ops.shape[1:] != (self.dim, self.dim) or len(ops) == 0:
            raise ValueError(f"operators have shape {ops.shape}, expected (N >= 1, {self.dim}, {self.dim})")
        if not np.isfinite(ops).all():
            raise ValueError("operator entries must be finite")
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    def __len__(self) -> int:
        return len(self.operators)


def validate_povm(p: Povm) -> Povm:
    """Certify completeness, sum_j R_j^dag R_j = I, or raise ValueError.

    Each R_j^dag R_j is a Gram matrix, so it is positive semidefinite by
    construction and needs no eigenvalue check.
    """
    ops = p.operators.reshape(-1, p.dim)
    err = np.abs(ops.conj().T @ ops - np.eye(p.dim)).max()
    if err > DEFAULT_TOL:
        raise ValueError(f"completeness violated: max deviation {err}")
    return p


def povm_gain_account(p: Povm, encoders: list) -> dict:
    """Entropy/gain accounting of a POVM against the dense encoders E_0..E_{k-1} of a family.

    "posteriors"[j, i] is P(d | outcome j, announced i) under the uniform
    prior, from the trace-normalized operators S_j = R_j / s_j with
    s_j^2 = Tr(R_j^dag R_j), one product S @ E_i per encoding for the whole
    stack.  Unitary invariance makes every |S_j E_i|^2 sum to 1; a deviation
    beyond _NORMALIZER_RTOL s_j^2 means the normalizer depends on the encoding choice.
    Outcome weights are s_j^2 / n, the uniform-prior outcome probabilities.
    """
    n = p.dim
    s2 = np.trace(p.operators.conj().transpose(0, 2, 1) @ p.operators, axis1=1, axis2=2).real
    if (s2 < _MIN_TRACE).any():
        raise ValueError("degenerate operator: Tr(R^dag R) ~ 0")
    s_ops = p.operators / np.sqrt(s2)[:, None, None]
    probs = np.stack([(np.abs(s_ops @ e) ** 2).sum(axis=1) for e in encoders], axis=1)
    sums = probs.sum(axis=2)
    if (np.abs(sums - 1.0) * s2[:, None] > _NORMALIZER_RTOL * np.maximum(1.0, s2)[:, None]).any():
        raise BoundViolation("normalizer varies with the encoding choice")
    posteriors = probs / sums[:, :, None]
    h_cond = qmath.entropy_rows(posteriors)
    weights = s2 / n
    gains = float(np.log2(n)) - h_cond.mean(axis=1)
    return {
        "posteriors": posteriors,
        "h_cond": h_cond,
        "weights": weights,
        "gain_worst": float(gains.max()),
        "gain_expected": float((weights * gains).sum()),
    }


def random_povm(dim: int, n_ops: int, rng: SeededRng) -> Povm:
    """Random POVM with operators of random rank, completeness-normalized.

    Draws Gaussian factors of random rank, then right-multiplies by the
    inverse square root of the completeness sum.
    """
    if n_ops < 1:
        raise ValueError("a povm needs at least one operator")
    g = rng.gen
    # ranks must cover the space or the completeness sum cannot be inverted
    while True:
        ranks = [int(g.integers(1, dim + 1)) for _ in range(n_ops)]
        if sum(ranks) >= dim:
            break
    raw = np.empty((n_ops, dim, dim), dtype=complex)
    for j, rank in enumerate(ranks):
        x = g.standard_normal((dim, rank)) + 1j * g.standard_normal((dim, rank))
        y = g.standard_normal((rank, dim)) + 1j * g.standard_normal((rank, dim))
        raw[j] = (x @ y) / (2.0 * np.sqrt(dim * rank))
    total = (raw.conj().transpose(0, 2, 1) @ raw).sum(axis=0)
    total = (total + total.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(total)
    if eigvals.min() <= _MIN_EIGENVALUE:
        raise ValueError("degenerate completeness sum; try another stream")
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.conj().T
    return validate_povm(Povm(dim=dim, operators=raw @ inv_sqrt))
