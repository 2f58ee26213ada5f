"""Generalized (POVM) measurements: validation, random draws, posteriors, audits.

The audit machinery checks numerically that generalized measurements obey
the same entropic bound as projective ones on pairwise-unbiased encoding
families, via the normalized-operator posterior and an eigen-mixture
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .encodings import EncodingFamily
from .qmath import DEFAULT_TOL, BoundViolation, SeededRng

_PSD_TOL = -1e-9


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
    """Certify completeness and nonnegativity, or raise ValueError."""
    grams = p.operators.conj().transpose(0, 2, 1) @ p.operators
    min_eigs = np.linalg.eigvalsh((grams + grams.conj().transpose(0, 2, 1)) / 2.0)[:, 0]
    bad = np.flatnonzero(min_eigs < _PSD_TOL)
    if bad.size:
        raise ValueError(f"operator {bad[0]} is not positive semidefinite (min eig {float(min_eigs[bad[0]])})")
    err = np.abs(grams.sum(axis=0) - np.eye(p.dim)).max()
    if err > DEFAULT_TOL:
        raise ValueError(f"completeness violated: max deviation {err}")
    return p


def _posteriors(p: Povm, family: EncodingFamily) -> tuple:
    """(povm_posteriors, s_j^2 for every operator j) from k products S @ E_i."""
    s2 = np.trace(p.operators.conj().transpose(0, 2, 1) @ p.operators, axis1=1, axis2=2).real
    if (s2 < 1e-15).any():
        raise ValueError("degenerate operator: Tr(R^dag R) ~ 0")
    s_ops = p.operators / np.sqrt(s2)[:, None, None]
    probs = np.empty((len(p), family.k, family.n))
    for i in range(family.k):
        probs[:, i] = (np.abs(s_ops @ family.encoder(i)) ** 2).sum(axis=1)
    sums = probs.sum(axis=2)
    if (np.abs(sums - 1.0) * s2[:, None] > 1e-12 * np.maximum(1.0, s2)[:, None]).any():
        raise BoundViolation("normalizer varies with the encoding choice")
    return probs / sums[:, :, None], s2


def povm_posteriors(p: Povm, family: EncodingFamily) -> np.ndarray:
    """Entry [j, i]: P(d | outcome j, announced i) under the uniform prior.

    Uses the trace-normalized operators S_j = R_j / s_j with s_j^2 = Tr(R_j^dag R_j),
    one product S @ E_i per encoding for the whole stack.  Unitary invariance
    makes every |S_j E_i|^2 sum to 1; a deviation beyond 1e-12 s_j^2 means the
    normalizer depends on the encoding choice.
    """
    return _posteriors(p, family)[0]


def povm_gain_account(p: Povm, family: EncodingFamily) -> dict:
    """Entropy/gain accounting of a POVM against every encoding choice.

    Outcome weights are s_j^2 / n, the uniform-prior outcome probabilities;
    the k products S @ E_i serve the normalizer check and the posteriors.
    """
    n = family.n
    log_n = float(np.log2(n))
    posteriors, s2 = _posteriors(p, family)
    h_cond = qmath.entropy_rows(posteriors)
    weights = s2 / n
    h_avg = h_cond.mean(axis=1)
    gains = log_n - h_avg
    return {
        "h_cond": h_cond,
        "h_avg": h_avg,
        "weights": weights,
        "gain_worst": float(gains.max()),
        "gain_expected": float((weights * gains).sum()),
    }


def povm_entropy_bound_check(p: Povm, family: EncodingFamily) -> dict:
    """Check H(P(.|j,0)) + H(P(.|j,1)) >= log n for every outcome of a k=2 family.

    Returns the minimum slack over outcomes plus the gain summaries; a
    negative slack beyond tolerance counts as a violation.
    """
    if family.k != 2:
        raise ValueError("the entropy-sum audit is defined for k=2 families")
    if not family.pairwise_hadamard:
        raise ValueError("the audit requires a pairwise-unbiased family")
    log_n = float(np.log2(family.n))
    account = povm_gain_account(p, family)
    sums = account["h_cond"].sum(axis=1)
    slack = sums - log_n
    return {
        "outcomes": len(p.operators),
        "min_slack_bits": float(slack.min()),
        "violations": int((slack < -1e-9).sum()),
        "gain_worst": account["gain_worst"],
        "gain_expected": account["gain_expected"],
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
    if eigvals.min() <= 1e-12:
        raise ValueError("degenerate completeness sum; try another stream")
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.conj().T
    return validate_povm(Povm(dim=dim, operators=raw @ inv_sqrt))
