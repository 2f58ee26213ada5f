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
    """Operators R_1..R_N with sum_j R_j^dag R_j = I; N may exceed dim."""

    dim: int
    operators: tuple

    def __post_init__(self):
        ops = []
        for idx, r in enumerate(self.operators):
            r = qmath.as_operator(r)
            if r.shape != (self.dim, self.dim):
                raise ValueError(f"operator {idx} has shape {r.shape}, expected {(self.dim, self.dim)}")
            r = r.copy()
            r.setflags(write=False)
            ops.append(r)
        object.__setattr__(self, "operators", tuple(ops))

    def __len__(self) -> int:
        return len(self.operators)


def validate_povm(p: Povm, tol: float = DEFAULT_TOL) -> Povm:
    """Certify completeness and nonnegativity, or raise ValueError."""
    total = np.zeros((p.dim, p.dim), dtype=complex)
    for idx, r in enumerate(p.operators):
        gram = r.conj().T @ r
        herm = (gram + gram.conj().T) / 2.0
        min_eig = float(np.linalg.eigvalsh(herm)[0])
        if min_eig < _PSD_TOL:
            raise ValueError(f"operator {idx} is not positive semidefinite (min eig {min_eig})")
        total += gram
    err = np.abs(total - np.eye(p.dim)).max()
    if err > tol:
        raise ValueError(f"completeness violated: max deviation {err}")
    return p


def _outcome_posteriors(r: np.ndarray, family: EncodingFamily) -> np.ndarray:
    """Row i: P(d | outcome R, announced i) under the uniform prior, one product per encoding.

    Uses the trace-normalized operator S = R / s with s^2 = Tr(R^dag R).
    Unitary invariance makes every |S E_i|^2 sum to 1; a deviation beyond
    1e-12 s^2 means the normalizer depends on the encoding choice.
    """
    s2 = float(np.trace(r.conj().T @ r).real)
    if s2 < 1e-15:
        raise ValueError("degenerate operator: Tr(R^dag R) ~ 0")
    s_op = r / np.sqrt(s2)
    rows = np.empty((family.k, family.n))
    for i in range(family.k):
        probs = (np.abs(s_op @ family.encoder(i)) ** 2).sum(axis=0)
        if abs(probs.sum() - 1.0) * s2 > 1e-12 * max(1.0, s2):
            raise BoundViolation("normalizer varies with the encoding choice")
        rows[i] = probs / probs.sum()
    return rows


def povm_posterior(p: Povm, family: EncodingFamily, i: int, j: int) -> np.ndarray:
    """P(d | outcome j, announced i) under the uniform prior (see `_outcome_posteriors`)."""
    if not (0 <= j < len(p.operators) and 0 <= i < family.k):
        raise ValueError(f"outcome {j} or encoding {i} out of range")
    return _outcome_posteriors(p.operators[j], family)[i]


def povm_gain_account(p: Povm, family: EncodingFamily) -> dict:
    """Entropy/gain accounting of a POVM against every encoding choice.

    Outcome weights are s_j^2 / n, the uniform-prior outcome probabilities.
    Each outcome costs k products R_j E_i, shared by the normalizer check and
    the posteriors.
    """
    n = family.n
    log_n = float(np.log2(n))
    h_cond = np.array([qmath.entropy_rows(_outcome_posteriors(r, family)) for r in p.operators])
    weights = np.array([float(np.trace(r.conj().T @ r).real) / n for r in p.operators])
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
    raw = []
    for rank in ranks:
        x = g.standard_normal((dim, rank)) + 1j * g.standard_normal((dim, rank))
        y = g.standard_normal((rank, dim)) + 1j * g.standard_normal((rank, dim))
        raw.append((x @ y) / (2.0 * np.sqrt(dim * rank)))
    total = sum(r.conj().T @ r for r in raw)
    total = (total + total.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(total)
    if eigvals.min() <= 1e-12:
        raise ValueError("degenerate completeness sum; try another stream")
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.conj().T
    ops = tuple(r @ inv_sqrt for r in raw)
    return validate_povm(Povm(dim=dim, operators=ops))
