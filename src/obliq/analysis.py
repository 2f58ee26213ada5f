"""Bound verification and empirical experiments.

Suites here audit the proven inequalities (entropic uncertainty, the
pairwise-unbiased leakage cap, the POVM no-advantage bound, Haar overlap
concentration) and run the adversarial leakage search for the projective
measurement of largest expected information gain: the honest and inverse
bases are scored exactly per item slot, and Haar starts run Riemannian
steepest descent on U(n) with the exact gradient.

A note on the uncertainty constant: for measurements given by the rows of
unitaries A and B, the proven lower bound on H2(Au) + H2(Bu) is
-2 log Linf(A B^dag) -- the basis-overlap matrix.  When A = I (the only
case the protocol bounds need) this coincides with Linf(B), so both forms
of the audit agree there.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import qmath
from .encodings import (
    MAX_RESTARTS, MAX_SEARCH_DIM, MAX_TRIALS, EncodingFamily, build_family, check_desk_cell, mub_family,
    random_family, walsh_matrix,
)
from .povm import povm_entropy_bound_check, random_povm
from .protocol import MeasurementBasis, honest_basis, honest_leakage, invert_basis, outcome_probs, slot_entropy
from .qmath import BoundViolation, SeededRng

_CHUNK = 2048  # most trials in one audit chunk
_CHUNK_ENTRIES = 1 << 18  # most complex entries a chunk's sampled matrices or states hold
RULE_OF_THUMB = (0.4, 0.7)  # reference constants for the leakage power-law fit


# perfbench/spans.py carries trace spans into pool lanes by patching this name
# in this module; every pool call here goes through it so that patch takes effect.
_parallel_map = qmath.parallel_map


def _chunk_trials(entries_per_trial: int) -> int:
    """Trials per audit chunk: at most _CHUNK and about _CHUNK_ENTRIES entries, never below 1."""
    return max(1, min(_CHUNK, _CHUNK_ENTRIES // entries_per_trial))


def _check_trials(trials: int) -> None:
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"an audit needs trials >= 1 and <= {MAX_TRIALS}, got {trials}")


def _chunk_map(fn, trials: int, per: int, stream: SeededRng) -> list:
    """[fn(count, stream.derive(c)) for chunk c of `per` trials] on the pool; no bit depends on the lanes."""
    _check_trials(trials)
    chunks = [(c, min(per, trials - lo)) for c, lo in enumerate(range(0, trials, per))]
    return _parallel_map(lambda chunk: fn(chunk[1], stream.derive(chunk[0])), chunks)


@dataclass
class BoundReport:
    """Outcome of one audit suite; violations must be 0 for proven bounds."""

    suite: str
    trials: int
    min_slack: float
    violations: int
    parameters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "min_slack": self.min_slack,
            "violations": self.violations,
            "parameters": self.parameters,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), allow_nan=False)


# ---------------------------------------------------------------------------
# entropic uncertainty audit


def _uncertainty_slacks(dim: int, trials: int, stream: SeededRng) -> np.ndarray:
    """H2(Au) + H2(Bu) + 2 log2 Linf(A B^dag) for `trials` independent Haar triples (A, B, u).

    Sampled as w = Au and V = B A^dag, which are independent and Haar, so
    Bu = V w and Linf(A B^dag) = Linf(V): one unitary and one state per trial.
    """
    def chunk(count, sub):
        v = qmath.haar_unitaries(dim, count, sub)
        w = qmath.random_states(dim, count, sub)
        hb = qmath.entropy_rows(np.abs(v @ w[:, :, None])[:, :, 0] ** 2)
        ha = qmath.entropy_rows(np.abs(w) ** 2)
        return ha + hb + 2.0 * np.log2(np.abs(v).max(axis=(1, 2)))

    return np.concatenate(_chunk_map(chunk, trials, _chunk_trials(dim * dim), stream))


def verify_theorem1(dim: int, trials: int, rng: SeededRng) -> BoundReport:
    """Randomized audit of the two-measurement entropic uncertainty bound.

    Checks H2(Au) + H2(Bu) + 2 log2 Linf(A B^dag) >= -1e-9 over Haar pairs
    (A, B) and Haar states u, plus the flat special case A = I, B = Walsh
    where the right side equals log2(dim) exactly.  Haar measure is invariant
    under multiplication by a fixed unitary (Mezzadri, math-ph/0609050), so
    for independent A, B, u the pair (B A^dag, Au) is again two independent
    Haar draws; each trial samples that pair instead of the triple.
    min_slack covers both cases; parameters["haar_min_slack"] is the Haar
    trials' own minimum, which the flat case otherwise hides.
    """
    if dim < 2:
        raise ValueError("the audit needs dim >= 2")
    slack = _uncertainty_slacks(dim, trials, rng.derive(0))
    haar_min = float(slack.min())

    # flat case: overlap 1/sqrt(dim) exactly when dim is a power of two
    hadamard = {}
    if dim & (dim - 1) == 0:
        w = walsh_matrix(int(np.log2(dim)))
        u = qmath.random_states(dim, min(trials, _CHUNK), rng.derive(1))
        hu = qmath.entropy_rows(np.abs(u) ** 2)
        hw = qmath.entropy_rows(np.abs(np.einsum("ij,bj->bi", w, u)) ** 2)
        flat = hu + hw - np.log2(dim)
        hadamard = {"rhs_bits": float(np.log2(dim)), "min_slack": float(flat.min())}
        slack = np.concatenate([slack, flat])

    return BoundReport(
        suite="entropic",
        trials=trials,
        min_slack=float(slack.min()),
        violations=int((slack < -1e-9).sum()),
        parameters={"dim": dim, "haar_min_slack": haar_min, "hadamard_case": hadamard},
    )


def explore_condition_2prime(encoders, trials: int, rng: SeededRng) -> BoundReport:
    """Sample the entropy-sum landscape sum_i H2(C_i u) over random states.

    For k = 2 with an unbiased pair the (k-1) log n threshold is proven and
    gated; for k > 2 the run is exploratory only and reports the gap to both
    the (k-1) log n and the (k/2) log n thresholds without pass/fail.
    An encoder is a tuple of Kronecker factors or a dense matrix, a one-factor
    chain; no chain is built before `trials` is checked.
    """
    _check_trials(trials)
    chains = [tuple(map(qmath.as_operator, c if isinstance(c, tuple) else (c,))) for c in encoders]
    k = len(chains)
    if k < 2:
        raise ValueError("need at least two encoders")
    n = math.prod(len(f) for f in chains[0])
    log_n = float(np.log2(n))
    # a chain of identities is scored from u itself: the bits of u @ I, without the product
    transposed = [
        None if all(np.array_equal(f, np.eye(len(f))) for f in c) else qmath.kron_chain(c).T for c in chains
    ]

    def chunk(count, sub):
        u = qmath.random_states(n, count, sub)
        total = sum(qmath.entropy_rows(np.abs(u if t is None else u @ t) ** 2) for t in transposed)
        return float(total.min()), int((total < (k - 1) * log_n - 1e-9).sum())

    lows, bads = zip(*_chunk_map(chunk, trials, _chunk_trials(n), rng.derive(0)))
    min_sum = min(lows)
    return BoundReport(
        suite="hk",
        trials=trials,
        min_slack=float(min_sum - (k - 1) * log_n),
        violations=sum(bads) if k == 2 else 0,
        parameters={
            "k": k,
            "n": n,
            "min_sum_bits": float(min_sum),
            "threshold_full_bits": (k - 1) * log_n,
            "threshold_pairwise_bits": k / 2.0 * log_n,
            "gap_pairwise_bits": float(min_sum - k / 2.0 * log_n),
            "exploratory": k > 2,
        },
    )


# ---------------------------------------------------------------------------
# adversarial leakage search


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    iterations: int = 2000


@dataclass
class LeakageResult:
    """Best measurement found for one family; a lower bound on the supremum."""

    k: int
    m: int
    family_kind: str
    best_gain: float
    bound: float
    restarts: int
    iterations: int
    seed: int
    # the winning restart as found: a structured basis, factors kept, or a Haar start's unitary
    winner: MeasurementBasis | np.ndarray = field(repr=False, compare=False)
    best_restart: int = 0

    def __post_init__(self):
        if self.best_gain > self.bound + 1e-6:
            raise BoundViolation(f"gain {self.best_gain} exceeds the proven bound {self.bound}")

    @functools.cached_property
    def best_params(self) -> np.ndarray:
        """The winner's Hermitian parameters (params_from_unitary), formed on first read."""
        w = self.winner
        return params_from_unitary(w.matrix if isinstance(w, MeasurementBasis) else w)


def params_from_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian parameters theta with exp(i H(theta)) = u, up to rounding.

    H has diagonal theta[:n] and upper triangle theta[n::2] + i theta[n+1::2].
    """
    import scipy.linalg  # only here, so importing obliq does not load scipy

    u = qmath.as_operator(u)
    n = u.shape[0]
    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(t))
    h = (z * phases) @ z.conj().T
    h = (h + h.conj().T) / 2.0
    theta = np.empty(n * n)
    theta[:n] = np.diag(h).real
    iu = np.triu_indices(n, 1)
    theta[n::2] = h[iu].real
    theta[n + 1 :: 2] = h[iu].imag
    return theta


def _stacked_encoders(family: EncodingFamily) -> np.ndarray:
    return np.concatenate([family.encoder(i) for i in range(family.k)], axis=1)


def _leakage_bound(family: EncodingFamily) -> float:
    if family.pairwise_hadamard:
        return family.k * family.m / 2.0
    return float(family.k * family.m)


_INV_LN2 = 1.0 / np.log(2.0)
_ARMIJO = 1e-4  # sufficient-decrease fraction of the first-order prediction
_MIN_STEP = 1e-12
_GAIN_TOL = 1e-7  # a descent stops after a step that raises the expected gain by less (bits)
# From this dimension a Haar restart's matrix products outweigh the interpreter
# lock, and Haar restarts on the pool finish sooner; below it they run serially
# (on a 2-core VM the pool took 1.7x the serial time at n = 16, 0.6x at n = 64).
# Structured starts never use the pool: each is a few 2^m x 2^m products.
_POOL_RESTART_DIM = 64


def _objective(u: np.ndarray, encoders: np.ndarray):
    """f(U) = mean over the k n rows of U E of H2(|row|^2), in bits; E_i side by side in `encoders`.

    The expected gain of measuring in the rows of U is log2 n - f(U).  Also
    returns a thunk for the Riemannian gradient skew(G U^dag), where
    G = sum_i [2 (-log2 p - 1/ln 2) * U E_i] E_i^dag / (k n) and so G U^dag
    is W (U E)^dag.  Where p = 0, U E_i = 0 gives the term its exact limit, 0.
    """
    amp = u @ encoders
    p = amp.real**2
    p += amp.imag**2
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0.0)
    scale = 1.0 / encoders.shape[1]

    def riemannian_gradient() -> np.ndarray:
        g = (amp * ((-2.0 * scale) * (logs + _INV_LN2))) @ amp.conj().T
        return 0.5 * (g - g.conj().T)

    p *= logs  # in place: restarts on the pool each hold these n x kn arrays
    return -scale * float(p.sum()), riemannian_gradient


def _cayley_step(u: np.ndarray, omega: np.ndarray, mu: float) -> np.ndarray:
    """Cayley(-mu Omega) U = (I + mu Omega/2)^-1 (I - mu Omega/2) U, unitary for skew Omega.

    Formed as 2 (I + mu Omega/2)^-1 U - U, the same matrix from one solve
    and no product.
    """
    return 2.0 * np.linalg.solve(np.eye(len(u)) + (0.5 * mu) * omega, u) - u


def _descend(u, encoders, iterations: int):
    """Riemannian steepest descent of f on U(n) (Abrudan, Eriksson & Koivunen 2008).

    Armijo steps along the Cayley retraction; a rejected mu is replaced by
    the quadratic-interpolation step, an accepted one doubles for the next
    step.  f is a mean row entropy, so the first trial step mu = 1 has the
    same size in gain units at every n.  Stops after `iterations` steps or
    a step that raises the gain, a drop in f, by less than _GAIN_TOL bits.
    """
    f, gradient = _objective(u, encoders)
    mu = 1.0
    for _ in range(iterations):
        omega = gradient()
        slope = float(np.vdot(omega, omega).real)  # -df/dmu at mu = 0
        while True:
            cand = _cayley_step(u, omega, mu)
            f_cand, grad_cand = _objective(cand, encoders)
            if f_cand <= f - _ARMIJO * mu * slope:
                break
            curvature = f_cand - f + mu * slope  # > 0 whenever Armijo fails
            mu = min(max(0.5 * slope * mu * mu / curvature, 0.1 * mu), 0.5 * mu)
            if mu < _MIN_STEP:
                return u, f
        drop = f - f_cand
        u, f, gradient = cand, f_cand, grad_cand
        if drop < _GAIN_TOL:
            break
        mu *= 2.0
    return u, f


def max_leakage(family: EncodingFamily, config: OptimizerConfig, rng: SeededRng) -> LeakageResult:
    """Maximize the expected gain, log2 n - f(U), over the restarts' measurements.

    The first 2k restarts score the honest, then the inverse-encoder, bases
    exactly per item slot (`slot_entropy`), serially and with no dense
    evaluation; each basis is built only when its restart runs.  These are
    strict local optima of f, so a descent from them cannot move, and the
    result never falls below the honest strategy.  Later restarts, refused
    above n = MAX_SEARCH_DIM, run `_descend` from Haar unitaries; only they
    build the dense encoder block, and from n = _POOL_RESTART_DIM they spread
    over every lane of the worker pool (leakage_scan runs its cells in
    order, never on a lane).  The winner is the lowest f, ties to the
    earliest restart, so the thread count never changes the result.
    best_gain is log2 n minus the winner's f as the search evaluated it;
    the result holds the winner as found and forms no dense matrix of it.
    """
    n, k = family.n, family.k
    _check_search(k, family.m, config.restarts)
    best = [np.inf, 0, None]  # f, restart, basis or Haar U of the lowest f, ties to the earliest restart
    for idx in range(min(config.restarts, 2 * k)):
        basis = honest_basis(family, idx) if idx < k else invert_basis(family, idx - k)
        f = slot_entropy(family, basis.items)
        if f < best[0]:
            best[:] = f, idx, basis

    if config.restarts > 2 * k:
        encoders = _stacked_encoders(family)
        lock = threading.Lock()

        def run(idx):
            u, f = _descend(qmath.haar_unitary(n, rng.derive(idx)), encoders, config.iterations)
            with lock:
                if (f, idx) < (best[0], best[1]):
                    best[:] = f, idx, u

        haar = range(2 * k, config.restarts)
        if n >= _POOL_RESTART_DIM:
            _parallel_map(run, haar)
        else:
            for idx in haar:
                run(idx)
    best_f, best_idx, winner = best
    return LeakageResult(
        k=k,
        m=family.m,
        family_kind=family.kind,
        best_gain=float(np.log2(n)) - best_f,
        bound=_leakage_bound(family),
        restarts=config.restarts,
        iterations=config.iterations,
        seed=rng.seed,
        winner=winner,
        best_restart=best_idx,
    )


def _check_search(k: int, m: int, restarts: int) -> None:
    """ValueError unless 1 <= restarts <= MAX_RESTARTS and no Haar restart would run above MAX_SEARCH_DIM."""
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"the leakage search needs restarts >= 1 and <= {MAX_RESTARTS}, got {restarts}")
    if restarts > 2 * k and 1 << (k * m) > MAX_SEARCH_DIM:
        raise ValueError(
            f"cell (k={k}, m={m}) has n = {1 << (k * m)} > {MAX_SEARCH_DIM}, too large for a Haar"
            f" restart; use --restarts <= {2 * k}"
        )


def scan_cells(k_values, m_values) -> list:
    """Grid cells with an unbiased family (k <= 2^m + 1); ValueError if one is off the cap or none."""
    cells = []
    for k in k_values:
        for m in m_values:
            check_desk_cell(k, m)
            if k <= (1 << m) + 1:
                cells.append((k, m))
    if not cells:
        raise ValueError("no (k, m) cell has an unbiased family (need k <= 2^m + 1)")
    return cells


def leakage_scan(k_values, m_values, config: OptimizerConfig, rng: SeededRng):
    """max_leakage over the scan_cells of a (k, m) grid, plus a power-law fit.

    Cells run one at a time, in order, so the pool only ever runs leaf work:
    each cell's Haar restarts from n = _POOL_RESTART_DIM use every lane.
    Returns (results, fit) where fit holds the least-squares constants of
    gain ~ c * k^alpha * m next to the 0.4 * k^0.7 * m rule of thumb this
    scan is compared against.
    """
    cells = scan_cells(k_values, m_values)
    for k, m in cells:  # every cell is checked before the first one runs
        _check_search(k, m, config.restarts)
    results = [
        max_leakage(build_family(mub_family(k, m)), config, rng.derive(idx))
        for idx, (k, m) in enumerate(cells)
    ]
    return results, fit_power_law(results)


def fit_power_law(results) -> dict:
    """Least squares on logs for gain ~ c * k^alpha * m."""
    ks = np.array([r.k for r in results], dtype=float)
    ms = np.array([r.m for r in results], dtype=float)
    gains = np.array([max(r.best_gain, 1e-12) for r in results])
    y = np.log(gains / ms)
    design = np.stack([np.ones_like(ks), np.log(ks)], axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.sqrt(np.mean((design @ coeffs - y) ** 2)))
    return {
        "c": float(np.exp(coeffs[0])),
        "alpha": float(coeffs[1]),
        "ref_c": RULE_OF_THUMB[0],
        "ref_alpha": RULE_OF_THUMB[1],
        "rms_log_residual": residual,
        "cells": len(results),
    }


def scan_csv(results, fit: dict) -> str:
    """CSV table of scan results with the fit in a footer comment row."""
    lines = ["k,m,family,best_gain_bits,bound_bits,restarts,iters,seed"]
    for r in results:
        lines.append(
            f"{r.k},{r.m},{r.family_kind},{r.best_gain:.9f},{r.bound:.9f},"
            f"{r.restarts},{r.iterations},{r.seed}"
        )
    lines.append(
        f"# fit c={fit['c']:.6f} alpha={fit['alpha']:.6f}"
        f" reference c={fit['ref_c']} alpha={fit['ref_alpha']}"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Haar overlap concentration


def default_t_grid(ell: int) -> np.ndarray:
    return np.array([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0]) / np.sqrt(ell)


def _haar_overlaps(ell: int, trials: int, stream: SeededRng) -> np.ndarray:
    """Linf(V) for `trials` Haar unitaries V of size ell."""
    def chunk(count, sub):
        return np.abs(qmath.haar_unitaries(ell, count, sub)).max(axis=(1, 2))

    return np.concatenate(_chunk_map(chunk, trials, _chunk_trials(ell * ell), stream))


def concentration_experiment(
    ell: int, trials: int, t_grid: np.ndarray | None, rng: SeededRng
) -> BoundReport:
    """Check Pr[Linf(A^dag B) >= t] against the 4 ell^2 exp(-t^2 ell / 2) tail.

    The empirical frequency over Haar pairs must stay below the (clipped)
    bound plus a 3 sigma binomial sampling margin at every grid point.  For
    independent Haar A and B, A^dag B is itself Haar (left invariance of Haar
    measure; Mezzadri, math-ph/0609050), so each trial draws one Haar V and
    takes Linf(V).
    """
    if ell not in (16, 64, 256):
        raise ValueError("overlap concentration runs at ell in {16, 64, 256}")
    grid = default_t_grid(ell) if t_grid is None else np.asarray(t_grid, dtype=float)
    grid = np.append(grid, 1.1) if 1.1 not in grid else grid
    overlaps = _haar_overlaps(ell, trials, rng.derive(0))

    rows = []
    violations = 0
    min_slack = np.inf
    for t in grid:
        freq = float((overlaps >= t).mean())
        bound = float(min(1.0, 4.0 * ell * ell * np.exp(-(t * t) * ell / 2.0)))
        p_eff = min(bound, 0.5)
        margin = 3.0 * float(np.sqrt(p_eff * (1.0 - p_eff) / trials))
        slack = bound + margin - freq
        min_slack = min(min_slack, slack)
        if slack < 0:
            violations += 1
        rows.append({"t": float(t), "frequency": freq, "bound": bound, "margin": margin})
    return BoundReport(
        suite="concentration",
        trials=trials,
        min_slack=float(min_slack),
        violations=violations,
        parameters={"ell": ell, "grid": rows},
    )


# ---------------------------------------------------------------------------
# randomized measurement audits (projective and POVM)


def projective_gain_audit(family: EncodingFamily, trials: int, rng: SeededRng) -> BoundReport:
    """Random projective bases against the pairwise-unbiased gain cap."""
    if not family.pairwise_hadamard:
        raise ValueError("the gain cap audit needs a pairwise-unbiased family")
    n, k = family.n, family.k
    cap = k * family.m / 2.0
    log_n = float(np.log2(n))

    def chunk(count, sub):
        mats = qmath.haar_unitaries(n, count, sub)
        h_sum = sum(qmath.entropy_rows(outcome_probs(mats, family, i)) for i in range(k))
        gains = log_n - h_sum / k  # per outcome
        slack = cap - gains
        return float(slack.min()), int((slack < -1e-9).sum()), float(gains.mean(axis=1).max())

    lows, bads, worsts = zip(*_chunk_map(chunk, trials, _chunk_trials(n * n), rng.derive(0)))
    return BoundReport(
        suite="projective-gain",
        trials=trials,
        min_slack=min(lows),
        violations=sum(bads),
        parameters={"k": k, "m": family.m, "cap_bits": cap, "worst_expected_gain": max(worsts)},
    )


def povm_gain_audit(family: EncodingFamily, trials: int, rng: SeededRng) -> BoundReport:
    """Random POVMs (random rank, N <= 2n) against the k=2 entropy-sum bound."""
    _check_trials(trials)
    n = family.n
    min_slack = np.inf
    violations = 0
    worst_expected = -np.inf
    worst_outcome = -np.inf
    for t in range(trials):  # serially: the trials are GIL-bound and ran slower on the pool
        stream = rng.derive(t)
        n_ops = int(stream.gen.integers(2, 2 * n + 1))
        pv = random_povm(n, n_ops, stream)
        report = povm_entropy_bound_check(pv, family)
        min_slack = min(min_slack, report["min_slack_bits"])
        violations += report["violations"]
        worst_expected = max(worst_expected, report["gain_expected"])
        worst_outcome = max(worst_outcome, report["gain_worst"])
    return BoundReport(
        suite="povm",
        trials=trials,
        min_slack=float(min_slack),
        violations=violations,
        parameters={
            "k": family.k,
            "m": family.m,
            "worst_expected_gain": worst_expected,
            "worst_outcome_gain": worst_outcome,
        },
    )


# ---------------------------------------------------------------------------
# random-family leakage trend


def random_family_leakage_trend(k_values, m_values, seeds: int, rng: SeededRng):
    """Honest-user leakage of Haar families across a (k, m) grid.

    Each row reports the measured total and per-item leakage, the leakage
    normalized by the item size, the observed worst pairwise overlap t and
    the per-item overlap bound m + log2(t^2).  Unbiased-family control rows
    (leakage exactly 0) are included for every cell where one exists.
    """
    rows = []

    def row(fam, seed, overlap, bound):
        k, m = fam.k, fam.m
        leak = float(np.mean([honest_leakage(fam, j) for j in range(k)]))
        rows.append(
            {
                "k": k,
                "m": m,
                "family": fam.kind,
                "seed": seed,
                "leakage_bits": leak,
                "per_item_bits": leak / (k - 1),
                "per_item_fraction": leak / ((k - 1) * m),
                "max_overlap": overlap,
                "per_item_bound_bits": bound,
            }
        )

    for cell, (k, m) in enumerate(itertools.product(k_values, m_values)):
        if k <= (1 << m) + 1:
            row(build_family(mub_family(k, m)), None, float(2.0 ** (-m / 2.0)), 0.0)
        for s in range(seeds):
            fam = build_family(random_family(k, m, rng.derive(cell * 1000 + s)))
            t = fam.basis.max_pairwise_overlap
            row(fam, s, t, float(m + 2.0 * np.log2(t)))
    return rows
