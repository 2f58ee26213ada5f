"""Hardening layers: XOR share splitting and GF(2^m) affine masking.

XOR splitting forces a cheating user to win r independent encoding guesses
to learn both items.  Affine masking over GF(2^m) scrambles which physical
bit of an item each learned bit refers to, so partial knowledge of the
masked value pins no individual bit of the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2, protocol, qmath
from .encodings import EncodingFamily, check_trials
from .protocol import DatabaseState, MeasurementBasis, SessionTranscript, invert_basis
from .qmath import BoundViolation, SeededRng


@dataclass(frozen=True)
class GfMask:
    """Affine map d -> a*d + b over GF(2^m), on the degree's one modulus."""

    m: int
    a: int
    b: int
    modulus: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "modulus", gf2.modulus(self.m))  # refuses m outside 1..MAX_DEGREE
        limit = 1 << self.m
        if not 0 < self.a < limit:
            raise ValueError("mask coefficient a must be a nonzero field element")
        if not 0 <= self.b < limit:
            raise ValueError("mask offset b out of range")

    def apply(self, d: int) -> int:
        """a*d + b in GF(2^m) (carry-less product, addition is XOR)."""
        if not 0 <= d < 1 << self.m:
            raise ValueError(f"value {d} out of range for m={self.m}")
        return gf2.mul(self.a, d, self.m) ^ self.b

    def unmask(self, dp: int) -> int:
        """a^-1 * (dp + b), the inverse affine map."""
        if not 0 <= dp < 1 << self.m:
            raise ValueError(f"value {dp} out of range for m={self.m}")
        return gf2.mul(gf2.inverse(self.a, self.m), dp ^ self.b, self.m)

    def payload(self) -> dict:
        return {"m": self.m, "a": self.a, "b": self.b, "modulus": self.modulus}


# ---------------------------------------------------------------------------
# XOR share splitting


@dataclass(frozen=True)
class XorShares:
    """r pairs of m-bit shares; the componentwise XOR folds recover the items."""

    r: int
    m: int
    pairs: tuple

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("share splitting needs r >= 1")
        if len(self.pairs) != self.r:
            raise ValueError("pair count does not match r")
        pairs = tuple((int(x), int(y)) for x, y in self.pairs)
        if not all(0 <= v < 1 << self.m for pair in pairs for v in pair):
            raise ValueError("share value out of range")
        object.__setattr__(self, "pairs", pairs)


def _share_pairs(items, shares: np.ndarray) -> np.ndarray:
    """The uniform share pairs `shares`, shape (..., r-1, 2), then the pair closing their XOR folds on `items`."""
    closing = np.bitwise_xor.reduce(shares, axis=-2) ^ np.asarray(items, dtype=np.int64)
    return np.concatenate([shares, closing[..., None, :]], axis=-2)


def xor_split(d0: int, d1: int, r: int, m: int, rng: SeededRng) -> XorShares:
    """Split (d0, d1) into r share pairs: r-1 uniform pairs plus a closing pair."""
    if not (0 <= d0 < 1 << m and 0 <= d1 < 1 << m):
        raise ValueError("item value out of range")
    shares = np.array([rng.gen.integers(1 << m) for _ in range(2 * r - 2)], np.int64).reshape(r - 1, 2)
    return XorShares(r=r, m=m, pairs=tuple(_share_pairs((d0, d1), shares).tolist()))


def xor_reconstruct(shares: XorShares) -> tuple:
    """Fold the share pairs back into (d0, d1)."""
    return tuple(np.bitwise_xor.reduce(np.array(shares.pairs, dtype=np.int64)).tolist())


def _trial_draws(words: np.ndarray, r: int, m: int) -> tuple:
    """Each trial's draws, in its Generator's order, from the first 3r-1 words of its stream (one row each).

    Shares (trials, r-1, 2) are integers(2^m) from the low, then high half of a word; per round
    (i, guess) (trials, r, 2) are integers(2) from the next word's halves, and random() from one word.
    """
    halves = np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)], axis=-1).astype(np.int64)
    uniforms = (words[:, r::2] >> np.uint64(11)).astype(float) * 2.0**-53
    return halves[:, : r - 1] >> (32 - m), halves[:, r - 1 :: 2] >> 31, uniforms


def xor_guess_attack(
    family: EncodingFamily, db: DatabaseState, r: int, trials: int, rng: SeededRng
) -> dict:
    """Monte Carlo of the guess-every-round attack on an r-round split.

    Per round the attacker measures with the inverse of a guessed encoder;
    a matched guess pins that round's share pair exactly, a mismatch leaves
    it uniform.  Recovery of both items therefore requires matching every
    round, and then the XOR fold of the decoded pairs must be the database.
    Trial t draws from rng.derive(t) the shares as `xor_split` does, then per
    round the index, the guess and, on a match, the outcome, read in blocks
    by `child_words`.  Every argument is checked before the first draw.
    """
    if family.k != 2 or db.k != 2:
        raise ValueError("the share-splitting attack model is for k=2")
    if db.m != family.m:
        raise ValueError(f"database has m = {db.m}, the family m = {family.m}")
    if r < 1:
        raise ValueError("share splitting needs r >= 1")
    check_trials(trials)
    m, n, words = family.m, family.n, 3 * r - 1
    step = max(1, (1 << 16) // words)  # trials per block: at most 2^16 words in hand, whatever trials and r
    bases = [invert_basis(family, g) for g in range(2)]
    # one law per (i, pair) and one decode per (i, outcome) in the whole call, each keyed i * n + index
    laws, decoded, successes = {}, np.full(2 * n, -1), 0
    for start in range(0, trials, step):
        shares, rounds, uniforms = _trial_draws(rng.child_words(range(start, min(start + step, trials)), words), r, m)
        won = (rounds[..., 0] == rounds[..., 1]).all(axis=1)  # every round's guess matched
        pairs, i, u = _share_pairs(db.items, shares[won]), rounds[won, :, 0], uniforms[won]
        keys = i * n + (pairs[..., 0] << m | pairs[..., 1])
        outcomes = np.empty_like(keys)
        for key in dict.fromkeys(keys.ravel().tolist()):
            if key not in laws:
                laws[key] = np.cumsum(protocol.outcome_law(family.encode_slots(key // n, key % n), bases[key // n]))
            at = keys == key
            outcomes[at] = np.minimum(np.searchsorted(laws[key], u[at], side="right"), n - 1)
        keys = i * n + outcomes
        for key in set(keys[decoded[keys] < 0].tolist()):
            decoded[key] = np.argmax(protocol.posterior(bases[key // n], family, key // n, key % n))
        if (np.bitwise_xor.reduce(decoded[keys], axis=1) != db.config_index).any():
            raise BoundViolation("matched guesses must reconstruct the database")
        successes += int(won.sum())
    freq = successes / trials
    expected = 2.0 ** (-r)
    sigma = float(np.sqrt(expected * (1 - expected) / trials))
    return {
        "r": r,
        "trials": trials,
        "frequency": freq,
        "expected": expected,
        "sigma": sigma,
        "within_3_sigma": bool(abs(freq - expected) <= 3 * sigma),
    }


# ---------------------------------------------------------------------------
# masked sessions


def masked_session(
    db: DatabaseState,
    family: EncodingFamily,
    mask: GfMask,
    strategy: MeasurementBasis,
    rng: SeededRng,
) -> SessionTranscript:
    """`protocol.run_session` with `mask`: the announcement carries (a, b).

    The honest decode path inverts the mask, so an identity mask reproduces
    an unmasked session exactly except for the announcement payload.
    """
    return protocol.run_session(db, family, strategy, rng, mask=mask)


def bit_targeting_audit(m: int, trials: int, rng: SeededRng) -> dict:
    """Audit: learning one fixed bit of a masked item barely pins any raw bit.

    Simulates an adversary that learns bit 0 of a*d+b exactly and
    nothing else, over uniformly random masks; reports the mean posterior
    entropy of each single bit of d and passes when the worst one is at
    least 0.9 bits.
    """
    gf2.modulus(m)  # refuses m outside 1..MAX_DEGREE
    check_trials(trials)
    gen = rng.gen
    limit = 1 << m
    values = np.arange(limit)
    bit_entropy = np.zeros(m)
    for _ in range(trials):
        a = int(gen.integers(1, limit))
        b = int(gen.integers(limit))
        observed_bit = (gf2.mul(a, values, m) ^ b) & 1
        true_d = int(gen.integers(limit))
        support = values[observed_bit == observed_bit[true_d]]
        p1 = ((support[:, None] >> np.arange(m)) & 1).mean(axis=0)
        bit_entropy += qmath.entropy_rows(np.stack([p1, 1 - p1], axis=1))
    bit_entropy /= trials
    return {
        "m": m,
        "trials": trials,
        "target_bit": 0,
        "mean_bit_entropy": bit_entropy.tolist(),
        "min_bit_entropy": float(bit_entropy.min()),
        "threshold": 0.9,
        "passed": bool(bit_entropy.min() >= 0.9),
    }
