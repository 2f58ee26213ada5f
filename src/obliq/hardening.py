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
from .encodings import EncodingFamily
from .protocol import DatabaseState, MeasurementBasis, SessionTranscript, invert_basis
from .qmath import BoundViolation, SeededRng


@dataclass(frozen=True)
class GfMask:
    """Affine map d -> a*d + b over GF(2^m), with the per-degree fixed modulus."""

    m: int
    a: int
    b: int
    modulus: int = field(init=False)

    def __post_init__(self):
        if not 1 <= self.m <= gf2.MAX_DEGREE:
            raise ValueError(f"mask degree {self.m} outside 1..{gf2.MAX_DEGREE}")
        limit = 1 << self.m
        if not 0 < self.a < limit:
            raise ValueError("mask coefficient a must be a nonzero field element")
        if not 0 <= self.b < limit:
            raise ValueError("mask offset b out of range")
        object.__setattr__(self, "modulus", gf2.irreducible_poly(self.m))

    def apply(self, d: int) -> int:
        """a*d + b in GF(2^m) (carry-less product, addition is XOR)."""
        if not 0 <= d < 1 << self.m:
            raise ValueError(f"value {d} out of range for m={self.m}")
        return int(gf2.mul(self.a, d, self.m, self.modulus)) ^ self.b

    def unmask(self, dp: int) -> int:
        """a^-1 * (dp + b), the inverse affine map."""
        if not 0 <= dp < 1 << self.m:
            raise ValueError(f"value {dp} out of range for m={self.m}")
        a_inv = gf2.inverse(self.a, self.m, self.modulus)
        return int(gf2.mul(a_inv, dp ^ self.b, self.m, self.modulus))

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
        limit = 1 << self.m
        pairs = tuple((int(x), int(y)) for x, y in self.pairs)
        for x, y in pairs:
            if not (0 <= x < limit and 0 <= y < limit):
                raise ValueError("share value out of range")
        object.__setattr__(self, "pairs", pairs)


def xor_split(d0: int, d1: int, r: int, m: int, rng: SeededRng) -> XorShares:
    """Split (d0, d1) into r share pairs: r-1 uniform pairs plus a closing pair."""
    limit = 1 << m
    if not (0 <= d0 < limit and 0 <= d1 < limit):
        raise ValueError("item value out of range")
    gen = rng.gen
    pairs = []
    acc0, acc1 = 0, 0
    for _ in range(r - 1):
        s0 = int(gen.integers(limit))
        s1 = int(gen.integers(limit))
        pairs.append((s0, s1))
        acc0 ^= s0
        acc1 ^= s1
    pairs.append((acc0 ^ d0, acc1 ^ d1))
    return XorShares(r=r, m=m, pairs=tuple(pairs))


def xor_reconstruct(shares: XorShares) -> tuple:
    """Fold the share pairs back into (d0, d1)."""
    d0, d1 = 0, 0
    for s0, s1 in shares.pairs:
        d0 ^= s0
        d1 ^= s1
    return d0, d1


def xor_guess_attack(
    family: EncodingFamily, db: DatabaseState, r: int, trials: int, rng: SeededRng
) -> dict:
    """Monte Carlo of the guess-every-round attack on an r-round split.

    Per round the attacker measures with the inverse of a guessed encoder;
    a matched guess pins that round's share pair exactly, a mismatch leaves
    it uniform.  Recovery of both items therefore requires matching every
    round, and when that happens the reconstruction is checked against the
    true database.
    """
    if family.k != 2 or db.k != 2:
        raise ValueError("the share-splitting attack model is for k=2")
    if trials < 1:
        raise ValueError("a Monte Carlo needs trials >= 1")
    m = family.m
    bases = [invert_basis(family, g) for g in range(2)]
    # made once per call: a matched round's outcome law depends only on (i, pair), its decode on (i, outcome)
    laws, decodes = {}, {}
    successes = 0
    for t in range(trials):
        stream = rng.derive(t)
        shares = xor_split(db.items[0], db.items[1], r, m, stream)
        recovered = []
        for pair in shares.pairs:
            i = int(stream.gen.integers(2))
            guess = int(stream.gen.integers(2))
            if i != guess:
                break
            if (i, pair) not in laws:
                state = protocol.vendor_encode(DatabaseState(2, m, pair), family, i)
                laws[i, pair] = np.cumsum(protocol.outcome_distribution(state, bases[i]))
            outcome = protocol.draw_outcome(laws[i, pair], stream)
            if (i, outcome) not in decodes:
                d = int(np.argmax(protocol.posterior(bases[i], family, i, outcome)))
                decodes[i, outcome] = tuple(protocol.item_blocks(d, 2, m))
            recovered.append(decodes[i, outcome])
        else:  # every round's guess matched
            if xor_reconstruct(XorShares(r, m, tuple(recovered))) != db.items:
                raise BoundViolation("matched guesses must reconstruct the database")
            successes += 1
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


def bit_targeting_audit(m: int, trials: int, rng: SeededRng, threshold: float = 0.9) -> dict:
    """Audit: learning one fixed bit of a masked item barely pins any raw bit.

    Simulates an adversary that learns bit 0 of a*d+b exactly and
    nothing else, over uniformly random masks; reports the mean posterior
    entropy of each single bit of d and compares the worst one against the
    (configurable) threshold.
    """
    modulus = gf2.irreducible_poly(m)  # refuses m outside 1..MAX_DEGREE
    if trials < 1:
        raise ValueError("an audit needs trials >= 1")
    gen = rng.gen
    limit = 1 << m
    values = np.arange(limit)
    bit_entropy = np.zeros(m)
    for _ in range(trials):
        a = int(gen.integers(1, limit))
        b = int(gen.integers(limit))
        observed_bit = (np.asarray(gf2.mul(a, values, m, modulus)) ^ b) & 1
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
        "threshold": threshold,
        "passed": bool(bit_entropy.min() >= threshold),
    }
