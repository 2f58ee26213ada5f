"""Vendor/user session engine: encode, measure, announce, decode, account.

The coherence-time rule is modeled as a strict logical event order: the
measurement must be committed to the transcript before the announced
encoding index becomes readable.  `TranscriptBuilder` enforces this
structurally, so no decoding path can peek at the announcement early.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import qmath
from .encodings import EncodingFamily
from .qmath import DEFAULT_TOL, SUPPORT_EPS, BoundViolation, SeededRng

TRANSCRIPT_VERSION = 1


# ---------------------------------------------------------------------------
# database state


@dataclass(frozen=True)
class DatabaseState:
    """k items of m bits each; item 0 occupies the most significant block."""

    k: int
    m: int
    items: tuple

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise ValueError("k and m must be >= 1")
        if len(self.items) != self.k:
            raise ValueError("item count does not match k")
        limit = 1 << self.m
        items = tuple(int(v) for v in self.items)
        for v in items:
            if not 0 <= v < limit:
                raise ValueError(f"item value {v} out of range [0, {limit})")
        object.__setattr__(self, "items", items)

    @property
    def config_index(self) -> int:
        d = 0
        for v in self.items:
            d = (d << self.m) | v
        return d

    @classmethod
    def from_index(cls, d: int, k: int, m: int) -> "DatabaseState":
        if not 0 <= d < 1 << (k * m):
            raise ValueError(f"configuration index {d} out of range")
        return cls(k, m, tuple(item_blocks(d, k, m)))


def item_blocks(d: int, k: int, m: int) -> list:
    """Split a configuration index into its k item values."""
    mask = (1 << m) - 1
    return [(d >> (m * (k - 1 - r))) & mask for r in range(k)]


# ---------------------------------------------------------------------------
# measurement bases


@dataclass(frozen=True)
class MeasurementBasis:
    """A projective basis: the rows of the Kronecker chain of `factors`.

    A dense basis is a one-factor chain.  Bases built from several factors
    keep that structure so they apply in O(n log n) instead of O(n^2).
    Outcome j is chain row j rotated by `rotation` m-bit blocks.  `items`,
    when set, names the item basis A_s of the family that factor r is the
    adjoint of, so `posterior` can factor per slot.
    """

    kind: str
    index: int | None
    factors: tuple
    rotation: int = 0
    items: tuple | None = None

    def __post_init__(self):
        factors = []
        for f in self.factors:
            f = qmath.as_operator(f)
            if not qmath.is_unitary(f, DEFAULT_TOL):
                raise ValueError("measurement matrix is not unitary")
            f = f.copy()
            f.setflags(write=False)
            factors.append(f)
        object.__setattr__(self, "factors", tuple(factors))

    @property
    def dim(self) -> int:
        return math.prod(f.shape[0] for f in self.factors)

    def _chain_row(self, j):
        """Chain row of outcome j (ints or integer arrays): j rotated by `rotation`."""
        k, m = len(self.factors), self.factors[0].shape[0].bit_length() - 1
        return qmath.rotate_blocks(j, k, m, self.rotation)

    @property
    def matrix(self) -> np.ndarray:
        mat = qmath.kron_chain(self.factors)
        return mat[self._chain_row(np.arange(self.dim)), :] if self.rotation else mat

    def apply(self, state: np.ndarray) -> np.ndarray:
        """M @ state."""
        return qmath.kron_apply(self.factors, state, self.rotation)

    def row(self, j: int) -> np.ndarray:
        if not 0 <= j < self.dim:
            raise ValueError(f"outcome index {j} out of range")
        return qmath.kron_row(self.factors, self._chain_row(j) if self.rotation else j)

    def label(self) -> dict:
        return {"kind": self.kind, "index": self.index}


def structured_items(k: int, start: int) -> tuple:
    """The item basis behind each factor of structured start `start` < 2k.

    Start j < k is honest_basis j, whose factors are all A_j^dag; start k + g
    is invert_basis g, whose factor r is A_{(g+r) mod k}^dag.
    """
    return (start,) * k if start < k else tuple((start + r) % k for r in range(k))


def honest_basis(family: EncodingFamily, j: int) -> MeasurementBasis:
    """M_j: the k-fold tensor power of A_j^dag."""
    if not 0 <= j < family.k:
        raise ValueError(f"choice {j} out of range for k={family.k}")
    adj = family.matrices[j].conj().T
    return MeasurementBasis(kind="honest", index=j, factors=(adj,) * family.k, items=structured_items(family.k, j))


def invert_basis(family: EncodingFamily, guess: int) -> MeasurementBasis:
    """E_guess^dag: pays off fully when the guess matches the announcement."""
    if not 0 <= guess < family.k:
        raise ValueError(f"guess {guess} out of range for k={family.k}")
    items = structured_items(family.k, family.k + guess)
    factors = tuple(family.matrices[a].conj().T for a in items)
    return MeasurementBasis(kind="invert", index=guess, factors=factors, rotation=guess, items=items)


def parity_basis() -> MeasurementBasis:
    """The XOR-revealing basis for the k=2, m=1 scheme.

    Outcomes 0 and 1 land in a single parity class of the database once the
    encoding is announced; the remaining outcomes refine the odd class.
    """
    rows = np.array(
        [
            [1, 1, 1, -1],
            [1, 1, -1, 1],
            [np.sqrt(2), -np.sqrt(2), 0, 0],
            [0, 0, np.sqrt(2), np.sqrt(2)],
        ],
        dtype=complex,
    ) / 2.0
    return MeasurementBasis(kind="parity", index=None, factors=(rows,))


# ---------------------------------------------------------------------------
# core operations


def vendor_encode(db: DatabaseState, family: EncodingFamily, i: int) -> np.ndarray:
    """The transmitted state: column `db.config_index` of E_i."""
    if db.k != family.k or db.m != family.m:
        raise ValueError("database shape does not match the family")
    return family.encode_column(i, db.config_index)


def outcome_distribution(state: np.ndarray, basis: MeasurementBasis) -> np.ndarray:
    """P(j) = |(M state)_j|^2."""
    v = qmath.as_state(state)
    if v.size != basis.dim:
        raise ValueError(f"dimension mismatch: state {v.size}, basis {basis.dim}")
    p = np.abs(basis.apply(v)) ** 2
    return p / p.sum()


def outcome_law(slots, basis: MeasurementBasis) -> np.ndarray:
    """`outcome_distribution` of the product state with slot columns `slots`, measured slot by slot.

    The outer product of the slot laws |B_r s_r|^2, the basis rotation as an axis permutation, one
    normalization.  It sees only the state, never the encoding index.
    """
    if [s.size for s in slots] != [f.shape[0] for f in basis.factors]:
        raise ValueError("the slots do not match the basis factors")
    p = functools.reduce(np.multiply.outer, [np.abs(f @ s) ** 2 for f, s in zip(basis.factors, slots)])
    p = p.transpose([(a - basis.rotation) % p.ndim for a in range(p.ndim)]).reshape(-1)
    return p / p.sum()


def draw_outcome(cdf: np.ndarray, rng: SeededRng) -> int:
    """Draw one outcome index from a cumulative outcome distribution."""
    j = int(np.searchsorted(cdf, rng.gen.random(), side="right"))
    return min(j, cdf.size - 1)


def posterior(basis: MeasurementBasis, family: EncodingFamily, i: int, j: int) -> np.ndarray:
    """P(d | outcome j, announced i) by Bayes' rule under the uniform prior.

    This is exactly row j of |M E_i|^2, whose sum is 1 by unitarity.  A basis
    with `items` (honest and invert) factors it per slot: slot r contributes
    row c_r of |A_{s_r}^dag A_{(i+r) mod k}|^2, where c is chain row j, and
    P_i moves slot r to item block (r + i) mod k.  That row is e_{c_r} when
    s_r = (i+r) mod k and flat when the family is pairwise Hadamard, so there
    every entry is exactly 0 or 2^-(m t); other pairs form and normalize it.
    """
    if not 0 <= i < family.k:
        raise ValueError(f"encoding index {i} out of range")
    if basis.items is None:
        lik = np.abs(family.vec_times_encoder(basis.row(j), i)) ** 2
        return lik / lik.sum()
    if basis.dim != family.n:
        raise ValueError(f"dimension mismatch: basis {basis.dim}, family {family.n}")
    if not 0 <= j < basis.dim:
        raise ValueError(f"outcome index {j} out of range")
    k, m, mats = family.k, family.m, family.matrices
    c = item_blocks(qmath.rotate_blocks(j, k, m, basis.rotation), k, m)
    post = np.ones(1)
    for q in range(k):  # item block q holds slot r = (q - i) mod k, so A_{(i+r) mod k} = A_q
        r = (q - i) % k
        if basis.items[r] == q:
            row = np.zeros(1 << m)
            row[c[r]] = 1.0
        elif family.pairwise_hadamard:
            row = np.full(1 << m, 2.0**-m)
        else:
            row = np.abs(mats[basis.items[r]][:, c[r]].conj() @ mats[q]) ** 2
            row /= row.sum()
        post = np.multiply.outer(post, row).reshape(-1)
    return post


def outcome_probs(mat: np.ndarray, family: EncodingFamily, i: int) -> np.ndarray:
    """|M E_i|^2 for one measurement matrix M or a stack of them.

    Row j is P(d | outcome j, announced i) under the uniform prior, so by
    unitarity every row sums to 1; a deviation beyond DEFAULT_TOL is a BoundViolation.
    """
    probs = np.abs(mat @ family.encoder(i)) ** 2
    if np.abs(probs.sum(axis=-1) - 1.0).max() > DEFAULT_TOL:
        raise BoundViolation("row sums deviate from 1; encoder not unitary?")
    return probs


@dataclass(frozen=True)
class InfoAccount:
    """Per-outcome entropy table and the information-gain summaries (bits)."""

    h_cond: np.ndarray  # shape (n_outcomes, k); entry [j, i] = H(P(.|j,i))
    h_avg: np.ndarray  # mean over i
    gain_worst: float  # max over outcomes of log n - h_avg[j]
    gain_expected: float  # outcome-weighted mean gain (weights 1/n)


def info_account(basis: MeasurementBasis, family: EncodingFamily) -> InfoAccount:
    """Entropy accounting of a measurement against every encoding choice.

    The prior is uniform; the averaging weights below are a consequence of
    unitarity under that prior, re-checked at runtime by `outcome_probs`.
    """
    n, k = family.n, family.k
    mat = basis.matrix
    h_cond = np.empty((n, k))
    for i in range(k):
        h_cond[:, i] = qmath.entropy_rows(outcome_probs(mat, family, i))
    h_avg = h_cond.mean(axis=1)
    log_n = float(np.log2(n))
    gains = log_n - h_avg
    return InfoAccount(
        h_cond=h_cond,
        h_avg=h_avg,
        gain_worst=float(gains.max()),
        gain_expected=float(gains.mean()),
    )


def decode_item(outcome: int, announced: int, chosen: int, k: int, m: int) -> int:
    """Item value read from the honest measurement outcome.

    The chosen item sits in block (chosen - announced) mod k of the outcome
    index, counting blocks from the most significant end.
    """
    block = (chosen - announced) % k
    return item_blocks(outcome, k, m)[block]


def slot_entropy(family: EncodingFamily, items) -> float:
    """Mean row entropy (bits) of |M E_i|^2 over every row and every i, per slot.

    M is a basis whose factor r is A_{items[r]}^dag (honest and invert bases).
    Each row of |M E_i|^2 is a product of slot rows, so the mean entropy is
    f = (1/k) sum_i sum_r mean_rows H(|A_{items[r]}^dag A_{(i+r) mod k}|^2).
    A matched slot, items[r] = (i+r) mod k, is the identity and adds exactly
    0; every other slot is computed, whatever the family claims, once per
    distinct pair (items[r], q) and added in (i, r) order.
    """
    k = family.k
    mats = family.matrices
    slot = {}
    total = 0.0
    for i in range(k):
        for r in range(k):
            a, q = items[r], (i + r) % k
            if a != q:
                if (a, q) not in slot:
                    slot[a, q] = float(qmath.entropy_rows(np.abs(mats[a].conj().T @ mats[q]) ** 2).mean())
                total += slot[a, q]
    return total / k


def honest_leakage(family: EncodingFamily, j: int) -> float:
    """Expected information (bits) an honest chooser of item j gains about the rest.

    Under honest measurement the posterior over the permuted configuration
    factorizes per item block, so the computation reduces to mean row
    entropies of the small cross products A_j^dag A_i (`slot_entropy`);
    this stays exact for any k*m, with no joint-space matrices.
    """
    if not 0 <= j < family.k:
        raise ValueError(f"choice {j} out of range")
    return (family.k - 1) * family.m - slot_entropy(family, (j,) * family.k)


# ---------------------------------------------------------------------------
# transcripts


class SessionOrderError(RuntimeError):
    """An event was requested out of the enforced protocol order."""


# the one legal event order of a session; each event happens exactly once
EVENT_ORDER = ("state_sent", "measurement_committed", "encoding_announced", "decoded")


class TranscriptBuilder:
    """Event log that refuses to reveal the encoding before measurement.

    A call out of `EVENT_ORDER` raises `SessionOrderError` and logs nothing,
    so the log is always a prefix of the legal order.
    """

    def __init__(self, secret_encoding: int):
        self.__secret = int(secret_encoding)
        self._events = []

    def _push(self, kind: str, payload: dict, refusal: str):
        if len(self._events) != EVENT_ORDER.index(kind):
            raise SessionOrderError(refusal)
        self._events.append({"seq": len(self._events), "type": kind, **payload})

    def record_state_sent(self, dim: int):
        self._push("state_sent", {"dim": dim}, "the state is sent once, first")

    def record_measurement(self, basis_label: dict, outcome: int):
        payload = {"basis": basis_label, "outcome": int(outcome)}
        self._push("measurement_committed", payload, "one measurement, after the state is sent")

    def announce(self, extra: dict | None = None) -> int:
        payload = {"i": self.__secret}
        if extra:
            payload.update(extra)
        self._push("encoding_announced", payload, "the encoding is announced once, after measurement")
        return self.__secret

    @property
    def announced(self) -> int:
        if len(self._events) <= EVENT_ORDER.index("encoding_announced"):
            raise SessionOrderError("the encoding is announced only after measurement")
        return self.__secret

    def record_decoded(self, payload: dict):
        self._push("decoded", {"value": payload}, "one decode, after the announcement")

    @property
    def events(self) -> list:
        return list(self._events)


@dataclass(frozen=True, eq=False)
class SessionTranscript:
    """One full protocol session, serializable to the versioned JSON schema.

    `posterior` is the read-only float64 array `posterior()` returned, up to
    the bytes `to_json` writes.  As an array has no single truth value,
    transcripts compare by identity; `to_json()` compares their contents.
    """

    k: int
    m: int
    family: dict
    prior: str
    events: tuple
    outcome: int
    announced: int
    posterior: np.ndarray
    decoded: dict
    seed: tuple

    def document(self) -> dict:
        """The transcript document with the posterior array itself, for `transcript_json`."""
        return {
            "version": TRANSCRIPT_VERSION,
            "k": self.k,
            "m": self.m,
            "family": self.family,
            "prior": self.prior,
            "events": list(self.events),
            "outcome": self.outcome,
            "announced": self.announced,
            "posterior": self.posterior,
            "decoded": self.decoded,
            "seed": list(self.seed),
        }

    def to_dict(self) -> dict:
        """`document()` made JSON-ready: the posterior as a list of plain floats."""
        return dict(self.document(), posterior=self.posterior.tolist())

    def to_json(self) -> str:
        return transcript_json(self.document())


# ---------------------------------------------------------------------------
# transcript JSON

# Posteriors shorter than this go to json.dumps: at 512 entries of 0 and 1 the
# two writers take about the same time, and below it json.dumps is faster.
_SHARED_REPR_MIN = 512
_SLOT = "\x00posterior\x00"  # stands in for each posterior in the skeleton


def transcript_json(doc, indent=None) -> str:
    """Exactly `json.dumps(doc, indent=indent, allow_nan=False, default=np.ndarray.tolist)`, written sooner.

    `doc` is a transcript (`SessionTranscript.document`) or a share-split
    document whose `rounds` are transcripts.  Each `posterior` that is a 1-D
    C-contiguous float64 array of `_SHARED_REPR_MIN` entries or more is
    written from its distinct values: `repr` runs once per IEEE bit pattern,
    so 0.0 and -0.0 stay apart, and each run of equal entries is one string
    product; the rest is dumped with the posteriors swapped for placeholders,
    which are then spliced out.  Any other posterior, a list included, sends
    the document to json.dumps whole.  NaN and infinity raise ValueError.
    """
    dumps = functools.partial(json.dumps, indent=indent, allow_nan=False, default=np.ndarray.tolist)
    posts = []
    skeleton = _stub_posteriors(doc, posts, 1) if isinstance(doc, dict) else doc
    step = " " * indent if isinstance(indent, int) else indent
    texts = []
    for values, level in posts:
        sep = ", " if step is None else ",\n" + step * (level + 1)
        items = _posterior_items(values, sep)
        if items is None:
            return dumps(doc)
        texts.append(f"[{items}]" if step is None else f"[\n{step * (level + 1)}{items}\n{step * level}]")
    parts = dumps(skeleton).split(json.dumps(_SLOT))
    if len(parts) != len(texts) + 1:  # the document itself holds the placeholder string
        return dumps(doc)
    return "".join([piece for pair in zip(parts, texts + [""]) for piece in pair])


def _stub_posteriors(holder: dict, posts: list, level: int) -> dict:
    """`holder` with each posterior swapped for `_SLOT`, appended to `posts` in document order
    with its nesting level: 1 in a transcript, 3 in a round of a share-split document."""
    out = {}
    for key, value in holder.items():
        if key == "posterior":
            posts.append((value, level))
            value = _SLOT
        elif key == "rounds" and level == 1 and isinstance(value, list):
            value = [_stub_posteriors(r, posts, 3) if isinstance(r, dict) else r for r in value]
        out[key] = value
    return out


def _posterior_items(values, sep: str):
    """`sep.join(map(float.__repr__, values.tolist()))`, or None where json.dumps should write `values`."""
    if not (type(values) is np.ndarray and values.dtype == np.float64 and values.ndim == 1
            and values.flags.c_contiguous and values.size >= _SHARED_REPR_MIN):
        return None
    bits = values.view(np.uint64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    run_bits = bits[starts]
    keys = run_bits.tolist()
    # a dict, not np.unique, which imports numpy.ma (1.6 MB) on first use
    distinct = dict(zip(keys, run_bits.view(np.float64).tolist()))
    if not all(map(math.isfinite, distinct.values())):
        return None
    pieces = {b: repr(v) + sep for b, v in distinct.items()}
    runs = map(operator.mul, map(pieces.__getitem__, keys), np.diff(starts, append=bits.size).tolist())
    return "".join(runs)[: -len(sep)]


def run_session(
    db: DatabaseState,
    family: EncodingFamily,
    strategy: MeasurementBasis,
    rng: SeededRng,
    mask=None,
) -> SessionTranscript:
    """Execute encode -> transmit -> measure -> announce -> decode.

    Every basis measures the sent state slot by slot with `outcome_law`: a basis of k factors
    (honest, invert) gets the k slot columns of `encode_slots`, and a one-factor basis (parity,
    dense) the single slot `vendor_encode`.  The transcript keeps the array `posterior` returned,
    made read-only.  With a GF(2^m) `mask` (a `hardening.GfMask`, k = 2 only) the vendor encodes
    the masked items, the announcement carries the mask and the decode inverts it.
    """
    if mask is not None:
        if family.k != 2 or db.k != 2:
            raise ValueError("masking is defined for the k=2 scheme")
        if mask.m != family.m:
            raise ValueError("mask degree does not match the family")
        db = DatabaseState(db.k, db.m, tuple(mask.apply(v) for v in db.items))
    if strategy.dim != family.n:
        raise ValueError("strategy dimension does not match the family")
    if db.k != family.k or db.m != family.m:
        raise ValueError("database shape does not match the family")
    i = int(rng.gen.integers(family.k))

    builder = TranscriptBuilder(secret_encoding=i)
    if len(strategy.factors) == 1:
        slots = (vendor_encode(db, family, i),)
    else:
        slots = family.encode_slots(i, db.config_index)
    builder.record_state_sent(family.n)

    # the measurement step sees only the state, never the encoding index
    outcome = draw_outcome(np.cumsum(outcome_law(slots, strategy)), rng)
    builder.record_measurement(strategy.label(), outcome)

    extra = {"mask": mask.payload()} if mask is not None else None
    announced = builder.announce(extra)

    post = posterior(strategy, family, announced, outcome)
    post.setflags(write=False)
    decoded = _decode(strategy, family, outcome, announced, post, mask)
    builder.record_decoded(decoded)

    return SessionTranscript(
        k=family.k,
        m=family.m,
        family=family.descriptor(),
        prior="uniform",
        events=tuple(builder.events),
        outcome=outcome,
        announced=announced,
        posterior=post,
        decoded=decoded,
        seed=(rng.seed, rng.stream),
    )


def _decode(strategy, family, outcome, announced, post, mask):
    k, m = family.k, family.m
    if strategy.kind == "honest":
        raw = decode_item(outcome, announced, strategy.index, k, m)
        value = mask.unmask(raw) if mask is not None else raw
        return {"kind": "item", "index": strategy.index, "value": int(value)}
    if strategy.kind == "invert":
        if announced == strategy.index:
            d = int(np.argmax(post))
            if post[d] < 1.0 - DEFAULT_TOL:
                raise BoundViolation("matched invert guess should pin the configuration")
            raw_items = item_blocks(d, k, m)
            items = [int(mask.unmask(v)) if mask is not None else int(v) for v in raw_items]
            value = 0
            for v in items:
                value = (value << m) | v
            return {"kind": "config", "value": value, "items": items}
        return {"kind": "none"}
    if strategy.kind == "parity":
        support = np.flatnonzero(np.asarray(post) > SUPPORT_EPS)
        parities = {int(d >> 1 & 1) ^ int(d & 1) for d in support}
        if len(parities) == 1:
            return {"kind": "parity", "value": parities.pop()}
        return {"kind": "none"}
    return {"kind": "none"}
