"""Session engine: encoding, measurement, Bayes, decoding, transcripts."""

import builtins
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import obliq
from obliq import cli, protocol
from obliq.analysis import _objective, _stacked_encoders
from obliq.encodings import (
    build_family,
    cyclic_family,
    explicit_single_bit_family,
    mub_family,
    random_family,
    tensorized_family,
    walsh_family,
)
from obliq.hardening import GfMask
from obliq.protocol import (
    DatabaseState,
    MeasurementBasis,
    SessionOrderError,
    TranscriptBuilder,
    decode_item,
    honest_basis,
    honest_leakage,
    info_account,
    invert_basis,
    item_blocks,
    outcome_distribution,
    parity_basis,
    posterior,
    run_session,
    sample_outcome,
    slot_entropy,
    transcript_json,
    vendor_encode,
)
from obliq.protocol import _HEAD, _SHARED_REPR_MIN, _SLOT, _decode, _posterior_items
from obliq.qmath import BoundViolation, SeededRng, entropy_rows, haar_unitary, is_unitary

S = np.sqrt(0.5)


def custom_basis(matrix) -> MeasurementBasis:
    return MeasurementBasis(kind="custom", index=None, factors=(matrix,))


@pytest.fixture
def explicit():
    return explicit_single_bit_family()


class TestDatabaseState:
    def test_config_index_packing(self):
        db = DatabaseState(3, 2, (2, 1, 3))
        assert db.config_index == (2 << 4) | (1 << 2) | 3
        assert DatabaseState.from_index(db.config_index, 3, 2) == db

    def test_range_checks(self):
        with pytest.raises(ValueError):
            DatabaseState(2, 1, (0, 2))
        with pytest.raises(ValueError):
            DatabaseState.from_index(16, 2, 2)


class TestVendorEncode:
    def test_printed_states(self, explicit):
        db = DatabaseState(2, 1, (0, 1))
        np.testing.assert_allclose(vendor_encode(db, explicit, 0), [S, -S, 0, 0], atol=1e-12)
        np.testing.assert_allclose(vendor_encode(db, explicit, 1), [S, 0, -S, 0], atol=1e-12)

    def test_zero_config_is_first_column(self, explicit):
        db = DatabaseState(2, 1, (0, 0))
        np.testing.assert_allclose(
            vendor_encode(db, explicit, 0), explicit.encoder(0)[:, 0], atol=1e-15
        )

    def test_out_of_range_encoding(self, explicit):
        with pytest.raises(ValueError):
            vendor_encode(DatabaseState(2, 1, (0, 0)), explicit, 2)


class TestOutcomeDistribution:
    def test_point_mass_on_computational(self, explicit):
        e2 = np.zeros(4, dtype=complex)
        e2[2] = 1
        dist = outcome_distribution(e2, custom_basis(np.eye(4)))
        np.testing.assert_allclose(dist, [0, 0, 1, 0], atol=1e-15)

    def test_first_basis_on_db01(self, explicit):
        state = vendor_encode(DatabaseState(2, 1, (0, 1)), explicit, 0)
        dist = outcome_distribution(state, honest_basis(explicit, 0))
        np.testing.assert_allclose(dist, [0.5, 0.5, 0, 0], atol=1e-12)

    def test_second_basis_on_db01(self, explicit):
        state = vendor_encode(DatabaseState(2, 1, (0, 1)), explicit, 0)
        dist = outcome_distribution(state, honest_basis(explicit, 1))
        np.testing.assert_allclose(dist, [0, 0.5, 0, 0.5], atol=1e-12)

    def test_dimension_mismatch(self, explicit):
        with pytest.raises(ValueError):
            outcome_distribution(np.array([1.0, 0.0]), honest_basis(explicit, 0))


class TestSampling:
    def test_point_mass_any_seed(self, explicit):
        e1 = np.zeros(4, dtype=complex)
        e1[1] = 1
        for seed in (1, 2, 3):
            assert sample_outcome(e1, custom_basis(np.eye(4)), SeededRng(seed)) == 1

    def test_reproducible(self, explicit):
        state = vendor_encode(DatabaseState(2, 1, (0, 1)), explicit, 0)
        basis = honest_basis(explicit, 0)
        a = sample_outcome(state, basis, SeededRng(42))
        b = sample_outcome(state, basis, SeededRng(42))
        assert a == b

    def test_uniform_frequencies(self, explicit):
        state = vendor_encode(DatabaseState(2, 1, (0, 1)), explicit, 0)
        basis = honest_basis(explicit, 0)
        rng = SeededRng(7)
        draws = [sample_outcome(state, basis, rng.derive(t)) for t in range(10_000)]
        freq = np.mean(np.array(draws) == 0)
        sigma = np.sqrt(0.25 / 10_000)
        assert abs(freq - 0.5) < 3 * sigma


class TestPosterior:
    def test_computational_enumeration(self, explicit):
        # oracle: |(M E_0)_{j,d}|^2 enumerated by hand for M = I
        post = posterior(custom_basis(np.eye(4)), explicit, 0, 0)
        np.testing.assert_allclose(post, [0.5, 0.5, 0, 0], atol=1e-12)

    def test_invert_matched_guess(self, explicit):
        basis = invert_basis(explicit, 0)
        for j in range(4):
            post = posterior(basis, explicit, 0, j)
            np.testing.assert_allclose(post, np.eye(4)[j], atol=1e-12)

    def test_invert_mismatched_guess(self, explicit):
        basis = invert_basis(explicit, 0)
        for j in range(4):
            post = posterior(basis, explicit, 1, j)
            np.testing.assert_allclose(post, np.full(4, 0.25), atol=1e-12)

    def test_normalization_random_bases(self, explicit):
        rng = SeededRng(15)
        for t in range(25):
            basis = custom_basis(haar_unitary(4, rng.derive(t)))
            for i in range(2):
                for j in range(4):
                    assert posterior(basis, explicit, i, j).sum() == pytest.approx(1.0, abs=1e-9)


class TestInfoAccount:
    def test_honest_item0_gain_is_one(self, explicit):
        acct = info_account(honest_basis(explicit, 0), explicit)
        # every outcome leaves one bit of uncertainty per encoding
        np.testing.assert_allclose(acct.h_cond, 1.0, atol=1e-12)
        assert acct.gain_expected == pytest.approx(1.0, abs=1e-12)

    def test_invert_guess_entropies(self, explicit):
        acct = info_account(invert_basis(explicit, 0), explicit)
        np.testing.assert_allclose(acct.h_cond[:, 0], 0.0, atol=1e-9)
        np.testing.assert_allclose(acct.h_cond[:, 1], 2.0, atol=1e-9)
        np.testing.assert_allclose(acct.h_avg, 1.0, atol=1e-9)

    def test_bell_basis_gains_nothing(self, explicit):
        bell = np.array(
            [
                [1, 0, 0, 1],
                [1, 0, 0, -1],
                [0, 1, 1, 0],
                [0, 1, -1, 0],
            ],
            dtype=complex,
        ) / np.sqrt(2)
        acct = info_account(custom_basis(bell), explicit)
        # enumeration oracle: every conditional posterior is uniform
        np.testing.assert_allclose(acct.h_cond, 2.0, atol=1e-9)
        assert acct.gain_expected == pytest.approx(0.0, abs=1e-9)

    def test_gain_bound_random_bases(self, explicit):
        # pairwise-unbiased k=2 family: per-outcome gain <= (1/2) log n
        rng = SeededRng(33)
        for t in range(200):
            acct = info_account(custom_basis(haar_unitary(4, rng.derive(t))), explicit)
            assert acct.gain_worst <= 1.0 + 1e-9


class TestBoundViolations:
    def test_info_account_row_sums(self):
        fam = explicit_single_bit_family()
        basis = honest_basis(fam, 0)
        a1 = fam.basis.matrices[1]
        a1.setflags(write=True)
        a1 *= 1.1  # corrupt a factor after build: no encoder is unitary any more
        with pytest.raises(BoundViolation, match="row sums"):
            info_account(basis, fam)

    def test_matched_invert_guess_must_pin_the_configuration(self, explicit):
        flat = np.full(4, 0.25)  # corrupt posterior: no configuration pinned
        with pytest.raises(BoundViolation, match="pin"):
            _decode(invert_basis(explicit, 0), explicit, 0, 0, flat, None)


class TestHonestBasis:
    def test_walsh_j0_is_identity(self):
        fam = walsh_family(1)
        np.testing.assert_allclose(honest_basis(fam, 0).matrix, np.eye(4), atol=1e-12)

    def test_walsh_j1_tensor(self):
        fam = walsh_family(1)
        w = fam.basis.matrices[1]
        np.testing.assert_allclose(
            honest_basis(fam, 1).matrix, np.kron(w.conj().T, w.conj().T), atol=1e-12
        )

    def test_mub_j2_tensor(self):
        fam = build_family(mub_family(3, 1))
        a2 = fam.basis.matrices[2]
        expected = np.kron(np.kron(a2.conj().T, a2.conj().T), a2.conj().T)
        np.testing.assert_allclose(honest_basis(fam, 2).matrix, expected, atol=1e-12)

    def test_out_of_range(self):
        fam = walsh_family(1)
        with pytest.raises(ValueError):
            honest_basis(fam, 2)


class TestDecodeItem:
    def test_block_zero(self):
        assert decode_item(0b01, 0, 0, 2, 1) == 0

    def test_block_one(self):
        assert decode_item(0b10, 1, 0, 2, 1) == 0

    def test_k3_m2_wraparound(self):
        outcome = (0b01 << 4) | (0b10 << 2) | 0b11  # blocks (1, 2, 3)
        assert decode_item(outcome, 2, 1, 3, 2) == 3  # block (1-2) mod 3 = 2

    def test_honest_completeness_small(self):
        # exhaustive up to k*m = 9: every positive-probability outcome
        # decodes correctly
        families = (
            explicit_single_bit_family(),
            walsh_family(2),
            build_family(mub_family(3, 1)),
            build_family(mub_family(3, 3)),
        )
        for fam in families:
            k, m, n = fam.k, fam.m, fam.n
            for j in range(k):
                mat = honest_basis(fam, j).matrix
                for i in range(k):
                    probs = np.abs(mat @ fam.encoder(i)) ** 2
                    for d in range(n):
                        support = np.flatnonzero(probs[:, d] > 1e-18)
                        want = item_blocks(d, k, m)[j]
                        for o in support:
                            assert decode_item(int(o), i, j, k, m) == want


class TestParityBasis:
    def test_unitary(self):
        assert is_unitary(parity_basis().matrix, 1e-12)

    def test_single_parity_class_for_low_outcomes(self, explicit):
        basis = parity_basis()
        for i in range(2):
            for j in (0, 1):
                post = posterior(basis, explicit, i, j)
                support = np.flatnonzero(post > 1e-12)
                parities = {(int(d) >> 1 & 1) ^ (int(d) & 1) for d in support}
                assert len(parities) == 1

    def test_gain_at_most_one(self, explicit):
        acct = info_account(parity_basis(), explicit)
        assert acct.gain_expected <= 1.0 + 1e-9


class TestRunSession:
    def test_walkthrough_item0(self, explicit):
        db = DatabaseState(2, 1, (0, 1))
        for seed in range(20):
            tr = run_session(db, explicit, honest_basis(explicit, 0), SeededRng(seed))
            assert tr.decoded == {"kind": "item", "index": 0, "value": 0}

    def test_walkthrough_item1(self, explicit):
        db = DatabaseState(2, 1, (0, 1))
        for seed in range(20):
            tr = run_session(db, explicit, honest_basis(explicit, 1), SeededRng(seed))
            assert tr.decoded == {"kind": "item", "index": 1, "value": 1}

    def test_transcript_determinism(self, explicit):
        db = DatabaseState(2, 1, (1, 0))
        a = run_session(db, explicit, honest_basis(explicit, 0), SeededRng(9, 2))
        b = run_session(db, explicit, honest_basis(explicit, 0), SeededRng(9, 2))
        assert a.to_json() == b.to_json()

    def test_transcript_schema(self, explicit):
        tr = run_session(DatabaseState(2, 1, (1, 1)), explicit, honest_basis(explicit, 0), SeededRng(3))
        doc = json.loads(tr.to_json())
        assert doc["version"] == 1
        assert doc["prior"] == "uniform"
        assert [e["type"] for e in doc["events"]] == [
            "state_sent",
            "measurement_committed",
            "encoding_announced",
            "decoded",
        ]
        assert len(doc["posterior"]) == 4

    def test_posterior_matches_recomputation(self, explicit):
        tr = run_session(DatabaseState(2, 1, (1, 0)), explicit, invert_basis(explicit, 1), SeededRng(5))
        basis = invert_basis(explicit, 1)
        recomputed = posterior(basis, explicit, tr.announced, tr.outcome)
        np.testing.assert_array_equal(np.asarray(tr.posterior), recomputed)

    def test_invert_decodes_config_or_nothing(self, explicit):
        db = DatabaseState(2, 1, (1, 0))
        seen = set()
        for seed in range(30):
            tr = run_session(db, explicit, invert_basis(explicit, 0), SeededRng(seed))
            seen.add(tr.decoded["kind"])
            if tr.announced == 0:
                assert tr.decoded["items"] == [1, 0]
            else:
                assert tr.decoded == {"kind": "none"}
        assert seen == {"config", "none"}


# every (kind, k, m, r) with km <= 8, so each encoder is certified at build
ROUND_TRIP_CELLS = (
    [("explicit", 2, 1, None)]
    + [("walsh", 2, m, None) for m in range(1, 5)]
    + [("cyclic", 3, m, None) for m in (1, 2)]
    + [("mub", k, m, None) for m in range(1, 5) for k in range(2, min(8 // m, (1 << m) + 1) + 1)]
    + [("random", k, m, None) for m in range(1, 5) for k in range(2, 8 // m + 1)]
    + [
        ("tensorized", k, m, r)
        for r, log_r in ((2, 1), (4, 2))
        for m in range(log_r, 5, log_r)
        for k in range(2, 8 // m + 1)
    ]
)


def _round_trip_family(kind, k, m, r, rng):
    if kind == "explicit":
        return explicit_single_bit_family()
    if kind == "walsh":
        return walsh_family(m)
    if kind == "cyclic":
        return build_family(cyclic_family(k, m))
    if kind == "mub":
        return build_family(mub_family(k, m))
    if kind == "random":
        return build_family(random_family(k, m, rng))
    return build_family(tensorized_family(k, m, r, rng))


@st.composite
def round_trip_cases(draw):
    kind, k, m, r = draw(st.sampled_from(ROUND_TRIP_CELLS))
    items = tuple(draw(st.lists(st.integers(0, (1 << m) - 1), min_size=k, max_size=k)))
    return kind, k, m, r, items, draw(st.integers(0, k - 1))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _frame_digest(tr) -> str:
    """sha256 of the transcript JSON with its posterior key removed."""
    doc = tr.to_dict()
    del doc["posterior"]
    return _sha(json.dumps(doc, allow_nan=False))


class TestTranscriptBytes:
    """Pinned sha256 of whole transcripts, n = 4096 included, and of each transcript without its posterior.

    The frame digests were pinned before posteriors were built per slot; they
    show that only posterior digits moved.
    """

    @pytest.mark.parametrize(
        "k, m, db, index, strategy, seed, digest, frame",
        [
            (3, 4, 0x2C9, 2, "honest", 11, "b722fc350135b047cc706dbcbbe74f861ece2e7ef0ffd9fc79ff9fc455f5cdba",
             "08d1ee7be6e9b6dc49c7a17629e751f1114260e12ad58ed2752c07146b5fac70"),
            (3, 4, 0x2C9, 2, "invert", 11, "71bc013fdd2cb7e8ad60acbe3cd798cee102ac7342193507ac7876d688adfe2a",
             "cc486b15f8dae09ee20c898af3fc882b03a7e1ce974eaa731497dce49a09d451"),
            (3, 4, 0x2C9, 2, "invert", 12, "218b458226d8a366c548e01ff52b18325095bce042f9582820af81ef28237906",
             "e3001bd7d5c97a35d3675babda5f26727141664f122099266f7935c4ba9832da"),
            (4, 3, 0xA5C, 1, "honest", 8, "ab8267fbd0a36b4f73865ac3e27737ac23efac96b705ac75b15febe79ca1dc21",
             "6d1a877ca972903bdb4a33a46e5a39cd372d1a5f21457c4fc21932d19ea39845"),
            (4, 3, 0xA5C, 1, "invert", 8, "590be3f3d30255615351775a13d0e239fc65743284d9d911c35f86711690dc0a",
             "f38740c2bc38546f1b8b3051552e7314b9ed6f825888ab65b60c8dafea897088"),
            (4, 3, 0xA5C, 1, "invert", 9, "951c7979340fe6318aede1e84efcc2536d03b572857ba7dc9c274b26df1e6fdc",
             "13b575b33f7df1447f3e73b87c166ee51ac8454dd8efbc54d9714612d373f575"),
        ],
        # ids without the digests, so a re-pin keeps the test names
        ids=["3-4-713-2-honest-11", "3-4-713-2-invert-11", "3-4-713-2-invert-12",
             "4-3-2652-1-honest-8", "4-3-2652-1-invert-8", "4-3-2652-1-invert-9"],
    )
    def test_mub_sessions(self, k, m, db, index, strategy, seed, digest, frame):
        # seeds 11 and 8 announce the guessed index, so those invert sessions
        # pin the whole configuration; seeds 12 and 9 announce another
        fam = build_family(mub_family(k, m))
        basis = honest_basis(fam, index) if strategy == "honest" else invert_basis(fam, index)
        tr = run_session(DatabaseState.from_index(db, k, m), fam, basis, SeededRng(seed))
        assert (_sha(tr.to_json()), _frame_digest(tr)) == (digest, frame)

    def test_parity_session(self, explicit):
        tr = run_session(DatabaseState(2, 1, (1, 0)), explicit, parity_basis(), SeededRng(3))
        assert (_sha(tr.to_json()), _frame_digest(tr)) == (
            "9a63654b4ce322394d59967e08f194dc4efd75ac87902192d1863b75a6cc51ba",
            "d37b9ae1c26bf860ecd1b0eedd4acc50d0cbb51ba08b5d40f3feb9343bf30739",
        )

    def test_masked_session(self):
        fam = walsh_family(3)
        db, mask = DatabaseState(2, 3, (5, 2)), GfMask(3, 6, 3)
        tr = run_session(db, fam, honest_basis(fam, 1), SeededRng(12), mask=mask)
        assert (_sha(tr.to_json()), _frame_digest(tr)) == (
            "3840afee5fb3ad6bac7323e9efe68d3c3baf081f24315a38fa4dca2ceb039048",
            "9affa13735fe6d7f8e8af72cb819d45269145b268ba9c748ffd6bfd161abe34f",
        )


    @pytest.mark.parametrize(
        "seed, values, compact, indented",
        [
            (0, {2.0**-12}, "b9f86853bf037ca31d8bcc87d6ee5813cf8a5dcf6cbfc35a6f262f0981971e26",
             "4157852f9f55003c7be71f508fa2d018aa4b242bd4204ad325b426f7e6d50900"),
            (1, {0.0, 1.0}, "8450eeb671c52b37b91f2101271009c076681abc89f38db826c58b6a30e6fb47",
             "90e5b20ec3cdb080d66bfab49b9e67eaec7e13dd2566300702a0e18902272001"),
        ],
        ids=["mismatched", "matched"],
    )
    def test_invert_sessions_compact_and_indented(self, seed, values, compact, indented):
        # mub(3,4), database 5A3, guess 1: seed 0 announces 0, so every entry
        # is 2^-12; seed 1 announces 1 and pins the configuration.  The
        # digests are json.dumps's, compact and under indent=2.
        fam = build_family(mub_family(3, 4))
        tr = run_session(DatabaseState.from_index(0x5A3, 3, 4), fam, invert_basis(fam, 1), SeededRng(seed))
        assert set(tr.posterior) == values
        assert (_sha(tr.to_json()), _sha(transcript_json(tr.to_dict(), indent=2))) == (compact, indented)


# finite floats json.dumps writes in unusual ways: signed zeros, subnormals,
# the largest magnitudes and short and long reprs
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 2.0**-12, 0.1, 1.0, -1.0]


@st.composite
def float_lists(draw):
    """Finite float lists on both sides of the shared-repr length: few values repeated, or all distinct."""
    n = draw(st.integers(0, 3 * _SHARED_REPR_MIN))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = draw(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
                             min_size=1, max_size=6))
        picks = gen.integers(len(pool), size=n)
        if draw(st.booleans()):
            picks.sort()  # long runs
        return [pool[i] for i in picks.tolist()]
    bits = gen.integers(0, 2**64, size=2 * n, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    return values[np.isfinite(values)][:n].tolist()


@pytest.fixture(scope="module")
def transcript_doc():
    fam = explicit_single_bit_family()
    return run_session(DatabaseState(2, 1, (1, 0)), fam, honest_basis(fam, 0), SeededRng(3)).to_dict()


def _rounds_doc(transcript: dict, posteriors) -> dict:
    rounds = [dict(transcript, posterior=p) for p in posteriors]
    return {"version": 1, "k": 2, "m": 1, "xor_rounds": len(rounds), "rounds": rounds,
            "decoded": None, "seed": [13, 0]}


def _assert_writes_as_json_dumps(doc, indent):
    """transcript_json(doc, indent) == json.dumps; a mismatch names its first differing character.

    (pytest's own diff of two long near-equal strings can take minutes.)
    """
    got = transcript_json(doc, indent)
    want = json.dumps(doc, indent=indent, allow_nan=False, default=np.ndarray.tolist)
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"indent={indent!r}: differs at character {at}: {got[at - 30:at + 30]!r} "
                    f"against {want[at - 30:at + 30]!r}")


def _read_only(values) -> np.ndarray:
    """`values` as a read-only float64 array, as `run_session` keeps a posterior."""
    post = np.array(values, dtype=np.float64)
    post.setflags(write=False)
    return post


class _Subclass(np.ndarray):
    pass


# arrays the shared-repr path must leave to json.dumps: another dtype, a
# strided view, two axes, a subclass and the other byte order
FALLBACK_ARRAYS = {
    "float32": lambda v: v.astype(np.float32),
    "strided": lambda v: np.repeat(v, 2)[::2],
    "2-d": lambda v: v.reshape(2, -1),
    "subclass": lambda v: v.view(_Subclass),
    "big-endian": lambda v: v.astype(">f8"),
}


class TestTranscriptJson:
    """transcript_json against json.dumps(..., allow_nan=False, default=np.ndarray.tolist), byte for byte."""

    @settings(max_examples=120, deadline=None)
    @given(first=float_lists(), second=float_lists(), arrays=st.tuples(st.booleans(), st.booleans()))
    @example(first=[0.0] * 300 + [-0.0] * 300, second=[-0.0, 0.0] * 300, arrays=(False, False))
    @example(first=[5e-324] * 700 + [1e308] * 10, second=[2.0**-12] * 4096, arrays=(False, False))
    @example(first=[0.5] * 16 + [i / 7 for i in range(1, 1000)], second=[0.0] * 4095 + [1.0], arrays=(False, False))
    @example(first=[0.0] * 300 + [-0.0] * 300, second=[-0.0, 0.0] * 300, arrays=(True, True))
    @example(first=[5e-324] * 700 + [-5e-324] * 10 + [1e-310] * 90, second=[2.0**-12] * 4096, arrays=(True, False))
    @example(first=[0.5] * 16 + [i / 7 for i in range(1, 1000)], second=[0.0] * 4095 + [1.0], arrays=(True, True))
    def test_equals_json_dumps(self, transcript_doc, first, second, arrays):
        # each posterior is a list or a read-only float64 array, so a rounds
        # document may mix the two
        first, second = (_read_only(v) if a else v for v, a in zip((first, second), arrays))
        for doc in (dict(transcript_doc, posterior=first), _rounds_doc(transcript_doc, (first, second))):
            for indent in (None, 2):
                _assert_writes_as_json_dumps(doc, indent)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("n", [4, 4096])
    @pytest.mark.parametrize("indent", [None, 2])
    def test_non_finite_values_raise(self, transcript_doc, bad, n, indent):
        for values in ([0.0] * (n - 1) + [bad], _read_only([0.0] * (n - 1) + [bad])):
            for doc in (dict(transcript_doc, posterior=values), _rounds_doc(transcript_doc, ([0.0] * n, values)),
                        _rounds_doc(transcript_doc, (_read_only([0.0] * n), values))):
                with pytest.raises(ValueError):
                    transcript_json(doc, indent)

    @pytest.mark.parametrize(
        "values",
        [[1] * 600, [1.0] * 300 + [1] * 300, [True] * 600, [0.5] * 599 + ["0.5"], [np.float64(0.25)] * 600],
        ids=["ints", "int-among-floats", "bools", "string", "float-subclass"],
    )
    def test_entries_that_are_not_plain_floats(self, transcript_doc, values):
        doc = dict(transcript_doc, posterior=values)
        for indent in (None, 2):
            _assert_writes_as_json_dumps(doc, indent)

    def test_a_document_holding_the_placeholder(self, transcript_doc):
        for post in ([0.0] * 1024, _read_only([0.0] * 1024)):
            for doc in (dict(transcript_doc, prior=_SLOT, posterior=post),
                        _rounds_doc(dict(transcript_doc, prior=_SLOT), (post, post))):
                for indent in (None, 2):
                    _assert_writes_as_json_dumps(doc, indent)

    @pytest.mark.parametrize("make", FALLBACK_ARRAYS.values(), ids=FALLBACK_ARRAYS)
    def test_arrays_that_fall_back(self, transcript_doc, make):
        values = make(_read_only([0.0] * 1000 + [2.0**-3] * 24))
        for head_rule in (True, False):
            assert _posterior_items(values, ", ", head_rule) is None
        for doc in (dict(transcript_doc, posterior=values), _rounds_doc(transcript_doc, (_read_only([0.5] * 600), values))):
            for indent in (None, 2):
                _assert_writes_as_json_dumps(doc, indent)

    def test_which_posteriors_share_reprs(self):
        # mub(3,4) honest and invert posteriors hold 0 and 2^-t only; random
        # ones show many distinct values among their first nonzero entries
        # and go to json.dumps in compact output, but share reprs under
        # indent.  Short arrays and any list go to json.dumps.  Only those
        # first entries decide.
        db = DatabaseState.from_index(0x5A3, 3, 4)
        fam = build_family(mub_family(3, 4))
        for basis in (honest_basis(fam, 2), invert_basis(fam, 1)):
            for seed in range(3):
                post = run_session(db, fam, basis, SeededRng(seed)).posterior
                assert _posterior_items(post, ", ", True)
                assert _posterior_items(post.tolist(), ", ", True) is None
        fam = build_family(random_family(3, 4, SeededRng(5)))
        for seed in range(3):
            post = run_session(db, fam, honest_basis(fam, 2), SeededRng(seed)).posterior
            assert _posterior_items(post, ", ", True) is None
            assert _posterior_items(post, ",\n  ", False) == ",\n  ".join(map(repr, post.tolist()))
        assert _posterior_items(_read_only([0.0] * (_SHARED_REPR_MIN - 1)), ", ", False) is None
        assert _posterior_items(_read_only([0.0] * 100 + np.linspace(0, 1, 1000).tolist()), ", ", True) is None
        assert _posterior_items(_read_only([0.0] * 4095 + [1.0]), ", ", True) is not None
        assert _posterior_items(_read_only([0.5] * _HEAD + np.linspace(0, 1, 1000).tolist()), ", ", True) is not None


class TestTranscriptPosterior:
    """A transcript keeps the posterior as the read-only array `posterior()` returns, up to its bytes."""

    @pytest.fixture(scope="class")
    def sessions(self):
        fam = build_family(mub_family(3, 4))
        db = DatabaseState.from_index(0x2C9, 3, 4)
        return [(fam, basis, run_session(db, fam, basis, SeededRng(seed)))
                for basis in (honest_basis(fam, 2), invert_basis(fam, 1)) for seed in (11, 12)]

    def test_posterior_is_read_only_and_exact(self, sessions):
        for fam, basis, tr in sessions:
            post = tr.posterior
            assert type(post) is np.ndarray and post.dtype == np.float64 and post.flags.c_contiguous
            assert not post.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                post[0] = 1.0
            want = posterior(basis, fam, tr.announced, tr.outcome)
            assert post.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    def test_to_dict_is_plain_json(self, sessions):
        for _, _, tr in sessions:
            doc = tr.to_dict()
            assert type(doc["posterior"]) is list and all(type(v) is float for v in doc["posterior"])
            assert json.dumps(doc, allow_nan=False) == tr.to_json()
            assert doc == dict(tr.document(), posterior=doc["posterior"])

    def test_transcripts_compare_by_identity(self, sessions):
        (_, _, a), (_, _, b) = sessions[:2]
        assert a == a and not a != a
        assert a != b and not a == b
        again = run_session(DatabaseState.from_index(0x2C9, 3, 4), sessions[0][0], sessions[0][1], SeededRng(11))
        assert again != a and again.to_json() == a.to_json()


class TestWriterGetsTheArray:
    """The write path hands `_posterior_items` each posterior array itself and never lists it."""

    @pytest.fixture
    def spied(self, monkeypatch):
        made, handed, listed = [], [], []
        real_posterior, real_items = protocol.posterior, protocol._posterior_items

        def spy_posterior(*args):
            post = real_posterior(*args)
            made.append(post)
            return post

        def spy_items(values, sep, head_rule):
            handed.append(values)
            return real_items(values, sep, head_rule)

        def guard(kind):
            """A stand-in for the builtin `kind` that notes when a posterior is passed to it."""
            base = getattr(builtins, kind)

            class Guard(type):
                def __instancecheck__(cls, obj):
                    return isinstance(obj, base)

                def __call__(cls, values=()):
                    if any(values is post for post in made):
                        listed.append(kind)
                    return base(values)

            return Guard(kind, (), {})

        def on_call(frame, event, arg):
            if event == "c_call" and getattr(arg, "__name__", "") == "tolist":
                if any(getattr(arg, "__self__", None) is post for post in made):
                    listed.append("tolist")

        monkeypatch.setattr(protocol, "posterior", spy_posterior)
        monkeypatch.setattr(protocol, "_posterior_items", spy_items)
        for module in (protocol, cli):
            for kind in ("list", "tuple"):
                monkeypatch.setattr(module, kind, guard(kind), raising=False)
        sys.setprofile(on_call)
        yield made, handed, listed
        sys.setprofile(None)

    def test_to_json(self, spied):
        made, handed, listed = spied
        fam = build_family(mub_family(3, 4))
        tr = run_session(DatabaseState.from_index(0x2C9, 3, 4), fam, honest_basis(fam, 2), SeededRng(11))
        text = tr.to_json()
        sys.setprofile(None)
        assert made == [tr.posterior] and handed[0] is tr.posterior and len(handed) == 1
        assert listed == []
        assert json.loads(text)["posterior"] == tr.posterior.tolist()

    @pytest.mark.parametrize(
        "argv",
        [["--k", "3", "--m", "4", "--family", "mub", "--db", "2C9", "--choice", "2"],
         ["--k", "3", "--m", "4", "--family", "tensorized", "--tensor-r", "4", "--db", "2C9", "--choice", "2"],
         ["--k", "2", "--m", "5", "--family", "mub", "--db", "3A1", "--r", "3"]],
        ids=["mub", "tensorized", "rounds"],
    )
    def test_session_command(self, spied, argv, tmp_path):
        made, handed, listed = spied
        out = tmp_path / "t.json"
        assert cli.main(["session", *argv, "--seed", "11", "--out", str(out)]) == 0
        sys.setprofile(None)
        assert len(made) == len(handed) == (3 if "--r" in argv else 1)
        assert all(h is m for h, m in zip(handed, made))
        assert listed == []
        doc = json.loads(out.read_text())
        posts = [r["posterior"] for r in doc["rounds"]] if "rounds" in doc else [doc["posterior"]]
        assert posts == [m.tolist() for m in made]


# the kinds whose item bases are certified pairwise unbiased at build
FLAT_KINDS = ("explicit", "walsh", "cyclic", "mub")


class TestSlotPosterior:
    """Honest and invert posteriors built per slot, against a dense |M_j E_i|^2."""

    @settings(max_examples=80, deadline=None)
    @given(case=round_trip_cases(), invert=st.booleans(), seed=st.integers(0, 2**31 - 1), data=st.data())
    def test_matches_the_dense_reference(self, case, invert, seed, data):
        kind, k, m, r, _, index = case
        fam = _round_trip_family(kind, k, m, r, SeededRng(seed, 1))
        basis = invert_basis(fam, index) if invert else honest_basis(fam, index)
        mat, n = basis.matrix, fam.n
        outcomes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        for i in range(k):
            enc = fam.encoder(i)
            for j in outcomes:
                post = posterior(basis, fam, i, j)
                np.testing.assert_allclose(post, np.abs(mat[j] @ enc) ** 2, rtol=0, atol=1e-12)
                if kind in FLAT_KINDS:
                    (level,) = set(post.tolist()) - {0.0}
                    assert level in [2.0 ** -(m * t) for t in range(k + 1)]
                    assert post.sum() == 1.0
        for j in (-1, n):
            with pytest.raises(ValueError, match="out of range"):
                posterior(basis, fam, 0, j)

    def test_out_of_range_outcome_raises_on_both_paths(self, explicit):
        for basis in (honest_basis(explicit, 0), invert_basis(explicit, 1), parity_basis()):
            for j in (-1, 4):
                with pytest.raises(ValueError, match="out of range"):
                    posterior(basis, explicit, 0, j)

    def test_basis_of_another_dimension_is_refused(self, explicit):
        with pytest.raises(ValueError, match="dimension mismatch"):
            posterior(honest_basis(walsh_family(2), 0), explicit, 0, 0)


class TestExactPosteriors:
    """No posterior entry at n = 4096 is rounding noise, and no byte depends on BLAS threads."""

    def test_no_entry_in_the_rounding_band(self):
        for k, m, db in ((3, 4, 0x2C9), (4, 3, 0xA5C)):
            fam = build_family(mub_family(k, m))
            state = DatabaseState.from_index(db, k, m)
            for index in range(k):
                for seed in range(3):
                    for basis in (honest_basis(fam, index), invert_basis(fam, index)):
                        post = np.asarray(run_session(state, fam, basis, SeededRng(seed)).posterior)
                        assert not ((post > 0) & (post < 1e-12)).any()
        for fam in (walsh_family(3), build_family(mub_family(2, 6))):
            state, mask = DatabaseState(2, fam.m, (5, 2)), GfMask(fam.m, 6, 3)
            for seed in range(3):
                tr = run_session(state, fam, honest_basis(fam, seed % 2), SeededRng(seed), mask=mask)
                post = np.asarray(tr.posterior)
                assert not ((post > 0) & (post < 1e-12)).any()

    def test_n_4096_bytes_are_the_same_under_one_and_two_blas_threads(self):
        script = "\n".join(
            [
                "from obliq.encodings import build_family, mub_family, random_family",
                "from obliq.protocol import DatabaseState, honest_basis, invert_basis, run_session",
                "from obliq.qmath import SeededRng",
                "for fam in (build_family(mub_family(3, 4)), build_family(mub_family(4, 3)),",
                "            build_family(random_family(3, 4, SeededRng(4)))):",
                "    db = DatabaseState.from_index(0x2C9, fam.k, fam.m)",
                "    for basis in (honest_basis(fam, 2), invert_basis(fam, 1)):",
                "        for seed in (11, 12):",
                "            print(run_session(db, fam, basis, SeededRng(seed)).to_json())",
            ]
        )
        env = {k: v for k, v in os.environ.items() if k not in ("OBLIQ_THREADS", "OPENBLAS_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(obliq.__file__).parent.parent)
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env={**env, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 12


class TestHonestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(case=round_trip_cases(), seed=st.integers(0, 2**31 - 1))
    @example(case=("mub", 4, 2, None, (3, 0, 2, 1), 2), seed=0)
    def test_honest_session_decodes_the_chosen_item(self, case, seed):
        kind, k, m, r, items, choice = case
        fam = _round_trip_family(kind, k, m, r, SeededRng(seed, 1))
        tr = run_session(DatabaseState(k, m, items), fam, honest_basis(fam, choice), SeededRng(seed))
        assert tr.decoded == {"kind": "item", "index": choice, "value": items[choice]}


class TestEventOrder:
    def test_announcement_unreadable_before_measurement(self):
        builder = TranscriptBuilder(secret_encoding=1)
        builder.record_state_sent(4)
        with pytest.raises(SessionOrderError):
            _ = builder.announced
        with pytest.raises(SessionOrderError):
            builder.announce()

    def test_measure_requires_state(self):
        builder = TranscriptBuilder(secret_encoding=0)
        with pytest.raises(SessionOrderError):
            builder.record_measurement({"kind": "honest", "index": 0}, 0)

    def test_decode_requires_announcement(self):
        builder = TranscriptBuilder(secret_encoding=0)
        builder.record_state_sent(4)
        builder.record_measurement({"kind": "honest", "index": 0}, 0)
        with pytest.raises(SessionOrderError):
            builder.record_decoded({"kind": "none"})
        builder.announce()
        builder.record_decoded({"kind": "none"})
        assert [e["type"] for e in builder.events][-1] == "decoded"


LEGAL_ORDER = ["state_sent", "measurement_committed", "encoding_announced", "decoded"]


def _call(builder, step):
    """Make the builder call that logs LEGAL_ORDER[step]."""
    if step == 0:
        builder.record_state_sent(4)
    elif step == 1:
        builder.record_measurement({"kind": "honest", "index": 0}, 0)
    elif step == 2:
        builder.announce()
    else:
        builder.record_decoded({"kind": "none"})


class TestEventOrderProperties:
    @settings(max_examples=200, deadline=None)
    @given(calls=st.lists(st.integers(0, 3), max_size=10))
    @example(calls=[0, 1, 2, 3, 3])
    @example(calls=[0, 1, 2, 3, 0])
    def test_only_the_legal_order_succeeds(self, calls):
        builder = TranscriptBuilder(secret_encoding=1)
        done = 0  # length of the legal prefix logged so far
        for step in calls:
            if step == done:
                _call(builder, step)
                done += 1
            else:
                with pytest.raises(SessionOrderError):
                    _call(builder, step)
            assert [e["type"] for e in builder.events] == LEGAL_ORDER[:done]
            assert [e["seq"] for e in builder.events] == list(range(done))

    @settings(max_examples=60, deadline=None)
    @given(case=round_trip_cases(), invert=st.booleans(), seed=st.integers(0, 2**31 - 1))
    def test_sessions_log_the_legal_order(self, case, invert, seed):
        kind, k, m, r, items, choice = case
        fam = _round_trip_family(kind, k, m, r, SeededRng(seed, 1))
        strategy = invert_basis(fam, choice) if invert else honest_basis(fam, choice)
        tr = run_session(DatabaseState(k, m, items), fam, strategy, SeededRng(seed))
        assert [(e["seq"], e["type"]) for e in tr.events] == list(enumerate(LEGAL_ORDER))


class TestHonestLeakage:
    def test_mub_families_leak_nothing(self):
        for k, m in ((2, 1), (3, 1), (3, 2), (5, 2), (9, 3)):
            fam = build_family(mub_family(k, m))
            for j in range(k):
                assert abs(honest_leakage(fam, j)) < 1e-9

    def test_walsh_leaks_nothing(self):
        fam = walsh_family(2)
        assert abs(honest_leakage(fam, 0)) < 1e-9
        assert abs(honest_leakage(fam, 1)) < 1e-9

    def test_random_families_positive_but_bounded(self):
        root = SeededRng(404)
        for s in range(20):
            fam = build_family(random_family(3, 4, root.derive(s)))
            for j in range(3):
                leak = honest_leakage(fam, j)
                assert 0.0 <= leak
                assert leak / (fam.k - 1) <= fam.m  # per non-target item

    def test_factorized_matches_dense_enumeration(self):
        # oracle: full joint-space posterior marginal, small sizes only
        for k, m in ((2, 1), (2, 2), (3, 1)):
            fam = build_family(random_family(k, m, SeededRng(7 * k + m)))
            n = fam.n
            for j in range(k):
                mat = honest_basis(fam, j).matrix
                total = 0.0
                for i in range(k):
                    probs = np.abs(mat @ fam.encoder(i)) ** 2  # rows: P(d | outcome)
                    shaped = probs.reshape((n,) + (1 << m,) * k)
                    marg = shaped.sum(axis=1 + j).reshape(n, -1)
                    total += entropy_rows(marg).mean()
                dense_leak = (k - 1) * m - total / k
                assert honest_leakage(fam, j) == pytest.approx(dense_leak, abs=1e-9)

    @pytest.mark.parametrize("k, m", [(k, m) for m in (1, 2, 3) for k in range(2, (1 << m) + 2)])
    def test_same_bits_as_the_slot_loop(self, k, m):
        # the per-slot form is a rewrite, not a new formula: equal bits (==)
        # to the loop it replaced, on every mub cell with m <= 3
        fam = build_family(mub_family(k, m))
        for j in range(k):
            assert honest_leakage(fam, j) == _honest_leakage_loop(fam, j)


def _honest_leakage_loop(family, j):
    """The honest-leakage loop that slot_entropy replaced, kept as a bitwise reference."""
    k, m = family.k, family.m
    mats = family.basis.matrices
    adj = mats[j].conj().T
    mean_marginal = 0.0
    for i in range(k):
        target = (j - i) % k
        for r in range(k):
            if r == target:
                continue
            cross = np.abs(adj @ mats[(i + r) % k]) ** 2
            mean_marginal += float(entropy_rows(cross).mean())
    mean_marginal /= k
    return (k - 1) * m - mean_marginal


class TestSlotEntropy:
    @pytest.mark.parametrize("cell", ROUND_TRIP_CELLS, ids=lambda c: "-".join(map(str, c)))
    def test_matches_the_dense_objective(self, cell):
        # every honest and invert basis: the per-slot sum equals the dense
        # mean row entropy of |M E_i|^2 over all rows and all i
        kind, k, m, r = cell
        fam = _round_trip_family(kind, k, m, r, SeededRng(61, k * m))
        enc = _stacked_encoders(fam)
        for j in range(k):
            for basis in (honest_basis(fam, j), invert_basis(fam, j)):
                dense = _objective(basis.matrix, enc)[0]
                assert slot_entropy(fam, basis.items) == pytest.approx(dense, abs=1e-12)

    def test_cells_include_the_unstructured_families(self):
        # random(3, 2) and tensorized(2, 4, 4) have non-flat cross products
        assert {("random", 3, 2, None), ("tensorized", 2, 4, 4)} <= set(ROUND_TRIP_CELLS)

    def test_matched_slots_add_nothing(self):
        # invert guess g matches every slot at i = g and none at i != g, where
        # a mub family's slots are flat (m bits each): f = (k - 1) m
        fam = build_family(mub_family(3, 2))
        for g in range(3):
            assert slot_entropy(fam, invert_basis(fam, g).items) == pytest.approx(4.0, abs=1e-12)
