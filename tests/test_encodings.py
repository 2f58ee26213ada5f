"""Family constructions: explicit, walsh, mub, cyclic, random, tensorized."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from obliq.encodings import (
    ALPHA_1,
    ALPHA_2,
    W2,
    CertificationError,
    EncodingFamily,
    build_family,
    cyclic_family,
    explicit_single_bit_family,
    mub_family,
    random_family,
    tensorized_family,
    walsh_family,
)
from obliq.qmath import SeededRng, is_hadamard, is_unitary, rotation_index_map

S = np.sqrt(0.5)

# the eight encoded superpositions of the two-item single-bit scheme,
# ordered by database value, for each encoding
FIRST_ENCODING_STATES = np.array(
    [
        [S, S, 0, 0],
        [S, -S, 0, 0],
        [0, 0, S, S],
        [0, 0, S, -S],
    ]
).T
SECOND_ENCODING_STATES = np.array(
    [
        [S, 0, S, 0],
        [S, 0, -S, 0],
        [0, S, 0, S],
        [0, S, 0, -S],
    ]
).T

PRINTED_E0 = np.array(
    [
        [S, S, 0, 0],
        [S, -S, 0, 0],
        [0, 0, S, S],
        [0, 0, S, -S],
    ]
)
PRINTED_E1 = np.array(
    [
        [S, S, 0, 0],
        [0, 0, S, S],
        [S, -S, 0, 0],
        [0, 0, S, -S],
    ]
)


class TestExplicitFamily:
    def test_matches_printed_matrices(self):
        fam = explicit_single_bit_family()
        np.testing.assert_allclose(fam.encoder(0), PRINTED_E0, atol=1e-12)
        np.testing.assert_allclose(fam.encoder(1), PRINTED_E1, atol=1e-12)

    def test_column_for_db_01(self):
        fam = explicit_single_bit_family()
        np.testing.assert_allclose(fam.encode_column(0, 1), [S, -S, 0, 0], atol=1e-12)
        np.testing.assert_allclose(fam.encode_column(1, 1), [S, 0, -S, 0], atol=1e-12)

    def test_cross_product_is_flat(self):
        fam = explicit_single_bit_family()
        cross = fam.encoder(1).conj().T @ fam.encoder(0)
        assert is_hadamard(cross, 1e-12)
        np.testing.assert_allclose(np.abs(cross), 0.5, atol=1e-12)

    def test_descriptor_embeds_matrices(self):
        fam = explicit_single_bit_family()
        desc = fam.descriptor()
        assert desc["kind"] == "explicit"
        assert len(desc["matrices"]) == 2
        json.dumps(desc)  # must be serializable as-is


class TestWalshFamily:
    def test_m1_uses_w2(self):
        fam = walsh_family(1)
        np.testing.assert_allclose(fam.matrices[1], W2, atol=1e-15)

    def test_m2_cross_product_flat(self):
        fam = walsh_family(2)
        assert is_hadamard(fam.encoder(1).conj().T @ fam.encoder(0), 1e-9)

    def test_m1_matches_first_encoding_up_to_column_relabel(self):
        # W2's columns are the symmetric-Hadamard columns swapped, so
        # I (x) W2 equals the printed first-encoding table with the least
        # significant database bit flipped; amplitudes agree sign-for-sign.
        fam = walsh_family(1)
        e0 = fam.encoder(0)
        for d in range(4):
            np.testing.assert_allclose(
                e0[:, d], FIRST_ENCODING_STATES[:, d ^ 1], atol=1e-12
            )

    def test_overlap_value(self):
        for m in (1, 2, 3):
            fam = walsh_family(m)
            n = fam.n
            got = np.abs(fam.encoder(1).conj().T @ fam.encoder(0)).max()
            assert got == pytest.approx(1 / np.sqrt(n), abs=1e-9)

    def test_zero_m_rejected(self):
        with pytest.raises(ValueError):
            walsh_family(0)


class TestBuildFamily:
    def test_every_constructor_returns_one_frozen_family(self):
        # `build_family` and `basis` are the identity, kept for the benchmark's workloads
        rng = SeededRng(1)
        families = [explicit_single_bit_family(), walsh_family(2), mub_family(3, 2), cyclic_family(3, 1),
                    random_family(2, 2, rng), tensorized_family(2, 2, 2, rng)]
        for fam in families:
            assert type(fam) is EncodingFamily
            assert build_family(fam) is fam and fam.basis is fam
            with pytest.raises(dataclasses.FrozenInstanceError):
                fam.encode_slots = None

    def test_k2_structure(self):
        fam = mub_family(2, 1)
        a0, a1 = fam.matrices
        np.testing.assert_allclose(fam.encoder(0), np.kron(a0, a1), atol=1e-12)
        perm = np.eye(4)[:, rotation_index_map(2, 1, 1)]  # P e_d = e_{rot(d)}
        np.testing.assert_allclose(fam.encoder(1), np.kron(a1, a0) @ perm, atol=1e-12)

    def test_k2_walsh_identity(self):
        fam = walsh_family(1)
        a0, a1 = fam.matrices
        perm = np.eye(4)[:, rotation_index_map(2, 1, 1)]  # P e_d = e_{rot(d)}
        lhs = fam.encoder(1).conj().T @ fam.encoder(0)
        rhs = perm.conj().T @ np.kron(a1.conj().T @ a0, a0.conj().T @ a1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_k3_all_unitary(self):
        fam = mub_family(3, 1)
        for i in range(3):
            assert is_unitary(fam.encoder(i), 1e-9)

    def test_rejects_non_unitary(self):
        with pytest.raises((ValueError, CertificationError)):
            EncodingFamily(k=2, m=1, matrices=(np.eye(2), np.ones((2, 2))), kind="explicit")

    def test_encode_column_matches_dense(self):
        fam = mub_family(3, 2)
        for i in range(3):
            dense = fam.encoder(i)
            for d in (0, 5, 17, 63):
                np.testing.assert_allclose(fam.encode_column(i, d), dense[:, d], atol=1e-12)

    def test_vec_times_encoder_matches_dense(self):
        fam = mub_family(3, 1)
        rng = SeededRng(5)
        vec = rng.gen.standard_normal(8) + 1j * rng.gen.standard_normal(8)
        for i in range(3):
            np.testing.assert_allclose(
                fam.vec_times_encoder(vec, i), vec @ fam.encoder(i), atol=1e-12
            )


class TestMubFamily:
    def test_k3_m1_is_printed_triple(self):
        fam = mub_family(3, 1)
        np.testing.assert_allclose(fam.matrices[0], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(fam.matrices[1], ALPHA_1, atol=1e-15)
        np.testing.assert_allclose(fam.matrices[2], ALPHA_2, atol=1e-15)

    def test_k3_m2_tensor_powers(self):
        fam = mub_family(3, 2)
        np.testing.assert_allclose(fam.matrices[1], np.kron(ALPHA_1, ALPHA_1), atol=1e-15)
        np.testing.assert_allclose(fam.matrices[2], np.kron(ALPHA_2, ALPHA_2), atol=1e-15)
        assert fam.pairwise_hadamard

    def test_size_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            mub_family(4, 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_full_tower_certifies(self, m):
        ell = 1 << m
        for k in range(2, ell + 2):
            fam = mub_family(k, m)
            flat = 1 / np.sqrt(ell)
            for i in range(k):
                for j in range(k):
                    if i != j:
                        cross = fam.matrices[i].conj().T @ fam.matrices[j]
                        np.testing.assert_allclose(np.abs(cross), flat, atol=1e-9)

    def test_m4_large_family(self):
        fam = mub_family(17, 4)  # the full tower at m=4
        assert fam.pairwise_hadamard

    @pytest.mark.parametrize(
        "m, digest",
        [
            (2, "9aafe28ad723b8a3d2393dbf26e5b13be3f2cfa4b1aa5ca1e7271e3e1bcd6560"),
            (3, "0f2c24406d06f3eb270d5a389ff70d73021ba4c3adb7e23e5a77368fce4b9053"),
            (4, "6fd1dc0bcf909503e2c24aae2efc44d9e93889b6abfbc2ead85a94199b191101"),
            (5, "edc274ee897010feb489ddf048015dfc50deca8a7b159e2bb12c1e44c12f31e1"),
        ],
    )
    def test_full_tower_bits_are_pinned(self, m, digest):
        mats = mub_family((1 << m) + 1, m).matrices
        assert hashlib.sha256(np.stack(mats).tobytes()).hexdigest() == digest


class TestCyclicFamily:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_cube_is_identity(self, m):
        fam = cyclic_family(3, m)
        a = fam.matrices[1]
        np.testing.assert_allclose(
            np.linalg.matrix_power(a, 3), np.eye(1 << m), atol=1e-9
        )

    def test_powers_are_flat(self):
        fam = cyclic_family(3, 1)
        assert is_hadamard(fam.matrices[1], 1e-9)
        assert is_hadamard(fam.matrices[2], 1e-9)

    def test_other_k_rejected(self):
        with pytest.raises(ValueError, match="k = 3"):
            cyclic_family(4, 1)


class TestRandomFamily:
    def test_reproducible_and_unitary(self):
        a = random_family(2, 4, SeededRng(77))
        b = random_family(2, 4, SeededRng(77))
        for x, y in zip(a.matrices, b.matrices):
            np.testing.assert_array_equal(x, y)
            assert is_unitary(x, 1e-9)

    def test_overlap_never_exceeds_one(self):
        fam = random_family(2, 1, SeededRng(3))
        assert fam.max_pairwise_overlap <= 1.0 + 1e-12

    def test_overlap_concentration_scaling(self):
        # with c = 4 the bound c (log k + m) / 2^(m/2) holds w.h.p.
        k, m, c = 5, 6, 4.0
        threshold = c * (np.log2(k) + m) / 2 ** (m / 2)
        root = SeededRng(2025)
        hits = sum(
            random_family(k, m, root.derive(s)).max_pairwise_overlap <= threshold
            for s in range(50)
        )
        assert hits == 50


class TestTensorizedFamily:
    def test_single_block_equals_random(self):
        a = tensorized_family(2, 3, 8, SeededRng(11))
        b = random_family(2, 3, SeededRng(11))
        for x, y in zip(a.matrices, b.matrices):
            np.testing.assert_array_equal(x, y)

    def test_two_fold_structure(self):
        fam = tensorized_family(2, 4, 4, SeededRng(12))
        for mat in fam.matrices:
            assert is_unitary(mat, 1e-9)
            assert mat.shape == (16, 16)

    def test_divisibility_guard(self):
        with pytest.raises(ValueError, match="divide"):
            tensorized_family(2, 3, 4, SeededRng(1))

    def test_linf_multiplicativity(self):
        # Linf of a tensor product is the product of the factor Linf values:
        # recompute the blocks from the same stream the family consumed
        from obliq.qmath import haar_unitaries

        fam = tensorized_family(2, 2, 2, SeededRng(13))
        raw = haar_unitaries(2, 2, SeededRng(13))
        base = np.abs(raw[1].conj().T @ raw[0]).max()
        cross = np.abs(fam.encoder(1).conj().T @ fam.encoder(0)).max()
        assert cross == pytest.approx(base ** 4, abs=1e-9)


class TestDescriptors:
    def test_parameter_only_kinds_omit_matrices(self):
        fam = mub_family(3, 2)
        desc = fam.descriptor()
        assert "matrices" not in desc
        assert desc == {"kind": "mub", "k": 3, "m": 2}

    def test_random_kind_embeds_matrices_and_seed(self):
        fam = random_family(2, 1, SeededRng(21, 4))
        desc = fam.descriptor()
        assert desc["seed"] == [21, 4]
        rebuilt = np.array(
            [[complex(re, im) for re, im in row] for row in desc["matrices"][1]]
        )
        np.testing.assert_allclose(rebuilt, fam.matrices[1], atol=1e-15)


def _ordered_pair_reference(mats):
    """(every A_i^dag A_j flat, max entry magnitude) over all ordered pairs i != j."""
    crosses = [a.conj().T @ b for i, a in enumerate(mats) for j, b in enumerate(mats) if i != j]
    return all(is_hadamard(c, 1e-9) for c in crosses), max(float(np.abs(c).max()) for c in crosses)


class TestSingleCertificationPass:
    def test_non_flat_cyclic_rejected(self):
        # powers of an order-3 unitary, but A_0^dag A_1 = diag(1, w) is not flat
        a = np.diag([1.0, np.exp(2j * np.pi / 3)])
        with pytest.raises(CertificationError, match="not flat"):
            EncodingFamily(k=3, m=1, matrices=(np.eye(2), a, a @ a), kind="cyclic")

    def test_non_flat_walsh_rejected(self):
        with pytest.raises(CertificationError, match="not flat"):
            EncodingFamily(k=2, m=2, matrices=(np.eye(4), np.diag([1, -1, 1, -1])), kind="walsh")

    def test_mub_flags_match_ordered_pairs(self):
        for m in range(1, 5):
            for k in range(2, (1 << m) + 2):
                fam = mub_family(k, m)
                flat, overlap = _ordered_pair_reference(fam.matrices)
                assert fam.pairwise_hadamard is flat is True
                assert fam.max_pairwise_overlap == pytest.approx(overlap, abs=1e-15)

    def test_random_and_tensorized_flags_match_ordered_pairs(self):
        root = SeededRng(31)
        families = [random_family(k, m, root.derive(10 * k + m)) for k, m in ((2, 1), (3, 2), (4, 3))]
        families += [tensorized_family(k, 4, r, root.derive(100 + k * r)) for k in (2, 3) for r in (2, 4)]
        families.append(EncodingFamily(k=2, m=1, matrices=(np.eye(2), np.eye(2)), kind="explicit"))
        for fam in families:
            flat, overlap = _ordered_pair_reference(fam.matrices)
            assert fam.pairwise_hadamard is flat
            assert fam.max_pairwise_overlap == pytest.approx(overlap, abs=1e-15)

    def test_one_flatness_check_per_unordered_pair(self, monkeypatch):
        from obliq import qmath

        calls = []
        real = qmath.is_hadamard
        monkeypatch.setattr(qmath, "is_hadamard", lambda *a: calls.append(1) or real(*a))
        fam = mub_family(9, 3)
        assert fam.pairwise_hadamard
        assert len(calls) == 9 * 8 // 2


class TestEncoderCertification:
    def test_build_makes_no_joint_space_unitarity_check(self, monkeypatch):
        from obliq import qmath

        families = [explicit_single_bit_family(), mub_family(3, 2), mub_family(4, 2)]
        families.append(tensorized_family(2, 4, 4, SeededRng(3)))
        shapes = []
        real = qmath.is_unitary
        monkeypatch.setattr(qmath, "is_unitary", lambda mat, tol=1e-9: shapes.append(np.shape(mat)) or real(mat, tol))
        for fam in families:
            first = fam.encoder(1)
            assert np.array_equal(fam.encoder(1), first)  # built again, to the same bits
            assert shapes == []  # the item bases were certified when the family was made
