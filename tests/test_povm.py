"""Generalized measurement representation, sampling, posteriors, audits."""

import numpy as np
import pytest

from obliq.encodings import build_family, explicit_single_bit_family, mub_family, walsh_family
from obliq.povm import (
    Povm,
    povm_entropy_bound_check,
    povm_gain_account,
    povm_posterior,
    random_povm,
    validate_povm,
)
from obliq.protocol import MeasurementBasis, honest_basis, outcome_distribution, posterior, sample_outcome
from obliq.qmath import BoundViolation, SeededRng, entropy_rows, haar_unitary, random_states

S = np.sqrt(0.5)


def custom_basis(matrix) -> MeasurementBasis:
    return MeasurementBasis(kind="custom", index=None, factors=(matrix,))


def povm_from_basis(basis: MeasurementBasis) -> Povm:
    """Rank-1 projectors onto the measurement vectors (the rows of the basis)."""
    rows = basis.matrix
    ops = tuple(np.outer(v.conj(), v) for v in rows)
    return validate_povm(Povm(dim=len(rows), operators=ops))


@pytest.fixture
def explicit():
    return explicit_single_bit_family()


class TestValidation:
    def test_projective_povm_valid(self):
        basis = custom_basis(haar_unitary(4, SeededRng(1)))
        validate_povm(povm_from_basis(basis))

    def test_scaled_identities_valid(self):
        p = Povm(dim=3, operators=(np.eye(3) / np.sqrt(2), np.eye(3) / np.sqrt(2)))
        validate_povm(p)

    def test_overcomplete_sum_rejected(self):
        p = Povm(dim=2, operators=(np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match="completeness"):
            validate_povm(p)


class TestPovmFromBasis:
    def test_computational_projectors(self):
        p = povm_from_basis(custom_basis(np.eye(2)))
        np.testing.assert_allclose(p.operators[0], [[1, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(p.operators[1], [[0, 0], [0, 1]], atol=1e-15)

    def test_statistics_match_projective(self, explicit):
        # cross-module oracle: POVM outcome law == projective outcome law
        rng = SeededRng(8)
        for t in range(20):
            basis = custom_basis(haar_unitary(4, rng.derive(t)))
            p = povm_from_basis(basis)
            psi = random_states(4, 1, rng.derive(100 + t))[0]
            proj = outcome_distribution(psi, basis)
            general = np.array(
                [float(np.vdot(r @ psi, r @ psi).real) for r in p.operators]
            )
            np.testing.assert_allclose(general, proj, atol=1e-12)

    def test_plus_state_on_flat_basis(self):
        from obliq.encodings import W2

        p = povm_from_basis(custom_basis(W2))
        psi = np.array([1, 0], dtype=complex)
        prob0 = float(np.vdot(p.operators[0] @ psi, p.operators[0] @ psi).real)
        assert prob0 == pytest.approx(0.5, abs=1e-12)


def _outcome_law(p: Povm, psi: np.ndarray) -> np.ndarray:
    return np.array([float(np.vdot(r @ psi, r @ psi).real) for r in p.operators])


class TestMeasurePovm:
    def test_eigenstate_deterministic(self):
        basis = custom_basis(np.eye(4))
        p = povm_from_basis(basis)
        psi = np.zeros(4, dtype=complex)
        psi[2] = 1
        probs = _outcome_law(p, psi)
        np.testing.assert_allclose(probs, [0, 0, 1, 0], atol=1e-15)
        post = p.operators[2] @ psi / np.sqrt(probs[2])
        np.testing.assert_allclose(np.abs(post), np.abs(psi), atol=1e-12)
        assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-12)
        assert sample_outcome(psi, basis, SeededRng(5)) == 2

    def test_plus_state_split(self):
        basis = custom_basis(np.eye(2))
        psi = np.array([S, S], dtype=complex)
        np.testing.assert_allclose(_outcome_law(povm_from_basis(basis), psi), [0.5, 0.5], atol=1e-12)
        counts = [0, 0]
        root = SeededRng(12)
        for t in range(2000):
            counts[sample_outcome(psi, basis, root.derive(t))] += 1
        sigma = np.sqrt(0.25 / 2000)
        assert abs(counts[0] / 2000 - 0.5) < 3 * sigma

    def test_trine_probabilities_sum(self):
        vecs = [
            np.array([1.0, 0.0]),
            np.array([-0.5, np.sqrt(3) / 2]),
            np.array([-0.5, -np.sqrt(3) / 2]),
        ]
        ops = tuple(np.sqrt(2 / 3) * np.outer(v, v) for v in vecs)
        p = validate_povm(Povm(dim=2, operators=ops))
        rng = SeededRng(9)
        for t in range(20):
            psi = random_states(2, 1, rng.derive(t))[0]
            probs = [float(np.vdot(r @ psi, r @ psi).real) for r in p.operators]
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)


class TestPovmPosterior:
    def test_projective_reproduces_bayes(self, explicit):
        # full enumeration at k=2, m=1 against the projective posterior
        rng = SeededRng(21)
        basis = custom_basis(haar_unitary(4, rng))
        p = povm_from_basis(basis)
        for i in range(2):
            for j in range(4):
                np.testing.assert_allclose(
                    povm_posterior(p, explicit, i, j),
                    posterior(basis, explicit, i, j),
                    atol=1e-9,
                )

    def test_identity_operator_uninformative(self, explicit):
        p = Povm(dim=4, operators=(np.eye(4) / 2, np.eye(4) / 2))
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(
                    povm_posterior(p, explicit, i, j), np.full(4, 0.25), atol=1e-12
                )

    def test_rank2_eigen_mixture(self, explicit):
        # posterior of a rank-2 normalized operator is the eigen-weighted
        # mixture of its rank-1 posteriors
        rng = SeededRng(30)
        g = rng.gen.standard_normal((4, 4)) + 1j * rng.gen.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        v, w = q[:, 0], q[:, 1]
        s_op = (np.outer(v, v.conj()) + np.outer(w, w.conj())) / np.sqrt(2)
        comp = np.eye(4) - s_op.conj().T @ s_op
        eigvals, eigvecs = np.linalg.eigh((comp + comp.conj().T) / 2)
        rest = (eigvecs * np.sqrt(np.clip(eigvals, 0, None))) @ eigvecs.conj().T
        p = validate_povm(Povm(dim=4, operators=(s_op, rest)))
        for i in range(2):
            mixture = povm_posterior(p, explicit, i, 0)
            e_i = explicit.encoder(i)
            parts = []
            for vec in (v, w):
                amp = vec.conj() @ e_i
                parts.append(np.abs(amp) ** 2)
            expected = 0.5 * parts[0] + 0.5 * parts[1]
            np.testing.assert_allclose(mixture, expected, atol=1e-9)

    def test_eigen_mixture_identity_random_operators(self, explicit):
        # P(d|j,i) = sum_r lam_r |(v_r^dag E_i)_d|^2 with lam >= 0 summing to 1
        root = SeededRng(77)
        for t in range(10):
            p = random_povm(4, 5, root.derive(t))
            r_op = p.operators[0]
            s2 = float(np.trace(r_op.conj().T @ r_op).real)
            gram = (r_op / np.sqrt(s2)).conj().T @ (r_op / np.sqrt(s2))
            lam, vecs = np.linalg.eigh(gram)
            assert lam.min() > -1e-9
            assert lam.sum() == pytest.approx(1.0, abs=1e-9)
            for i in range(2):
                e_i = explicit.encoder(i)
                mixture = sum(
                    lam[r] * np.abs(vecs[:, r].conj() @ e_i) ** 2 for r in range(4)
                )
                np.testing.assert_allclose(
                    povm_posterior(p, explicit, i, 0), mixture, atol=1e-9
                )

    def test_normalizer_encoding_invariance(self, explicit):
        # Tr(E_i^dag R^dag R E_i) must agree across encodings within 1e-12
        p = random_povm(4, 3, SeededRng(41))
        for j in range(3):
            r_op = p.operators[j]
            traces = [
                float((np.abs(r_op @ explicit.encoder(i)) ** 2).sum()) for i in range(2)
            ]
            assert abs(traces[0] - traces[1]) <= 1e-12 * max(1.0, traces[0])


class TestGainAccount:
    @pytest.mark.parametrize(
        "family", [explicit_single_bit_family(), build_family(mub_family(2, 2))], ids=["explicit", "mub22"]
    )
    def test_matches_per_pair_posteriors(self, family):
        root = SeededRng(88)
        for t in range(5):
            p = random_povm(family.n, 3 + t, root.derive(t))
            acct = povm_gain_account(p, family)
            for j in range(len(p)):
                for i in range(family.k):
                    expected = entropy_rows(povm_posterior(p, family, i, j))
                    assert abs(acct["h_cond"][j, i] - expected) <= 1e-12

    def test_normalizer_mismatch_is_a_bound_violation(self):
        fam = explicit_single_bit_family()
        fam._dense_cache[1] = 1.1 * fam.encoder(1)  # corrupt: E_1 no longer unitary
        p = random_povm(4, 3, SeededRng(89))
        with pytest.raises(BoundViolation, match="normalizer"):
            povm_gain_account(p, fam)
        with pytest.raises(BoundViolation):
            povm_posterior(p, fam, 0, 0)


class TestEntropyBound:
    def test_projective_honest_equality(self):
        fam = walsh_family(2)
        p = povm_from_basis(honest_basis(fam, 0))
        rep = povm_entropy_bound_check(p, fam)
        # each conditional entropy is exactly m, so the sum is 2m = log n
        assert rep["min_slack_bits"] == pytest.approx(0.0, abs=1e-9)
        assert rep["violations"] == 0

    def test_uniform_operators_maximal_slack(self, explicit):
        p = Povm(dim=4, operators=(np.eye(4) / 2, np.eye(4) / 2))
        rep = povm_entropy_bound_check(p, explicit)
        assert rep["min_slack_bits"] == pytest.approx(2.0, abs=1e-9)

    def test_randomized_audit(self, explicit):
        root = SeededRng(55)
        for t in range(60):
            n_ops = int(root.derive(t).gen.integers(2, 9))
            p = random_povm(4, n_ops, root.derive(1000 + t))
            rep = povm_entropy_bound_check(p, explicit)
            assert rep["violations"] == 0
            assert rep["gain_expected"] <= 1.0 + 1e-9

    def test_randomized_audit_m2(self):
        fam = walsh_family(2)
        root = SeededRng(56)
        for t in range(30):
            n_ops = int(root.derive(t).gen.integers(2, 33))
            p = random_povm(16, n_ops, root.derive(2000 + t))
            rep = povm_entropy_bound_check(p, fam)
            assert rep["violations"] == 0
            assert rep["gain_expected"] <= 2.0 + 1e-9

    def test_k3_empirical_cap(self):
        # the convexity argument extends empirically to k=3 families
        fam = build_family(mub_family(3, 1))
        root = SeededRng(66)
        cap = fam.k * fam.m / 2.0
        for t in range(20):
            p = random_povm(8, int(root.derive(t).gen.integers(2, 17)), root.derive(500 + t))
            acct = povm_gain_account(p, fam)
            assert acct["gain_expected"] <= cap + 1e-9
            assert acct["gain_worst"] <= cap + 1e-9
