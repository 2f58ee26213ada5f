"""Bound audits, the leakage optimizer, scans, and trend tables."""

import hashlib
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import ks_2samp

from obliq import analysis, cli, qmath
from obliq.analysis import (
    LeakageResult,
    OptimizerConfig,
    _cayley_step,
    _chunk_map,
    _chunk_trials,
    _descend,
    _haar_overlaps,
    _objective,
    _stacked_encoders,
    _uncertainty_slacks,
    concentration_experiment,
    explore_condition_2prime,
    fit_power_law,
    leakage_scan,
    max_leakage,
    params_from_unitary,
    povm_gain_audit,
    projective_gain_audit,
    random_family_leakage_trend,
    scan_csv,
    verify_theorem1,
)
from obliq.encodings import (
    MAX_RESTARTS,
    MAX_TRIALS,
    W2,
    EncodingFamily,
    build_family,
    explicit_single_bit_family,
    mub_family,
    walsh_matrix,
)
from obliq.protocol import MeasurementBasis, honest_basis, invert_basis, outcome_probs
from obliq.qmath import (
    BoundViolation,
    SeededRng,
    as_state,
    entropy_rows,
    haar_unitaries,
    haar_unitary,
    is_unitary,
    kron_chain,
    random_states,
)

QUICK = OptimizerConfig(restarts=6, iterations=300)


def h2(u) -> float:
    """Entropy of the squared-magnitude distribution of a unit vector."""
    return float(entropy_rows(np.abs(as_state(u)) ** 2))


class TestTheorem1Audit:
    def test_equality_at_identity(self):
        # A = B = I, u a basis vector: both sides are exactly zero
        u = np.zeros(4)
        u[1] = 1.0
        lhs = h2(u) + h2(u)
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_flat_case_floor(self):
        w = walsh_matrix(2)
        rng = SeededRng(2)
        for _ in range(200):
            z = rng.gen.standard_normal(4) + 1j * rng.gen.standard_normal(4)
            u = z / np.linalg.norm(z)
            assert h2(u) + h2(w @ u) >= 2.0 - 1e-9

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_randomized_no_violations(self, dim):
        rep = verify_theorem1(dim, 3000, SeededRng(dim))
        assert rep.violations == 0
        assert rep.min_slack >= -1e-9
        assert rep.parameters["hadamard_case"]["rhs_bits"] == np.log2(dim)


class TestCondition2Prime:
    def test_k2_walsh_pair_holds(self):
        n = 4
        rep = explore_condition_2prime([np.eye(n), walsh_matrix(2)], 3000, SeededRng(4))
        assert rep.violations == 0
        assert rep.parameters["min_sum_bits"] >= np.log2(n) - 1e-9

    @pytest.mark.parametrize("k, m", [(2, 1), (3, 1), (2, 2)])
    def test_a_chain_scores_as_its_dense_product(self, k, m):
        fam = build_family(mub_family(k, m))
        chains = [fam.factors(i) for i in range(k)]
        dense = [kron_chain(c) for c in chains]
        rep = explore_condition_2prime(chains, 3000, SeededRng(7)).to_json()
        assert rep == explore_condition_2prime(dense, 3000, SeededRng(7)).to_json()

    @pytest.mark.parametrize(
        "chains",
        [[(np.eye(2),) * 4, (W2,) * 4], [(np.eye(2), np.eye(4)), (W2, walsh_matrix(2))]],
        ids=["qubits", "ragged"],
    )
    def test_an_identity_chain_scores_as_the_identity(self, chains):
        dense = [kron_chain(c) for c in chains]
        assert np.array_equal(dense[0], np.eye(len(dense[0])))
        rep = explore_condition_2prime(chains, 3000, SeededRng(8)).to_json()
        assert rep == explore_condition_2prime(dense, 3000, SeededRng(8)).to_json()

    def test_basis_vector_term_vanishes(self):
        # with C_0 = I a basis-vector input contributes zero to that term
        e0 = np.zeros(4)
        e0[0] = 1.0
        assert h2(e0) == 0.0

    def test_k3_exploratory_report(self):
        fam = build_family(mub_family(3, 1))
        encs = [kron_chain(fam.factors(i)) for i in range(3)]
        rep = explore_condition_2prime(encs, 2000, SeededRng(5))
        assert rep.violations == 0  # exploratory: never gated
        assert rep.parameters["exploratory"]
        # empirically the sampled sums clear the pairwise threshold (k/2) log n
        assert rep.parameters["gap_pairwise_bits"] >= 0.0


def _ks_critical(n: int, m: int, alpha: float = 1e-3) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical value at level alpha."""
    return np.sqrt(-np.log(alpha / 2.0) / 2.0) * np.sqrt((n + m) / (n * m))


class TestOneDrawSampling:
    """The one-draw samplers have the law of the two-draw constructions they replace."""

    def test_overlaps_match_two_draw_law(self):
        ours = _haar_overlaps(16, 2000, SeededRng(41).derive(0))
        stream = SeededRng(42)
        a = haar_unitaries(16, 2000, stream)
        b = haar_unitaries(16, 2000, stream)
        ref = np.abs(a.conj().transpose(0, 2, 1) @ b).max(axis=(1, 2))
        assert ks_2samp(ours, ref).statistic < _ks_critical(2000, 2000)

    def test_concentration_experiment_uses_the_overlap_sampler(self):
        grid = np.linspace(0.0, 1.0, 41)
        rep = concentration_experiment(16, 2000, grid, SeededRng(41))
        ours = _haar_overlaps(16, 2000, SeededRng(41).derive(0))
        freqs = [row["frequency"] for row in rep.parameters["grid"][:-1]]
        assert freqs == [float((ours >= t).mean()) for t in grid]

    def test_entropic_slack_matches_two_draw_law(self):
        ours = _uncertainty_slacks(4, 2000, SeededRng(43).derive(0))
        stream = SeededRng(44)
        a = haar_unitaries(4, 2000, stream)
        b = haar_unitaries(4, 2000, stream)
        u = random_states(4, 2000, stream)
        ha = entropy_rows(np.abs(np.einsum("bij,bj->bi", a, u)) ** 2)
        hb = entropy_rows(np.abs(np.einsum("bij,bj->bi", b, u)) ** 2)
        ref = ha + hb + 2.0 * np.log2(np.abs(a @ b.conj().transpose(0, 2, 1)).max(axis=(1, 2)))
        assert ks_2samp(ours, ref).statistic < _ks_critical(2000, 2000)

    def test_verify_theorem1_reports_the_sampled_slack(self):
        rep = verify_theorem1(4, 2000, SeededRng(43))
        ours = _uncertainty_slacks(4, 2000, SeededRng(43).derive(0))
        flat = rep.parameters["hadamard_case"]["min_slack"]
        assert rep.min_slack == min(float(ours.min()), flat)
        assert rep.parameters["haar_min_slack"] == float(ours.min())

    def test_haar_minimum_is_reported_apart_from_the_flat_case(self):
        # at these counts the flat case sets min_slack; the Haar trials' own
        # minimum is still in the report, and a dim without a flat case has it too
        rep = verify_theorem1(8, 5000, SeededRng(3))
        assert rep.min_slack == rep.parameters["hadamard_case"]["min_slack"] < rep.parameters["haar_min_slack"]
        odd = verify_theorem1(3, 500, SeededRng(3))
        assert (odd.parameters["hadamard_case"], odd.parameters["haar_min_slack"]) == ({}, odd.min_slack)

    @pytest.mark.parametrize("k, m", [(2, 1), (3, 1), (2, 2)])
    def test_hk_entropy_sums_match_einsum(self, k, m):
        fam = build_family(mub_family(k, m))
        encs = [kron_chain(fam.factors(i)) for i in range(k)]
        for seed in range(8):
            # one state per run, so min_sum_bits is that state's entropy sum
            rep = explore_condition_2prime(encs, 1, SeededRng(seed))
            u = random_states(fam.n, 1, SeededRng(seed).derive(0).derive(0))  # chunk 0's stream
            ref = sum(entropy_rows(np.abs(np.einsum("ij,bj->bi", c, u)) ** 2) for c in encs)
            assert abs(rep.parameters["min_sum_bits"] - float(ref[0])) <= 1e-12


def _record_calls(monkeypatch, name, log):
    """Replace analysis.<name> by a wrapper that appends `name` to `log` on each call."""
    fn = getattr(analysis, name)

    def wrapper(*args):
        log.append(name)
        return fn(*args)

    monkeypatch.setattr(analysis, name, wrapper)


def unitary_of_params(theta, n):
    """Reference exponential map: expm(i H(theta)) in the parameter layout of params_from_unitary."""
    h = np.zeros((n, n), dtype=complex)
    h[np.triu_indices(n, 1)] = theta[n::2] + 1j * theta[n + 1 :: 2]
    h = h + h.conj().T
    np.fill_diagonal(h, theta[:n])
    return scipy.linalg.expm(1j * h)


def gain_of_params(theta, family) -> float:
    """log2 n minus the mean row entropy of |U E_i|^2 over i, for U = unitary_of_params(theta)."""
    u = unitary_of_params(theta, family.n)
    rows = [entropy_rows(outcome_probs(u, family, i)).mean() for i in range(family.k)]
    return float(np.log2(family.n) - np.mean(rows))


class TestParameterization:
    def test_roundtrip_through_params(self):
        rng = SeededRng(7)
        for n in (2, 4):
            u = haar_unitary(n, rng.derive(n))
            theta = params_from_unitary(u)
            np.testing.assert_allclose(unitary_of_params(theta, n), u, atol=1e-9)


class TestMaxLeakage:
    def test_explicit_family_tight(self):
        fam = explicit_single_bit_family()
        res = max_leakage(fam, QUICK, SeededRng(11))
        assert 0.999 <= res.best_gain <= 1.0 + 1e-6

    def test_k3_mub_between_honest_and_cap(self):
        fam = build_family(mub_family(3, 1))
        res = max_leakage(fam, QUICK, SeededRng(12))
        assert 1.0 - 1e-9 <= res.best_gain <= 1.5 + 1e-6

    def test_reported_gain_reproducible(self):
        fam = build_family(mub_family(3, 1))
        res = max_leakage(fam, QUICK, SeededRng(13))
        assert gain_of_params(res.best_params, fam) == pytest.approx(res.best_gain, abs=1e-9)

    @pytest.mark.parametrize(
        "k, m, restarts, iterations",
        [(3, 2, 8, 400), (4, 2, 2, 2)],
        ids=["mub32-haar-winner", "mub42"],
    )
    def test_best_gain_is_the_winners_gain(self, k, m, restarts, iterations):
        # best_gain comes from the search's own objective, not a re-scoring
        # of best_params; the two must still agree at n = 64 and n = 256
        fam = build_family(mub_family(k, m))
        res = max_leakage(fam, OptimizerConfig(restarts=restarts, iterations=iterations), SeededRng(21))
        if restarts > 2 * k:
            assert res.best_restart >= 2 * k  # a Haar start won
        assert gain_of_params(res.best_params, fam) == pytest.approx(res.best_gain, abs=1e-9)

    @staticmethod
    def _budget_log(monkeypatch, family, restarts, seed):
        """Names of the dense-path calls one max_leakage(family, restarts, iterations=2) makes."""
        log = []
        dense = ("_objective", "_stacked_encoders", "_parallel_map", "_cayley_step")
        for name in dense + ("honest_basis", "invert_basis"):
            _record_calls(monkeypatch, name, log)
        encoder = EncodingFamily.encoder

        def counted_encoder(self, i):
            log.append("encoder")
            return encoder(self, i)

        monkeypatch.setattr(EncodingFamily, "encoder", counted_encoder)
        max_leakage(family, OptimizerConfig(restarts=restarts, iterations=2), SeededRng(seed))
        return log

    @pytest.mark.parametrize("seed", range(200, 205))
    def test_evaluation_budget(self, seed, monkeypatch):
        # two honest starts at n = 256: each is scored per item slot, so the
        # search forms no dense encoder, runs no dense objective, enters no
        # pool and never descends
        log = self._budget_log(monkeypatch, build_family(mub_family(4, 2)), 2, seed)
        for name in ("_objective", "_stacked_encoders", "encoder", "_parallel_map", "_cayley_step"):
            assert log.count(name) == 0, name
        assert log.count("honest_basis") + log.count("invert_basis") == 2

    def test_one_haar_restart_builds_the_dense_block_once(self, monkeypatch):
        # restarts = 2k + 1: the one Haar start forms E_0..E_3 once and goes
        # on the pool (n = 256), while the eight structured starts stay dense-free
        log = self._budget_log(monkeypatch, build_family(mub_family(4, 2)), 9, 200)
        assert log.count("_stacked_encoders") == 1
        assert log.count("encoder") == 4
        assert log.count("_parallel_map") == 1
        assert log.count("honest_basis") + log.count("invert_basis") == 8
        assert log.count("_objective") >= 1

    @pytest.mark.parametrize("restarts", [1, 4, 6, 9])
    def test_structured_starts_built_only_when_run(self, restarts, monkeypatch):
        built = []
        for name in ("honest_basis", "invert_basis"):
            _record_calls(monkeypatch, name, built)
        max_leakage(build_family(mub_family(3, 1)), OptimizerConfig(restarts=restarts, iterations=5), SeededRng(3))
        assert built == (["honest_basis"] * 3 + ["invert_basis"] * 3)[: min(restarts, 6)]

    def test_deterministic(self):
        fam = explicit_single_bit_family()
        a = max_leakage(fam, QUICK, SeededRng(14))
        b = max_leakage(fam, QUICK, SeededRng(14))
        assert a.best_gain == b.best_gain
        np.testing.assert_array_equal(a.best_params, b.best_params)

    @pytest.mark.parametrize(
        "k, m, restarts, iterations, seed, gain, restart, digest",
        [
            (3, 1, 8, 60, 0, 1.3333332997388019, 6,
             "7b5f15ae7b898ba6db2d92aff032ae0e62fa3311e6a75f682490e5aa50010f23"),
            (4, 2, 2, 2, 0, 2.0, 0,
             "07854d2fef297a06ba81685e660c332de36d5d18d546927d30daad6d7fda1541"),
        ],
        ids=["mub31-haar-winner", "mub42-honest-winner"],
    )
    def test_seeded_search_outputs(self, k, m, restarts, iterations, seed, gain, restart, digest):
        # pinned figures: the search's draws, descent and winner must not move
        res = max_leakage(build_family(mub_family(k, m)), OptimizerConfig(restarts, iterations), SeededRng(seed))
        assert (res.best_gain, res.best_restart) == (gain, restart)
        assert hashlib.sha256(res.best_params.tobytes()).hexdigest() == digest

    def test_search_forms_no_parameters_and_no_dense_winner(self, monkeypatch, tmp_path):
        # the README scan and a structured-only search at n = 256 keep the
        # winner as found: no Schur decomposition and no dense basis matrix
        log = []
        _record_calls(monkeypatch, "params_from_unitary", log)
        matrix = MeasurementBasis.matrix.fget
        monkeypatch.setattr(MeasurementBasis, "matrix", property(lambda b: log.append("matrix") or matrix(b)))
        argv = ["scan", "--k", "2..3", "--m", "1..2", "--seed", "9", "--out", str(tmp_path / "scan.csv")]
        assert cli.main(argv) == 0
        res = max_leakage(build_family(mub_family(4, 2)), OptimizerConfig(8, 2), SeededRng(0))
        assert isinstance(res.winner, MeasurementBasis) and len(res.winner.factors) == 4
        assert log == []
        first = res.best_params
        assert res.best_params is first  # the second read is the first array
        assert log == ["matrix", "params_from_unitary"]

    @pytest.mark.parametrize(
        "k, m, restarts, iterations, winner_type",
        [(4, 2, 2, 2, MeasurementBasis), (3, 1, 8, 60, np.ndarray)],
        ids=["mub42-structured-winner", "mub31-haar-winner"],
    )
    def test_best_params_are_the_winners_parameters(self, k, m, restarts, iterations, winner_type):
        res = max_leakage(build_family(mub_family(k, m)), OptimizerConfig(restarts, iterations), SeededRng(0))
        assert type(res.winner) is winner_type
        dense = res.winner.matrix if winner_type is MeasurementBasis else res.winner
        np.testing.assert_array_equal(res.best_params, params_from_unitary(dense))

    def test_default_config_reaches_four_thirds_at_k3(self):
        res = max_leakage(build_family(mub_family(3, 1)), OptimizerConfig(), SeededRng(802))
        assert 1.3087 <= res.best_gain <= 1.5 + 1e-6

    def test_needs_a_restart(self):
        with pytest.raises(ValueError, match="restarts"):
            max_leakage(explicit_single_bit_family(), OptimizerConfig(restarts=0), SeededRng(1))

    @pytest.mark.parametrize(
        "k, m, restarts, match",
        [(2, 1, MAX_RESTARTS + 1, f"<= {MAX_RESTARTS}"), (2, 5, 5, "--restarts <= 4")],
        ids=["restart-cap", "search-dim-cap"],
    )
    def test_refused_before_any_work(self, k, m, restarts, match, monkeypatch):
        # the second case asks for a Haar restart at n = 1024, above MAX_SEARCH_DIM
        log = []
        for name in ("slot_entropy", "_stacked_encoders", "_parallel_map"):
            _record_calls(monkeypatch, name, log)
        with pytest.raises(ValueError, match=match):
            max_leakage(build_family(mub_family(k, m)), OptimizerConfig(restarts, 2), SeededRng(1))
        assert log == []

    def test_search_caps_boundary(self):
        analysis._check_search(2, 1, MAX_RESTARTS)
        analysis._check_search(3, 3, 7)  # a Haar restart at n = 512, the cap
        analysis._check_search(2, 5, 4)  # n = 1024 with the 2k structured starts only

    def test_bound_violation_is_typed(self):
        with pytest.raises(BoundViolation) as info:
            LeakageResult(2, 1, "mub", 1.5, 1.0, 1, 1, 0, np.eye(4, dtype=complex))
        assert isinstance(info.value, AssertionError)


class TestGradient:
    @pytest.mark.parametrize(
        "family", [explicit_single_bit_family(), build_family(mub_family(3, 1))], ids=["explicit", "mub31"]
    )
    def test_matches_central_differences(self, family):
        # along Cayley(-t A) U = (I + t A) U + O(t^2) the slope of f at t = 0
        # is Re <Omega, A>; check it on every element of a basis of skew A
        enc = _stacked_encoders(family)
        n = family.n
        u = haar_unitary(n, SeededRng(31))
        omega = _objective(u, enc)[1]()
        h = 1e-5
        fd, exact = [], []
        for r in range(n):
            for c in range(r, n):
                for unit in (1j,) if r == c else (1.0, 1j):
                    a = np.zeros((n, n), dtype=complex)
                    a[r, c] = unit
                    a[c, r] = -np.conj(unit)
                    up = _objective(_cayley_step(u, a, -h), enc)[0]
                    down = _objective(_cayley_step(u, a, h), enc)[0]
                    fd.append((up - down) / (2 * h))
                    exact.append(np.vdot(omega, a).real)
        fd, exact = np.array(fd), np.array(exact)
        assert np.linalg.norm(fd - exact) <= 1e-6 * np.linalg.norm(exact)

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("mu", [1e-3, 1.0, 10.0])
    def test_cayley_step_is_the_two_factor_form(self, n, mu):
        stream = SeededRng(40 + n)
        z = stream.gen.standard_normal((n, n)) + 1j * stream.gen.standard_normal((n, n))
        omega = z - z.conj().T
        u = haar_unitary(n, stream)
        half = 0.5 * mu * omega
        eye = np.eye(n)
        expected = np.linalg.inv(eye + half) @ (eye - half) @ u
        step = _cayley_step(u, omega, mu)
        np.testing.assert_allclose(step, expected, rtol=0, atol=1e-12)
        assert is_unitary(step, 1e-12)

    @pytest.mark.parametrize("k, m", [(2, 1), (3, 1), (3, 2)])
    def test_structured_starts_are_stationary(self, k, m):
        family = build_family(mub_family(k, m))
        enc = _stacked_encoders(family)
        for j in range(k):
            for basis in (honest_basis(family, j), invert_basis(family, j)):
                omega = _objective(basis.matrix, enc)[1]()
                assert np.linalg.norm(omega) < 1e-12

    @pytest.mark.parametrize("k, m", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_descent_from_a_kicked_structured_start_never_beats_it(self, k, m):
        # why max_leakage scores these starts instead of descending them:
        # each is a strict local optimum, so a descent from a Cayley kick of
        # Frobenius norm 1e-3 or 0.1 ends no lower than the start itself
        family = build_family(mub_family(k, m))
        enc = _stacked_encoders(family)
        n = family.n
        stream = SeededRng(50 + n)
        for j in range(k):
            for basis in (honest_basis(family, j), invert_basis(family, j)):
                f_start = _objective(basis.matrix, enc)[0]
                for size in (1e-3, 0.1):
                    z = stream.gen.standard_normal((n, n)) + 1j * stream.gen.standard_normal((n, n))
                    kick = z - z.conj().T
                    u0 = _cayley_step(basis.matrix, kick * (size / np.linalg.norm(kick)), 1.0)
                    _, f = _descend(u0, enc, OptimizerConfig().iterations)
                    assert f >= f_start - 1e-12


class TestLeakageScan:
    def test_grid_rows_and_bounds(self):
        cfg = OptimizerConfig(restarts=4, iterations=120)
        results, fit = leakage_scan([2, 3], [1], cfg, SeededRng(9))
        assert len(results) == 2
        for r in results:
            assert r.best_gain <= r.bound + 1e-6
        assert results[0].best_gain == pytest.approx(1.0, abs=1e-3)

    def test_every_cell_is_checked_before_the_first_runs(self, monkeypatch):
        ran = []
        _record_calls(monkeypatch, "max_leakage", ran)
        with pytest.raises(ValueError, match=r"cell \(k=2, m=5\)"):
            leakage_scan([2], [1, 5], OptimizerConfig(restarts=5, iterations=2), SeededRng(1))
        assert ran == []

    def test_infeasible_cells_skipped(self):
        cfg = OptimizerConfig(restarts=2, iterations=60)
        results, _ = leakage_scan([2, 4], [1], cfg, SeededRng(10))
        assert [(r.k, r.m) for r in results] == [(2, 1)]

    def test_desk_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            leakage_scan([5], [3], QUICK, SeededRng(1))

    def test_grid_without_feasible_cell_rejected(self):
        with pytest.raises(ValueError, match="unbiased family"):
            leakage_scan([5], [1], QUICK, SeededRng(1))

    def test_csv_shape(self):
        cfg = OptimizerConfig(restarts=2, iterations=60)
        results, fit = leakage_scan([2], [1], cfg, SeededRng(15))
        text = scan_csv(results, fit)
        lines = text.strip().split("\n")
        assert lines[0] == "k,m,family,best_gain_bits,bound_bits,restarts,iters,seed"
        assert lines[-1].startswith("# fit")
        assert "reference c=0.4 alpha=0.7" in lines[-1]

    def test_determinism(self):
        cfg = OptimizerConfig(restarts=2, iterations=60)
        a = scan_csv(*leakage_scan([2], [1], cfg, SeededRng(16)))
        b = scan_csv(*leakage_scan([2], [1], cfg, SeededRng(16)))
        assert a == b

    def test_no_pool_call_starts_inside_a_lane(self, monkeypatch):
        # cells run in order, so the (3,2) cell's two Haar restarts (n = 64)
        # are the scan's only pool work and start from outside any lane
        entries = []
        real = analysis._parallel_map

        def spy(fn, items):
            items = list(items)
            entries.append((len(items), getattr(qmath._LANE, "busy", False)))
            return real(fn, items)

        monkeypatch.setattr(analysis, "_parallel_map", spy)
        monkeypatch.setenv("OBLIQ_THREADS", "2")
        results, fit = leakage_scan([2, 3], [1, 2], OptimizerConfig(restarts=8, iterations=40), SeededRng(4))
        assert entries == [(2, False)]
        # the CSV that tests/test_cli.py pins for scan --restarts 8 --iters 40 --seed 4
        assert scan_csv(results, fit) == (
            "k,m,family,best_gain_bits,bound_bits,restarts,iters,seed\n"
            "2,1,mub,1.000000000,1.000000000,8,40,4\n"
            "2,2,mub,2.000000000,2.000000000,8,40,4\n"
            "3,1,mub,1.333333313,1.500000000,8,40,4\n"
            "3,2,mub,2.687053163,3.000000000,8,40,4\n"
            "# fit c=0.607559 alpha=0.718903 reference c=0.4 alpha=0.7\n"
        )

    def test_fit_power_law_exact_recovery(self):
        # synthetic rows following 0.5 * k^0.8 * m exactly
        class Row:
            def __init__(self, k, m):
                self.k, self.m = k, m
                self.best_gain = 0.5 * k ** 0.8 * m

        fit = fit_power_law([Row(k, m) for k in (2, 3, 4) for m in (1, 2)])
        assert fit["c"] == pytest.approx(0.5, abs=1e-9)
        assert fit["alpha"] == pytest.approx(0.8, abs=1e-9)


class TestConcentration:
    def test_t_zero_vacuous(self):
        rep = concentration_experiment(16, 200, np.array([0.0]), SeededRng(17))
        row = rep.parameters["grid"][0]
        assert row["frequency"] == 1.0
        assert row["bound"] == 1.0

    def test_t_above_one_empty(self):
        rep = concentration_experiment(16, 200, np.array([1.1]), SeededRng(18))
        assert rep.parameters["grid"][0]["frequency"] == 0.0

    def test_ell_16_default_grid(self):
        rep = concentration_experiment(16, 400, None, SeededRng(19))
        assert rep.violations == 0

    def test_ell_guard(self):
        with pytest.raises(ValueError):
            concentration_experiment(32, 10, None, SeededRng(1))


class TestMeasurementAudits:
    def test_projective_cap_small(self):
        fam = explicit_single_bit_family()
        rep = projective_gain_audit(fam, 2000, SeededRng(20))
        assert rep.violations == 0
        assert rep.min_slack >= -1e-9

    def test_povm_cap_small(self):
        fam = explicit_single_bit_family()
        rep = povm_gain_audit(fam, 40, SeededRng(21))
        assert rep.violations == 0

    def test_projective_audit_seeded_values(self):
        # pinned figures: the audit's Haar draws and entropy sums must not move
        rep = projective_gain_audit(build_family(mub_family(3, 2)), 300, SeededRng(4))
        assert rep.min_slack == pytest.approx(2.121979409224868, abs=1e-12)
        assert rep.parameters["worst_expected_gain"] == pytest.approx(0.6228848869170138, abs=1e-12)


class TestWorkerControl:
    def test_env_cap_respected(self, monkeypatch):
        from obliq.qmath import worker_count

        monkeypatch.setenv("OBLIQ_THREADS", "2")
        assert worker_count() == 2
        monkeypatch.setenv("OBLIQ_THREADS", "bogus")
        assert worker_count() >= 1

    def test_thread_count_never_changes_results(self, monkeypatch):
        fam = explicit_single_bit_family()
        cfg = OptimizerConfig(restarts=4, iterations=100)
        monkeypatch.setenv("OBLIQ_THREADS", "1")
        seq = max_leakage(fam, cfg, SeededRng(50))
        monkeypatch.setenv("OBLIQ_THREADS", "4")
        par = max_leakage(fam, cfg, SeededRng(50))
        assert seq.best_gain == par.best_gain
        assert seq.best_restart == par.best_restart
        np.testing.assert_array_equal(seq.best_params, par.best_params)

    @pytest.mark.parametrize("k, m, restarts", [(3, 2, 9), (4, 2, 3)], ids=["mub32-haar", "mub42-structured"])
    def test_thread_count_never_changes_pooled_restarts(self, k, m, restarts, monkeypatch):
        # from n = 64 the restarts run on the pool; the winner is still the earliest lowest f
        fam = build_family(mub_family(k, m))
        cfg = OptimizerConfig(restarts=restarts, iterations=20)
        results = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("OBLIQ_THREADS", threads)
            results.append(max_leakage(fam, cfg, SeededRng(50)))
        for r in results[1:]:
            assert (r.best_gain, r.best_restart) == (results[0].best_gain, results[0].best_restart)
            np.testing.assert_array_equal(r.best_params, results[0].best_params)


def _hk_encoders(k, m):
    fam = build_family(mub_family(k, m))
    return [kron_chain(fam.factors(i)) for i in range(k)]


# each chunked audit at a size of at least two chunks, as (label, run(rng), chunks)
CHUNKED_AUDITS = [
    ("entropic-8", lambda rng: verify_theorem1(8, 5000, rng), 3),
    ("concentration-256", lambda rng: concentration_experiment(256, 32, None, rng), 8),
    ("projective-mub32", lambda rng: projective_gain_audit(build_family(mub_family(3, 2)), 200, rng), 4),
    ("hk-3-2", lambda rng: explore_condition_2prime(_hk_encoders(3, 2), 5000, rng), 3),
]


class TestAuditChunks:
    @pytest.mark.parametrize("trials", [0, -1])
    @pytest.mark.parametrize(
        "audit",
        [
            lambda t: verify_theorem1(4, t, SeededRng(1)),
            lambda t: concentration_experiment(16, t, None, SeededRng(1)),
            lambda t: projective_gain_audit(explicit_single_bit_family(), t, SeededRng(1)),
            lambda t: explore_condition_2prime(_hk_encoders(2, 1), t, SeededRng(1)),
            lambda t: povm_gain_audit(explicit_single_bit_family(), t, SeededRng(1)),
        ],
        ids=["entropic", "concentration", "projective", "hk", "povm"],
    )
    def test_no_trials_is_refused(self, audit, trials):
        with pytest.raises(ValueError, match="trials >= 1"):
            audit(trials)

    @pytest.mark.parametrize(
        "audit, work",
        [
            (lambda t: verify_theorem1(4, t, SeededRng(1)), "_parallel_map"),
            (lambda t: povm_gain_audit(explicit_single_bit_family(), t, SeededRng(1)), "random_povm"),
        ],
        ids=["entropic", "povm"],
    )
    def test_trials_above_the_cap_are_refused_before_any_work(self, audit, work, monkeypatch):
        log = []
        _record_calls(monkeypatch, work, log)
        with pytest.raises(ValueError, match=f"<= {MAX_TRIALS}"):
            audit(MAX_TRIALS + 1)
        assert log == []

    def test_hk_builds_no_chain_before_the_trials_check(self, monkeypatch):
        built = []
        monkeypatch.setattr(qmath, "kron_chain", built.append)
        with pytest.raises(ValueError, match=f"<= {MAX_TRIALS}"):
            explore_condition_2prime([(W2,) * 2, (W2,) * 2], MAX_TRIALS + 1, SeededRng(1))
        assert built == []

    def test_chunk_map_takes_the_cap(self):
        assert sum(_chunk_map(lambda count, sub: count, MAX_TRIALS, 2048, SeededRng(1))) == MAX_TRIALS

    def test_chunk_size_rule(self):
        assert [_chunk_trials(e) for e in (4, 64, 256, 4096, 65536, 1 << 20)] == [2048, 2048, 1024, 64, 4, 1]

    def test_each_chunk_draws_from_its_own_child_stream(self):
        stream = SeededRng(9, 5)
        got = _chunk_map(lambda count, sub: (count, sub.seed, sub.stream), 5, 2, stream)
        assert got == [(c, 9, stream.derive(i).stream) for i, c in enumerate((2, 2, 1))]

    def test_no_chunk_repeats_another_chunks_unitaries(self, monkeypatch):
        drawn = []
        real = qmath.haar_unitaries

        def spy(dim, count, rng):
            drawn.append((rng.stream, real(dim, count, rng)))
            return drawn[-1][1]

        monkeypatch.setattr(qmath, "haar_unitaries", spy)
        monkeypatch.setenv("OBLIQ_THREADS", "1")
        concentration_experiment(256, 32, None, SeededRng(3))
        streams = [s for s, _ in drawn]
        assert len(streams) == 8 and len(set(streams)) == 8
        firsts = {mats[0].tobytes() for _, mats in drawn}
        assert len(firsts) == 8

    @pytest.mark.parametrize("label, run, chunks", CHUNKED_AUDITS, ids=[a[0] for a in CHUNKED_AUDITS])
    def test_reports_do_not_depend_on_the_thread_count(self, label, run, chunks, monkeypatch):
        sizes = []
        real = analysis._parallel_map

        def spy(fn, items):
            items = list(items)
            sizes.append(len(items))
            return real(fn, items)

        monkeypatch.setattr(analysis, "_parallel_map", spy)
        reports = []
        for threads in ("1", "3"):
            monkeypatch.setenv("OBLIQ_THREADS", threads)
            reports.append(run(SeededRng(12)).to_json())
        assert sizes == [chunks, chunks]
        assert reports[0] == reports[1]

    def test_lanes_racing_to_build_the_encoders_change_nothing(self, monkeypatch):
        # eight chunks on a fresh family, with more lanes than cores and a tiny switch interval
        monkeypatch.setenv("OBLIQ_THREADS", "1")
        ref = projective_gain_audit(build_family(mub_family(2, 2)), 8192, SeededRng(6)).to_json()
        monkeypatch.setenv("OBLIQ_THREADS", "8")  # more lanes than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = projective_gain_audit(build_family(mub_family(2, 2)), 8192, SeededRng(6)).to_json()
        finally:
            sys.setswitchinterval(interval)
        assert got == ref

    @pytest.mark.parametrize("label, run, chunks", CHUNKED_AUDITS, ids=[a[0] for a in CHUNKED_AUDITS])
    def test_equal_rngs_give_equal_reports(self, label, run, chunks):
        assert run(SeededRng(13)).to_json() == run(SeededRng(13)).to_json()


class TestLeakageTrend:
    def test_table_contents(self):
        rows = random_family_leakage_trend([2], [1, 2], seeds=3, rng=SeededRng(22))
        mub_rows = [r for r in rows if r["family"] == "mub"]
        rand_rows = [r for r in rows if r["family"] == "random"]
        assert len(mub_rows) == 2 and len(rand_rows) == 6
        for r in mub_rows:
            assert r["leakage_bits"] == pytest.approx(0.0, abs=1e-9)
        for r in rand_rows:
            assert 0.0 <= r["per_item_bits"] <= r["m"]

    def test_normalized_leakage_shrinks_with_item_size(self):
        # the informative trend: leakage as a fraction of the item size
        # decreases as m grows at fixed k (absolute leakage saturates)
        rows = random_family_leakage_trend([2], [1, 3, 6], seeds=20, rng=SeededRng(23))
        med = {}
        for m in (1, 3, 6):
            vals = [r["per_item_fraction"] for r in rows if r["family"] == "random" and r["m"] == m]
            med[m] = float(np.median(vals))
        assert med[1] > med[3] > med[6]
