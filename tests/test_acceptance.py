"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; the sizes match the stated grids.
"""

import time
from contextlib import contextmanager

import numpy as np

from obliq import analysis, gf2
from obliq.analysis import OptimizerConfig
from obliq.cli import main as cli_main
from obliq.encodings import (
    explicit_single_bit_family,
    mub_family,
    random_family,
    walsh_family,
)
from obliq.hardening import GfMask, masked_session, xor_guess_attack
from obliq.protocol import (
    DatabaseState,
    decode_item,
    honest_basis,
    honest_leakage,
    info_account,
    invert_basis,
    item_blocks,
    parity_basis,
    posterior,
    vendor_encode,
)
from obliq.qmath import SeededRng, is_hadamard

_SUITE_T0 = time.perf_counter()
S = np.sqrt(0.5)


@contextmanager
def criterion(num: int, title: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL  {title}")
        raise
    print(f"[criterion {num:02d}] PASS  {title}  ({time.perf_counter() - t0:.2f}s)")


def _completeness_exhaustive(family) -> None:
    """Every positive-probability honest outcome decodes the chosen item."""
    n, k, m = family.n, family.k, family.m
    configs = np.arange(n)
    for j in range(k):
        mat = honest_basis(family, j).matrix
        items_j = np.array([item_blocks(int(d), k, m)[j] for d in configs])
        for i in range(k):
            probs = np.abs(mat @ family.encoder(i)) ** 2
            decoded = np.array([decode_item(int(o), i, j, k, m) for o in range(n)])
            support = probs > 1e-18
            agree = decoded[:, None] == items_j[None, :]
            assert np.all(agree | ~support)
            # and the correct outcomes carry all the probability mass
            masses = np.where(agree, probs, 0.0).sum(axis=0)
            np.testing.assert_allclose(masses, 1.0, atol=1e-9)


def test_criterion_01_state_table():
    with criterion(1, "explicit-family state table, entrywise to 1e-12"):
        t0 = time.perf_counter()
        fam = explicit_single_bit_family()
        first = {
            0b00: [S, S, 0, 0],
            0b01: [S, -S, 0, 0],
            0b10: [0, 0, S, S],
            0b11: [0, 0, S, -S],
        }
        second = {
            0b00: [S, 0, S, 0],
            0b01: [S, 0, -S, 0],
            0b10: [0, S, 0, S],
            0b11: [0, S, 0, -S],
        }
        for d, expect in first.items():
            state = vendor_encode(DatabaseState.from_index(d, 2, 1), fam, 0)
            np.testing.assert_allclose(state, expect, atol=1e-12)
        for d, expect in second.items():
            state = vendor_encode(DatabaseState.from_index(d, 2, 1), fam, 1)
            np.testing.assert_allclose(state, expect, atol=1e-12)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_cross_product_flat():
    with criterion(2, "E1^dag E0 flat with |entries| = 1/2 to 1e-12"):
        fam = explicit_single_bit_family()
        cross = fam.encoder(1).conj().T @ fam.encoder(0)
        assert is_hadamard(cross, 1e-12)
        np.testing.assert_allclose(np.abs(cross), 0.5, atol=1e-12)


def test_criterion_03_honest_completeness():
    with criterion(3, "honest completeness, exhaustive over six family shapes"):
        t0 = time.perf_counter()
        _completeness_exhaustive(explicit_single_bit_family())
        _completeness_exhaustive(walsh_family(2))
        _completeness_exhaustive(walsh_family(3))
        _completeness_exhaustive(mub_family(3, 1))
        _completeness_exhaustive(mub_family(3, 2))
        _completeness_exhaustive(random_family(4, 2, SeededRng(42)))
        assert time.perf_counter() - t0 < 30.0


def test_criterion_04_invert_guess_tightness():
    with criterion(4, "invert-guess entropies h_{j,0}=0, h_{j,1}=2, h_j=1"):
        fam = explicit_single_bit_family()
        acct = info_account(invert_basis(fam, 0), fam)
        np.testing.assert_allclose(acct.h_cond[:, 0], 0.0, atol=1e-9)
        np.testing.assert_allclose(acct.h_cond[:, 1], 2.0, atol=1e-9)
        np.testing.assert_allclose(acct.h_avg, 1.0, atol=1e-9)


def test_criterion_05_gain_bound_randomized():
    with criterion(5, "gain cap: 1e4 projective bases + 1e3 POVMs, zero violations"):
        fam = explicit_single_bit_family()
        rep = analysis.projective_gain_audit(fam, 10_000, SeededRng(505))
        assert rep.violations == 0
        assert rep.min_slack >= -1e-9
        assert rep.parameters["worst_expected_gain"] <= 1.0 + 1e-9

        rep = analysis.povm_gain_audit(fam, 1000, SeededRng(506))
        assert rep.violations == 0
        assert rep.parameters["worst_outcome_gain"] <= 1.0 + 1e-9
        assert rep.parameters["worst_expected_gain"] <= 1.0 + 1e-9


def test_criterion_06_entropic_uncertainty_audit():
    with criterion(6, "uncertainty bound: 1e5 trials at dims 2, 4, 8"):
        t0 = time.perf_counter()
        for dim in (2, 4, 8):
            rep = analysis.verify_theorem1(dim, 100_000, SeededRng(600 + dim))
            assert rep.violations == 0
            assert rep.min_slack >= -1e-9
            assert rep.parameters["hadamard_case"]["rhs_bits"] == np.log2(dim)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_07_mub_honest_privacy():
    with criterion(7, "unbiased families leak nothing to honest users (m <= 3)"):
        for m in (1, 2, 3):
            for k in range(2, (1 << m) + 2):
                fam = mub_family(k, m)
                for j in range(k):
                    assert abs(honest_leakage(fam, j)) < 1e-9
        # spot-check the underlying uniformity of the non-target marginal
        fam = mub_family(3, 1)
        for j in range(3):
            mat = honest_basis(fam, j).matrix
            for i in range(3):
                probs = np.abs(mat @ fam.encoder(i)) ** 2
                shaped = probs.reshape(8, 2, 2, 2)
                marg = shaped.sum(axis=1 + j).reshape(8, -1)
                np.testing.assert_allclose(marg, 0.25, atol=1e-9)


def test_criterion_08_optimizer_caps_and_tightness():
    with criterion(8, "optimizer: k=2 tight at 1 bit; k=3 within [1, 1.5]"):
        t0 = time.perf_counter()
        config = OptimizerConfig()  # the default reproducibility contract
        res2 = analysis.max_leakage(explicit_single_bit_family(), config, SeededRng(801))
        assert 0.999 <= res2.best_gain <= 1.0 + 1e-6
        res3 = analysis.max_leakage(mub_family(3, 1), config, SeededRng(802))
        assert 1.0 - 1e-9 <= res3.best_gain <= 1.5 + 1e-6
        assert time.perf_counter() - t0 < 300.0


def test_criterion_09_overlap_concentration():
    with criterion(9, "Haar overlap tail bound at ell in {16, 64, 256}"):
        for ell in (16, 64, 256):
            rep = analysis.concentration_experiment(ell, 1000, None, SeededRng(900 + ell))
            assert rep.violations == 0
            assert len(rep.parameters["grid"]) == 8


def test_criterion_10_xor_attack_rate():
    with criterion(10, "share-split attack succeeds at rate 2^-r (1e4 trials)"):
        fam = explicit_single_bit_family()
        db = DatabaseState(2, 1, (1, 0))
        for r in (1, 2, 3):
            rep = xor_guess_attack(fam, db, r, 10_000, SeededRng(1000 + r))
            assert rep["within_3_sigma"], rep


def test_criterion_11_gf_masking():
    with criterion(11, "mask/unmask identity (m <= 8); masked decode (m <= 3)"):
        for m in range(1, 9):
            q = 1 << m
            a_vals = np.arange(1, q)
            aa, bb, dd = np.meshgrid(a_vals, np.arange(q), np.arange(q), indexing="ij")
            masked = np.asarray(gf2.mul(aa, dd, m)) ^ bb
            inv = np.asarray(gf2.inverse(a_vals, m))
            unmasked = np.asarray(gf2.mul(inv[:, None, None], masked ^ bb, m))
            assert np.array_equal(unmasked, np.broadcast_to(dd, unmasked.shape))

        for m in (1, 2, 3):
            fam = explicit_single_bit_family() if m == 1 else walsh_family(m)
            q = 1 << m
            for a in range(1, q):
                for b in range(q):
                    mask = GfMask(m, a, b)
                    for d0 in range(q):
                        for d1 in range(q):
                            db = DatabaseState(2, m, (d0, d1))
                            for j in range(2):
                                tr = masked_session(
                                    db, fam, mask, honest_basis(fam, j),
                                    SeededRng(((a * q + b) * q + d0) * q + d1, j),
                                )
                                assert tr.decoded["value"] == db.items[j]


def test_criterion_12_scan_with_fit():
    with criterion(12, "leakage scan k in {2,3,4}, m in {1,2}: bounded cells + fit"):
        config = OptimizerConfig(restarts=4, iterations=120)
        results, fit = analysis.leakage_scan([2, 3, 4], [1, 2], config, SeededRng(1200))
        cells = [(r.k, r.m) for r in results]
        assert cells == [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2)]  # (4,1) infeasible
        for r in results:
            assert r.best_gain <= r.bound + 1e-6
            assert r.best_gain >= r.m - 1e-6  # honest strategy is always found
        assert np.isfinite(fit["c"]) and np.isfinite(fit["alpha"])
        assert (fit["ref_c"], fit["ref_alpha"]) == (0.4, 0.7)
        csv = analysis.scan_csv(results, fit)
        assert csv.splitlines()[-1].startswith("# fit")


def test_criterion_13_parity_capability():
    with criterion(13, "parity basis: single parity class; gain at most 1 bit"):
        fam = explicit_single_bit_family()
        basis = parity_basis()
        for i in range(2):
            for outcome in (0, 1):
                post = posterior(basis, fam, i, outcome)
                support = np.flatnonzero(post > 1e-12)
                assert len(support) > 0
                parities = {(int(d) >> 1 & 1) ^ (int(d) & 1) for d in support}
                assert len(parities) == 1
        acct = info_account(basis, fam)
        assert acct.gain_expected <= 1.0 + 1e-9


def test_criterion_14_full_suite_runtime():
    with criterion(14, "all verify suites green; acceptance wall time < 10 min"):
        for suite, extra in (
            ("entropic", []),
            ("povm", []),
            ("concentration", []),
            ("hk", ["--k", "3", "--m", "1"]),
            ("honest", []),
        ):
            code = cli_main(["verify", "--suite", suite, "--seed", "14"] + extra)
            assert code == 0, f"suite {suite} exited {code}"
        elapsed = time.perf_counter() - _SUITE_T0
        print(f"  total acceptance wall time: {elapsed:.1f}s")
        assert elapsed < 600.0
