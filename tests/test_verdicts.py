"""Where every verdict and support check flips.

A verdict decides whether a proven bound was broken: each audit counts the
slacks below -DEFAULT_TOL (`qmath.count_violations`), and the library's own
checks raise beyond DEFAULT_TOL.  A support check decides which
probabilities count as nonzero: those above SUPPORT_EPS.  Each test builds an
input a few tolerances past the line, which must be counted or raised, and
one just inside it, which must not.  The inputs are built from the lines'
values, not from the library's names, so moving a line fails here too.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from obliq import analysis, cli, protocol, qmath
from obliq.analysis import (
    LeakageResult, explore_condition_2prime, povm_gain_audit, projective_gain_audit, verify_theorem1,
)
from obliq.encodings import W2, explicit_single_bit_family
from obliq.povm import Povm, povm_gain_account
from obliq.protocol import _decode, invert_basis, outcome_probs, parity_basis
from obliq.qmath import BoundViolation, SeededRng, count_violations

TOL, EPS = 1e-9, 1e-18  # DEFAULT_TOL and SUPPORT_EPS
PAST, INSIDE = 3.0, 0.5  # multiples of a line: a few past it, and just inside it
SIDES = ["past", "inside"]


def stand_in_family(e0, e1) -> SimpleNamespace:
    """The parts of a k = 2, m = 1 pairwise-unbiased EncodingFamily the checks read, with E_0 and E_1
    as given: neither need be unitary, so a check sees exactly the input the test builds."""
    encoders = [np.asarray(e, dtype=complex) for e in (e0, e1)]
    return SimpleNamespace(n=4, k=2, m=1, pairwise_hadamard=True, encoder=encoders.__getitem__)


def near_flat(deficit: float) -> np.ndarray:
    """A 4 x 4 matrix whose squared rows all sum to 1 and have entropy 2 - `deficit` bits, to rounding.

    Each row of its square is (1/4 + e, 1/4 + e, 1/4 - e, 1/4 - e), whose entropy is short of
    log2 4 by 8 e^2 / ln 2 to leading order.
    """
    e = math.sqrt(deficit * math.log(2.0) / 8.0)
    row = np.array([0.25 + e, 0.25 + e, 0.25 - e, 0.25 - e])
    return np.sqrt(np.stack([np.roll(row, s) for s in range(4)]))


def projectors(dim: int) -> Povm:
    """The rank-1 POVM of the computational basis: outcome j reads row j of |E_i|^2."""
    return Povm(dim=dim, operators=np.stack([np.diag(np.eye(dim)[j]) for j in range(dim)]))


def identities(dim, count, rng):
    return np.broadcast_to(np.eye(dim, dtype=complex), (count, dim, dim))


def zero_states(dim, count, rng):
    return np.tile(np.eye(dim, dtype=complex)[0], (count, 1))


# ---------------------------------------------------------------------------
# the verdict rule itself


def test_count_violations_counts_only_slacks_below_minus_the_tolerance():
    slack = np.array([-PAST * TOL, -TOL, -INSIDE * TOL, 0.0, PAST * TOL])
    assert count_violations(slack) == 1
    assert count_violations(-slack) == 1
    assert count_violations(np.full((3, 4), -2 * TOL)) == 12
    assert type(count_violations(slack)) is int


# ---------------------------------------------------------------------------
# the audits


@pytest.mark.parametrize("multiple, counted", [(PAST, 1), (INSIDE, 0)], ids=SIDES)
def test_entropic_audit_counts_a_slack_past_the_line(multiple, counted, monkeypatch):
    slack = np.array([0.7, -multiple * TOL, 1.3])
    monkeypatch.setattr(analysis, "_uncertainty_slacks", lambda dim, trials, stream: slack)
    rep = verify_theorem1(3, 3, SeededRng(1))  # dim 3 has no flat case
    assert (rep.violations, rep.min_slack) == (counted, -multiple * TOL)


@pytest.mark.parametrize("scale, counted", [(1e-8, 1), (1e-9, 0)], ids=SIDES)
def test_hk_audit_counts_a_sum_past_the_line(scale, counted, monkeypatch):
    # from |0>, the identity scores 0 bits and W2 (1 + c) scores 1 - (2 / ln 2 - 2) c to first order
    monkeypatch.setattr(qmath, "random_states", zero_states)
    rep = explore_condition_2prime([np.eye(2), W2 * (1.0 + scale)], 4, SeededRng(2))
    assert rep.min_slack == pytest.approx(-(2.0 / math.log(2.0) - 2.0) * scale, rel=1e-5)
    assert rep.violations == 4 * counted


@pytest.mark.parametrize("multiple, counted", [(PAST, 4), (INSIDE, 0)], ids=SIDES)
def test_projective_audit_counts_a_gain_past_the_cap(multiple, counted, monkeypatch):
    # measured in the identity, E_0 = I gives 0 bits and the near-flat E_1 2 - 2 multiple TOL bits,
    # so every outcome gains 1 + multiple TOL bits against the cap k m / 2 = 1
    e1 = near_flat(2.0 * multiple * TOL)
    family = stand_in_family(np.eye(4), e1)
    monkeypatch.setattr(qmath, "haar_unitaries", identities)
    rep = projective_gain_audit(family, 1, SeededRng(3))
    assert rep.min_slack == pytest.approx(-multiple * TOL, rel=1e-3)
    assert rep.violations == counted


@pytest.mark.parametrize("multiple, counted", [(PAST, 4), (INSIDE, 0)], ids=SIDES)
def test_povm_audit_counts_an_entropy_sum_past_the_line(multiple, counted, monkeypatch):
    # the projectors read E_0 = I for 0 bits and the near-flat E_1 for 2 - multiple TOL bits per outcome
    monkeypatch.setattr(analysis, "random_povm", lambda dim, n_ops, rng: projectors(4))
    rep = povm_gain_audit(stand_in_family(np.eye(4), near_flat(multiple * TOL)), 1, SeededRng(5))
    assert rep.min_slack == pytest.approx(-multiple * TOL, rel=1e-3)
    assert rep.violations == counted


@pytest.mark.parametrize("leak, counted", [(3e-9, True), (-3e-9, True), (0.5e-9, False), (-0.5e-9, False)],
                         ids=["past", "past-negative", "inside", "inside-negative"])
def test_honest_suite_counts_a_leakage_past_the_line(leak, counted, monkeypatch):
    calls = []
    monkeypatch.setattr(protocol, "honest_leakage", lambda family, j: calls.append(j) or leak)
    rep = cli._honest_suite()
    assert rep.violations == (len(calls) if counted else 0)
    assert len(calls) == 63  # every choice of every mub family with m <= 3 and k <= 2^m + 1
    assert (rep.min_slack, rep.parameters["worst_abs_leakage_bits"]) == (-abs(leak), abs(leak))


@pytest.mark.parametrize("excess, raised", [(2e-9, True), (0.5e-9, False)], ids=SIDES)
def test_leakage_result_refuses_a_gain_past_the_bound(excess, raised):
    args = (2, 1, "mub", 1.0 + excess, 1.0, 1, 1, 0, np.eye(4, dtype=complex))
    if raised:
        with pytest.raises(BoundViolation, match="exceeds the proven bound"):
            LeakageResult(*args)
    else:
        assert LeakageResult(*args).best_gain == 1.0 + excess


# ---------------------------------------------------------------------------
# the library's own checks


@pytest.mark.parametrize("scale, raised", [(1e-8, True), (1e-10, False)], ids=SIDES)
def test_row_sums_past_the_tolerance_are_a_bound_violation(scale, raised):
    # an encoder scaled by 1 + c has rows summing to 1 + 2c
    family = stand_in_family(np.eye(4) * (1.0 + scale), np.eye(4))
    if raised:
        with pytest.raises(BoundViolation, match="row sums"):
            outcome_probs(np.eye(4), family, 0)
    else:
        probs = outcome_probs(np.eye(4), family, 0)
        np.testing.assert_allclose(probs, np.eye(4) * (1.0 + scale) ** 2, rtol=1e-15)


@pytest.mark.parametrize("multiple, raised", [(PAST, True), (INSIDE, False)], ids=SIDES)
def test_matched_invert_decode_needs_a_pin_within_the_tolerance(multiple, raised):
    fam = explicit_single_bit_family()
    post = np.array([0.0, 0.0, 1.0 - multiple * TOL, multiple * TOL])
    decode = functools.partial(_decode, invert_basis(fam, 1), fam, 0, 1, post, None)  # guess 1, announced 1
    if raised:
        with pytest.raises(BoundViolation, match="pin"):
            decode()
    else:
        assert decode() == {"kind": "config", "value": 2, "items": [1, 0]}


@pytest.mark.parametrize("nudge, raised", [(1e-10, True), (0.5e-12, False)], ids=SIDES)
def test_a_normalizer_that_moves_with_the_encoding_is_a_bound_violation(nudge, raised):
    # projector j sums row j of |E_i|^2: 1 for E_0 = I and 1 + nudge for E_1
    encoders = [np.eye(4), np.eye(4) * math.sqrt(1.0 + nudge)]
    if raised:
        with pytest.raises(BoundViolation, match="normalizer"):
            povm_gain_account(projectors(4), encoders)
    else:
        assert povm_gain_account(projectors(4), encoders)["gain_worst"] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("scale, raised", [(1e-8, True), (1e-7, False)], ids=["below", "above"])
def test_an_operator_without_weight_is_refused(scale, raised):
    # Tr(R^dag R) = 4 scale^2: 4e-16 is below the degeneracy guard, 4e-14 is not
    ops = np.stack([np.eye(4) * scale, np.eye(4) * math.sqrt(1.0 - scale**2)])
    encoders = [np.eye(4), np.eye(4)]
    if raised:
        with pytest.raises(ValueError, match="degenerate operator"):
            povm_gain_account(Povm(dim=4, operators=ops), encoders)
    else:
        assert povm_gain_account(Povm(dim=4, operators=ops), encoders)["gain_worst"] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# support


@pytest.mark.parametrize("multiple, decoded", [(PAST, {"kind": "none"}), (INSIDE, {"kind": "parity", "value": 0})],
                         ids=SIDES)
def test_parity_decode_counts_support_above_the_threshold(multiple, decoded):
    # configurations 0 and 3 have even parity, 1 odd
    post = np.array([0.5, multiple * EPS, 0.0, 0.5])
    assert _decode(parity_basis(), explicit_single_bit_family(), 0, 0, post, None) == decoded


@pytest.mark.parametrize("multiple, counted", [(PAST, 32), (INSIDE, 0)], ids=SIDES)
def test_completeness_counts_support_above_the_threshold(multiple, counted, monkeypatch):
    # half of the 16 entries of each of the 4 (choice, encoding) tables decode to the wrong item
    real = cli.outcome_probs
    monkeypatch.setattr(cli, "outcome_probs", lambda mat, family, i: real(mat, family, i) + multiple * EPS)
    assert cli._completeness_violations(explicit_single_bit_family()) == counted


def demo_output(capsys) -> str:
    assert cli.main(["demo", "--db", "01", "--choice", "0", "--seed", "7"]) == cli.EXIT_OK
    return capsys.readouterr().out


@pytest.mark.parametrize("name", ["vendor_encode", "outcome_distribution"])
def test_demo_lists_entries_above_the_support_threshold(name, capsys, monkeypatch):
    plain = demo_output(capsys)
    real = getattr(protocol, name)
    for multiple, listed in ((PAST, True), (INSIDE, False)):
        # every entry the demo leaves out becomes `multiple` SUPPORT_EPS
        def lifted(*args, _lift=multiple * EPS):
            values = real(*args)
            return np.where(np.abs(values) <= EPS, _lift, values)

        monkeypatch.setattr(protocol, name, lifted)
        assert (demo_output(capsys) != plain) == listed


@pytest.mark.parametrize("multiple, text", [(PAST, "(+0.5000+0.0000i)"), (INSIDE, "+0.5000")], ids=SIDES)
def test_amplitudes_show_an_imaginary_part_above_the_threshold(multiple, text):
    assert cli._amplitude(complex(0.5, multiple * EPS)) == text
