"""XOR share splitting and GF(2^m) affine masking."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliq import gf2, hardening, protocol
from obliq.encodings import MAX_TRIALS, EncodingFamily, explicit_single_bit_family, random_family, walsh_family
from obliq.hardening import (
    GfMask,
    XorShares,
    bit_targeting_audit,
    masked_session,
    xor_guess_attack,
    xor_reconstruct,
    xor_split,
)
from obliq.protocol import DatabaseState, honest_basis, invert_basis, run_session
from obliq.qmath import BoundViolation, SeededRng


class _NoDraws:
    """An rng stand-in that fails the test on first use: a refusal must come before any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"the Monte Carlo read rng.{name} before refusing")


def _slow_gf_mul(a: int, b: int, modulus: int) -> int:
    """Independent oracle: schoolbook polynomial product, then long division."""
    prod = 0
    for bit in range(b.bit_length()):
        if (b >> bit) & 1:
            prod ^= a << bit
    deg_mod = modulus.bit_length() - 1
    while prod.bit_length() - 1 >= deg_mod:
        prod ^= modulus << (prod.bit_length() - 1 - deg_mod)
    return prod


def _euclid_inverse(a: int, modulus: int) -> int:
    """Independent oracle: extended Euclid over GF(2)[x]."""

    def divmod_poly(num, den):
        q = 0
        dd = den.bit_length() - 1
        while num.bit_length() - 1 >= dd and num:
            shift = num.bit_length() - 1 - dd
            q ^= 1 << shift
            num ^= den << shift
        return q, num

    r0, r1 = modulus, a
    s0, s1 = 0, 1
    while r1 not in (0, 1):
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _slow_gf_mul(q, s1, 1 << 63)
    if r1 == 0:
        raise ZeroDivisionError
    return _slow_gf_mul(1, s1, modulus) if s1.bit_length() - 1 >= modulus.bit_length() - 1 else s1


def _order_of_x(modulus: int) -> int:
    """Independent oracle: the multiplicative order of x modulo a degree >= 2 polynomial."""
    m = modulus.bit_length() - 1
    v, order = 2, 1
    while v != 1:
        v <<= 1
        if v >> m:
            v ^= modulus
        order += 1
    return order


class TestModuli:
    def test_table_certified_irreducible(self):
        # x of order 2^m - 1 makes the modulus primitive, hence irreducible;
        # GF(2) keeps x itself, whose unit group {1} needs no generator
        assert gf2.modulus(1) == 0b10
        for m in range(2, gf2.MAX_DEGREE + 1):
            mod = gf2.modulus(m)
            assert mod.bit_length() - 1 == m
            assert _order_of_x(mod) == (1 << m) - 1
        # the oracle sees through an irreducible modulus that is not primitive
        assert _order_of_x(0x11B) == 51

    def test_known_small_moduli(self):
        # up to m = 7 the least primitive modulus is also the least irreducible
        # one, so every mask the CLI can draw (m <= 6) keeps its field
        least_irreducible = [0b10, 0b111, 0b1011, 0b10011, 0b100101, 0b1000011, 0b10000011]
        assert [gf2.modulus(m) for m in range(1, 8)] == least_irreducible

    def test_primitive_moduli(self):
        expected = [0b10, 0b111, 0b1011, 0b10011, 0b100101, 0b1000011, 0b10000011, 0x11D, 0x211, 0x409]
        assert [gf2.modulus(m) for m in range(1, 11)] == expected

    @pytest.mark.parametrize("m", [0, -1, gf2.MAX_DEGREE + 1])
    def test_degree_outside_the_table_refused(self, m):
        with pytest.raises(ValueError, match="outside supported range"):
            gf2.modulus(m)
        with pytest.raises(ValueError, match="outside supported range"):
            GfMask(m, 1, 0)


class TestGfArithmetic:
    def test_m3_worked_product(self):
        # x * (x^2 + x) = x^3 + x^2 = (x + 1) + x^2 = 0b111 mod x^3+x+1
        mask = GfMask(3, 0b010, 0)
        assert mask.apply(0b110) == 0b111
        assert _slow_gf_mul(0b010, 0b110, 0b1011) == 0b111

    def test_mul_matches_slow_oracle(self):
        for m in (2, 3, 4, 5, 8):
            mod = gf2.modulus(m)
            rng = SeededRng(m)
            for _ in range(200):
                a = int(rng.gen.integers(1 << m))
                b = int(rng.gen.integers(1 << m))
                assert gf2.mul(a, b, m) == _slow_gf_mul(a, b, mod)

    def test_field_axioms_exhaustive_small(self):
        for m in (1, 2, 3, 4):
            q = 1 << m
            for a in range(q):
                for b in range(q):
                    assert gf2.mul(a, b, m) == gf2.mul(b, a, m)
                    for c in range(0, q, max(1, q // 4)):
                        left = gf2.mul(a, b ^ c, m)
                        right = gf2.mul(a, b, m) ^ gf2.mul(a, c, m)
                        assert left == right

    def test_every_nonzero_invertible(self):
        for m in range(1, 9):
            vals = np.arange(1, 1 << m)
            inv = gf2.inverse(vals, m)
            prods = gf2.mul(vals, inv, m)
            assert np.all(prods == 1)

    def test_inverse_matches_euclid_oracle(self):
        m = 3
        mod = gf2.modulus(m)
        for a in range(1, 8):
            e = _euclid_inverse(a, mod)
            assert _slow_gf_mul(a, e, mod) == 1
            assert gf2.inverse(a, m) == e


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_table_lookups_match_the_oracle(self, data):
        m = data.draw(st.integers(1, gf2.MAX_DEGREE))
        a = data.draw(st.integers(0, (1 << m) - 1))
        b = data.draw(st.integers(0, (1 << m) - 1))
        product = gf2.mul(a, b, m)
        assert type(product) is int and product == _slow_gf_mul(a, b, gf2.modulus(m))
        if a:
            assert gf2.mul(a, gf2.inverse(a, m), m) == 1


class TestMask:
    def test_m1_forces_xor(self):
        with pytest.raises(ValueError):
            GfMask(1, 0, 1)  # a must be nonzero, so a = 1 is the only choice
        mask = GfMask(1, 1, 1)
        assert mask.apply(0) == 1
        assert mask.apply(1) == 0

    def test_roundtrip_exhaustive(self):
        for m in range(1, 9):
            q = 1 << m
            a_vals = np.arange(1, q)
            b_vals = np.arange(q)
            d_vals = np.arange(q)
            aa, bb, dd = np.meshgrid(a_vals, b_vals, d_vals, indexing="ij")
            masked = np.asarray(gf2.mul(aa, dd, m)) ^ bb
            inv = np.asarray(gf2.inverse(a_vals, m))
            unmasked = np.asarray(gf2.mul(inv[:, None, None], masked ^ bb, m))
            assert np.array_equal(unmasked, np.broadcast_to(dd, unmasked.shape))

    def test_identity_mask(self):
        mask = GfMask(4, 1, 0)
        for d in range(16):
            assert mask.apply(d) == d
            assert mask.unmask(d) == d

    def test_bijection_small(self):
        for m in (2, 3):
            for a in range(1, 1 << m):
                for b in range(1 << m):
                    mask = GfMask(m, a, b)
                    image = {mask.apply(d) for d in range(1 << m)}
                    assert len(image) == 1 << m


class TestXorShares:
    def test_single_round_verbatim(self):
        shares = xor_split(0b101, 0b010, 1, 3, SeededRng(1))
        assert shares.pairs == ((0b101, 0b010),)

    def test_reconstruction_invariant(self):
        rng = SeededRng(2)
        shares = xor_split(0b1010, 0b0110, 3, 4, rng)
        assert xor_reconstruct(shares) == (0b1010, 0b0110)

    def test_roundtrip_exhaustive_small(self):
        root = SeededRng(3)
        for m in (1, 2, 3, 4):
            for r in (1, 2, 3):
                for d0 in range(1 << m):
                    for d1 in range(0, 1 << m, max(1, (1 << m) // 4)):
                        shares = xor_split(d0, d1, r, m, root.derive(d0 * 64 + d1))
                        assert xor_reconstruct(shares) == (d0, d1)

    def test_randomized_large(self):
        root = SeededRng(4)
        for t in range(50):
            gen = root.derive(t).gen
            m, r = int(gen.integers(1, 9)), int(gen.integers(1, 9))
            d0, d1 = int(gen.integers(1 << m)), int(gen.integers(1 << m))
            shares = xor_split(d0, d1, r, m, root.derive(1000 + t))
            assert xor_reconstruct(shares) == (d0, d1)

    def test_corrupted_share_breaks_reconstruction(self):
        m, trials = 4, 2000
        root = SeededRng(5)
        mismatches = 0
        for t in range(trials):
            gen = root.derive(t).gen
            d0, d1 = int(gen.integers(16)), int(gen.integers(16))
            shares = xor_split(d0, d1, 3, m, root.derive(5000 + t))
            pairs = list(shares.pairs)
            pairs[1] = (int(gen.integers(16)), int(gen.integers(16)))
            got = xor_reconstruct(XorShares(3, m, tuple(pairs)))
            mismatches += got != (d0, d1)
        expected = 1 - 2 ** (-2 * m)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(mismatches / trials - expected) < 4 * sigma

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            xor_split(0, 0, 0, 2, SeededRng(1))


ATTACK_FAMILIES = [explicit_single_bit_family(), walsh_family(2), random_family(2, 2, SeededRng(3))]


def _reference_attack(family, db, r, trials, rng):
    """The attack as it was written with one share object per trial, built on public names."""
    m = family.m
    bases = [invert_basis(family, g) for g in range(2)]
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
        else:
            assert xor_reconstruct(XorShares(r, m, tuple(recovered))) == db.items
            successes += 1
    freq, expected = successes / trials, 2.0 ** (-r)
    sigma = float(np.sqrt(expected * (1 - expected) / trials))
    return {
        "r": r,
        "trials": trials,
        "frequency": freq,
        "expected": expected,
        "sigma": sigma,
        "within_3_sigma": bool(abs(freq - expected) <= 3 * sigma),
    }


class TestTrialDraws:
    @pytest.mark.parametrize("seed, stream", [(s, t) for s in (0, 9, 2**63 + 11) for t in (0, 5, 2**64 - 1)])
    def test_word_decode_is_the_generators_draw_order(self, seed, stream):
        # the attack reads its draws from raw Philox words; each must be the value the
        # trial's Generator draws: the shares, then per round i, guess and the outcome uniform
        rng, trials = SeededRng(seed, stream), 6
        for m in range(1, 7):
            for r in range(1, 6):
                shares, rounds, uniforms = hardening._trial_draws(rng.child_words(range(trials), 3 * r - 1), r, m)
                for t in range(trials):
                    gen = rng.derive(t).gen
                    drawn = [[int(gen.integers(1 << m)), int(gen.integers(1 << m))] for _ in range(r - 1)]
                    drawn_rounds, drawn_u = [], []
                    for _ in range(r):
                        drawn_rounds.append([int(gen.integers(2)), int(gen.integers(2))])
                        drawn_u.append(gen.random())
                    got = (shares[t].tolist(), rounds[t].tolist(), uniforms[t].tolist())
                    assert got == (drawn, drawn_rounds, drawn_u), (
                        f"numpy {np.__version__}: Philox word decode differs from Generator draws "
                        f"at m={m}, r={r}, trial {t}"
                    )


def _spy_slots(monkeypatch, fam, wrap):
    """Route `fam.encode_slots(i, d)` through `wrap(slots, i, d)`, `slots` being its real bound method.

    A family is frozen, so the spy goes on the class and every other family keeps the real method.
    """
    real = EncodingFamily.encode_slots
    monkeypatch.setattr(
        EncodingFamily,
        "encode_slots",
        lambda self, i, d: wrap(functools.partial(real, self), i, d) if self is fam else real(self, i, d),
    )


class TestGuessAttack:
    def test_rate_tracks_two_to_minus_r(self):
        fam = walsh_family(2)
        db = DatabaseState(2, 2, (2, 1))
        for r in (1, 2):
            rep = xor_guess_attack(fam, db, r, 2000, SeededRng(100 + r))
            assert rep["within_3_sigma"], rep

    def test_seeded_frequencies(self):
        # pinned figures: each trial draws its shares, then per round the
        # encoding, the guess and the outcome, all from one stream
        fam, db = explicit_single_bit_family(), DatabaseState(2, 1, (1, 0))
        for r, freq in ((1, 0.49833333333333335), (2, 0.25866666666666666), (3, 0.13)):
            assert xor_guess_attack(fam, db, r, 3000, SeededRng(1000 + r))["frequency"] == freq
        rep = xor_guess_attack(walsh_family(2), DatabaseState(2, 2, (2, 1)), 2, 2000, SeededRng(102))
        assert rep["frequency"] == 0.243

    def test_each_round_law_and_decode_computed_once(self, monkeypatch):
        # one encode per distinct (announced i, share pair), one posterior per
        # distinct (i, outcome), however many trials reach them
        fam = walsh_family(2)
        post = protocol.posterior
        encodes, decodes = [], []
        _spy_slots(monkeypatch, fam, lambda slots, i, d: encodes.append((i, d)) or slots(i, d))
        monkeypatch.setattr(
            protocol, "posterior", lambda basis, f, i, j: decodes.append((i, j)) or post(basis, f, i, j)
        )
        rep = xor_guess_attack(fam, DatabaseState(2, 2, (2, 1)), 3, 400, SeededRng(11))
        assert rep["frequency"] > 0
        assert encodes and len(encodes) == len(set(encodes))
        assert decodes and len(decodes) == len(set(decodes))
        assert len(encodes) <= 2 * 16 and len(decodes) <= 2 * 16

    def test_trials_read_in_blocks_match_the_reference(self, monkeypatch):
        # r = 5 reads 14 words a trial, so 9500 trials take three blocks of at most 2^16 words;
        # laws and decodes are still made once per call, not once per block
        fam, db = explicit_single_bit_family(), DatabaseState(2, 1, (1, 0))
        words, encodes = SeededRng.child_words, []
        blocks = []
        monkeypatch.setattr(SeededRng, "child_words", lambda self, c, w: blocks.append((c, w)) or words(self, c, w))
        _spy_slots(monkeypatch, fam, lambda slots, i, d: encodes.append((i, d)) or slots(i, d))
        rep = xor_guess_attack(fam, db, 5, 9500, SeededRng(4, 8))
        assert [(c.start, c.stop) for c, _ in blocks] == [(0, 4681), (4681, 9362), (9362, 9500)]
        assert all(len(c) * w <= 1 << 16 for c, w in blocks)
        assert encodes and len(encodes) == len(set(encodes))
        monkeypatch.undo()
        assert rep == _reference_attack(fam, db, 5, 9500, SeededRng(4, 8))

    def test_failed_reconstruction_is_a_bound_violation(self, monkeypatch):
        fam = walsh_family(2)
        # corrupt: the vendor sends the state of a neighbouring configuration
        _spy_slots(monkeypatch, fam, lambda slots, i, d: slots(i, d ^ 1))
        with pytest.raises(BoundViolation, match="reconstruct"):
            xor_guess_attack(fam, DatabaseState(2, 2, (2, 1)), 1, 40, SeededRng(7))

    def test_one_failed_reconstruction_among_sound_ones_is_a_bound_violation(self, monkeypatch):
        fam = walsh_family(2)
        # corrupt only the states sent under encoding 0; trials announced 1 still reconstruct
        _spy_slots(monkeypatch, fam, lambda slots, i, d: slots(i, d ^ 1 if i == 0 else d))
        with pytest.raises(BoundViolation, match="reconstruct"):
            xor_guess_attack(fam, DatabaseState(2, 2, (2, 1)), 1, 40, SeededRng(7))


    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_refused(self, trials):
        with pytest.raises(ValueError, match="trials >= 1"):
            xor_guess_attack(explicit_single_bit_family(), DatabaseState(2, 1, (1, 0)), 1, trials, SeededRng(3))

    def test_trials_above_the_cap_refused_before_any_draw(self):
        with pytest.raises(ValueError, match=f"trials >= 1 and <= {MAX_TRIALS}, got {MAX_TRIALS + 1}"):
            xor_guess_attack(explicit_single_bit_family(), DatabaseState(2, 1, (1, 0)), 1, MAX_TRIALS + 1, _NoDraws())

    @pytest.mark.parametrize(
        "family, db",
        [
            (walsh_family(2), DatabaseState(2, 1, (1, 0))),
            (explicit_single_bit_family(), DatabaseState(2, 2, (3, 1))),
        ],
        ids=["m2-family-m1-db", "m1-family-m2-db"],
    )
    def test_database_of_another_m_refused_before_any_draw(self, family, db):
        with pytest.raises(ValueError, match=f"database has m = {db.m}, the family m = {family.m}"):
            xor_guess_attack(family, db, 2, 10, _NoDraws())

    def test_zero_rounds_refused_before_any_draw(self):
        with pytest.raises(ValueError, match="r >= 1"):
            xor_guess_attack(walsh_family(2), DatabaseState(2, 2, (2, 1)), 0, 10, _NoDraws())

    @pytest.mark.parametrize("family", ATTACK_FAMILIES, ids=["explicit", "walsh2", "random2"])
    def test_matches_the_share_object_reference(self, family):
        # 3 item pairs x 4 r x 3 seeds x 3 streams per family, 324 cases over the three
        top = (1 << family.m) - 1
        for items in ((0, 1), (1, 1), (top, 0)):
            db = DatabaseState(2, family.m, items)
            for r in range(1, 5):
                for seed in (0, 9, 2**63 + 11):
                    for stream in (0, 5, 2**64 - 1):
                        ref = _reference_attack(family, db, r, 400, SeededRng(seed, stream))
                        assert xor_guess_attack(family, db, r, 400, SeededRng(seed, stream)) == ref

    def test_builds_no_share_object_and_splits_through_one_helper(self, monkeypatch):
        built, splits = [], []
        post_init, share_pairs = XorShares.__post_init__, hardening._share_pairs
        monkeypatch.setattr(XorShares, "__post_init__", lambda self: built.append(self.r) or post_init(self))
        monkeypatch.setattr(
            hardening, "_share_pairs", lambda items, shares: splits.append(shares.shape[-2] + 1) or share_pairs(items, shares)
        )
        xor_split(2, 1, 3, 2, SeededRng(1))
        assert built == [3] and splits == [3]  # the spies see xor_split
        # the attack closes every winning trial's shares in one call of the same helper
        xor_guess_attack(walsh_family(2), DatabaseState(2, 2, (2, 1)), 3, 50, SeededRng(11))
        assert built == [3] and splits == [3, 3]


class TestMaskedSession:
    def test_honest_decode_exhaustive_m2(self):
        fam = walsh_family(2)
        for a in range(1, 4):
            for b in range(4):
                mask = GfMask(2, a, b)
                for d0 in range(4):
                    for d1 in range(4):
                        db = DatabaseState(2, 2, (d0, d1))
                        for j in range(2):
                            tr = masked_session(
                                db, fam, mask, honest_basis(fam, j), SeededRng(d0 * 16 + d1)
                            )
                            assert tr.decoded["value"] == db.items[j]

    def test_identity_mask_matches_plain_session(self):
        fam = explicit_single_bit_family()
        db = DatabaseState(2, 1, (1, 0))
        mask = GfMask(1, 1, 0)
        plain = run_session(db, fam, honest_basis(fam, 0), SeededRng(9, 1))
        masked = masked_session(db, fam, mask, honest_basis(fam, 0), SeededRng(9, 1))
        d_plain, d_masked = plain.to_dict(), masked.to_dict()
        ann_plain = d_plain["events"][2]
        ann_masked = d_masked["events"][2]
        assert ann_masked.pop("mask") == mask.payload()
        assert ann_plain == ann_masked
        d_plain["events"][2] = None
        d_masked["events"][2] = None
        assert d_plain == d_masked

    def test_requires_k2(self):
        from obliq.encodings import mub_family

        fam = mub_family(3, 1)
        with pytest.raises(ValueError):
            masked_session(
                DatabaseState(3, 1, (0, 0, 0)), fam, GfMask(1, 1, 0),
                honest_basis(fam, 0), SeededRng(1),
            )


class TestBitTargetingAudit:
    def test_m4_entropy_floor(self):
        rep = bit_targeting_audit(4, 400, SeededRng(31))
        assert rep["min_bit_entropy"] >= 0.9 and rep["threshold"] == 0.9
        assert rep["passed"]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_refused(self, trials):
        with pytest.raises(ValueError, match="trials >= 1"):
            bit_targeting_audit(3, trials, SeededRng(4))

    def test_trials_above_the_cap_refused_before_any_draw(self):
        with pytest.raises(ValueError, match=f"trials >= 1 and <= {MAX_TRIALS}, got {MAX_TRIALS + 1}"):
            bit_targeting_audit(3, MAX_TRIALS + 1, _NoDraws())
