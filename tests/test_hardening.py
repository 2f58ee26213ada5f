"""XOR share splitting and GF(2^m) affine masking."""

import numpy as np
import pytest

from obliq import gf2, protocol
from obliq.encodings import explicit_single_bit_family, walsh_family
from obliq.hardening import (
    GfMask,
    XorShares,
    bit_targeting_audit,
    masked_session,
    xor_guess_attack,
    xor_reconstruct,
    xor_split,
)
from obliq.protocol import DatabaseState, honest_basis, run_session
from obliq.qmath import BoundViolation, SeededRng


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


class TestModuli:
    def test_table_certified_irreducible(self):
        for m in range(1, 17):
            mod = gf2.irreducible_poly(m)
            assert gf2.poly_degree(mod) == m
            assert gf2.is_irreducible(mod)

    def test_known_small_moduli(self):
        assert gf2.irreducible_poly(2) == 0b111
        assert gf2.irreducible_poly(3) == 0b1011  # x^3 + x + 1
        assert gf2.irreducible_poly(8) == 0x11B

    def test_primitive_moduli(self):
        # x^8 + x^4 + x^3 + x + 1 (0x11B) is irreducible, but its root has order 51
        expected = [0b10, 0b111, 0b1011, 0b10011, 0b100101, 0b1000011, 0b10000011, 0x11D, 0x211, 0x409]
        assert [gf2.primitive_poly(m) for m in range(1, 11)] == expected
        assert gf2._element_order(2, 0x11B, 8) == 51


class TestGfArithmetic:
    def test_m3_worked_product(self):
        # x * (x^2 + x) = x^3 + x^2 = (x + 1) + x^2 = 0b111 mod x^3+x+1
        mask = GfMask(3, 0b010, 0)
        assert mask.apply(0b110) == 0b111
        assert _slow_gf_mul(0b010, 0b110, 0b1011) == 0b111

    def test_mul_matches_slow_oracle(self):
        for m in (2, 3, 4, 5, 8):
            mod = gf2.irreducible_poly(m)
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
        mod = gf2.irreducible_poly(m)
        for a in range(1, 8):
            e = _euclid_inverse(a, mod)
            assert _slow_gf_mul(a, e, mod) == 1
            assert gf2.inverse(a, m) == e


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
        column, post = fam.encode_column, protocol.posterior
        encodes, decodes = [], []
        monkeypatch.setattr(fam, "encode_column", lambda i, d: encodes.append((i, d)) or column(i, d))
        monkeypatch.setattr(
            protocol, "posterior", lambda basis, f, i, j: decodes.append((i, j)) or post(basis, f, i, j)
        )
        rep = xor_guess_attack(fam, DatabaseState(2, 2, (2, 1)), 3, 400, SeededRng(11))
        assert rep["frequency"] > 0
        assert encodes and len(encodes) == len(set(encodes))
        assert decodes and len(decodes) == len(set(decodes))
        assert len(encodes) <= 2 * 16 and len(decodes) <= 2 * 16

    def test_failed_reconstruction_is_a_bound_violation(self, monkeypatch):
        fam = walsh_family(2)
        column = fam.encode_column
        # corrupt: the vendor sends the state of a neighbouring configuration
        monkeypatch.setattr(fam, "encode_column", lambda i, d: column(i, d ^ 1))
        with pytest.raises(BoundViolation, match="reconstruct"):
            xor_guess_attack(fam, DatabaseState(2, 2, (2, 1)), 1, 40, SeededRng(7))


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
        from obliq.encodings import build_family, mub_family

        fam = build_family(mub_family(3, 1))
        with pytest.raises(ValueError):
            masked_session(
                DatabaseState(3, 1, (0, 0, 0)), fam, GfMask(1, 1, 0),
                honest_basis(fam, 0), SeededRng(1),
            )


class TestBitTargetingAudit:
    def test_m4_entropy_floor(self):
        rep = bit_targeting_audit(4, 400, SeededRng(31))
        assert rep["min_bit_entropy"] >= 0.9
        assert rep["passed"]

    def test_threshold_configurable(self):
        rep = bit_targeting_audit(4, 100, SeededRng(32), threshold=0.5)
        assert rep["threshold"] == 0.5
