"""Constructions and certification of item-basis and encoding families.

An item-basis family is a list of k unitary 2^m x 2^m matrices A_0..A_{k-1},
one measurement/encoding basis per database item.  An encoding family lifts
it to the joint configuration space: C_i is the cyclically rotated Kronecker
chain starting at A_i, and the encoder E_i = C_i P_i first rotates the item
blocks of the configuration index and then applies C_i.

Every constructor certifies its family numerically before returning it; an
uncertified family cannot exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2, qmath
from .qmath import DEFAULT_TOL, SeededRng

_SQRT2_INV = 1.0 / np.sqrt(2.0)

# The two single-qubit bases of the two-item, one-bit-per-item scheme,
# plus the sign convention used for Walsh tensor powers.
ALPHA_1 = _SQRT2_INV * np.array([[1, 1], [1, -1]], dtype=complex)
ALPHA_2 = _SQRT2_INV * np.array([[1, 1], [-1j, 1j]], dtype=complex)
W2 = _SQRT2_INV * np.array([[1, 1], [-1, 1]], dtype=complex)

# Order-3 qubit root: cube is the identity, first two powers are flat.
CYCLIC_QUBIT = np.exp(1j * np.pi / 12) * ALPHA_2

VALID_KINDS = ("walsh", "mub", "cyclic", "random", "tensorized", "explicit")

# Desk-scale limits.  Every command stays within k*m <= MAX_KM, so the joint
# space never exceeds MAX_DENSE_DIM; dense encoders are certified at build up
# to CERTIFY_DIM and cached up to CACHE_DIM.
MAX_KM = 12
MAX_DENSE_DIM = 1 << MAX_KM
CERTIFY_DIM = 256
CACHE_DIM = 1024


def check_desk_cell(k: int, m: int) -> None:
    """ValueError unless k >= 2, m >= 1 and k*m <= MAX_KM."""
    if k < 2 or m < 1 or k * m > MAX_KM:
        raise ValueError(f"cell (k={k}, m={m}) is off the desk-scale cap k>=2, m>=1, km<={MAX_KM}")


class CertificationError(RuntimeError):
    """A constructed family failed its numerical certification."""


def tensor_power(mat: np.ndarray, count: int) -> np.ndarray:
    if count < 1:
        raise ValueError("tensor power needs count >= 1")
    out = np.asarray(mat, dtype=complex)
    for _ in range(count - 1):
        out = np.kron(out, mat)
    return out


def walsh_matrix(m: int) -> np.ndarray:
    """m-fold tensor power of W2 (a 2^m x 2^m real Hadamard matrix)."""
    if m < 1:
        raise ValueError("walsh_matrix needs m >= 1")
    return tensor_power(W2, m)


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class ItemBasisFamily:
    """k unitary 2^m x 2^m item bases with provenance metadata.

    `max_pairwise_overlap` records max_{i != j} Linf(A_i^dag A_j), filled in
    for random and tensorized families.
    """

    k: int
    m: int
    matrices: tuple
    kind: str
    seed: tuple | None = None
    tensor_block: int | None = None
    max_pairwise_overlap: float | None = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.k != len(self.matrices):
            raise ValueError("k does not match the number of matrices")
        ell = 1 << self.m
        mats = []
        for idx, a in enumerate(self.matrices):
            a = qmath.as_operator(a)
            if a.shape != (ell, ell):
                raise ValueError(f"matrix {idx} has shape {a.shape}, expected {(ell, ell)}")
            if not qmath.is_unitary(a, DEFAULT_TOL):
                raise CertificationError(f"matrix {idx} of {self.kind} family is not unitary")
            a = a.copy()
            a.setflags(write=False)
            mats.append(a)
        object.__setattr__(self, "matrices", tuple(mats))
        self._certify_kind()

    def _certify_kind(self):
        if self.kind == "mub":
            if not self.pairwise_hadamard:
                raise CertificationError("mub family: some A_i^dag A_j is not flat")
        elif self.kind == "cyclic":
            a1 = self.matrices[1]
            for i in range(self.k):
                expected = np.linalg.matrix_power(a1, i)
                if np.abs(self.matrices[i] - expected).max() > DEFAULT_TOL:
                    raise CertificationError(f"cyclic family: A_{i} != A_1^{i}")
            if np.abs(np.linalg.matrix_power(a1, self.k) - np.eye(1 << self.m)).max() > DEFAULT_TOL:
                raise CertificationError("cyclic family: A_1^k != I")

    @property
    def pairwise_hadamard(self) -> bool:
        """True iff every cross product A_i^dag A_j (i != j) is flat."""
        for i in range(self.k):
            for j in range(self.k):
                if i != j and not qmath.is_hadamard(
                    self.matrices[i].conj().T @ self.matrices[j], DEFAULT_TOL
                ):
                    return False
        return True


@dataclass
class EncodingFamily:
    """Joint-space encoders E_i = C_i P_i derived from an item-basis family.

    Dense encoders are materialized on demand; every state-level operation
    also has a Kronecker-structured path so large k*m families stay usable
    for item-level analysis.
    """

    basis: ItemBasisFamily
    pairwise_hadamard: bool = field(init=False)
    _dense_cache: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        self.pairwise_hadamard = self.basis.pairwise_hadamard
        if self.n <= CERTIFY_DIM:
            for i in range(self.k):
                if not qmath.is_unitary(self.encoder(i), DEFAULT_TOL):
                    raise CertificationError(f"encoder E_{i} failed unitarity")

    @property
    def k(self) -> int:
        return self.basis.k

    @property
    def m(self) -> int:
        return self.basis.m

    @property
    def n(self) -> int:
        return 1 << (self.k * self.m)

    @property
    def kind(self) -> str:
        return self.basis.kind

    def factors(self, i: int) -> tuple:
        """Kronecker factors of C_i (the rotated chain starting at A_i)."""
        if not 0 <= i < self.k:
            raise ValueError(f"encoding index {i} out of range")
        mats = self.basis.matrices
        return tuple(mats[(i + r) % self.k] for r in range(self.k))

    def _check_dense(self):
        if self.n > MAX_DENSE_DIM:
            raise ValueError(
                f"dimension {self.n} exceeds the dense-operation cap {MAX_DENSE_DIM}"
            )

    def encoder(self, i: int) -> np.ndarray:
        """Dense E_i = C_i P_i (columns of C_i gathered by the block rotation)."""
        self._check_dense()
        if i in self._dense_cache:
            return self._dense_cache[i]
        c = qmath.kron_chain(self.factors(i))
        e = c[:, qmath.rotation_index_map(self.k, self.m, i)]
        if self.n <= CACHE_DIM:
            e.setflags(write=False)
            self._dense_cache[i] = e
        return e

    def encode_column(self, i: int, d: int) -> np.ndarray:
        """Column d of E_i as a state vector, built from factor columns."""
        self._check_dense()
        if not 0 <= d < self.n:
            raise ValueError(f"configuration index {d} out of range")
        rot = int(qmath.rotation_index_map(self.k, self.m, i)[d])
        return qmath.kron_row([f.T for f in self.factors(i)], rot)

    def vec_times_encoder(self, vec: np.ndarray, i: int) -> np.ndarray:
        """Row-vector product vec @ E_i via the Kronecker structure."""
        self._check_dense()
        w = qmath.kron_apply([f.T for f in self.factors(i)], vec)
        return w[qmath.rotation_index_map(self.k, self.m, i)]

    def descriptor(self) -> dict:
        """JSON-serializable family descriptor for transcript embedding."""
        desc = {"kind": self.kind, "k": self.k, "m": self.m}
        if self.basis.seed is not None:
            desc["seed"] = list(self.basis.seed)
        if self.basis.tensor_block is not None:
            desc["r"] = self.basis.tensor_block
        if self.kind in ("explicit", "random"):
            desc["matrices"] = [
                [[[float(z.real), float(z.imag)] for z in row] for row in a]
                for a in self.basis.matrices
            ]
        return desc


def build_family(basis: ItemBasisFamily) -> EncodingFamily:
    """Lift an item-basis family to joint-space encoders E_i = C_i P_i."""
    return EncodingFamily(basis)


# ---------------------------------------------------------------------------
# the concrete constructions


def explicit_single_bit_family() -> EncodingFamily:
    """The two 4x4 encoders of the two-item, one-bit-per-item scheme."""
    basis = ItemBasisFamily(
        k=2, m=1, matrices=(np.eye(2, dtype=complex), ALPHA_1), kind="explicit"
    )
    return build_family(basis)


def walsh_family(m: int) -> EncodingFamily:
    """k=2 family with A_0 = I and A_1 the m-fold Walsh tensor power."""
    if m < 1:
        raise ValueError("walsh_family needs m >= 1")
    basis = ItemBasisFamily(
        k=2, m=m, matrices=(np.eye(1 << m, dtype=complex), walsh_matrix(m)), kind="walsh"
    )
    fam = build_family(basis)
    if not fam.pairwise_hadamard:
        raise CertificationError("walsh family failed the flatness certification")
    return fam


def cyclic_family(k: int, m: int) -> ItemBasisFamily:
    """Powers {I, A, A^2} of one order-3 unitary; only k=3 is constructible."""
    if k != 3:
        raise ValueError("cyclic families are only known for k = 3")
    if m < 1:
        raise ValueError("cyclic_family needs m >= 1")
    a = tensor_power(CYCLIC_QUBIT, m)
    mats = (np.eye(1 << m, dtype=complex), a, a @ a)
    fam = ItemBasisFamily(k=3, m=m, matrices=mats, kind="cyclic")
    for i in (1, 2):
        if not qmath.is_hadamard(mats[i], DEFAULT_TOL):
            raise CertificationError(f"cyclic family: A^{i} is not flat")
    return fam


def random_family(k: int, m: int, rng: SeededRng) -> ItemBasisFamily:
    """k independent Haar unitaries; records the worst pairwise overlap."""
    if k < 2:
        raise ValueError("random_family needs k >= 2")
    if m < 1:
        raise ValueError("random_family needs m >= 1")
    mats = tuple(qmath.haar_unitaries(1 << m, k, rng))
    overlap = max(
        qmath.linf_overlap(mats[i].conj().T, mats[j])
        for i in range(k)
        for j in range(k)
        if i != j
    )
    return ItemBasisFamily(
        k=k,
        m=m,
        matrices=mats,
        kind="random",
        seed=(rng.seed, rng.stream),
        max_pairwise_overlap=overlap,
    )


def tensorized_family(k: int, m: int, r: int, rng: SeededRng) -> ItemBasisFamily:
    """A_i = tensor power of a small Haar block B_i of dimension r.

    r must be a power of two and log2(r) must divide m; each A_i is the
    (m / log2 r)-fold tensor power of its block, so encoding and measurement
    factor into r-dimensional operations.
    """
    if r < 2 or r & (r - 1):
        raise ValueError("tensor block size r must be a power of 2, r >= 2")
    log_r = r.bit_length() - 1
    if m % log_r:
        raise ValueError(f"log2(r)={log_r} does not divide m={m}")
    if k < 2:
        raise ValueError("tensorized_family needs k >= 2")
    blocks = qmath.haar_unitaries(r, k, rng)
    mats = tuple(tensor_power(b, m // log_r) for b in blocks)
    overlap = max(
        qmath.linf_overlap(mats[i].conj().T, mats[j])
        for i in range(k)
        for j in range(k)
        if i != j
    )
    return ItemBasisFamily(
        k=k,
        m=m,
        matrices=mats,
        kind="tensorized",
        seed=(rng.seed, rng.stream),
        tensor_block=r,
        max_pairwise_overlap=overlap,
    )


# ---------------------------------------------------------------------------
# mutually unbiased families
#
# For k <= 3 the family is the tensor power of the qubit triple
# {I, ALPHA_1, ALPHA_2}.  For larger k the bases come from the Galois-ring
# GR(4, m) phase construction: each basis is a diagonal matrix of fourth
# roots of unity times the (field-structured) Walsh-Hadamard transform, and
# the full set of 2^m + 1 bases is pairwise unbiased.


def _hensel_lift(h: int, m: int) -> tuple:
    """Lift an irreducible GF(2) polynomial to Z4 via one Graeffe step.

    Returns monic coefficients (c_0..c_m) mod 4 of f with f == h (mod 2) and
    every root a (2^m - 1)-th root of unity.
    """
    coeffs = [(h >> i) & 1 for i in range(m + 1)]
    even = [c if i % 2 == 0 else 0 for i, c in enumerate(coeffs)]
    odd = [c if i % 2 == 1 else 0 for i, c in enumerate(coeffs)]

    def _square(p):
        out = [0] * (2 * len(p) - 1)
        for i, pi in enumerate(p):
            for j, pj in enumerate(p):
                out[i + j] += pi * pj
        return out

    esq, osq = _square(even), _square(odd)
    size = max(len(esq), len(osq))
    diff = [(esq[i] if i < len(esq) else 0) - (osq[i] if i < len(osq) else 0) for i in range(size)]
    # even polynomial in x; read off coefficients of x^(2t)
    lifted = [diff[2 * t] % 4 for t in range(m + 1)]
    if lifted[m] == 3:
        lifted = [(-c) % 4 for c in lifted]
    if lifted[m] != 1:
        raise CertificationError("Galois-ring lift is not monic")
    return tuple(lifted)


def _ring_mul(a: tuple, b: tuple, f: tuple, m: int) -> tuple:
    """Product in Z4[x]/(f), coefficients mod 4."""
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % 4
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        if c:
            for t in range(m + 1):
                prod[d - m + t] = (prod[d - m + t] - c * f[t]) % 4
    return tuple(prod[:m])


class _GaloisRing:
    """GR(4, m) with its Teichmueller set and trace, for the phase bases."""

    def __init__(self, m: int):
        self.m = m
        self.order = (1 << m) - 1
        h = gf2.primitive_poly(m)
        self.f = _hensel_lift(h, m)
        one = tuple([1] + [0] * (m - 1))
        xi = tuple([0, 1] + [0] * (m - 2)) if m >= 2 else (3 % 4,)
        if m == 1:
            # f = y + 3, so the root is 1 and the Teichmueller group is {1}
            xi = one
        powers = [one]
        for _ in range(self.order - 1):
            powers.append(_ring_mul(powers[-1], xi, self.f, m))
        self.powers = powers
        self._certify(one, xi)
        # trace of xi^e, for every exponent
        self.trace = np.array([self._trace_of_power(e) for e in range(self.order)], dtype=np.int64)
        # index of xi^e in the computational labeling (mod-2 reduction bits)
        self.index_of_power = np.array(
            [self._index(powers[e]) for e in range(self.order)], dtype=np.int64
        )

    def _certify(self, one, xi):
        closing = _ring_mul(self.powers[-1], xi, self.f, self.m)
        if closing != one:
            raise CertificationError("Teichmueller generator does not close its cycle")
        if len(set(self.powers)) != self.order:
            raise CertificationError("Teichmueller powers are not distinct")
        reductions = {self._index(p) for p in self.powers}
        if len(reductions) != self.order or 0 in reductions:
            raise CertificationError("Teichmueller set does not reduce onto the field")

    @staticmethod
    def _index(elt: tuple) -> int:
        return sum((c & 1) << j for j, c in enumerate(elt))

    def _trace_of_power(self, e: int) -> int:
        acc = [0] * self.m
        for j in range(self.m):
            p = self.powers[(e << j) % self.order]
            acc = [(x + y) % 4 for x, y in zip(acc, p)]
        if any(acc[1:]):
            raise CertificationError("ring trace did not land in Z4")
        return acc[0]


def _gr4_phase_bases(m: int) -> list:
    """The 2^m pairwise-unbiased phase bases of GR(4, m), as matrices.

    Basis a (a ranging over the Teichmueller set) has entries
    i^(Tr(ax) + 2 Tr(bx)) / sqrt(2^m) at row index(x), column index(b).
    """
    ring = _GaloisRing(m)
    q = 1 << m
    order = ring.order
    i_pow = np.array([1, 1j, -1, -1j], dtype=complex)
    scale = 1.0 / np.sqrt(q)

    # exponent of each nonzero row/column label, in computational order
    exp_of_index = np.full(q, -1, dtype=np.int64)
    exp_of_index[ring.index_of_power] = np.arange(order)

    nonzero = np.arange(1, q)
    ex = exp_of_index[nonzero]
    # 2 * Tr(b x) term for nonzero x (rows) and nonzero b (columns)
    cross = 2 * ring.trace[(ex[:, None] + ex[None, :]) % order]

    bases = []
    for a_exp in [None] + list(range(order)):  # None encodes a = 0
        phase = np.zeros((q, q), dtype=np.int64)
        phase[np.ix_(nonzero, nonzero)] = cross
        if a_exp is not None:
            phase[nonzero, :] += ring.trace[(ex + a_exp) % order][:, None]
        mat = scale * i_pow[phase % 4]
        bases.append(mat)
    return bases


def mub_family(k: int, m: int) -> ItemBasisFamily:
    """A family of k pairwise-unbiased bases in dimension 2^m.

    Exists for 2 <= k <= 2^m + 1.  For k <= 3 the family is the m-fold
    tensor power of the qubit triple {I, ALPHA_1, ALPHA_2}; beyond that the
    Galois-ring phase construction supplies up to 2^m further bases.  The
    unbiasedness of every pair is certified numerically at build time.
    """
    if k < 2:
        raise ValueError("mub_family needs k >= 2")
    limit = (1 << m) + 1
    if k > limit:
        raise ValueError(f"family size exceeds 2^m+1: k={k} > {limit}")
    identity = np.eye(1 << m, dtype=complex)
    if k <= 3:
        generators = [identity, tensor_power(ALPHA_1, m), tensor_power(ALPHA_2, m)]
        mats = tuple(generators[:k])
    else:
        mats = tuple([identity] + _gr4_phase_bases(m)[: k - 1])
    return ItemBasisFamily(k=k, m=m, matrices=mats, kind="mub")
