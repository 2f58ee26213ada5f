"""Constructions and certification of item-basis and encoding families.

An item-basis family is a list of k unitary 2^m x 2^m matrices A_0..A_{k-1},
one measurement/encoding basis per database item.  An encoding family lifts
it to the joint configuration space: C_i is the cyclically rotated Kronecker
chain starting at A_i, and the encoder E_i = C_i P_i first rotates the item
blocks of the configuration index and then applies C_i.

Every constructor certifies its item bases numerically before returning the
family, so an uncertified family cannot exist; a dense encoder, a Kronecker
product of certified unitaries, is built on each call and not re-certified.
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
# space never exceeds MAX_DENSE_DIM.
MAX_KM = 12
MAX_DENSE_DIM = 1 << MAX_KM
# A share-split session holds every round's transcript until it writes them,
# each with a float64 posterior of up to MAX_DENSE_DIM entries.  At that size
# a round costs about 0.18 MB (the 32 KB array, its JSON text and its part of
# the written document), so `session --r 256` peaks near 84 MB.
MAX_SHARE_ROUNDS = 256
# A sampled audit lists its chunks before the first one runs, and the POVM
# audit runs its trials serially; 10^6 is ten times the largest default
# (entropic's 100,000), so neither the list nor the loop outgrows the desk.
MAX_TRIALS = 10**6
# The leakage search lists its restarts before they run; 1024 is 32 times the
# default, where 10^21 overflowed that list and 3 * 10^9 exhausted memory.
MAX_RESTARTS = 1024
# Largest n at which a Haar restart runs.  A restart holds n x kn arrays on
# its lane: one lane's first descent step, on one thread, peaked at 132 MB at
# n = 512 (k=3, m=3), 299 MB at n = 1024 (2,5), 601 MB at n = 1024 (5,2) and
# 5.2 GB at n = 4096 (4,3).  At the cap two lanes stay near 0.26 GB; above
# it a search may take only its 2k structured starts.
MAX_SEARCH_DIM = 512
# A POVM audit trial holds up to N = 2n operators of a k = 2 family, n = 4^m, in
# (N, n, n) complex arrays.  One is 8 MB at m = 3, where the default 200
# trials ran in 8 s and peaked at 77 MB.  At m = 4 one is 0.5 GB: a trial
# peaked at 1.9 GB, and 200 would run about 26 minutes.
MAX_POVM_M = 3


def check_desk_cell(k: int, m: int) -> None:
    """ValueError unless k >= 2, m >= 1 and k*m <= MAX_KM."""
    if k < 2 or m < 1 or k * m > MAX_KM:
        raise ValueError(f"cell (k={k}, m={m}) is off the desk-scale cap k>=2, m>=1, km<={MAX_KM}")


def check_trials(trials: int) -> None:
    """ValueError unless 1 <= trials <= MAX_TRIALS; every Monte Carlo calls it before its first draw."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"an audit needs trials >= 1 and <= {MAX_TRIALS}, got {trials}")


class CertificationError(RuntimeError):
    """A constructed family failed its numerical certification."""


def walsh_matrix(m: int) -> np.ndarray:
    """m-fold tensor power of W2 (a 2^m x 2^m real Hadamard matrix)."""
    if m < 1:
        raise ValueError("walsh_matrix needs m >= 1")
    return qmath.kron_chain((W2,) * m)


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class ItemBasisFamily:
    """k unitary 2^m x 2^m item bases with provenance metadata.

    One pass over the pairs i < j forms each cross product A_i^dag A_j and
    derives `pairwise_hadamard` (every one is flat) and `max_pairwise_overlap`
    (the largest entry magnitude of any).  A_j^dag A_i is the adjoint of
    A_i^dag A_j, with the same moduli and the same unitarity verdict, so the
    ordered pairs add nothing.
    """

    k: int
    m: int
    matrices: tuple
    kind: str
    seed: tuple | None = None
    tensor_block: int | None = None
    pairwise_hadamard: bool = field(init=False)
    max_pairwise_overlap: float = field(init=False)

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
        flat, overlap = True, 0.0
        for i in range(self.k):
            for j in range(i + 1, self.k):
                cross = mats[i].conj().T @ mats[j]
                overlap = max(overlap, float(np.abs(cross).max()))
                flat = flat and qmath.is_hadamard(cross, DEFAULT_TOL)
        object.__setattr__(self, "matrices", tuple(mats))
        object.__setattr__(self, "pairwise_hadamard", flat)
        object.__setattr__(self, "max_pairwise_overlap", overlap)
        self._certify_kind()

    def _certify_kind(self):
        if self.kind in ("mub", "walsh", "cyclic") and not self.pairwise_hadamard:
            raise CertificationError(f"{self.kind} family: some A_i^dag A_j is not flat")
        if self.kind == "cyclic":
            a1 = self.matrices[1]
            for i in range(self.k):
                expected = np.linalg.matrix_power(a1, i)
                if np.abs(self.matrices[i] - expected).max() > DEFAULT_TOL:
                    raise CertificationError(f"cyclic family: A_{i} != A_1^{i}")
            if np.abs(np.linalg.matrix_power(a1, self.k) - np.eye(1 << self.m)).max() > DEFAULT_TOL:
                raise CertificationError("cyclic family: A_1^k != I")


@dataclass
class EncodingFamily:
    """Joint-space encoders E_i = C_i P_i derived from an item-basis family.

    Dense encoders are materialized on demand; every state-level operation
    also has a Kronecker-structured path so large k*m families stay usable
    for item-level analysis.
    """

    basis: ItemBasisFamily

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

    @property
    def pairwise_hadamard(self) -> bool:
        return self.basis.pairwise_hadamard

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
        """Dense E_i = C_i P_i: the chain of C_i with its columns gathered by P_i."""
        self._check_dense()
        return qmath.kron_chain(self.factors(i))[:, qmath.rotation_index_map(self.k, self.m, i)]

    def encode_column(self, i: int, d: int) -> np.ndarray:
        """Column d of E_i as a state vector, built from factor columns."""
        self._check_dense()
        if not 0 <= d < self.n:
            raise ValueError(f"configuration index {d} out of range")
        columns = [f.T for f in self.factors(i)]
        return qmath.kron_row(columns, qmath.rotate_blocks(d, self.k, self.m, i))

    def vec_times_encoder(self, vec: np.ndarray, i: int) -> np.ndarray:
        """Row-vector product vec @ E_i via the Kronecker structure; P_i rotates its axes."""
        self._check_dense()
        return qmath.kron_apply([f.T for f in self.factors(i)], vec, i)

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
    return build_family(basis)


def cyclic_family(k: int, m: int) -> ItemBasisFamily:
    """Powers {I, A, A^2} of one order-3 unitary; only k=3 is constructible."""
    if k != 3:
        raise ValueError("cyclic families are only known for k = 3")
    if m < 1:
        raise ValueError("cyclic_family needs m >= 1")
    a = qmath.kron_chain((CYCLIC_QUBIT,) * m)
    mats = (np.eye(1 << m, dtype=complex), a, a @ a)
    return ItemBasisFamily(k=3, m=m, matrices=mats, kind="cyclic")


def random_family(k: int, m: int, rng: SeededRng) -> ItemBasisFamily:
    """k independent Haar unitaries; records the worst pairwise overlap."""
    if k < 2:
        raise ValueError("random_family needs k >= 2")
    if m < 1:
        raise ValueError("random_family needs m >= 1")
    mats = tuple(qmath.haar_unitaries(1 << m, k, rng))
    return ItemBasisFamily(
        k=k,
        m=m,
        matrices=mats,
        kind="random",
        seed=(rng.seed, rng.stream),
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
    mats = tuple(qmath.kron_chain((b,) * (m // log_r)) for b in blocks)
    return ItemBasisFamily(
        k=k,
        m=m,
        matrices=mats,
        kind="tensorized",
        seed=(rng.seed, rng.stream),
        tensor_block=r,
    )


# ---------------------------------------------------------------------------
# mutually unbiased families
#
# For k <= 3 the family is the tensor power of the qubit triple
# {I, ALPHA_1, ALPHA_2}.  For larger k the bases come from the Galois-ring
# GR(4, m) phase construction (Klappenecker & Roetteler, quant-ph/0309120):
# each basis is a diagonal matrix of fourth roots of unity times the
# (field-structured) Walsh-Hadamard transform, and the full set of 2^m + 1
# bases is pairwise unbiased.
#
# The phases need one Z4 value per field element c: T(c), the GR(4, m) trace
# of the Teichmueller lift of c.  T(c) = tr(c) + 2 e2(c) mod 4, where tr and e2
# are the first and second elementary symmetric functions of the conjugates
# c, c^2, ..., c^(2^(m-1)), both in GF(2).  This holds because the lift's
# conjugates are the lifts of c's conjugates, so squaring only permutes them
# and the trace s satisfies s^2 = s + 2 e2 in Z4.  That puts s in {0, 1} when
# e2 = 0 and in {2, 3} when e2 = 1, and s = tr(c) mod 2 picks the one value.


def _gr4_phase_bases(m: int) -> list:
    """The 2^m pairwise-unbiased phase bases of GR(4, m), as matrices.

    Basis a (a = 0, 1, x, x^2, ... in GF(2^m), whose modulus is primitive) has
    entries i^(T(ax) + 2 tr(bx)) / sqrt(2^m) at row x, column b.
    """
    q = 1 << m
    elems = np.arange(q, dtype=np.int64)
    prod = gf2.mul(elems[:, None], elems[None, :], m)
    conj = [elems]
    for _ in range(m - 1):
        conj.append(prod[conj[-1], conj[-1]])
    tr = np.bitwise_xor.reduce(conj)
    e2 = np.zeros(q, dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            e2 ^= prod[conj[i], conj[j]]
    teichmueller_trace = tr + 2 * e2
    powers = [0, 1]
    for _ in range(q - 2):
        powers.append(prod[powers[-1], 2])
    i_pow = np.array([1, 1j, -1, -1j], dtype=complex)
    scale = 1.0 / np.sqrt(q)
    return [scale * i_pow[(teichmueller_trace[prod[a]][:, None] + 2 * tr[prod]) % 4] for a in powers]


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
        generators = [identity, qmath.kron_chain((ALPHA_1,) * m), qmath.kron_chain((ALPHA_2,) * m)]
        mats = tuple(generators[:k])
    else:
        mats = tuple([identity] + _gr4_phase_bases(m)[: k - 1])
    return ItemBasisFamily(k=k, m=m, matrices=mats, kind="mub")
