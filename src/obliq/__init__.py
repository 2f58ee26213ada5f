"""obliq: a seeded simulator and analysis lab for coherence-limited private database queries."""

from .analysis import (
    BoundReport,
    LeakageResult,
    OptimizerConfig,
    concentration_experiment,
    explore_condition_2prime,
    leakage_scan,
    max_leakage,
    povm_gain_audit,
    projective_gain_audit,
    random_family_leakage_trend,
    verify_theorem1,
)
from .encodings import (
    CertificationError,
    EncodingFamily,
    ItemBasisFamily,
    build_family,
    cyclic_family,
    explicit_single_bit_family,
    mub_family,
    random_family,
    tensorized_family,
    walsh_family,
    walsh_matrix,
)
from .hardening import (
    GfMask,
    XorShares,
    bit_targeting_audit,
    masked_session,
    xor_guess_attack,
    xor_reconstruct,
    xor_split,
)
from .povm import (
    Povm,
    povm_entropy_bound_check,
    povm_gain_account,
    povm_posterior,
    random_povm,
    validate_povm,
)
from .protocol import (
    DatabaseState,
    InfoAccount,
    MeasurementBasis,
    SessionOrderError,
    SessionTranscript,
    decode_item,
    honest_basis,
    honest_leakage,
    info_account,
    invert_basis,
    outcome_distribution,
    parity_basis,
    posterior,
    run_session,
    sample_outcome,
    vendor_encode,
)
from .qmath import (
    SeededRng,
    haar_unitary,
    is_hadamard,
    is_unitary,
)

__version__ = "0.1.0"
