"""mdskit: construction and exact verification of higher-order MDS codes."""

from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    CharacteristicMismatchError,
    DegreeMismatchError,
    DegreeTooHighError,
    DimensionMismatchError,
    DivisionByZeroError,
    EvenCharacteristicError,
    FieldMismatchError,
    MdskitError,
    NotMDSError,
    NotPrimeError,
    NotSquareError,
    RankLossError,
    ReduciblePolynomialError,
    SidonSetNotFoundError,
    SizeConstraintError,
    WrongKindError,
)
from .fields import (
    FieldElement,
    FieldSpec,
    field_make,
    find_irreducible,
    format_element,
    format_field,
    frobenius,
    is_prime,
    parse_element,
    parse_field,
    poly_is_irreducible,
)
from .linalg import (
    MatrixF,
    block_mds_matrix,
    det,
    kernel,
    rank,
    rref,
    solve,
    subspace_intersection_dim,
)
from .codes import (
    CodeSpec,
    SetTuple,
    dual_code,
    explicit_code,
    format_code,
    generator_matrix,
    generic_intersection_dim,
    generically_zero,
    parse_code,
    puncture,
    rs_code,
    set_partitions,
)
from .mdscheck import (
    CheckReport,
    SearchResult,
    exhaustive_code_search,
    is_mds,
    is_mds3_rs_fast,
    is_mds_ell,
    lb_witness_projective,
)
from .multipoly import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    SparsePoly,
    buchberger,
    gamma_expand_det3,
    gb_reduce,
    pairing_ideal,
    parse_poly,
    verify_char2_membership,
    verify_claim_q_identity,
    verify_groebner_claim,
)
from .constructions import (
    CONSTRUCTION_NAMES,
    BuildResult,
    ConstructionParams,
    construct,
    greedy_sidon,
    is_sidon,
    six_sum_free,
)
from .applications import (
    ErasurePattern,
    TensorCodeSpec,
    duality_test,
    ld_mds_check,
    mr_check,
    parse_pattern,
    single_parity_code,
    tensor_parity,
    worst_case_ld_check,
)

__version__ = "0.1.0"
