"""Exact representations of unipotent upper-triangular groups via their
Frobenius layers."""

from .arith import (
    PAryDigits,
    Residue,
    coerce_scalar,
    gamma_factor,
    matrix_multinomial,
    multinomial,
    p_ary_digits,
    scalar_from_str,
    scalar_to_str,
    sum_carries,
)
from .bch import (
    FreeElement,
    bch_components,
    bch_evaluate,
    bracket_expand,
    bracket_normalize,
    denominator_audit,
    dynkin_projection,
    homogeneous_component,
    left_nested_expand,
    log_product_series,
)
from .errors import (
    ConversionError,
    CostBoundError,
    HypothesisError,
    ModulusMismatchError,
    NotNilpotentError,
    ParseError,
    SeriesTerminationError,
    ShapeError,
    UnirepError,
)
from .hopf import (
    ExponentMatrix,
    Polynomial,
    TensorElement,
    coproduct,
    counit,
    tensor_of,
    variable_pairs,
)
from .io import parse_layer_file, parse_rep_file, write_layer_file, write_rep_file
from .linalg import (
    SquareMatrix,
    commutator,
    exp_nilpotent,
    log_unipotent,
    nilpotency_index,
    scalar_matrix,
)
from .reps import (
    ChiTable,
    LieLayerData,
    Report,
    Representation,
    assemble,
    audit_structure_lemmas,
    check_morphism,
    construct_from_layers,
    decompose_to_layers,
    extract_chi,
    frobenius_twist_rep,
    layer_morphism_equivalence,
    tautological_layer,
    verify_chi_relations,
    verify_comodule,
    verify_group_law_pointwise,
)
from .samples import random_chi_support, random_invertible, random_layer_data, random_strict_upper
from .splittings import (
    LinearExpr,
    Splitting,
    SplitVarId,
    all_split_vars,
    brute_solve_yz,
    enumerate_splittings,
    l_expression,
    occurrence_report,
    r_expression,
    shared_variable,
    solve_yz,
    split_coproduct,
)

__version__ = "0.1.0"
