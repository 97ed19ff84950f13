"""The public surface of the package, pinned so that a refactor which drops
a method, an operator or an exported name fails here."""

import inspect

import pytest

import unirep
from unirep.hopf import Polynomial, TensorElement
from unirep.linalg import SquareMatrix

OPERATORS = {"__add__", "__sub__", "__mul__", "__neg__", "__bool__", "__pow__"}

SURFACE = {
    Polynomial: OPERATORS | {
        "__radd__", "__rmul__", "__rsub__", "__truediv__",
        "n", "p", "terms", "zero", "one", "constant", "variable",
        "coefficient", "constant_term", "evaluate_mod", "scale_exponents",
    },
    TensorElement: OPERATORS | {
        "__rmul__", "n", "p", "terms", "zero", "one", "coefficient", "scale_exponents",
    },
    SquareMatrix: {
        "__add__", "__sub__", "__mul__", "__matmul__", "__neg__", "__truediv__",
        "size", "entries", "identity", "identity_like", "zero_like", "scale",
        "map_entries", "transpose", "is_zero",
    },
}

EXPORTS = {
    "ChiTable", "ConversionError", "CostBoundError", "ExponentMatrix", "FreeElement",
    "HypothesisError", "LieLayerData", "LinearExpr", "ModulusMismatchError",
    "NotNilpotentError", "PAryDigits", "ParseError", "Polynomial", "Report", "Representation",
    "Residue", "SeriesTerminationError", "ShapeError", "SplitVarId", "Splitting",
    "SquareMatrix", "TensorElement", "UnirepError", "all_split_vars", "assemble",
    "audit_structure_lemmas", "bch_components", "bch_evaluate", "bracket_expand",
    "bracket_normalize", "brute_solve_yz", "check_morphism", "coerce_scalar", "commutator",
    "construct_from_layers", "coproduct", "counit",
    "decompose_to_layers", "denominator_audit", "dynkin_projection", "enumerate_splittings",
    "exp_nilpotent", "extract_chi", "frobenius_twist_rep",
    "gamma_factor", "homogeneous_component", "l_expression",
    "layer_morphism_equivalence", "left_nested_expand", "log_product_series", "log_unipotent",
    "matrix_multinomial", "multinomial", "nilpotency_index",
    "occurrence_report", "p_ary_digits", "parse_layer_file", "parse_rep_file", "r_expression",
    "random_chi_support", "random_invertible", "random_layer_data", "random_strict_upper",
    "scalar_from_str", "scalar_matrix", "scalar_to_str", "shared_variable", "solve_yz",
    "split_coproduct", "sum_carries", "tautological_layer", "tensor_of", "variable_pairs",
    "verify_chi_relations", "verify_comodule", "verify_group_law_pointwise",
    "write_layer_file", "write_rep_file",
}


def surface(cls):
    """Public names, and the dunders that object itself does not define."""
    return {name for name in dir(cls)
            if not name.startswith("_")
            or (name.endswith("__") and name not in {*dir(object), "__module__", "__slots__"})}


@pytest.mark.parametrize("cls", list(SURFACE), ids=lambda cls: cls.__name__)
def test_class_surface(cls):
    assert surface(cls) == SURFACE[cls]


def test_package_exports():
    names = {name for name in dir(unirep)
             if not name.startswith("_") and not inspect.ismodule(getattr(unirep, name))}
    assert names == EXPORTS
