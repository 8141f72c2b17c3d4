"""Exact engine for combinatorial Dyson-Schwinger equations on decorated rooted trees."""

from .trees import (Decoration, Forest, Tree, TreeSyntaxError,
                    forest_symmetry, forest_text, forests_of_degree, ladder,
                    leaf, parse_forest, parse_tree, single, tree_symmetry,
                    tree_text, trees_of_degree)
from .linear import ForestSum, TensorSum, WordSum, forest_sum_text, tensor
from .hopf import (coproduct, counit, forest_coproduct, graft_operator,
                   pairing, reduced_coproduct, tensor_pairing, tree_coproduct)
from .series import (EvaluationError, ParseError, TruncatedSeries,
                     expr_series, expr_text, geometric_family,
                     geometric_family_shifted, parse_expr, substitute)
from .prelie import (affine_circ, circ, circ_recursive, falling_product,
                     fdb_circ, fdb_circ_recursive, fdb_image, fdb_solution,
                     fdb_solution_recursive, fdb_surjective, graft,
                     reachable_degrees, star, tree_weight)
from .solver import (SDSE, HopfReport, LadderReport, LambdaTable,
                     NotHopfCompatible, Solution, SystemFormatError,
                     check_hopf, extract_lambda, normalize, parse_system_text,
                     rescale_variable, slice_coordinates, solve, solve_oracle,
                     system_text, truncate_at_1, verify_coefficient_ladder)
from .families import (Case1, Case2, ClosedFormReport, CycleVertex,
                       FundamentalData, LadderSumReport, QuasiCyclicData,
                       Unclassifiable, Vertex, build_case1, build_case2,
                       build_fundamental, build_quasicyclic,
                       case1_coefficient, check_closed_forms,
                       check_ladder_sums, classify_single, expected_lambda,
                       is_family_text, parse_family_text,
                       shared_product_series)

__version__ = "0.1.0"

__all__ = [
    "Decoration", "Tree", "Forest", "leaf", "single", "ladder",
    "tree_symmetry", "forest_symmetry", "trees_of_degree",
    "forests_of_degree", "tree_text", "forest_text", "parse_tree",
    "parse_forest", "TreeSyntaxError",
    "ForestSum", "TensorSum", "WordSum", "tensor", "forest_sum_text",
    "tree_coproduct", "forest_coproduct", "coproduct", "reduced_coproduct",
    "graft_operator", "counit", "pairing", "tensor_pairing",
    "TruncatedSeries", "substitute", "geometric_family",
    "geometric_family_shifted", "parse_expr", "expr_text", "expr_series",
    "ParseError", "EvaluationError",
    "graft", "circ", "circ_recursive", "star", "falling_product",
    "fdb_circ", "fdb_circ_recursive", "fdb_image", "fdb_solution",
    "fdb_solution_recursive", "fdb_surjective", "tree_weight",
    "affine_circ", "reachable_degrees",
    "SDSE", "Solution", "solve", "solve_oracle", "normalize", "check_hopf",
    "HopfReport", "extract_lambda", "LambdaTable", "LadderReport",
    "verify_coefficient_ladder", "slice_coordinates", "truncate_at_1",
    "rescale_variable", "parse_system_text", "system_text",
    "SystemFormatError", "NotHopfCompatible",
    "Case1", "Case2", "Unclassifiable", "classify_single",
    "case1_coefficient", "build_case1", "build_case2", "Vertex",
    "FundamentalData", "build_fundamental", "shared_product_series",
    "expected_lambda", "check_closed_forms", "ClosedFormReport",
    "CycleVertex", "QuasiCyclicData",
    "build_quasicyclic", "check_ladder_sums", "LadderSumReport",
    "is_family_text", "parse_family_text",
    "__version__",
]
