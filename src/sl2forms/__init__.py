"""Exact computer algebra for sl₂(ℝ) weight modules and their forms.

Constructs the irreducible modules V_m and tensor products V_m⊗V_n over
exact rationals, the compatible symmetric bilinear forms, the singular
vectors of each weight space, and the induced one-dimensional forms ω_k —
every quantity by two independent routes that must agree exactly.  A
terminating-hypergeometric layer verifies the factorial identity
(Karlsson-Minton) underlying the ω_k sign pattern, again exactly and
exhaustively over parameter grids.
"""

from .forms import (
    BilinearForm,
    StarFormReport,
    canonical_form,
    evaluate,
    is_star_form,
    structure_of,
    tensor_form,
)
from .hypergeom import (
    HypergeomSpec,
    IllDefinedSeriesError,
    KMParams,
    KMSweepReport,
    UnsupportedMappingError,
    eval_3f2_terminating,
    km_check,
    km_range_verify,
    km_sum,
    series_route_verify,
    to_3f2,
)
from .linalg import ExactMatrix, apply_power, mat_vec, null_space, rank
from .modules import (
    DecompositionReport,
    ModuleVector,
    RelationReport,
    WeightModule,
    act,
    check_relations,
    decompose,
    format_vector,
    irreducible,
    perturbed,
    tensor_of_irreducibles,
    tensor_product,
    weight_space_indices,
)
from .omega import (
    InconsistencyError,
    OmegaReport,
    OmegaRow,
    SignAlternationReport,
    b_closed_form,
    check_sign_alternation,
    omega_closed,
    omega_table,
    omega_value,
    x_power_b_brute,
    x_power_b_closed,
    y_annihilates,
    y_kernel_singular,
)
from .rationals import (
    factorial,
    parse_rational,
    reciprocal_factorial,
    sign,
)
from .verify import SuiteResult, verify_all

__version__ = "0.1.0"

__all__ = [
    "BilinearForm",
    "DecompositionReport",
    "ExactMatrix",
    "HypergeomSpec",
    "IllDefinedSeriesError",
    "InconsistencyError",
    "KMParams",
    "KMSweepReport",
    "ModuleVector",
    "OmegaReport",
    "OmegaRow",
    "RelationReport",
    "SignAlternationReport",
    "StarFormReport",
    "SuiteResult",
    "UnsupportedMappingError",
    "WeightModule",
    "act",
    "apply_power",
    "b_closed_form",
    "canonical_form",
    "check_relations",
    "check_sign_alternation",
    "decompose",
    "eval_3f2_terminating",
    "evaluate",
    "factorial",
    "format_vector",
    "irreducible",
    "is_star_form",
    "km_check",
    "km_range_verify",
    "km_sum",
    "mat_vec",
    "null_space",
    "omega_closed",
    "omega_table",
    "omega_value",
    "parse_rational",
    "perturbed",
    "rank",
    "reciprocal_factorial",
    "series_route_verify",
    "sign",
    "structure_of",
    "tensor_form",
    "tensor_of_irreducibles",
    "tensor_product",
    "to_3f2",
    "verify_all",
    "weight_space_indices",
    "x_power_b_brute",
    "x_power_b_closed",
    "y_annihilates",
    "y_kernel_singular",
]
