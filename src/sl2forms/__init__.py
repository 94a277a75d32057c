"""Exact computer algebra for sl₂(ℝ) weight modules and their forms.

Constructs the irreducible modules V_m and tensor products V_m⊗V_n over
exact rationals, the compatible symmetric bilinear forms, the singular
vectors of each weight space, and the induced one-dimensional forms ω_k —
every quantity by two independent routes that must agree exactly.  A
terminating-hypergeometric layer verifies the factorial identity
(Karlsson-Minton) underlying the ω_k sign pattern, again exactly and
exhaustively over parameter grids.

Importing the package loads none of its layers: each name in `__all__` is
imported from its home module on first access (PEP 562), so a command-line
run loads only the layers its subcommand calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# Home module of every public name.
_EXPORTS = {
    "forms": (
        "BilinearForm", "StarFormReport", "canonical_form", "evaluate",
        "is_star_form", "structure_of", "tensor_form",
    ),
    "hypergeom": (
        "HypergeomSpec", "IllDefinedSeriesError", "KMParams", "KMSweepReport",
        "UnsupportedMappingError", "eval_3f2_terminating", "km_check",
        "km_range_verify", "km_sum", "series_route_verify", "to_3f2",
    ),
    "linalg": ("ExactMatrix", "apply_power", "mat_vec", "null_space", "rank"),
    "modules": (
        "DecompositionReport", "ModuleVector", "RelationReport", "WeightModule",
        "act", "check_relations", "decompose", "format_vector", "irreducible",
        "perturbed", "tensor_of_irreducibles", "tensor_product",
        "weight_space_indices",
    ),
    "omega": (
        "InconsistencyError", "OmegaReport", "OmegaRow", "b_closed_form",
        "omega_closed", "omega_table", "omega_value", "x_power_b_brute",
        "x_power_b_closed", "y_annihilates", "y_kernel_singular",
    ),
    "rationals": ("factorial", "parse_rational", "reciprocal_factorial", "sign"),
    "verify": ("SuiteResult", "verify_all"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
