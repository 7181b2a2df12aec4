"""Exact conditioning analysis of totally positive polynomial bases and
their Kronecker (tensor-product) collocation matrices.

The public names below are imported from their modules on first access
(PEP 562), so ``import tpbases`` alone loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "BasisFamily",
        "BasisSpec",
        "binomial",
        "eval_basis_function",
        "eval_basis_row",
        "standard_nodes",
    ), "bases"),
    **dict.fromkeys(("NoIntegerPoint", "WeightConversionResult",
                     "cone_weights", "convert_bernstein_weights"), "cone"),
    **dict.fromkeys((
        "DomainError",
        "SearchExhaustedError",
        "SingularMatrixError",
        "SpectralAssumptionError",
    ), "errors"),
    **dict.fromkeys((
        "ExperimentConfig",
        "TableRow",
        "OrderingVerdict",
        "check_goldens",
        "render_report",
        "run_table_1_2",
        "run_table_3_4",
        "verify_orderings",
    ), "experiments"),
    **dict.fromkeys((
        "TotalPositivityCertificate",
        "collocation_matrix",
        "cond_inf",
        "inf_norm",
        "inverse",
        "is_totally_positive",
        "kronecker",
    ), "linalg"),
    "sci_notation": "render",
    **dict.fromkeys(("SplitMix64", "search_positive_weights"), "rng"),
    **dict.fromkeys((
        "RootEnclosure",
        "SpectralReport",
        "char_poly",
        "isolate_real_roots",
        "kron_min_spectral",
        "min_eigenvalue",
        "min_singular_value",
        "refine_root",
        "spectral_report",
    ), "spectral"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
