"""Exact symbolic analysis of quasi-linear PDE systems in Leray-Ohya form.

Multivariate polynomial symbols over exact rationals, a text format for
system specs, fraction-free characteristic determinants with verified
factorizations, hyperbolicity tests, Gevrey exponents, a fully verified
reference instance (the viscous gravity-fluid system), and a
finite-difference lab for its tensor identities.

The names below are exported lazily (PEP 562): `from lops import
build_ens_system` imports `lops.ens` on first access, so `import lops` alone
loads no submodule.  `lops analyze` never executes `ens` or `lab`; it splits
factors of degree 3 or more exactly and loads numpy only for the sampled
screen of a factor that splits no further.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "poly": ("MissingAtomError", "NotDivisibleError", "NotPerfectPowerError",
             "NotPerfectSquareError", "Poly", "XI"),
    "system": ("ConditionReport", "DependencyDecl", "EquationBlock", "FactorClaim",
               "LeraySystem", "ParamDecl", "StructureReport", "SymbolEntry",
               "UnknownBlock", "leray_condition", "total_order", "validate_structure"),
    "dsl": ("ParseError", "parse_poly", "parse_system", "print_system"),
    "matrix": ("SymbolMatrix", "VerifyReport", "build_symbol_matrix", "determinant",
               "determinant_factors", "laplace_determinant",
               "verify_factorization_product"),
    "hyperbolic": ("ConeSamples", "HyperbolicityVerdict", "biquadratic_split",
                   "cone_sample", "gevrey_sigma", "hyperbolicity_linear",
                   "hyperbolicity_quadratic", "hyperbolicity_sampled",
                   "rational_signature"),
    "ens": ("FluidState", "build_ens_system", "derive_quartic_from_block",
            "quartic_coefficients", "reference_factor_claim", "validate_state",
            "verify_ens_determinant"),
    "lab": ("FieldPatch", "IdentityResidual", "refinement_table"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["ens_spec_path", "wave_spec_path"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def ens_spec_path() -> str:
    """Filesystem path of the shipped reference system spec."""
    from importlib import resources
    return str(resources.files("lops").joinpath("data/ens.lops"))


def wave_spec_path() -> str:
    """Filesystem path of the single-wave example spec."""
    from importlib import resources
    return str(resources.files("lops").joinpath("data/wave.lops"))
