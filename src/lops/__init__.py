"""Exact symbolic analysis of quasi-linear PDE systems in Leray-Ohya form.

Multivariate polynomial symbols over exact rationals, a text format for
system specs, fraction-free characteristic determinants with verified
factorizations, hyperbolicity tests, Gevrey exponents, a fully verified
reference instance (the viscous gravity-fluid system), and a
finite-difference lab for its tensor identities.
"""

from importlib import resources

from .poly import (Atom, MissingAtomError, NotDivisibleError,
                   NotPerfectSquareError, Poly, XI, param, xi)
from .system import (ConditionReport, DependencyDecl, EquationBlock,
                     FactorClaim, LeraySystem, ParamDecl, StructureReport,
                     SymbolEntry, UnknownBlock, leray_condition, total_order,
                     validate_structure)
from .dsl import ParseError, parse_poly, parse_system, print_system
from .matrix import (SymbolMatrix, VerifyReport, build_symbol_matrix,
                     determinant, determinant_factors, laplace_determinant,
                     verify_factorization_product)
from .hyperbolic import (ConeSamples, HyperbolicityVerdict, biquadratic_split,
                         cone_sample, gevrey_sigma, hyperbolicity_linear,
                         hyperbolicity_quadratic, hyperbolicity_sampled,
                         rational_signature)
from .ens import (FluidState, build_ens_system,
                  derive_quartic_from_block, quartic_coefficients,
                  reference_factor_claim, validate_state,
                  verify_ens_determinant)
from .lab import FieldPatch, IdentityResidual, refinement_table

__version__ = "0.1.0"


def ens_spec_path() -> str:
    """Filesystem path of the shipped reference system spec."""
    return str(resources.files("lops").joinpath("data/ens.lops"))


def wave_spec_path() -> str:
    """Filesystem path of the single-wave example spec."""
    return str(resources.files("lops").joinpath("data/wave.lops"))
