"""Exact low-degree separating invariants for unipotent Jordan-block actions
of a cyclic group of prime order in characteristic p, with brute-force
verification over small finite fields."""

from .action import BlockExceedsP, RepresentationSpec, delta, sigma
from .builder import (ConnectingInvariant, InvariantSuite, NoSolution,
                      SuiteEntry, WeightSpaceBasis, build_suite,
                      construct_connecting, integral_form, norm_invariant,
                      restricted_delta_matrix, weight_basis)
from .poly import Polynomial, VariableTable
from .rings import (GF, QQ, ZZ, BudgetExceeded, ExtensionField, PrimeField,
                    find_irreducible)

__version__ = "0.1.0"

__all__ = [
    "BlockExceedsP", "BudgetExceeded", "ConnectingInvariant", "ExtensionField",
    "GF", "InvariantSuite", "NoSolution", "Polynomial", "PrimeField", "QQ",
    "RepresentationSpec", "SeparationReport", "SuiteEntry", "VariableTable",
    "WeightSpaceBasis", "ZZ", "build_suite", "construct_connecting", "delta",
    "find_irreducible", "fixed_point_census", "integral_form", "norm_invariant",
    "restricted_delta_matrix", "separation_report", "sigma",
    "verify_lifting", "verify_orbit_constancy", "weight_basis", "__version__",
]

# The verifier is imported on first use of one of its names (PEP 562), so
# that construct and export never compile it.
_ORACLE_NAMES = {"SeparationReport", "fixed_point_census", "separation_report",
                 "verify_lifting", "verify_orbit_constancy"}


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
