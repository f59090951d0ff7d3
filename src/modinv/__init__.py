"""Exact low-degree separating invariants for unipotent Jordan-block actions
of a cyclic group of prime order in characteristic p, with brute-force
verification over small finite fields."""

from .action import BlockExceedsP, RepresentationSpec, delta, sigma
from .builder import (ConnectingInvariant, InvariantSuite, NoSolution,
                      SuiteEntry, WeightSpaceBasis, build_suite,
                      construct_connecting, integral_form, norm_invariant,
                      restricted_delta_matrix, weight_basis)
from .oracle import (BudgetExceeded, SeparationReport, fixed_point_census,
                     separation_report, verify_lifting, verify_orbit_constancy)
from .poly import Polynomial, VariableTable
from .rings import GF, QQ, ZZ, ExtensionField, PrimeField, find_irreducible

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
