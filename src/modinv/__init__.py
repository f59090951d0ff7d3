"""Exact low-degree separating invariants for unipotent Jordan-block actions
of a cyclic group of prime order in characteristic p, with brute-force
verification over small finite fields."""

import importlib

from .action import BlockExceedsP, RepresentationSpec, delta, sigma
from .builder import (ConnectingInvariant, NoSolution, WeightSpaceBasis,
                      construct_connecting, restricted_delta_matrix, weight_basis)
from .poly import Polynomial, VariableTable
from .rings import GF, QQ, ZZ, BudgetExceeded, PrimeField
from .suite import InvariantSuite, SuiteEntry, build_suite, integral_form, norm_invariant

__version__ = "0.1.0"

__all__ = [
    "BlockExceedsP", "BudgetExceeded", "ConnectingInvariant", "ExtensionField",
    "GF", "InvariantSuite", "NoSolution", "Polynomial", "PrimeField", "QQ",
    "RepresentationSpec", "SeparationReport", "SuiteEntry", "VariableTable",
    "WeightSpaceBasis", "ZZ", "build_suite", "construct_connecting", "delta",
    "find_irreducible", "integral_form", "norm_invariant",
    "restricted_delta_matrix", "separation_report", "sigma", "verify_lifting",
    "verify_orbit_constancy", "weight_basis", "__version__",
]

# Names imported from their module on first use (PEP 562), so that construct
# and export never compile the verifier, and only k >= 2 compiles F_{p^k}.
_LAZY = {
    "verify_lifting": "oracle", "verify_orbit_constancy": "oracle",
    "SeparationReport": "separation", "separation_report": "separation",
    "ExtensionField": "extension", "find_irreducible": "extension",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
