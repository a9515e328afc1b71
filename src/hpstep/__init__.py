"""Multidomain Chebyshev collocation solver with reusable direct
factorizations and additive Runge-Kutta time stepping."""

__version__ = "0.1.0"

from .analysis import fit_rate, max_error, richardson, richardson_errors
from .mesh import BOUNDARY, INTERFACE, INTERIOR, Mesh, build_mesh
from .operators import EllipticOperator, OperatorApplier, laplace_operator
from .oracle import assemble_global, oracle_solve
from .problems import PROBLEMS, TransientCase, make_stepper
from .solver import build_factorization
from .stepping import Evolution, ImexStepper, InterfaceCompleter
from .tableaus import ImexTableau, load_tableau, stability_function
from .verification import oracle_equivalence_report, tableau_report

__all__ = [
    "__version__",
    "BOUNDARY",
    "INTERFACE",
    "INTERIOR",
    "EllipticOperator",
    "Evolution",
    "ImexStepper",
    "ImexTableau",
    "InterfaceCompleter",
    "Mesh",
    "OperatorApplier",
    "PROBLEMS",
    "TransientCase",
    "assemble_global",
    "build_factorization",
    "build_mesh",
    "fit_rate",
    "laplace_operator",
    "load_tableau",
    "make_stepper",
    "max_error",
    "oracle_equivalence_report",
    "oracle_solve",
    "richardson",
    "richardson_errors",
    "stability_function",
    "tableau_report",
]
