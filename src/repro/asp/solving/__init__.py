"""Solving phase: from a ground program to its stable models."""

from repro.asp.solving.completion import CompletionEncoding, build_completion
from repro.asp.solving.sat import DPLLSolver, Satisfiability
from repro.asp.solving.solver import StableModelSolver, constraints_satisfied, stable_models
from repro.asp.solving.unfounded import greatest_unfounded_set, is_founded
from repro.asp.solving.wellfounded import WellFoundedModel, residual_program, well_founded_model

__all__ = [
    "CompletionEncoding",
    "DPLLSolver",
    "Satisfiability",
    "StableModelSolver",
    "WellFoundedModel",
    "build_completion",
    "constraints_satisfied",
    "greatest_unfounded_set",
    "is_founded",
    "residual_program",
    "stable_models",
    "well_founded_model",
]
