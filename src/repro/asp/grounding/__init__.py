"""Grounding (instantiation) of ASP programs.

The grounder turns a program with variables plus a set of input facts into an
equivalent variable-free (ground) program, following the classic two-phase
architecture of ASP systems (ground, then solve) the paper describes in its
footnote 1.
"""

from repro.asp.grounding.dependency import PredicateDependencyGraph, stratify
from repro.asp.grounding.grounder import (
    GroundProgram,
    GroundRule,
    Grounder,
    ground_program,
)
from repro.asp.grounding.safety import check_safety, is_safe, unsafe_variables

__all__ = [
    "GroundProgram",
    "GroundRule",
    "Grounder",
    "PredicateDependencyGraph",
    "check_safety",
    "ground_program",
    "is_safe",
    "stratify",
    "unsafe_variables",
]
