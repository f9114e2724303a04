"""Dependence analysis: ZIV/GCD/Banerjee/Fourier–Motzkin over affine nests."""

from repro.deps.analysis.driver import DependenceAnalyzer, analyze, LEVELS
from repro.deps.analysis.linear_system import LinConstraint, LinearSystem
from repro.deps.analysis.references import (
    ArrayAccess,
    dependence_candidate_pairs,
)
from repro.deps.analysis.tests import Equality, banerjee_test, gcd_test

__all__ = [
    "DependenceAnalyzer", "analyze", "LEVELS",
    "LinConstraint", "LinearSystem",
    "ArrayAccess", "dependence_candidate_pairs",
    "Equality", "banerjee_test", "gcd_test",
]
