"""Exact Weingarten calculus for Haar quantum unitaries and operator-valued freeness.

Modules:
  partitions  - noncrossing combinatorics, sign patterns, fattening, Moebius
  exactalg    - exact rationals, Gaussian rationals, rational functions, matrices
  weingarten  - Gram/Weingarten tables, pair weights, Haar-state entry moments
  opvalued    - coefficient algebras, operator-valued moments and cumulants
  freeness    - exact finite-size moments versus their limit formulas
  cli         - command-line front end
  oracles     - independent cross-checks (cumulant free-product moments, brute
                force, recursive Moebius); never imported by the modules above
"""

from .freeness import (
    ConvergenceReport,
    InfinitesimalPair,
    MixedWord,
    Scenario,
    UnitaryLetter,
    WordToken,
    convergence_report,
    counterexample,
    cumulant_limit,
    infinitesimal_check,
    laurent_moments,
    lhs_exact,
    limit_formula,
    load_scenario,
    rotated_limit,
)
from .weingarten import EntryWord, Letter, build_table, haar_moment, word_moment

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "EntryWord",
    "InfinitesimalPair",
    "Letter",
    "MixedWord",
    "Scenario",
    "UnitaryLetter",
    "WordToken",
    "build_table",
    "convergence_report",
    "counterexample",
    "cumulant_limit",
    "haar_moment",
    "infinitesimal_check",
    "laurent_moments",
    "lhs_exact",
    "limit_formula",
    "load_scenario",
    "rotated_limit",
    "word_moment",
    "__version__",
]
