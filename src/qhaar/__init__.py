"""Exact Weingarten calculus for Haar quantum unitaries and operator-valued freeness.

Modules:
  partitions  - noncrossing combinatorics, sign patterns, fattening, Moebius
  exactalg    - exact rationals, Gaussian rationals, rational functions, matrices
  weingarten  - Gram/Weingarten tables, pair weights, Haar-state entry moments
  opvalued    - coefficient algebras, constrained sums, nested expectations, cumulants
  freeness    - exact finite-size moments versus their limit formulas
  cli         - command-line front end
  oracles     - independent cross-checks (single-table Haar moments, cumulant
                free-product moments, block-by-block nested expectations, brute
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
    lhs_exact,
    limit_formula,
    load_scenario,
)
from .weingarten import EntryWord, Letter, build_table, word_moment

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
    "infinitesimal_check",
    "lhs_exact",
    "limit_formula",
    "load_scenario",
    "word_moment",
    "__version__",
]
