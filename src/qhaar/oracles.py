"""Independent cross-check routes; no production module imports this one.

Each function computes a quantity that production code computes another way,
and the test suite compares the two: free_product_moment (noncrossing
cumulants) against weingarten.word_moment (pair weights), brute_force_moment
(every index tuple) against freeness.lhs_exact, and mobius_recursive (the
defining recursion) against partitions.mobius.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache, partial, reduce

from .exactalg import RationalFunction
from .freeness import MixedWord
from .opvalued import expectation
from .partitions import Partition, SignPattern, enumerate_family, kernel, leq, mobius
from .weingarten import (
    EntryWord,
    WeingartenTable,
    _as_pattern,
    build_table,
    haar_moment,
)

__all__ = [
    "moment_function",
    "entry_cumulant",
    "free_product_moment",
    "brute_force_moment",
    "mobius_recursive",
]


def moment_function(table: WeingartenTable, omega: Partition, i, j) -> RationalFunction:
    """The partial moment along omega: product of Haar moments of its blocks.

    Scalar values multiply, so nested extraction along a noncrossing omega
    reduces to a product over blocks; any odd block forces the value 0.
    """
    i, j = tuple(i), tuple(j)
    k = len(table.pattern)
    if omega.size != k:
        raise ValueError(f"omega must partition {k} points")
    if not omega.is_noncrossing():
        raise ValueError("omega must be noncrossing")
    total = RationalFunction.one()
    for block in omega.blocks:
        if len(block) % 2 == 1:
            return RationalFunction.zero()
        sub_eps = SignPattern(tuple(table.pattern.signs[v - 1] for v in block))
        sub_i, sub_j = tuple(i[v - 1] for v in block), tuple(j[v - 1] for v in block)
        total = total * haar_moment(build_table(table.flavor, sub_eps), sub_i, sub_j)
        if not total:
            return total
    return total


def entry_cumulant(table: WeingartenTable, tau: Partition, i, j) -> RationalFunction:
    """kappa^(tau) = sum over noncrossing omega <= tau of mu(omega, tau) psi^(omega)."""
    if not tau.is_noncrossing():
        raise ValueError("tau must be noncrossing")
    total = RationalFunction.zero()
    for omega in enumerate_family("nc", tau.size).members:
        if not leq(omega, tau):
            continue
        value = moment_function(table, omega, i, j)
        if value:
            total = total + mobius(omega, tau) * value
    return total


def free_product_moment(eps, labels, i, j) -> RationalFunction:
    """Haar state of the free product on a generator word with factor labels.

    Computed exactly as the sum of kappa^(tau) over noncrossing tau refining
    ker(labels): mixed cumulants of free, identically distributed factors
    vanish.  With all labels equal this is the plain Haar moment.
    """
    eps = _as_pattern(eps)
    labels, i, j = tuple(labels), tuple(i), tuple(j)
    k = len(eps)
    if not (len(labels) == len(i) == len(j) == k):
        raise ValueError("labels and index tuples must match the sign pattern length")
    if k > 6:
        raise ValueError("free product moments support at most 6 letters")
    table = build_table("quantum", eps)
    ker_l = kernel(labels)
    total = RationalFunction.zero()
    for tau in enumerate_family("nc", k).members:
        if leq(tau, ker_l):
            total = total + entry_cumulant(table, tau, i, j)
    return total


def brute_force_moment(word: MixedWord, n: int):
    """Direct summation over every matrix index tuple; cross-check only.

    Enumerates all trace and adjacency indices, multiplies the matrix entries
    in word order, and weighs each tuple by the Haar moment of the resulting
    entry word: a plain Weingarten sum for one label, the cumulant route for
    several, so that it never shares the pair weights of lhs_exact.
    Exponential in the word length, so keep N and the word tiny.
    """
    if n < 2:
        raise ValueError("evaluation requires N >= 2")
    if word.size != n:
        raise ValueError(f"word is built at size {word.size}, not {n}")
    m2 = len(word.letters)
    if m2 == 0:
        return expectation(word.lead)
    lead, fac, signs, labels = word.lead, word.factors(), word.signs(), word.labels()
    eps = SignPattern(signs)
    if len(set(labels)) == 1:
        entry_moment = partial(haar_moment, build_table(word.flavor, eps))
    elif word.flavor != "quantum":
        raise NotImplementedError("multi-label words need the quantum flavor")
    else:
        entry_moment = partial(free_product_moment, eps, labels)
    rng = range(1, n + 1)
    moments: dict = {}
    total = word.algebra.zero()
    for a0 in rng:
        for b1 in rng if lead is not None else (a0,):
            for rest in itertools.product(rng, repeat=2 * m2 - 1):
                b, c = (b1,) + rest[: m2 - 1], rest[m2 - 1 :]
                ends = b[1:] + (a0,)
                entries = [fac[t].rows[c[t] - 1][ends[t] - 1] for t in range(m2)]
                if lead is not None:
                    entries.insert(0, lead.rows[a0 - 1][b1 - 1])
                if not all(entries):
                    continue
                if (b, c) not in moments:
                    kinds = ("adjoint",) * m2
                    gen = EntryWord.of(*zip(b, c, signs, kinds, labels)).generator_form()
                    moments[b, c] = entry_moment(gen.rows(), gen.cols()).evaluate(n)
                if moments[b, c]:
                    total = total + reduce(operator.mul, entries) * moments[b, c]
    return total * Fraction(1, n)


@lru_cache(maxsize=None)
def mobius_recursive(s: Partition, p: Partition) -> int:
    """mu(s, p) by the memoized defining recursion over the interval [s, p)."""
    if not leq(s, p):
        return 0
    if s == p:
        return 1
    total = 0
    for t in enumerate_family("nc", p.size).members:
        if t != p and leq(s, t) and leq(t, p):
            total += mobius_recursive(s, t)
    return -total
