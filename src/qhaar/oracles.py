"""Independent cross-check routes; no production module imports this one.

Each function computes a quantity that production code computes another way,
and the test suite compares the two: haar_moment (one Weingarten table) and
free_product_moment (noncrossing cumulants) against weingarten.word_moment,
brute_force_moment (every index tuple) against freeness.lhs_exact,
laurent_moments (interpolation) against freeness.lhs_function,
nested_functional (block extraction) against opvalued.functional_e, and
mobius_recursive (the defining recursion) against partitions.mobius.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache, partial, reduce

from .exactalg import GaussianRational, RationalFunction, interpolate_rational
from .freeness import MixedWord, MomentPattern, lhs_exact
from .opvalued import _check_args, expectation
from .partitions import Partition, SignPattern, enumerate_family, kernel, leq, mobius
from .weingarten import (
    FLAVORS,
    EntryWord,
    WeingartenTable,
    _as_pattern,
    _counts_from_one,
    build_table,
)

__all__ = [
    "haar_moment",
    "nested_functional",
    "moment_function",
    "entry_cumulant",
    "free_product_moment",
    "brute_force_moment",
    "laurent_moments",
    "mobius_recursive",
]


def haar_moment(table: WeingartenTable, i, j) -> RationalFunction:
    """psi_n of the generator word with row indices i, column indices j.

    Sums wg(p, s) over family pairings p refining ker i and s refining ker j.
    """
    i, j = tuple(i), tuple(j)
    k = len(table.pattern)
    if len(i) != k or len(j) != k:
        raise ValueError(f"index tuples must have length {k}")
    if not all(map(_counts_from_one, i + j)):
        raise ValueError("matrix indices start at 1")
    ker_i, ker_j = kernel(i), kernel(j)
    row_ok = [p for p in table.family if leq(p, ker_i)]
    col_ok = [s for s in table.family if leq(s, ker_j)]
    return sum((table.wg_entry(p, s) for p in row_ok for s in col_ok), RationalFunction.zero())


def nested_functional(sigma: Partition, args):
    """The nested expectation E^(sigma) along a noncrossing partition.

    Repeatedly extracts an interval block that has a preceding factor,
    replaces it by its expectation multiplied onto that factor from the
    right, and finishes with the expectation of the remaining single block.
    Never calls constrained_sum, so it stays independent of functional_e.
    """
    args = _check_args(args)
    k = len(args)
    if sigma.size != k:
        raise ValueError(f"partition of {sigma.size} points given {k} arguments")
    if not sigma.is_noncrossing():
        raise ValueError("sigma must be noncrossing")
    order = list(range(1, k + 1))
    mats = {p: args[p - 1] for p in order}
    remaining = list(sigma.blocks)
    while len(remaining) > 1:
        pos = {p: t for t, p in enumerate(order)}
        chosen = None
        for block in remaining:
            idxs = [pos[p] for p in block]
            if max(idxs) - min(idxs) + 1 == len(idxs) and min(idxs) > 0:
                chosen = block
                break
        # a noncrossing partition with >= 2 blocks always has such a block
        assert chosen is not None
        prod = mats[chosen[0]]
        for p in chosen[1:]:
            prod = prod @ mats[p]
        value = expectation(prod)
        pred = order[min(pos[p] for p in chosen) - 1]
        mats[pred] = mats[pred].right_mul(value)
        dropped = set(chosen)
        for p in chosen:
            del mats[p]
        order = [p for p in order if p not in dropped]
        remaining.remove(chosen)
    prod = mats[order[0]]
    for p in order[1:]:
        prod = prod @ mats[p]
    return expectation(prod)


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
    elif not FLAVORS[word.flavor].free:
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


def laurent_moments(word_at, samples, degrees: tuple[int, int] = (8, 8)) -> MomentPattern:
    """Interpolate the exact values of a word family as rational functions.

    word_at maps a size to a MixedWord; every coordinate of the value under
    its algebra's components is fitted through the samples with the supplied
    degree bounds and re-verified, so an under-bounded fit fails loudly
    instead of returning a wrong expansion.
    """
    ns = sorted({int(n) for n in samples})
    num, den = degrees
    if len(ns) < num + den + 2:
        raise ValueError(
            f"need at least {num + den + 2} samples for degrees ({num},{den})"
        )
    per_key: dict = {}
    for n in ns:
        word = word_at(n)
        for key, v in word.algebra.components(lhs_exact(word, n)).items():
            per_key.setdefault(key, {})[n] = v
    entries = {}
    zero = GaussianRational.zero()
    for key in sorted(per_key, key=str):
        by_n = per_key[key]
        re = interpolate_rational(
            [(n, by_n.get(n, zero).re) for n in ns], num, den
        )
        im = interpolate_rational(
            [(n, by_n.get(n, zero).im) for n in ns], num, den
        )
        if re or im:
            entries[key] = (re, im)
    return MomentPattern(entries)
