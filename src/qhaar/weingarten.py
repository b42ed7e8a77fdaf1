"""Weingarten calculus for the quantum unitary group A_u(n), exactly over Q(n).

Builds Gram and Weingarten matrices for sign patterns, expands the Haar state
of one copy or of the free product of several copies into weights on pairing
pairs (the one production route for entry moments and for lhs_exact),
evaluates words in the generator entries U_ij, reduces words in entries of
the adjoint matrix U* to generator words, and extracts the Laurent data of
fattened Weingarten entries.  The noncrossing-cumulant route to free-product
moments and the single-table sum over Weingarten entries (haar_moment) are
independent cross-checks and live in qhaar.oracles.

A "classical" flavor over full pair partitions drives the comparison with
ordinary Haar unitary random matrices; it builds its Gram matrix the same way
over the crossing-inclusive pairing family, but reads its Weingarten matrix
off the characters of S_k instead of inverting the Gram matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .exactalg import FieldMatrix, RationalFunction, _pmul, laurent_at_infinity
from .partitions import (
    PLAIN,
    STAR,
    Partition,
    SignPattern,
    _find,
    _join_forest,
    enumerate_family,
    fatten,
    join_full,
    kernel,
    leq,
    restrict,
)

__all__ = [
    "Flavor",
    "FLAVORS",
    "flavor_of",
    "Letter",
    "EntryWord",
    "WeingartenTable",
    "WestExpansion",
    "build_table",
    "word_moment",
    "adjoint_reduce",
    "west_expansion",
    "table_to_json",
]

_SIGNS = (PLAIN, STAR)
_KINDS = ("u", "adjoint")


@dataclass(frozen=True)
class Flavor:
    """A Haar family, fixed by its category of partitions (Banica-Speicher,
    "Liberation of orthogonal Lie groups", 2009).

    pairings: the enumerate_family kind of a sign pattern's pairing family;
    p2_eps, which is S_k, also picks build_table's character route.
    cap: the most letters a Weingarten table is built for.
    free: only whether copies with different labels form a free product, as
    words mixing labels need; the free limit of a word does not read it.
    """

    pairings: str
    cap: int
    free: bool


# flavor names stay the public spelling in APIs, JSON and error lines
FLAVORS = {
    "quantum": Flavor("nc2_eps", 8, True),
    "classical": Flavor("p2_eps", 6, False),
}


def flavor_of(name) -> Flavor:
    """The record of a flavor name; a ValueError names the choices."""
    record = FLAVORS.get(name) if isinstance(name, str) else None
    if record is None:
        raise ValueError(f"flavor must be one of {tuple(FLAVORS)}")
    return record


def _as_pattern(eps) -> SignPattern:
    if isinstance(eps, SignPattern):
        return eps
    if isinstance(eps, str):
        return SignPattern.from_text(eps)
    return SignPattern(tuple(eps))


def _counts_from_one(value) -> bool:
    """Whether value is an int >= 1 (not a bool): a matrix index or label."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class Letter:
    """One factor of a word in matrix entries.

    kind "u": the generator power (u_{row,col})^sign of one A_u(n) copy.
    kind "adjoint": the (row, col) entry of the matrix U^sign, so that
    sign "*" denotes (U*)_{row,col}, which equals the generator u*_{col,row}.
    """

    row: int
    col: int
    sign: str = "1"
    kind: str = "u"
    label: int = 1

    def __post_init__(self) -> None:
        if not (_counts_from_one(self.row) and _counts_from_one(self.col)):
            raise ValueError("matrix indices are integers starting at 1")
        if self.sign not in _SIGNS:
            raise ValueError(f"sign must be one of {_SIGNS}")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if not _counts_from_one(self.label):
            raise ValueError("labels are integers starting at 1")

    def as_generator(self) -> "Letter":
        """Rewrite an adjoint-matrix entry as a generator power: (U*)_{ij} = u*_{ji}."""
        if self.kind == "u":
            return self
        if self.sign == "*":
            return Letter(self.col, self.row, "*", "u", self.label)
        return Letter(self.row, self.col, "1", "u", self.label)

    def matrix_indices(self) -> tuple[int, int]:
        """The (row, col) position of this letter read as an entry of U^sign."""
        if self.kind == "u" and self.sign == "*":
            return (self.col, self.row)
        return (self.row, self.col)


@dataclass(frozen=True)
class EntryWord:
    """A word in entries of Haar quantum unitary matrices and their adjoints."""

    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        for let in self.letters:
            if not isinstance(let, Letter):
                raise TypeError("letters must be Letter instances")

    @classmethod
    def of(cls, *items) -> "EntryWord":
        """Build from (row, col[, sign[, kind[, label]]]) tuples or Letters."""
        return cls(tuple(item if isinstance(item, Letter) else Letter(*item) for item in items))

    def __len__(self) -> int:
        return len(self.letters)

    def generator_form(self) -> "EntryWord":
        return EntryWord(tuple(let.as_generator() for let in self.letters))

    def signs(self) -> tuple[str, ...]:
        return tuple(let.sign for let in self.letters)

    def rows(self) -> tuple[int, ...]:
        return tuple(let.row for let in self.letters)

    def cols(self) -> tuple[int, ...]:
        return tuple(let.col for let in self.letters)

    def labels(self) -> tuple[int, ...]:
        return tuple(let.label for let in self.letters)


@dataclass(frozen=True)
class WeingartenTable:
    """Gram and Weingarten matrices over one pairing family.

    gram(p, s) = n^{|join_full(p, s)|}; wg is its exact inverse over Q(n),
    computed as build_table says.  The family is NC2^eps for the quantum
    flavor and P2^eps for the classical one; entries are indexed by the
    enumeration order of the family.
    """

    flavor: str
    pattern: SignPattern
    family: tuple[Partition, ...]
    gram: FieldMatrix
    wg: FieldMatrix
    _index: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index", {p: k for k, p in enumerate(self.family)}
        )

    def wg_entry(self, p: Partition, s: Partition) -> RationalFunction:
        return self.wg.entry(self._index[p], self._index[s])

    def gram_entry(self, p: Partition, s: Partition) -> RationalFunction:
        return self.gram.entry(self._index[p], self._index[s])

    def contains(self, p: Partition) -> bool:
        return p in self._index


_TABLE_CACHE: dict[tuple[str, str], WeingartenTable] = {}
# quantum sign patterns with the same family share a Gram matrix (1* and *1)
_INVERSE_CACHE: dict[FieldMatrix, FieldMatrix] = {}
_CLASSICAL_WG: dict[tuple[int, ...], RationalFunction] = {}


def _classical_wg(cycles) -> RationalFunction:
    """Wg(sigma) of U(n) for sigma in S_k of the given cycle type, by
    Collins-Sniady (2006): the sum over lambda |- k of chi^lambda(sigma) /
    (H_lambda prod (n + c)), H_lambda the hook product and c the content
    j - i of each cell (i, j).  chi is Murnaghan-Nakayama on beta sets: a rim
    hook of length r moves a bead b to the free place b - r, with sign -1
    per bead passed.

    >>> str(_classical_wg((1, 1))), str(_classical_wg((2,)))
    ('1/(n^2 - 1)', '-1/(n^3 - n)')
    """
    cycles = tuple(sorted(cycles, reverse=True))
    if (cached := _CLASSICAL_WG.get(cycles)) is not None:
        return cached

    def chi(beads: frozenset, rest: tuple[int, ...]) -> int:
        if not rest:
            return 1
        r = rest[0]
        return sum((-1) ** sum(b - r < c < b for c in beads) * chi(beads - {b} | {b - r}, rest[1:])
                   for b in beads if b >= r and b - r not in beads)

    total = RationalFunction.zero()
    for shape in {tuple(sorted(map(len, p.blocks), reverse=True))
                  for p in enumerate_family("all", sum(cycles))}:
        hooks, contents = 1, (1,)
        for i, row in enumerate(shape):
            for j in range(row):
                hooks *= row - j + sum(below > j for below in shape[i + 1:])
                contents = _pmul(contents, (j - i, 1))
        beads = frozenset(row + len(shape) - 1 - i for i, row in enumerate(shape))
        total = total + RationalFunction((chi(beads, cycles),), tuple(hooks * c for c in contents))
    _CLASSICAL_WG[cycles] = total
    return total


def _dihedral_symmetries(eps: SignPattern, family) -> list[tuple[int, ...]]:
    """The index permutations of family induced by the rotations and
    reflections of the 2m positions that fix eps, the identity left out.
    They keep noncrossing-ness and |p v q|, so they fix the Gram matrix.
    """
    k, index = len(eps), {p: i for i, p in enumerate(family)}
    turns = [[(y + shift) % k for y in range(k)] for shift in range(k)]
    blocks = [p.block_index() for p in family]
    found = {tuple(index[kernel(block[t[y] + 1] for y in range(k))] for block in blocks)
             for t in turns + [t[::-1] for t in turns]
             if all(eps.signs[t[y]] == eps.signs[y] for y in range(k))}
    return sorted(found - {tuple(range(len(family)))})


def build_table(flavor: str, eps: SignPattern) -> WeingartenTable:
    """Enumerate the pairing family for eps and build its exact Wg matrix.

    Each Gram entry is n^{|p v s|}, with the block count read off a
    union-find over the blocks of p and s; no join partition is built.
    Quantum tables invert the Gram matrix, one entry per orbit of
    _dihedral_symmetries.  P2^eps is S_k (the i-th 1 pairs with the s(i)-th
    *), so a classical entry is _classical_wg of the cycle type of (p, s):
    half the block sizes in the same union-find.  Results are cached by
    (flavor, pattern), quantum inverses by Gram matrix.
    """
    record = flavor_of(flavor)
    eps = _as_pattern(eps)
    if len(eps) > record.cap:
        raise ValueError(f"{flavor} tables support at most {record.cap} letters, got {len(eps)}")
    key = (flavor, str(eps))
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    family = enumerate_family(record.pairings, len(eps), eps).members
    # the join of two pairings of 2m points has at most m blocks
    m = len(eps) // 2
    powers = [RationalFunction.monomial(j) for j in range(m + 1)] if family else []
    forests = [[_join_forest(p, s) for s in family] for p in family]
    gram = FieldMatrix(tuple(tuple(powers[len(eps) - j] for _, j in row) for row in forests))
    if record.pairings == "p2_eps":
        ground = range(1, len(eps) + 1)
        wg = FieldMatrix(tuple(
            tuple(_classical_wg([b // 2 for b in Counter(_find(f, x) for x in ground).values()])
                  for f, _ in row)
            for row in forests
        ))
    else:
        wg = _INVERSE_CACHE.get(gram)
        if wg is None:
            wg = _INVERSE_CACHE[gram] = gram.invert(_dihedral_symmetries(eps, family))
    table = WeingartenTable(flavor, eps, family, gram, wg)
    _TABLE_CACHE[key] = table
    return table


_WEIGHT_CACHE: dict = {}
_CUMULANT_CACHE: dict[Partition, dict[Partition, int]] = {}


def _cumulant_coefficients(ker_l: Partition) -> dict[Partition, int]:
    """c(omega) = sum of mu(omega, tau) over noncrossing omega <= tau <= ker_l.

    The free-product state of a word with label kernel ker_l is the sum over
    noncrossing omega of c(omega) times the product of one-copy states over
    the blocks of omega; only the nonzero coefficients are kept, in the
    enumeration order of NC(k).  Sign patterns do not enter.

    Every omega and tau involved lies in S = {tau in NC(k) : tau <= ker_l},
    a down-set of NC(k).  For omega in S, the sum of c(tau) over tau in S
    with tau >= omega is the sum over sigma in S above omega of
    sum_{omega <= tau <= sigma} mu(tau, sigma) = delta(omega, sigma), so it
    is 1.  One pass over S, fewest blocks first, therefore sets
    c(omega) = 1 - the sum of the c(tau) already found with tau > omega;
    no Moebius value is computed.

    >>> {str(k): v for k, v in _cumulant_coefficients(kernel((1, 2, 1, 2))).items()}
    {'{{1},{2},{3},{4}}': -1, '{{1},{2,4},{3}}': 1, '{{1,3},{2},{4}}': 1}
    """
    cached = _CUMULANT_CACHE.get(ker_l)
    if cached is not None:
        return cached
    below = [tau for tau in enumerate_family("nc", ker_l.size).members if leq(tau, ker_l)]
    found: dict[Partition, int] = {}
    for omega in sorted(below, key=lambda tau: len(tau.blocks)):
        tot = 1 - sum(c for tau, c in found.items() if leq(omega, tau))
        if tot:
            found[omega] = tot
    coefficients = {omega: found[omega] for omega in below if omega in found}
    _CUMULANT_CACHE[ker_l] = coefficients
    return coefficients


def _pair_weights(flavor: str, eps: SignPattern, labels: tuple[int, ...]) -> dict:
    """Coefficient of each pairing pair (p, q) in the exact moment formula.

    Single-label words use the Weingarten entry directly.  Words mixing
    several labels expand the free-product state through noncrossing
    cumulants, which factors the weight over the blocks of every noncrossing
    partition dominating p join q.  Labels enter only through their kernel.
    """
    ker_l = kernel(labels)
    key = (flavor, str(eps), ker_l)
    cached = _WEIGHT_CACHE.get(key)
    if cached is not None:
        return cached
    if len(ker_l.blocks) <= 1:
        table = build_table(flavor, eps)
        weights = {(p, q): table.wg_entry(p, q) for p in table.family for q in table.family}
    else:
        if not flavor_of(flavor).free:
            raise NotImplementedError(
                "multi-label words are only supported for the quantum flavor"
            )
        table = build_table(flavor, eps)
        c_omega = _cumulant_coefficients(ker_l)
        weights = {}
        for p in table.family:
            for q in table.family:
                floor = join_full(p, q)
                acc = RationalFunction.zero()
                for omega, cw in c_omega.items():
                    if not leq(floor, omega):
                        continue
                    term = RationalFunction.from_int(cw)
                    for block in omega.blocks:
                        sub_eps = SignPattern(tuple(eps.signs[v - 1] for v in block))
                        sub = build_table(flavor, sub_eps)
                        term = term * sub.wg_entry(restrict(p, block), restrict(q, block))
                        if not term:
                            break
                    if term:
                        acc = acc + term
                if acc:
                    weights[(p, q)] = acc
    _WEIGHT_CACHE[key] = weights
    return weights


def word_moment(word: EntryWord, flavor: str = "quantum") -> RationalFunction:
    """Haar-state value of an arbitrary entry word; odd-length words are 0.

    Adjoint-matrix entries are first rewritten as generator powers; the value
    is the sum of the pair weights over pairings (p, q) with p refining the
    kernel of the row indices and q that of the column indices.  Words mixing
    several labels are evaluated in the free product (free flavors only).
    """
    if len(word) % 2 == 1:
        return RationalFunction.zero()
    if len(word) == 0:
        return RationalFunction.one()
    gen = word.generator_form()
    weights = _pair_weights(flavor, SignPattern(gen.signs()), gen.labels())
    ker_i, ker_j = kernel(gen.rows()), kernel(gen.cols())
    total = RationalFunction.zero()
    for (p, q), w in weights.items():
        if leq(p, ker_i) and leq(q, ker_j):
            total = total + w
    return total


def adjoint_reduce(word: EntryWord) -> EntryWord:
    """Rewrite a word in entries of the matrices U^eps as a generator word.

    Each letter is read as the (a, b) entry of U^eps; the output letter keeps
    those indices at odd positions and swaps them at even positions, with the
    sign applied to the generator.  Haar moments of input and output agree.
    """
    if len(word) % 2 == 1:
        raise ValueError("adjoint reduction requires an even-length word")
    out = []
    for pos, let in enumerate(word.letters, start=1):
        a, b = let.matrix_indices()
        if pos % 2 == 0:
            a, b = b, a
        out.append(Letter(a, b, let.sign, "u", let.label))
    return EntryWord(tuple(out))


class WestExpansion(NamedTuple):
    """Laurent data of a fattened Weingarten entry W(fatten(p), fatten(s)).

    exponent: leading exponent of the entry itself (None if the entry is 0).
    c0, c1, c2: absolute coefficients of n^0, n^-1, n^-2 in the rescaled
    entry n^(m + |s| - |p|) W(fatten(p), fatten(s)).
    """

    exponent: int | None
    c0: Fraction
    c1: Fraction
    c2: Fraction


def west_expansion(table: WeingartenTable, p: Partition, s: Partition) -> WestExpansion:
    """Expansion of n^(m+|s|-|p|) W(fatten(p), fatten(s)) at n = infinity.

    The rescaled entry tends to mu(s, p); the n^-1 term vanishes; the raw
    entry has leading exponent at most 2|p v s| - |p| - |s| - m.  The series
    of n^scale f is that of f with every exponent raised by scale, so the
    data are read off the entry's own series at n^-scale, n^(-1-scale) and
    n^(-2-scale); the rescaled function is never formed.
    """
    m = len(table.pattern) // 2
    fp, fs = fatten(p), fatten(s)
    if not table.contains(fp) or not table.contains(fs):
        raise ValueError("fattened partitions must belong to the table family")
    entry = table.wg_entry(fp, fs)
    if not entry:
        return WestExpansion(None, Fraction(0), Fraction(0), Fraction(0))
    scale = m + len(s.blocks) - len(p.blocks)
    dp, dq = entry.degrees()
    raw_lead = dp - dq
    series = laurent_at_infinity(entry, max(0, raw_lead + scale + 2))
    return WestExpansion(
        raw_lead,
        series.abs_coefficient(-scale),
        series.abs_coefficient(-1 - scale),
        series.abs_coefficient(-2 - scale),
    )


def table_to_json(table: WeingartenTable) -> dict:
    """JSON-ready dict: ordered labels, entries as rational-function strings."""
    labels = [str(p) for p in table.family]
    size = len(table.family)
    return {
        "flavor": table.flavor,
        "pattern": str(table.pattern),
        "labels": labels,
        "gram": [[str(table.gram.entry(a, b)) for b in range(size)] for a in range(size)],
        "wg": [[str(table.wg.entry(a, b)) for b in range(size)] for a in range(size)],
    }
