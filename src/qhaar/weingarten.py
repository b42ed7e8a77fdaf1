"""Weingarten calculus for the quantum unitary group A_u(n), exactly over Q(n).

Builds Gram and Weingarten matrices for sign patterns, evaluates Haar-state
moments of words in the generator entries U_ij, reduces words in entries of
the adjoint matrix U* to generator words, computes free-product moments via
cumulant sums, and extracts the Laurent data of fattened Weingarten entries.

A "classical" flavor over full pair partitions drives the comparison with
ordinary Haar unitary random matrices; it uses the same Gram construction over
the crossing-inclusive pairing family.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .exactalg import FieldMatrix, RationalFunction, laurent_at_infinity
from .partitions import (
    Partition,
    SignPattern,
    enumerate_family,
    fatten,
    join_full,
    kernel,
    leq,
    mobius,
)

__all__ = [
    "FLAVORS",
    "Letter",
    "EntryWord",
    "WeingartenTable",
    "WestExpansion",
    "build_table",
    "haar_moment",
    "word_moment",
    "adjoint_reduce",
    "moment_function",
    "entry_cumulant",
    "free_product_moment",
    "west_expansion",
    "table_to_json",
    "table_to_csv",
]

FLAVORS = ("quantum", "classical")
SIZE_CAPS = {"quantum": 8, "classical": 6}
_SIGNS = ("1", "*")
_KINDS = ("u", "adjoint")


def _as_pattern(eps) -> SignPattern:
    if isinstance(eps, SignPattern):
        return eps
    if isinstance(eps, str):
        return SignPattern.from_text(eps)
    return SignPattern(tuple(eps))


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
        if self.row < 1 or self.col < 1:
            raise ValueError("matrix indices start at 1")
        if self.sign not in _SIGNS:
            raise ValueError(f"sign must be one of {_SIGNS}")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.label < 1:
            raise ValueError("labels start at 1")

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
        letters = []
        for item in items:
            letters.append(item if isinstance(item, Letter) else Letter(*item))
        return cls(tuple(letters))

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

    gram(p, s) = n^{|join_full(p, s)|}; wg is its exact inverse over Q(n).
    The family is NC2^eps for the quantum flavor and P2^eps for the classical
    one; entries are indexed by the enumeration order of the family.
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


def build_table(flavor: str, eps: SignPattern) -> WeingartenTable:
    """Enumerate the pairing family for eps and invert its Gram matrix exactly.

    Results are cached by (flavor, pattern); cached tables are immutable.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}")
    eps = _as_pattern(eps)
    cap = SIZE_CAPS[flavor]
    if len(eps) > cap:
        raise ValueError(f"{flavor} tables support at most {cap} letters, got {len(eps)}")
    key = (flavor, str(eps))
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    kind = "nc2_eps" if flavor == "quantum" else "p2_eps"
    family = enumerate_family(kind, len(eps), eps).members
    rows = []
    for p in family:
        row = tuple(
            RationalFunction.monomial(len(join_full(p, s).blocks)) for s in family
        )
        rows.append(row)
    gram = FieldMatrix(tuple(rows))
    table = WeingartenTable(flavor, eps, family, gram, gram.invert())
    _TABLE_CACHE[key] = table
    return table


def _refines_kernel(pairing: Partition, values: tuple[int, ...]) -> bool:
    return all(
        all(values[v - 1] == values[block[0] - 1] for v in block[1:])
        for block in pairing.blocks
    )


def haar_moment(table: WeingartenTable, i, j) -> RationalFunction:
    """psi_n of the generator word with row indices i, column indices j.

    Sums wg(p, s) over family pairings p refining ker i and s refining ker j.
    """
    i = tuple(i)
    j = tuple(j)
    k = len(table.pattern)
    if len(i) != k or len(j) != k:
        raise ValueError(f"index tuples must have length {k}")
    if any(x < 1 for x in i + j):
        raise ValueError("matrix indices start at 1")
    total = RationalFunction.zero()
    row_ok = [p for p in table.family if _refines_kernel(p, i)]
    col_ok = [s for s in table.family if _refines_kernel(s, j)]
    for p in row_ok:
        for s in col_ok:
            total = total + table.wg_entry(p, s)
    return total


def word_moment(word: EntryWord, flavor: str = "quantum") -> RationalFunction:
    """Haar-state value of an arbitrary entry word; odd-length words are 0.

    Adjoint-matrix entries are first rewritten as generator powers.  Words
    mixing several labels are evaluated in the free product (quantum only).
    """
    if len(word) % 2 == 1:
        return RationalFunction.zero()
    if len(word) == 0:
        return RationalFunction.one()
    gen = word.generator_form()
    labels = gen.labels()
    eps = SignPattern(gen.signs())
    if len(set(labels)) > 1:
        if flavor != "quantum":
            raise NotImplementedError(
                "multi-label words are only supported for the quantum flavor"
            )
        return free_product_moment(eps, labels, gen.rows(), gen.cols())
    table = build_table(flavor, eps)
    return haar_moment(table, gen.rows(), gen.cols())


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


def moment_function(table: WeingartenTable, omega: Partition, i, j) -> RationalFunction:
    """The partial moment along omega: product of Haar moments of its blocks.

    Scalar values multiply, so nested extraction along a noncrossing omega
    reduces to a product over blocks; any odd block forces the value 0.
    """
    i = tuple(i)
    j = tuple(j)
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
        sub_table = build_table(table.flavor, sub_eps)
        sub_i = tuple(i[v - 1] for v in block)
        sub_j = tuple(j[v - 1] for v in block)
        total = total * haar_moment(sub_table, sub_i, sub_j)
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


def free_product_moment(eps, labels, i, j, n: int | None = None) -> RationalFunction:
    """Haar state of the free product on a generator word with factor labels.

    Computed exactly as the sum of kappa^(tau) over noncrossing tau refining
    ker(labels): mixed cumulants of free, identically distributed factors
    vanish.  With all labels equal this is the plain Haar moment.
    """
    eps = _as_pattern(eps)
    labels = tuple(labels)
    i = tuple(i)
    j = tuple(j)
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
    if n is not None:
        return RationalFunction.from_fraction(total.evaluate(n))
    return total


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
    entry has leading exponent at most 2|p v s| - |p| - |s| - m.
    """
    m = len(table.pattern) // 2
    fp, fs = fatten(p), fatten(s)
    if not table.contains(fp) or not table.contains(fs):
        raise ValueError("fattened partitions must belong to the table family")
    entry = table.wg_entry(fp, fs)
    scale = m + len(s.blocks) - len(p.blocks)
    scaled = RationalFunction.monomial(scale) * entry
    if not scaled:
        return WestExpansion(None, Fraction(0), Fraction(0), Fraction(0))
    dp, dq = scaled.degrees()
    lead = dp - dq
    series = laurent_at_infinity(scaled, max(0, lead + 2))
    raw_lead = lead - scale
    return WestExpansion(
        raw_lead,
        series.abs_coefficient(0),
        series.abs_coefficient(-1),
        series.abs_coefficient(-2),
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


def table_to_csv(table: WeingartenTable) -> str:
    """CSV text with one row per ordered pair of family members."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pi", "sigma", "gram", "wg"])
    for a, p in enumerate(table.family):
        for b, s in enumerate(table.family):
            writer.writerow(
                [str(p), str(s), str(table.gram.entry(a, b)), str(table.wg.entry(a, b))]
            )
    return buf.getvalue()
