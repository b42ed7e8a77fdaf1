"""Asymptotic and infinitesimal freeness checks for rotated matrix families.

Evaluates operator-valued moments of words that mix Haar unitary letters with
matrix factors over a coefficient algebra, exactly at every size N, and
compares them with the limiting free-probability formula.  The same engine
produces O(N^-2) convergence reports, the classical-versus-quantum
counterexample built from two commuting matrix-unit systems, and exact
first-order (infinitesimal) freeness identities extracted from the Laurent
expansion of the moments in 1/N.

Scenario files describe a coefficient algebra, named matrix families given by
size-independent constructors, a word shape, and an N range; they drive both
the command line and the acceptance checks.
"""

from __future__ import annotations

import ast
import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .exactalg import GaussianRational, RationalFunction, laurent_at_infinity
from .opvalued import (
    BMatrix,
    CoefficientAlgebra,
    DenseAlgebra,
    DiagramMatrix,
    MatrixUnitAlgebra,
    MatrixUnitElement,
    MAX_N,
    _check_args,
    _dict_sum,
    constrained_sum,
    evaluate_expression,
    functional_e,
    loop_polynomials,
    parse_expression,
    parse_scalar,
)
from .partitions import (
    PLAIN,
    STAR,
    Partition,
    SignPattern,
    _signed_catalan,
    enumerate_family,
    fatten,
    interleave,
    join_full,
    kernel,
    kreweras,
    leq,
    mobius,
)
from .weingarten import _counts_from_one, build_table, flavor_of
# bench/tracing.py counts and probes these two under qhaar.freeness
from .weingarten import _WEIGHT_CACHE, _pair_weights

__all__ = [
    "UnitaryLetter",
    "MixedWord",
    "lhs_exact",
    "lhs_function",
    "limit_formula",
    "cumulant_limit",
    "ReportRow",
    "ConvergenceReport",
    "convergence_report",
    "element_payload",
    "report_to_json",
    "CROSSING_PAIRING",
    "crossing_pairing_present",
    "counterexample_word",
    "counterexample",
    "finite_dim_scenario",
    "FamilySpec",
    "Scenario",
    "load_scenario",
    "ConstantPattern",
    "MomentPattern",
    "WordToken",
    "InfinitesimalPair",
    "infinitesimal_check",
]

# the names a matrix_unit_pattern entry may use
ENTRY_NAMES = ("i", "j", "N", "E")

SLOPE_THRESHOLD = -1.7
N2_GROWTH_FACTOR = 1.5
# the fewest sizes a verdict passes on: six make n2_bounded's three-size head
# and tail windows disjoint
MIN_SIZES = 6


# ---------------------------------------------------------------------------
# words


class UnitaryLetter(NamedTuple):
    """One U^sign factor of a mixed word, followed by its matrix factor."""

    label: int
    sign: str
    factor: BMatrix


@dataclass(frozen=True)
class MixedWord:
    """Alternating word U(l_1)^eps_1 A(1) U(l_2)^eps_2 A(2) ... over one algebra.

    An optional lead matrix C sits in front of the first unitary letter, so
    constant words (no letters at all) are representable as a bare lead.  The
    flavor selects which Haar family the unitary letters are drawn from.
    """

    flavor: str
    letters: tuple[UnitaryLetter, ...]
    lead: BMatrix | None = None

    def __post_init__(self) -> None:
        flavor_of(self.flavor)
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters and self.lead is None:
            raise ValueError("a word needs at least one letter or a lead matrix")
        for let in self.letters:
            if not isinstance(let, UnitaryLetter):
                raise TypeError("letters must be UnitaryLetter instances")
            if not _counts_from_one(let.label):
                raise ValueError("unitary labels are integers starting at 1")
        if self.letters:
            SignPattern(self.signs())
        _check_args(self.all_factors())

    @classmethod
    def rotated(cls, flavor: str, factors_a, factors_b) -> "MixedWord":
        """The word U A(1) U* B(1) U A(2) U* B(2) ... in the unitary of label 1."""
        factors_a = list(factors_a)
        factors_b = list(factors_b)
        if len(factors_a) != len(factors_b) or not factors_a:
            raise ValueError("need equally many A and B factors, at least one each")
        letters = []
        for a, b in zip(factors_a, factors_b):
            letters.append(UnitaryLetter(1, "1", a))
            letters.append(UnitaryLetter(1, "*", b))
        return cls(flavor, tuple(letters))

    @property
    def size(self) -> int:
        return self.all_factors()[0].size

    @property
    def algebra(self) -> CoefficientAlgebra:
        return self.all_factors()[0].algebra

    def signs(self) -> tuple[str, ...]:
        return tuple(let.sign for let in self.letters)

    def labels(self) -> tuple[int, ...]:
        return tuple(let.label for let in self.letters)

    def factors(self) -> list:
        return [let.factor for let in self.letters]

    def all_factors(self) -> list:
        out = [self.lead] if self.lead is not None else []
        out.extend(let.factor for let in self.letters)
        return out

    @cached_property
    def sums(self) -> dict:
        """The constrained sums of all_factors() read so far, by slot
        partition; not a field, so eq and hash ignore it."""
        return {}


# ---------------------------------------------------------------------------
# exact evaluation at finite N


def _slot_partition(word: MixedWord, p: Partition, q: Partition) -> Partition:
    """Translate a pairing pair into equalities between factor index slots.

    Tracing the word introduces one summation index per adjacency: b_t feeds
    the t-th unitary letter from the left, c_t leaves it to the right.  Factor
    t sits on (c_t, b_(t+1)) and a lead on (b_(k+1), b_1), k letters in all:
    b_(k+1) closes the trace, and is b_1 itself without a lead.  The row of letter t (b_t for U,
    c_t for U*) carries t's block of p, its column t's block of q, and the
    slot partition is the kernel of these labels.
    """
    ip, iq, off = p.block_index(), q.block_index(), len(p.blocks)
    labels = []  # of b_1 c_1 b_2 c_2 ...
    for t, sign in enumerate(word.signs(), start=1):
        row, col = ip[t], off + iq[t]
        labels.extend((row, col) if sign == "1" else (col, row))
    if word.lead is None:
        return kernel(labels[1:] + labels[:1])
    return kernel([-1, *labels, -1])


# the slot partition of a word without unitary letters: tr of its lead
_LEAD_ONLY = Partition.full(2)


def _lhs_terms(word: MixedWord) -> list:
    """The (slot partition, weight) pairs whose constrained sums, weighted
    and divided by N, make up lhs_exact: one per pairing pair with a nonzero
    Weingarten weight.  A word without unitary letters is the expectation of
    its lead: the slot partition {{1,2}}, weight 1."""
    if not word.letters:
        return [(_LEAD_ONLY, RationalFunction.one())]
    weights = _pair_weights(word.flavor, SignPattern(word.signs()), word.labels())
    return [(_slot_partition(word, p, q), w) for (p, q), w in weights.items() if w]


def _evaluate_terms(terms, word: MixedWord, scale: Fraction = Fraction(1)):
    """The sum over (constraint, weight) terms of scale times the weight at
    the word's size times the constrained sum of the word's factors (lead
    included), each sum computed once per word (MixedWord.sums).  Terms with
    a zero weight or a zero sum are skipped; the algebra weights the rest at
    once (CoefficientAlgebra.weighted_sum), a dense one in integers."""
    n = word.size
    factors = word.all_factors()
    sums = word.sums
    pairs = []
    for constraint, w in terms:
        wn = w.evaluate(n)
        if not wn:
            continue
        block_sum = sums.get(constraint)
        if block_sum is None:
            block_sum = sums[constraint] = constrained_sum(constraint, factors)
        if block_sum:
            pairs.append((wn * scale, block_sum))
    return word.algebra.weighted_sum(pairs)


def lhs_exact(word: MixedWord, n: int | None = None):
    """Exact value of (Haar state tensor tr_N tensor id)[word] at size N.

    Sums Weingarten weights against constrained sums whose index equalities
    are dictated by each pairing pair (_lhs_terms); the 1/N prefactor of the
    normalized trace is folded into the weights, so the sum is weighted once.
    Without n: lhs_function(word), the value at every N.
    """
    if n is None:
        return lhs_function(word)
    if n < 2:
        raise ValueError("evaluation requires N >= 2")
    if word.size != n:
        raise ValueError(f"word is built at size {word.size}, not {n}")
    return _evaluate_terms(_lhs_terms(word), word, Fraction(1, n))


# ---------------------------------------------------------------------------
# limiting formulas


def _require_limit_word(word: MixedWord) -> None:
    if word.lead is not None:
        raise ValueError("the limit formula applies to words without a lead matrix")
    if not word.letters:
        raise ValueError("the limit formula needs at least two unitary letters")


def _limit_terms(word: MixedWord):
    """Yield limit_formula's (constraint, weight) terms: for each pair sigma
    <= pi of admissible noncrossing partitions whose fattenings respect the
    label kernel, fatten(tau) and mu(sigma, pi) N^-|tau| with tau = sigma
    interleaved with the Kreweras complement of pi, as in functional_e(tau)."""
    m2 = len(word.letters)
    eps = SignPattern(word.signs())
    ker_l = kernel(word.labels())
    family = enumerate_family("nc_eps", m2 // 2, eps).members
    fat = {p: fatten(p) for p in family}
    for pi in family:
        kp = kreweras(pi)
        for sigma in family:
            if not leq(sigma, pi):
                continue
            if not leq(join_full(fat[pi], fat[sigma]), ker_l):
                continue
            tau = interleave(sigma, kp)
            yield fatten(tau), RationalFunction((mobius(sigma, pi),), (0,) * len(tau.blocks) + (1,))


def limit_formula(word: MixedWord):
    """The free limit of the word's factors: the N -> infinity value of the
    quantum word; a classical word is compared with it.  A Mobius sum of
    nested expectations (_limit_terms) at the word's size."""
    _require_limit_word(word)
    return _evaluate_terms(_limit_terms(word), word)


def cumulant_limit(word: MixedWord):
    """The free limit of the word's factors (see limit_formula) through
    free-cumulant weights.

    Expands the state over the noncrossing partitions refining the label
    kernel whose blocks alternate in sign (nch_eps), each with the signed
    Catalan weight of the free Haar unitary, and integrates the factors
    along the Kreweras complement.  Kept separate from limit_formula so the
    two routes stay independent cross-checks.
    """
    _require_limit_word(word)
    m2 = len(word.letters)
    ker_l = kernel(word.labels())
    factors = word.factors()
    total = word.algebra.zero()
    for tau in enumerate_family("nch_eps", m2, SignPattern(word.signs())).members:
        if not leq(tau, ker_l):
            continue
        weight = math.prod(_signed_catalan(len(block) // 2) for block in tau.blocks)
        total = total + functional_e(kreweras(tau), factors) * weight
    return total


# ---------------------------------------------------------------------------
# convergence reports


class ReportRow(NamedTuple):
    n: int
    value: object
    delta: float
    n2_delta: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-size deviations from the limit plus two decay diagnostics.

    slope is the least-squares slope of log delta against log N over the tail
    (None when the tail deviations vanish identically); n2_bounded compares
    the largest N^2 delta of the last three sizes against the first three.
    The verdict passes only when both diagnostics pass on at least MIN_SIZES
    sizes; the CLI exits 1 exactly when it fails.
    """

    rows: tuple[ReportRow, ...]
    slope: float | None
    slope_ok: bool
    n2_bounded: bool

    @property
    def verdict(self) -> bool:
        return len(self.rows) >= MIN_SIZES and self.slope_ok and self.n2_bounded


def _fit_slope(rows) -> tuple[float | None, bool]:
    tail = rows[-max(3, len(rows) // 2):]
    pts = [(math.log(r.n), math.log(r.delta)) for r in tail if r.delta > 0.0]
    if len(pts) < 2:
        return None, True
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    if den == 0.0:
        return None, True
    slope = sum((x - mx) * (y - my) for x, y in pts) / den
    return slope, slope <= SLOPE_THRESHOLD


def _n2_bounded(rows) -> bool:
    head = max(r.n2_delta for r in rows[:3])
    tail = max(r.n2_delta for r in rows[-3:])
    if head == 0.0:
        return tail == 0.0
    return tail <= N2_GROWTH_FACTOR * head


def convergence_report(word_at, n_range) -> ConvergenceReport:
    """Evaluate a word family over an N range and diagnose the decay rate.

    word_at is a callable N -> MixedWord; each value is compared with the
    free limit of its word's factors (limit_formula): the N -> infinity
    value of the quantum word, which a classical word is compared with.
    Rows come in increasing N order.
    """
    ns = sorted({int(n) for n in n_range})
    if not ns:
        raise ValueError("empty N range")

    def row(n: int) -> ReportRow:
        word = word_at(n)
        value = lhs_exact(word, n)
        try:
            delta = word.algebra.norm_float(value - limit_formula(word))
        except OverflowError:
            delta = math.inf
        if not math.isfinite(n * n * delta):
            raise ValueError(f"N = {n}: exact values exceed the float range of the spectral norm")
        return ReportRow(n, value, delta, float(n * n) * delta)

    rows = [row(n) for n in ns]
    slope, slope_ok = _fit_slope(rows)
    return ConvergenceReport(tuple(rows), slope, slope_ok, _n2_bounded(rows))


def element_payload(value) -> dict:
    """JSON-ready form of an algebra element, exact coordinates as strings."""
    if isinstance(value, BMatrix):
        return {
            "kind": "dense",
            "dim": value.size,
            "rows": [[str(v) for v in row] for row in value.rows],
        }
    if isinstance(value, MatrixUnitElement):
        return {
            "kind": "matrix_unit",
            "size": value.n,
            "terms": {
                ",".join(str(t) for t in key): str(value.terms[key])
                for key in sorted(value.terms)
            },
        }
    raise TypeError(f"cannot serialize {type(value).__name__}")


def report_to_json(report: ConvergenceReport) -> dict:
    return {
        "rows": [
            {
                "n": r.n,
                "value": element_payload(r.value),
                "delta": r.delta,
                "n2_delta": r.n2_delta,
            }
            for r in report.rows
        ],
        "slope": report.slope,
        "slope_ok": report.slope_ok,
        "n2_bounded": report.n2_bounded,
        "verdict": report.verdict,
    }


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class FamilySpec:
    """One named matrix family given by a size-independent constructor.

    Kinds: matrix_unit_pattern (an entry expression in i, j, N over the two
    matrix-unit systems), circulant (cell t of a list at (r, r + t mod N) in
    every row r), diagonal_pattern (cell r mod p of a list of p at (r, r)),
    and explicit (a literal matrix per size).  A scenario's diagonal_constant
    family loads as the one-cell diagonal_pattern.
    """

    kind: str
    payload: object

    @cached_property
    def diagrams(self) -> dict | None:
        """The partition-algebra terms of a matrix_unit_pattern family whose
        entry passes _lifts_at_every_n, or None.

        Lifted once, at N = 6, where every diagram has members and the lift
        is unique; every other family is built at each N.
        """
        if self.kind != "matrix_unit_pattern" or not _lifts_at_every_n(
            parse_expression(self.payload, ENTRY_NAMES)
        ):
            return None
        return self._entries(MatrixUnitAlgebra(6), 6).lift()

    def matrix(self, algebra: CoefficientAlgebra, n: int) -> BMatrix:
        if self.diagrams is not None:
            return DiagramMatrix(algebra, self.diagrams)
        return self._entries(algebra, n)

    def _entries(self, algebra: CoefficientAlgebra, n: int) -> BMatrix:
        rng = range(1, n + 1)
        if self.kind == "matrix_unit_pattern":
            tree = parse_expression(self.payload, ENTRY_NAMES)
            env = {"N": Fraction(n), "E": algebra.unit}
            one = algebra.one()
            rows = [
                [
                    evaluate_expression(tree, {**env, "i": Fraction(i), "j": Fraction(j)}, one)
                    for j in rng
                ]
                for i in rng
            ]
            return BMatrix(algebra, rows)
        if self.kind in ("circulant", "diagonal_pattern"):
            # a circulant puts cell t at (r, r + t mod N), where cells that wrap
            # onto one place add up; a diagonal pattern puts cell r mod p at (r, r)
            cells = self.payload
            if self.kind == "circulant":
                placed = [(r, (r + t) % n, x) for t, x in enumerate(cells) for r in range(n)]
            else:
                placed = [(r, r, cells[r % len(cells)]) for r in range(n)]
            zero = algebra.zero()
            rows = [[zero] * n for _ in range(n)]
            for r, c, cell in placed:
                rows[r][c] = rows[r][c] + cell
            return BMatrix(algebra, rows)
        if self.kind == "explicit":
            rows = self.payload.get(n)
            if rows is None:
                raise ValueError(f"explicit family lacks a matrix for N = {n}")
            return BMatrix(algebra, rows)
        raise ValueError(f"unknown family constructor: {self.kind}")


def _lifts_at_every_n(tree: ast.Expression) -> bool:
    """Whether an entry expression is one partition-algebra element at every
    N: every E(...) index is a bare i or j, i and j appear nowhere else, and
    N does not occur.  Such an entry is a fixed polynomial in the deltas of
    its indices, whose diagram coefficients do not depend on N."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            args = node.args
            if not (
                node.func.id == "E"
                and len(args) == 3
                and isinstance(args[0], ast.Constant) and args[0].value in (1, 2)
                and all(isinstance(x, ast.Name) and x.id in ("i", "j") for x in args[1:])
            ):
                return False
            allowed.update(map(id, [node.func, *args[1:]]))
    return all(
        id(node) in allowed for node in ast.walk(tree) if isinstance(node, ast.Name)
    )


@dataclass
class Scenario:
    """A flavor, a coefficient algebra, named families, a word, and a range."""

    name: str
    flavor: str
    kind: str
    dim: int | None
    families: dict
    word: tuple
    n_range: tuple[int, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        flavor_of(self.flavor)
        if self.kind not in ("dense", "matrix_unit"):
            raise ValueError("algebra kind must be 'dense' or 'matrix_unit'")
        if self.kind == "dense" and (self.dim is None or self.dim < 1):
            raise ValueError("dense scenarios need a positive dimension")
        if not self.families:
            raise ValueError("a scenario declares at least one family")
        if not self.word or len(self.word) % 2 == 1:
            raise ValueError("the word needs an even positive number of letters")

    def algebra(self, n: int) -> CoefficientAlgebra:
        if self.kind == "dense":
            return DenseAlgebra(self.dim)
        return MatrixUnitAlgebra(n)

    def family_matrix(self, name: str, n: int) -> BMatrix:
        key = (name, n)
        cached = self._cache.get(key)
        if cached is None:
            spec = self.families.get(name)
            if spec is None:
                raise ValueError(f"unknown family: {name}")
            with _field(f"family {name}"):
                cached = spec.matrix(self.algebra(n), n)
            self._cache[key] = cached
        return cached

    def identity(self, n: int) -> BMatrix:
        """The identity of M_N(B); over matrix units, one diagram."""
        matrix = DiagramMatrix if self.kind == "matrix_unit" else BMatrix
        return matrix.identity(self.algebra(n), n)

    def word_at(self, n: int) -> MixedWord:
        mats = {name: self.family_matrix(name, n) for name in self.families}
        one = self.identity(n)
        letters = []
        for t, (label, sign, expr) in enumerate(self.word, 1):
            with _field(f"word letter {t}"):
                factor = evaluate_expression(parse_expression(expr, mats), mats, one)
            letters.append(UnitaryLetter(label, sign, factor))
        return MixedWord(self.flavor, tuple(letters))

    def report(self, n_range=None) -> ConvergenceReport:
        return convergence_report(self.word_at, self.n_range if n_range is None else n_range)


@contextmanager
def _field(where: str):
    """Prefix a ValueError raised inside with the scenario field it concerns."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _parse_cell(data, dim: int) -> BMatrix:
    if not isinstance(data, list) or len(data) != dim:
        raise ValueError(f"dense cells are {dim}x{dim} nested lists of scalars")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"dense cells are {dim}x{dim} nested lists of scalars")
        rows.append([parse_scalar(v) for v in row])
    return DenseAlgebra(dim).element(rows)


def _parse_family(data, kind: str, dim: int | None) -> FamilySpec:
    if not isinstance(data, dict) or "constructor" not in data:
        raise ValueError("each family is an object with a 'constructor' field")
    ctor = data["constructor"]
    if ctor == "matrix_unit_pattern":
        if kind != "matrix_unit":
            raise ValueError("matrix_unit_pattern families need the matrix_unit algebra")
        entry = data.get("entry")
        if not isinstance(entry, str):
            raise ValueError("matrix_unit_pattern families need an 'entry' expression")
        parse_expression(entry, ENTRY_NAMES)
        return FamilySpec(ctor, entry)
    if kind != "dense":
        raise ValueError(f"constructor {ctor} needs the dense algebra")
    if ctor == "diagonal_constant":
        return FamilySpec("diagonal_pattern", (_parse_cell(data.get("cell"), dim),))
    if ctor in ("circulant", "diagonal_pattern"):
        key = "coefficients" if ctor == "circulant" else "cells"
        cells = data.get(key)
        if not isinstance(cells, list) or not cells:
            raise ValueError(f"{ctor} families need a nonempty '{key}' list")
        return FamilySpec(ctor, tuple(_parse_cell(c, dim) for c in cells))
    if ctor == "explicit":
        table = data.get("matrices")
        if not isinstance(table, dict) or not table:
            raise ValueError("explicit families need a 'matrices' object keyed by N")
        sizes = {str(n): n for n in range(2, MAX_N + 1)}
        payload = {}
        for key, rows in table.items():
            n = sizes.get(str(key))
            if n is None:
                raise ValueError(f"'matrices' keys are sizes from 2 to {MAX_N}, got {key!r}")
            if not (
                isinstance(rows, list)
                and len(rows) == n
                and all(isinstance(row, list) and len(row) == n for row in rows)
            ):
                raise ValueError(f"the explicit matrix for N = {n} must be {n}x{n}")
            payload[n] = [[_parse_cell(v, dim) for v in row] for row in rows]
        return FamilySpec(ctor, payload)
    raise ValueError(f"unknown family constructor: {ctor}")


def load_scenario(source) -> Scenario:
    """Build a Scenario from a JSON file path or an already-decoded dict."""
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read scenario file: {source}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario file is not valid JSON: {source}") from exc
    elif isinstance(source, dict):
        data = source
    else:
        raise TypeError("scenario source must be a path or a dict")
    if not isinstance(data, dict):
        raise ValueError("a scenario file holds one JSON object")

    name = data.get("name", "scenario")
    if not isinstance(name, str):
        raise ValueError("name must be a string")
    flavor = data.get("flavor")
    try:
        record = flavor_of(flavor)
    except ValueError as exc:
        raise ValueError(f"scenario {exc}") from None
    alg = data.get("algebra")
    if not isinstance(alg, dict) or alg.get("kind") not in ("dense", "matrix_unit"):
        raise ValueError("scenario algebra must declare kind 'dense' or 'matrix_unit'")
    kind = alg["kind"]
    dim = None
    if kind == "dense":
        dim = alg.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= 4:
            raise ValueError("dense scenarios need an integer dim between 1 and 4")
    fams = data.get("families")
    if not isinstance(fams, dict) or not fams:
        raise ValueError("scenario must declare a nonempty 'families' object")
    families = {}
    for nm, fd in fams.items():
        with _field(f"family {nm}"):
            families[str(nm)] = _parse_family(fd, kind, dim)
    raw_word = data.get("word")
    if not isinstance(raw_word, list) or not raw_word:
        raise ValueError("scenario must declare a nonempty 'word' list")
    word = []
    for t, item in enumerate(raw_word, 1):
        if not isinstance(item, dict):
            raise ValueError("word letters are objects with label, sign, factor")
        label = item.get("label", 1)
        sign = item.get("sign")
        factor = item.get("factor")
        if not _counts_from_one(label):
            raise ValueError("letter labels are integers starting at 1")
        if sign not in (PLAIN, STAR):
            raise ValueError("letter signs must be '1' or '*'")
        if not isinstance(factor, str):
            raise ValueError("letter factors are expression strings")
        with _field(f"word letter {t}"):
            parse_expression(factor, families)
        word.append((label, sign, factor))
    labels = {label for label, _, _ in word}
    if len(labels) > 1 and not record.free:
        raise ValueError(f"word: {flavor} scenarios use one unitary label")
    if len(word) > record.cap:
        raise ValueError(
            f"word: {flavor} words have at most {record.cap} letters, got {len(word)}"
        )
    rng = data.get("n_range")
    if (
        not isinstance(rng, list)
        or len(rng) != 2
        or not all(isinstance(v, int) for v in rng)
        or rng[0] < 2
        or rng[1] < rng[0]
    ):
        raise ValueError("n_range must be [lo, hi] with 2 <= lo <= hi")
    if rng[1] > MAX_N:
        raise ValueError(f"n_range: sizes are capped at {MAX_N}, got {rng[1]}")
    n_range = tuple(range(rng[0], rng[1] + 1))
    return Scenario(
        name=name,
        flavor=flavor,
        kind=kind,
        dim=dim,
        families=families,
        word=tuple(word),
        n_range=n_range,
    )


def finite_dim_scenario(d: int) -> ConvergenceReport:
    """Classical-flavor convergence of a random bounded dense-constant family.

    Runs the rotated length-3 word of _finite_dim_spec under classical Haar
    letters and reports against the limit formula; with a finite-dimensional
    coefficient algebra the classical letters already achieve the O(N^-2)
    rate.
    """
    return _finite_dim_spec(d).report()


def _finite_dim_spec(d: int) -> Scenario:
    """The scenario of finite_dim_scenario: two circulant families with fixed
    random d x d blocks, drawn from seed 7."""
    if not 1 <= d <= 3:
        raise ValueError("the dense dimension must be 1, 2, or 3")
    rng = random.Random(7)

    def cell():
        rows = [
            [
                GaussianRational(
                    Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                    Fraction(rng.randint(-1, 1), 1),
                )
                for _ in range(d)
            ]
            for _ in range(d)
        ]
        return DenseAlgebra(d).element(rows)

    families = {
        "A": FamilySpec("circulant", (cell(), cell(), cell())),
        "B": FamilySpec("circulant", (cell(), cell(), cell())),
    }
    word = (
        (1, "1", "A"),
        (1, "*", "B"),
        (1, "1", "A"),
        (1, "*", "B"),
        (1, "1", "A"),
        (1, "*", "B"),
    )
    return Scenario(
        name=f"finite-dim-d{d}",
        flavor="classical",
        kind="dense",
        dim=d,
        families=families,
        word=word,
        # classical 6-letter Weingarten entries have poles at N = 1, 2;
        # starting at 4 also keeps the wrap-around sizes of the circulants
        # in the window
        n_range=tuple(range(4, 10)),
    )


# ---------------------------------------------------------------------------
# the two-system counterexample


CROSSING_PAIRING = Partition.from_text("{{1,4},{2,5},{3,6}}")


def crossing_pairing_present(flavor: str) -> bool:
    """Whether the crossing pairing enters the length-6 alternating family."""
    return build_table(flavor, SignPattern.alternating(6)).contains(CROSSING_PAIRING)


# the families A and B of the shipped flip scenarios
_FLIPS = tuple(FamilySpec("matrix_unit_pattern", f"E({s}, j, i)") for s in (1, 2))


def counterexample_word(n: int, flavor: str) -> MixedWord:
    """The word (U A U* B)^3 with A, B the two commuting matrix-unit flips.

    A places the unit E_ji of the first system at entry (i, j) and B does the
    same with the second system, so both are self-adjoint unitaries whose
    expectation is one/N.  Both are partition-algebra diagrams at every N.
    """
    algebra = MatrixUnitAlgebra(n)
    a, b = (flip.matrix(algebra, n) for flip in _FLIPS)
    return MixedWord.rotated(flavor, [a, a, a], [b, b, b])


def counterexample(n: int, flavor: str):
    """Exact value of the flip word at size n under the chosen flavor.

    Classical values approach the identity while quantum values approach
    zero, separating ordinary Haar matrices from their quantum analogue.
    """
    return lhs_exact(counterexample_word(n, flavor), n)


# ---------------------------------------------------------------------------
# Laurent moments and infinitesimal structure


@dataclass(frozen=True)
class ConstantPattern:
    """A size-independent matrix-unit element: one coordinate per kernel class."""

    # what bench/gate.py::pattern_payload digests beside the entries
    kind = "matrix_unit"
    dim = None

    entries: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", {k: v for k, v in self.entries.items() if v})

    def __hash__(self) -> int:
        return hash(frozenset(self.entries.items()))

    def __add__(self, other: "ConstantPattern") -> "ConstantPattern":
        return ConstantPattern(_dict_sum(self.entries, other.entries))

    def __sub__(self, other: "ConstantPattern") -> "ConstantPattern":
        return ConstantPattern(_dict_sum(self.entries, {k: -v for k, v in other.entries.items()}))

    def is_zero(self) -> bool:
        return not self.entries

    def shifted(self, key, delta) -> "ConstantPattern":
        """Copy with delta added to one coordinate; negative-control helper."""
        return ConstantPattern(_dict_sum(self.entries, {key: delta}))


def _series_abs(f: RationalFunction, shift: int) -> Fraction:
    top, bottom = f.degrees()
    if f and top > bottom:
        raise ValueError("moment grows with N; no Laurent constant exists")
    if not f or top - bottom < -shift:
        return Fraction(0)
    return laurent_at_infinity(f, top - bottom + shift).abs_coefficient(-shift)


@dataclass
class MomentPattern:
    """A matrix-unit element as exact rational functions of N, (re, im) per kernel class."""

    entries: dict

    def value_at(self, n: int, algebra: CoefficientAlgebra):
        """Evaluate every entry at size n and assemble the element of algebra."""
        return algebra.from_components({
            key: GaussianRational(re.evaluate(n), im.evaluate(n))
            for key, (re, im) in self.entries.items()
        })

    def series_constant(self, shift: int) -> ConstantPattern:
        """Laurent coefficient of N^-shift of every entry, as a pattern."""
        return ConstantPattern({
            key: GaussianRational(_series_abs(re, shift), _series_abs(im, shift))
            for key, (re, im) in self.entries.items()
        })


def lhs_function(word: MixedWord) -> MomentPattern:
    """lhs_exact of a word of DiagramMatrix factors, as functions of N.

    The factors' diagrams do not depend on N, so the value has one exact
    rational function per kernel class: (1/N) sum_pq w_pq(N) loops_pq(N),
    with the pair weights w_pq and the loop polynomials of each pair's slot
    partition (_lhs_terms, opvalued.loop_polynomials).

    >>> f = lhs_function(counterexample_word(4, "quantum"))
    >>> sorted((str(kap), str(re), str(im)) for kap, (re, im) in f.entries.items())
    [('{{1,2,3,4}}', '(3n^2 - 4)/(n^4 - 2n^2)', '0'), ('{{1,2},{3,4}}', '(3n^2 - 4)/(n^4 - 2n^2)', '0')]
    """
    entries: dict = {}
    for constraint, w in _lhs_terms(word):
        w = w * RationalFunction.monomial(-1)
        for kap, (re, im) in loop_polynomials(constraint, word.all_factors()).items():
            acc = entries.get(kap, (RationalFunction.zero(),) * 2)
            entries[kap] = (acc[0] + w * re, acc[1] + w * im)
    return MomentPattern({k: v for k, v in entries.items() if v[0] or v[1]})


class WordToken(NamedTuple):
    """One letter of an infinitesimal word before realization at a size.

    rotated: U D U* with D drawn from a scenario family; plain: the family
    matrix itself; const: a size-independent pattern times the identity.
    Centering subtracts center times the identity inside the letter, which
    for rotated letters commutes past the unitary.
    """

    kind: str
    symbol: str | None = None
    center: ConstantPattern | None = None
    pattern: ConstantPattern | None = None

    @classmethod
    def rotated(cls, symbol: str, center: ConstantPattern | None = None) -> "WordToken":
        return cls("rotated", symbol=symbol, center=center)

    @classmethod
    def plain(cls, symbol: str, center: ConstantPattern | None = None) -> "WordToken":
        return cls("plain", symbol=symbol, center=center)

    @classmethod
    def const(cls, pattern: ConstantPattern) -> "WordToken":
        return cls("const", pattern=pattern)


# words are realized at this size; their diagrams are the same at every N
_PAIR_N = 4


@dataclass
class InfinitesimalPair:
    """Exact evaluators (E, E') for words over one scenario of diagram families.

    Each word is realized once as partition-algebra diagrams, and
    lhs_exact without a size (lhs_function) gives its value as one exact
    rational function of N per kernel class.  E is that function's value at
    infinity and E' its coefficient of 1/N.  Every family of the scenario
    must have diagrams (FamilySpec.diagrams).
    """

    scenario: Scenario
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "InfinitesimalPair":
        for name, spec in scenario.families.items():
            if spec.diagrams is None:
                raise ValueError(f"family {name}: infinitesimal pairs need diagram families")
        return cls(scenario)

    def one_pattern(self) -> ConstantPattern:
        algebra = self.scenario.algebra(_PAIR_N)
        return ConstantPattern(algebra.components(algebra.one()))

    def realize(self, tokens, n: int) -> MixedWord:
        """Assemble the tokens into a mixed word at one concrete size.

        Adjacent unitary letters with opposite signs cancel and adjacent
        matrix factors merge, so the result is in the alternating shape the
        exact evaluator expects.
        """
        scenario = self.scenario
        algebra = scenario.algebra(n)
        # unitary signs ("1" for U, "*" for U*) and matrices, alternating
        seq: list = []
        for tok in tokens:
            if tok.kind == "const":
                mat = DiagramMatrix.scalar(algebra, tok.pattern.entries)
            elif tok.kind in ("rotated", "plain"):
                mat = scenario.family_matrix(tok.symbol, n)
                if tok.center is not None and not tok.center.is_zero():
                    mat = mat - DiagramMatrix.scalar(algebra, tok.center.entries)
            else:
                raise ValueError(f"unknown token kind: {tok.kind}")
            if tok.kind == "rotated":
                if seq and seq[-1] == "*":
                    seq.pop()
                else:
                    seq.append("1")
            if seq and not isinstance(seq[-1], str):
                seq[-1] = seq[-1] @ mat
            else:
                seq.append(mat)
            if tok.kind == "rotated":
                seq.append("*")
        ident = scenario.identity(n)
        lead = seq.pop(0) if seq and not isinstance(seq[0], str) else None
        if seq and isinstance(seq[-1], str):
            seq.append(ident)
        letters = [UnitaryLetter(1, sign, factor) for sign, factor in zip(seq[::2], seq[1::2])]
        if not letters and lead is None:
            lead = ident
        return MixedWord(self.scenario.flavor, tuple(letters), lead)

    def moments(self, tokens) -> MomentPattern:
        """The word's value as exact rational functions of N."""
        tokens = tuple(tokens)
        cached = self._cache.get(tokens)
        if cached is None:
            cached = self._cache[tokens] = lhs_exact(self.realize(tokens, _PAIR_N))
        return cached

    def e_value(self, tokens) -> ConstantPattern:
        """E of the word: the constant term of its Laurent expansion."""
        return self.moments(tokens).series_constant(0)

    def e_prime(self, tokens) -> ConstantPattern:
        """E' of the word: the coefficient of 1/N of its Laurent expansion."""
        return self.moments(tokens).series_constant(1)


def infinitesimal_check(pair: InfinitesimalPair, letters,
                        e_prime_overrides: dict | None = None) -> bool:
    """First-order freeness identity for an alternating centered word.

    letters is a sequence of (family, symbol) with family 'rotated' or
    'plain', alternating between the two.  Checks, exactly, that E' of the
    product of centered letters equals the sum over positions of E of the
    word with that letter replaced by E' of it times the identity.  The
    overrides map positions to replacement E' patterns and exist so a
    corrupted pair demonstrably fails.  A realized word with more unitary
    letters than the flavor's table cap fails in build_table.
    """
    letters = list(letters)
    k = len(letters)
    if not k:
        raise ValueError("centered words use at least one letter")
    for t, (family, symbol) in enumerate(letters):
        if family not in ("rotated", "plain"):
            raise ValueError("letter families are 'rotated' or 'plain'")
        if symbol not in pair.scenario.families:
            raise ValueError(f"unknown family symbol: {symbol}")
        if t and letters[t - 1][0] == family:
            raise ValueError("letters must alternate between the two families")
    overrides = dict(e_prime_overrides or {})
    if not set(overrides) <= set(range(k)):
        raise ValueError(f"e_prime_overrides keys are letter positions from 0 to {k - 1}")
    base = [WordToken(family, symbol=symbol) for family, symbol in letters]
    centers = [pair.e_value([tok]) for tok in base]
    primes = [
        overrides[t] if t in overrides else pair.e_prime([base[t]])
        for t in range(k)
    ]
    centered = [tok._replace(center=centers[t]) for t, tok in enumerate(base)]
    lhs = pair.e_prime(centered)
    rhs = None
    for j in range(k):
        inserted = centered[:j] + [WordToken.const(primes[j])] + centered[j + 1:]
        term = pair.e_value(inserted)
        rhs = term if rhs is None else rhs + term
    return lhs == rhs
