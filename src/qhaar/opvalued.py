"""Operator-valued probability over pluggable exact coefficient algebras.

Elements of the coefficient algebra B carry exact Gaussian-rational
coordinates; matrices over B (BMatrix) model M_N(B) with the conditional
expectation E_N = tr_N (x) id_B.  On top of these the module provides exact
constrained index sums (sums of entry products over all index tuples whose
kernel refines a slot partition), the nested expectation functionals along
noncrossing partitions and the operator-valued free cumulants built on them,
and a floating-point norm-bound check for such sums.

Two algebra instances are provided: DenseAlgebra (d x d matrices over Q(i),
each a BMatrix over the Gaussian rationals) and MatrixUnitAlgebra (the span
of products E_ab(1) E_cd(2) of two commuting N x N matrix-unit systems).
Each algebra owns its size-independent coordinates: matrix entries for
DenseAlgebra, and one coefficient per index kernel class of a
permutation-invariant element for MatrixUnitAlgebra.

Each algebra is also where a constrained-sum backend plugs in: lift gives
the exact form of a matrix that its fast_sum reads (BMatrix caches it), an
integer tensor for DenseAlgebra and partition-algebra diagrams for
permutation-invariant matrices over MatrixUnitAlgebra.  A DiagramMatrix
holds such a matrix as its diagrams and multiplies by composing them, so it
is its own lift and builds its entries only on demand.  Every other sum takes
the transfer scan, the oracle of the fast routes.  weighted_sum adds up the
weighted sums of a report row; DenseAlgebra does it in integers.
E^(sigma) is N^-|sigma| times the constrained sum over fatten(sigma); its
block-extraction oracle lives in qhaar.oracles.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
import string
import sys
from abc import ABC, abstractmethod
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .exactalg import GaussianRational, RationalFunction, _peval
from .partitions import Partition, enumerate_family, fatten, kernel, leq, mobius, mobius_full
from .partitions import _find, _union

__all__ = [
    "CoefficientAlgebra",
    "DenseAlgebra",
    "MatrixUnitAlgebra",
    "MatrixUnitElement",
    "BMatrix",
    "DiagramMatrix",
    "NormCheck",
    "expectation",
    "functional_e",
    "cumulant_k",
    "constrained_sum",
    "loop_polynomials",
    "norm_check",
    "parse_expression",
    "evaluate_expression",
    "parse_scalar",
]


def _as_gauss(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(Fraction(c))
    raise TypeError(f"cannot use {type(c).__name__} as a scalar coefficient")


_ZERO = GaussianRational.zero()
_ONE = GaussianRational.one()
_SCALARS = (int, Fraction, GaussianRational)


class CoefficientAlgebra(ABC):
    """A unital *-algebra with exact coordinates and float spectral norms."""

    def zero(self):
        return self.from_components({})

    @abstractmethod
    def one(self):
        ...

    @abstractmethod
    def contains(self, x) -> bool:
        ...

    @abstractmethod
    def to_complex_array(self, x) -> np.ndarray:
        """A faithful *-representation of x as a complex matrix."""

    @abstractmethod
    def components(self, x) -> dict:
        """Exact size-independent coordinates of x, zero-free."""

    @abstractmethod
    def from_components(self, comps: dict):
        """The element with the given coordinates; inverse of components."""

    def lift(self, a: "BMatrix"):
        """The exact form of a matrix over this algebra that fast_sum reads,
        or None when only the transfer scan applies to it."""
        return None

    def fast_sum(self, constraint: Partition, lifts: list):
        """The constrained sum of the factors with these lifts, or None when
        the fast route does not apply to this constraint."""
        return None

    def weighted_sum(self, pairs):
        """The sum of w * x over (Fraction weight w, element x) pairs."""
        total = self.zero()
        for w, x in pairs:
            total = total + x * w
        return total

    def scalar(self, c):
        return self.one() * _as_gauss(c)

    def norm_float(self, x) -> float:
        """Spectral norm of x, from numpy's SVD-based matrix 2-norm."""
        return float(np.linalg.norm(self.to_complex_array(x), 2))


class _GaussianRationals(CoefficientAlgebra):
    """Q(i) as a coefficient algebra: the entries of a DenseAlgebra element.

    It has one coordinate and no fast route, so a constrained sum of scalar
    matrices takes the transfer scan.
    """

    def one(self) -> GaussianRational:
        return _ONE

    def contains(self, x) -> bool:
        return isinstance(x, GaussianRational)

    def to_complex_array(self, x: GaussianRational) -> np.ndarray:
        return np.array([[x.to_complex()]])

    def components(self, x: GaussianRational) -> dict:
        return {(): x} if x else {}

    def from_components(self, comps: dict) -> GaussianRational:
        return _as_gauss(comps.get((), _ZERO))

    def __repr__(self) -> str:
        return "_QI"


_QI = _GaussianRationals()


class DenseAlgebra(CoefficientAlgebra):
    """M_d(Q(i)) with adjoint the conjugate transpose; an element is a d x d
    BMatrix over _QI."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim

    def one(self) -> BMatrix:
        return BMatrix.identity(_QI, self.dim)

    def element(self, rows) -> BMatrix:
        rows = tuple(map(tuple, rows))
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise ValueError(f"need a {self.dim}x{self.dim} matrix")
        return BMatrix(_QI, rows)

    def contains(self, x) -> bool:
        return isinstance(x, BMatrix) and x.algebra is _QI and x.size == self.dim

    def to_complex_array(self, x: BMatrix) -> np.ndarray:
        return np.array([[v.to_complex() for v in r] for r in x.rows], dtype=complex)

    def components(self, x: BMatrix) -> dict:
        return {
            (a, b): v
            for a, row in enumerate(x.rows)
            for b, v in enumerate(row)
            if v
        }

    def from_components(self, comps: dict) -> BMatrix:
        rows = [[_ZERO] * self.dim for _ in range(self.dim)]
        for (a, b), v in comps.items():
            rows[a][b] = v
        return BMatrix(_QI, rows)

    def lift(self, a: "BMatrix") -> tuple[np.ndarray, int, int]:
        return _integer_tensor(a)

    def fast_sum(self, constraint: Partition, lifts: list) -> BMatrix | None:
        # one einsum subscript per block, per factor and for the chain's end
        if len(constraint.blocks) + len(lifts) + 1 > len(_SUBSCRIPTS):
            return None
        return _tensor_sum(constraint, lifts, self)

    def weighted_sum(self, pairs) -> BMatrix:
        """The sum of w * x in integers: each x is its integers over their lcm
        L (_gaussian_integers), so w * x = p * ints / (q L) with w = p / q, and
        the sum is one flat integer list over a common denominator, divided
        once."""
        d = self.dim
        terms = []
        for w, x in pairs:
            ints, scale = _gaussian_integers(v for row in x.rows for v in row)
            terms.append((w.numerator, w.denominator * scale, ints))
        den = math.lcm(*(q for _, q, _ in terms))
        acc = [0] * (2 * d * d)
        for p, q, ints in terms:
            f = p * (den // q)
            acc = [a + f * v for a, v in zip(acc, itertools.chain.from_iterable(ints))]
        return self.from_components({
            divmod(k, d): GaussianRational(Fraction(acc[2 * k], den), Fraction(acc[2 * k + 1], den))
            for k in range(d * d)
        })

    def __eq__(self, other) -> bool:
        return isinstance(other, DenseAlgebra) and other.dim == self.dim

    __hash__ = None

    def __repr__(self) -> str:
        return f"DenseAlgebra({self.dim})"


class MatrixUnitElement:
    """A finitely supported combination of symbols E_ab(1) E_cd(2).

    terms maps 1-based index quadruples (a, b, c, d) to nonzero coefficients;
    the symbol (a, b, c, d) denotes E_ab of the first matrix-unit system times
    E_cd of the second (the systems commute).  An element built from
    kernel-class coordinates (MatrixUnitAlgebra.from_components) keeps them
    in classes and expands its terms on first use; sums and scalar multiples
    of such elements stay in classes.  classes is None for the others.
    """

    __slots__ = ("n", "_terms", "classes")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self._terms = {k: v for k, v in terms.items() if v}
        self.classes = None

    @classmethod
    def _raw(cls, n: int, terms: dict | None, classes: dict | None = None) -> "MatrixUnitElement":
        # trusted constructor for internal results whose values are nonzero
        obj = object.__new__(cls)
        obj.n = n
        obj._terms = terms
        obj.classes = classes
        return obj

    @property
    def terms(self) -> dict:
        if self._terms is None:
            self._terms = {}
            for kap, g in self.classes.items():
                block_of = kap.block_index()
                for vals in itertools.permutations(range(1, self.n + 1), len(kap.blocks)):
                    self._terms[tuple(vals[block_of[pos]] for pos in range(1, 5))] = g
        return self._terms

    def _check(self, other: "MatrixUnitElement") -> None:
        if not isinstance(other, MatrixUnitElement) or other.n != self.n:
            raise TypeError("matrix-unit elements of mismatched size")

    def _map(self, fn) -> "MatrixUnitElement":
        """fn applied to every coefficient, in the same representation."""
        if self.classes is not None:
            return MatrixUnitElement._raw(self.n, None, _map_nonzero(fn, self.classes))
        return MatrixUnitElement._raw(self.n, _map_nonzero(fn, self.terms))

    def __add__(self, other):
        self._check(other)
        if self.classes is not None and other.classes is not None:
            return MatrixUnitElement._raw(self.n, None, _dict_sum(self.classes, other.classes))
        return MatrixUnitElement._raw(self.n, _dict_sum(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._map(operator.neg)

    def __mul__(self, other):
        if isinstance(other, MatrixUnitElement):
            if other.n != self.n:
                raise TypeError("matrix-unit elements of mismatched size")
            # E_ab(1)E_cd(2) * E_a'b'(1)E_c'd'(2)
            #   = delta_{ba'} delta_{dc'} E_ab'(1)E_cd'(2)
            right: dict = {}
            for (a2, b2, c2, d2), q2 in other.terms.items():
                right.setdefault((a2, c2), []).append(((b2, d2), q2))
            out: dict = {}
            for (a, b, c, d), q in self.terms.items():
                bucket = right.get((b, d))
                if bucket is None:
                    continue
                for (b2, d2), q2 in bucket:
                    key = (a, b2, c, d2)
                    cur = out.get(key)
                    s = q * q2 if cur is None else cur + q * q2
                    if s:
                        out[key] = s
                    elif cur is not None:
                        del out[key]
            return MatrixUnitElement._raw(self.n, out)
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _as_gauss(other)
            return self._map(lambda v: v * c)
        return NotImplemented

    __rmul__ = __mul__

    def adjoint(self) -> "MatrixUnitElement":
        return MatrixUnitElement(
            self.n, {(b, a, d, c): v.conjugate() for (a, b, c, d), v in self.terms.items()}
        )

    def __bool__(self) -> bool:
        return bool(self.terms if self.classes is None else self.classes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixUnitElement) or other.n != self.n:
            return False
        if self.classes is not None and other.classes is not None:
            # nonempty kernel classes have disjoint supports
            return self.classes == other.classes
        return other.terms == self.terms

    __hash__ = None

    def __repr__(self) -> str:
        items = ", ".join(f"{k}: {v}" for k, v in sorted(self.terms.items()))
        return f"MatrixUnitElement({self.n}, {{{items}}})"


def _map_nonzero(fn, values: dict) -> dict:
    return {k: w for k, v in values.items() if (w := fn(v))}


def _dict_sum(a: dict, b: dict) -> dict:
    """The zero-free sum of two zero-free coefficient maps."""
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        s = v if cur is None else cur + v
        if s:
            out[k] = s
        elif cur is not None:
            del out[k]
    return out


def _orbit_coefficients(items, n: int) -> dict:
    """One value per kernel class of the index tuples of an S_N-invariant map.

    items yields (index tuple, value) pairs over 1..n, each tuple at most
    once.  The map is invariant under simultaneous permutation of the
    indices exactly when every class with a term has a single value and all
    math.perm(n, blocks) members; otherwise this raises ValueError.  Classes
    without terms have value zero and are left out.
    """
    coeffs: dict[tuple, GaussianRational] = {}
    counts: dict[tuple, int] = {}
    for idx, v in items:
        # each position's first occurrence names the kernel class of idx
        key = tuple(map(idx.index, idx))
        first = coeffs.setdefault(key, v)
        if first is not v and first != v:
            raise ValueError("value is not invariant under index permutations")
        counts[key] = counts.get(key, 0) + 1
    for key, cnt in counts.items():
        if cnt != math.perm(n, len(set(key))):
            raise ValueError("value is not invariant under index permutations")
    return {kernel(key): v for key, v in coeffs.items()}


# the kernel classes of the index tuples of one(): a = b, c = d
_ONE_CLASSES = (Partition(4, ((1, 2), (3, 4))), Partition.full(4))


class MatrixUnitAlgebra(CoefficientAlgebra):
    """Two commuting N x N matrix-unit systems; basis E_ab(1) E_cd(2)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("size must be positive")
        self.n = n

    def one(self) -> MatrixUnitElement:
        # sum_ac E_aa(1) E_cc(2): the tuples with a = b and c = d
        return self.from_components({_ONE_CLASSES[0]: _ONE, _ONE_CLASSES[1]: _ONE})

    def unit(self, system: int, a: int, b: int) -> MatrixUnitElement:
        """The symbol E_ab of one system, completed with the other's identity."""
        if system not in (1, 2):
            raise ValueError("system must be 1 or 2")
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise ValueError("matrix-unit indices out of range")
        n = self.n
        if system == 1:
            terms = {(a, b, c, c): _ONE for c in range(1, n + 1)}
        else:
            terms = {(c, c, a, b): _ONE for c in range(1, n + 1)}
        return MatrixUnitElement(self.n, terms)

    def contains(self, x) -> bool:
        return isinstance(x, MatrixUnitElement) and x.n == self.n

    def to_complex_array(self, x: MatrixUnitElement) -> np.ndarray:
        # E_ab(1)E_cd(2) acts on C^N (x) C^N as e_ab (x) e_cd
        n = self.n
        out = np.zeros((n * n, n * n), dtype=complex)
        for (a, b, c, d), q in x.terms.items():
            out[(a - 1) * n + (c - 1), (b - 1) * n + (d - 1)] += q.to_complex()
        return out

    def components(self, x: MatrixUnitElement) -> dict:
        """Coefficient of x on each kernel class of its index quadruples.

        An element invariant under simultaneous permutation of the indices
        has one size-independent coefficient per class, keyed by the
        Partition of the four index positions.  Raises ValueError for an
        element that is not invariant, and below N = 4, where not every class
        has members.
        """
        if self.n < 4:
            raise ValueError("matrix-unit coordinates need N >= 4")
        if x.classes is not None:
            return dict(x.classes)
        return _orbit_coefficients(x.terms.items(), self.n)

    def from_components(self, comps: dict) -> MatrixUnitElement:
        """The element with these kernel-class coefficients, kept as classes;
        its terms expand over the injective index maps on first use.  A class
        with more blocks than N has no members and is dropped."""
        n = self.n
        return MatrixUnitElement._raw(n, None, {
            kap: g for kap, v in comps.items() if len(kap.blocks) <= n and (g := _as_gauss(v))
        })

    def lift(self, a: "BMatrix") -> dict | None:
        return _diagram_terms(a)

    def fast_sum(self, constraint: Partition, lifts: list) -> MatrixUnitElement:
        classes, den = _loop_sum(constraint, lifts)
        n = self.n
        den = _peval(den, n)
        return self.from_components({
            kap: GaussianRational(Fraction(_peval(re, n), den), Fraction(_peval(im, n), den))
            for kap, (re, im) in classes.items()
        })

    def __eq__(self, other) -> bool:
        return isinstance(other, MatrixUnitAlgebra) and other.n == self.n

    __hash__ = None

    def __repr__(self) -> str:
        return f"MatrixUnitAlgebra({self.n})"


_UNLIFTED = object()


class BMatrix:
    """A square matrix over a coefficient algebra: an element of M_N(B)."""

    # _lift caches algebra.lift(self); the matrix is immutable, so it is
    # filled once
    __slots__ = ("algebra", "size", "rows", "_lift")

    def __init__(self, algebra: CoefficientAlgebra, rows):
        contains, scalar = algebra.contains, algebra.scalar
        rows = tuple(tuple(v if contains(v) else scalar(v) for v in row) for row in rows)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise ValueError("matrix must be square")
        self.algebra = algebra
        self.size = size
        self.rows = rows
        self._lift = _UNLIFTED

    @classmethod
    def identity(cls, algebra: CoefficientAlgebra, size: int) -> "BMatrix":
        one, zero = algebra.one(), algebra.zero()
        return cls(
            algebra,
            tuple(
                tuple(one if a == b else zero for b in range(size)) for a in range(size)
            ),
        )

    @classmethod
    def zero(cls, algebra: CoefficientAlgebra, size: int) -> "BMatrix":
        z = algebra.zero()
        return BMatrix(algebra, tuple((z,) * size for _ in range(size)))

    def entry(self, r: int, c: int):
        return self.rows[r][c]

    def lift(self):
        """algebra.lift(self), computed on first use."""
        if self._lift is _UNLIFTED:
            self._lift = self.algebra.lift(self)
        return self._lift

    def _check(self, other: "BMatrix") -> None:
        if other.size != self.size or other.algebra != self.algebra:
            raise TypeError("matrices over different spaces")

    def __matmul__(self, other: "BMatrix") -> "BMatrix":
        self._check(other)
        n = self.size
        zero = self.algebra.zero()
        cols = tuple(zip(*other.rows))
        out = []
        for ra in self.rows:
            row = []
            for cb in cols:
                acc = zero
                for t in range(n):
                    if ra[t] and cb[t]:
                        acc = acc + ra[t] * cb[t]
                row.append(acc)
            out.append(tuple(row))
        return BMatrix(self.algebra, tuple(out))

    def __add__(self, other: "BMatrix") -> "BMatrix":
        self._check(other)
        return BMatrix(
            self.algebra,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other: "BMatrix") -> "BMatrix":
        return self + (-other)

    def scale(self, c) -> "BMatrix":
        c = _as_gauss(c)
        return BMatrix(self.algebra, tuple(tuple(v * c for v in r) for r in self.rows))

    def __mul__(self, other) -> "BMatrix":
        """The M_N(B) product with a matrix, or the multiple by a scalar."""
        if isinstance(other, BMatrix):
            return self @ other
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other) -> "BMatrix":
        return self.scale(other) if isinstance(other, _SCALARS) else NotImplemented

    def __neg__(self) -> "BMatrix":
        return self.scale(-1)

    def left_mul(self, b) -> "BMatrix":
        """b . A for b in the coefficient algebra: entrywise left product."""
        return BMatrix(self.algebra, tuple(tuple(b * v for v in r) for r in self.rows))

    def right_mul(self, b) -> "BMatrix":
        return BMatrix(self.algebra, tuple(tuple(v * b for v in r) for r in self.rows))

    def adjoint(self) -> "BMatrix":
        return BMatrix(
            self.algebra, tuple(tuple(v.adjoint() for v in col) for col in zip(*self.rows))
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BMatrix)
            and other.algebra == self.algebra
            and other.rows == self.rows
        )

    __hash__ = None

    def __bool__(self) -> bool:
        return any(v for row in self.rows for v in row)

    def __repr__(self) -> str:
        return f"BMatrix({self.algebra!r}, {self.rows!r})"

    def to_complex_array(self) -> np.ndarray:
        blocks = [
            [self.algebra.to_complex_array(v) for v in row] for row in self.rows
        ]
        return np.block(blocks)

    def norm_float(self) -> float:
        """Spectral norm of the block matrix, from numpy's SVD-based 2-norm."""
        return float(np.linalg.norm(self.to_complex_array(), 2))

    def expectation(self):
        """E_N = tr_N (x) id_B: the exact normalized sum of diagonal entries."""
        acc = self.algebra.zero()
        for t in range(self.size):
            acc = acc + self.rows[t][t]
        return acc * Fraction(1, self.size)


class DiagramMatrix(BMatrix):
    """An S_N-invariant matrix over MatrixUnitAlgebra(N) as an element of the
    partition algebra P_3(N).

    terms maps (diagram, power) pairs, a diagram being a partition of the
    six legs (r, c, a, b, a', b'), to nonzero coefficients: entry (r, c) is
    the sum of x E_ab(1) E_a'b'(2) over the index values, where x sums
    coefficient * N**power over the diagrams whose blocks the legs' values
    are constant on.  The map from diagrams to matrices is an algebra
    homomorphism at every N (Halverson-Ram, "Partition algebras", 2005), so
    +, scalar multiples and @ (diagram composition, each closed component
    adding one to the power) are exact at every N, also below N = 6 where
    two combinations of diagrams can give one matrix.  The terms do not
    depend on N and are the matrix's lift at every N; only rows (the
    entries, built on first use for the transfer scan, norms and
    comparisons) evaluate the powers at the algebra's N.  An operand that is
    a plain BMatrix takes the BMatrix operation on the entries.
    """

    __slots__ = ("terms", "_rows")

    def __init__(self, algebra: MatrixUnitAlgebra, terms: dict):
        self.algebra = algebra
        self.size = algebra.n
        self.terms = {key: g for key, v in terms.items() if (g := _as_gauss(v))}
        self._rows = None

    @classmethod
    def identity(cls, algebra: MatrixUnitAlgebra, size: int) -> "DiagramMatrix":
        if size != algebra.n:
            raise ValueError("a diagram matrix has the size of its matrix units")
        return cls.scalar(algebra, dict.fromkeys(_ONE_CLASSES, _ONE))

    @classmethod
    def scalar(cls, algebra: MatrixUnitAlgebra, comps: dict) -> "DiagramMatrix":
        """The identity times the element with these kernel-class coordinates:
        the diagrams delta_pi on (a, b, a', b') of _moebius, each with r = c
        as a block of its own."""
        return cls(algebra, {
            (kernel((-1, -1) + tuple(map(pi.block_index().get, range(1, 5)))), 0): d
            for pi, d in _moebius(comps).items()
        })

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            n = self.size
            cells = [[{} for _ in range(n)] for _ in range(n)]
            for (pi, power), d in self.terms.items():
                d = d * Fraction(n) ** power
                block_of = pi.block_index()
                for values in itertools.product(range(1, n + 1), repeat=len(pi.blocks)):
                    legs = [values[block_of[leg]] for leg in range(1, 7)]
                    cell = cells[legs[0] - 1][legs[1] - 1]
                    quad = tuple(legs[2:])
                    cell[quad] = cell.get(quad, _ZERO) + d
            self._rows = tuple(tuple(MatrixUnitElement(n, c) for c in row) for row in cells)
        return self._rows

    def lift(self) -> dict:
        return self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"DiagramMatrix({self.algebra!r}, {self.terms!r})"

    def __matmul__(self, other: BMatrix) -> BMatrix:
        if not isinstance(other, DiagramMatrix):
            return super().__matmul__(other)
        self._check(other)
        out: dict[tuple, GaussianRational] = {}
        for (p, i), x in self.terms.items():
            for (q, j), y in other.terms.items():
                pi, closed = _compose(p, q)
                key = (pi, i + j + closed)
                out[key] = out.get(key, _ZERO) + x * y
        return DiagramMatrix(self.algebra, out)

    def __add__(self, other: BMatrix) -> BMatrix:
        if not isinstance(other, DiagramMatrix):
            return super().__add__(other)
        self._check(other)
        return DiagramMatrix(self.algebra, _dict_sum(self.terms, other.terms))

    def scale(self, c) -> "DiagramMatrix":
        c = _as_gauss(c)
        return DiagramMatrix(self.algebra, {key: v * c for key, v in self.terms.items()})


@lru_cache(maxsize=None)
def _compose(p: Partition, q: Partition) -> tuple[Partition, int]:
    """The diagram of p @ q and its closed components: p's legs (c, b, b')
    (0-based 1, 3, 5) are glued to q's legs (r, a, a') (6, 8, 10), and a
    closed component is one that meets none of the outer legs."""
    parent = list(range(12))
    for block in p.blocks + tuple(tuple(leg + 6 for leg in b) for b in q.blocks):
        for leg in block[1:]:
            _union(parent, block[0] - 1, leg - 1)
    for x, y in ((1, 6), (3, 8), (5, 10)):
        _union(parent, x, y)
    roots = [_find(parent, x) for x in (0, 7, 2, 9, 4, 11)]
    closed = len({_find(parent, x) for x in range(12)}) - len(set(roots))
    return kernel(roots), closed


def expectation(a: BMatrix):
    """E_N = tr_N (x) id_B of a matrix over B."""
    return a.expectation()


def _check_args(args) -> list:
    args = list(args)
    if not args:
        raise ValueError("need at least one matrix argument")
    first = args[0]
    for a in args:
        if not isinstance(a, BMatrix):
            raise TypeError("arguments must be BMatrix instances")
        if a.size != first.size or a.algebra != first.algebra:
            raise ValueError("arguments must live in one matrix space")
    return args


def functional_e(sigma: Partition, args):
    """The nested expectation E^(sigma) along a noncrossing partition.

    N^|sigma| E^(sigma) is the constrained sum over fatten(sigma), so the
    value takes the exact routes of constrained_sum; the block extraction of
    qhaar.oracles.nested_functional cross-checks it.
    """
    args = _check_args(args)
    k = len(args)
    if sigma.size != k:
        raise ValueError(f"partition of {sigma.size} points given {k} arguments")
    if not sigma.is_noncrossing():
        raise ValueError("sigma must be noncrossing")
    scale = Fraction(1, args[0].size ** len(sigma.blocks))
    return constrained_sum(fatten(sigma), args) * scale


def cumulant_k(pi: Partition, args):
    """Operator-valued free cumulant: Moebius inversion of E^(sigma) below pi."""
    args = _check_args(args)
    if pi.size != len(args):
        raise ValueError("partition size must match argument count")
    if not pi.is_noncrossing():
        raise ValueError("pi must be noncrossing")
    total = args[0].algebra.zero()
    for sigma in enumerate_family("nc", pi.size):
        if leq(sigma, pi):
            total = total + functional_e(sigma, args) * mobius(sigma, pi)
    return total


def constrained_sum(constraint: Partition, args):
    """Sum of A(1)_{i1 i2} ... A(m)_{i(2m-1) i(2m)} over constrained tuples.

    The 2m slots are the row and column indices in order (slot 2k-1 is A(k)'s
    row, slot 2k its column); the sum runs over all tuples i whose kernel is
    refined by the constraint.  When every factor has a lift (BMatrix.lift)
    and the algebra's fast_sum applies, its value is returned: an integer
    tensor contraction over DenseAlgebra (_tensor_sum, on int64 below a proven
    overflow bound) while einsum has subscripts enough, or loop counting over
    partition-algebra diagrams (_loop_sum) for permutation-invariant matrices
    over MatrixUnitAlgebra.
    Otherwise (a factor without a lift, or too few einsum subscripts) the
    transfer scan (_scan_sum) runs, the oracle of the fast routes, unless
    its step count is over MAX_SCAN_STEPS (ValueError).
    """
    args = _check_args(args)
    if constraint.size != 2 * len(args):
        raise ValueError(f"constraint must partition {2 * len(args)} slots")
    lifts = [a.lift() for a in args]
    if None not in lifts:
        value = args[0].algebra.fast_sum(constraint, lifts)
        if value is not None:
            return value
    # factor k scans N^(blocks open before it) states, times N for each of
    # its row and column slots that opens a block (0-based k: slots 2k+1, 2k+2)
    steps = sum(args[0].size ** sum(b[0] <= 2 * k < b[-1] or b[0] in (2 * k + 1, 2 * k + 2)
                                    for b in constraint.blocks) for k in range(len(args)))
    if steps > MAX_SCAN_STEPS:
        raise ValueError(f"the transfer scan needs {steps} steps, "
                         f"over MAX_SCAN_STEPS = {MAX_SCAN_STEPS}")
    return _scan_sum(constraint, args)


def loop_polynomials(constraint: Partition, factors) -> dict:
    """constrained_sum of DiagramMatrix factors at every N, per kernel class
    as a (re, im) pair of RationalFunctions: each of _loop_sum's class
    polynomials over its denominator polynomial."""
    if not all(isinstance(f, DiagramMatrix) for f in factors):
        raise TypeError("loop_polynomials needs DiagramMatrix factors")
    classes, den = _loop_sum(constraint, [f.lift() for f in factors])
    return {
        kap: (RationalFunction(re, den), RationalFunction(im, den))
        for kap, (re, im) in classes.items()
    }


# the largest matrix size a scenario or a command may ask for
MAX_N = 16
# einsum names its axes by single ASCII letters
_SUBSCRIPTS = string.ascii_letters
# compiled contraction plans by (spec, d): each greedy path is searched once,
# on probes of size MAX_N, and serves every size
_EINSUM_PLANS: dict[tuple[str, int], list] = {}


def _gaussian_integers(values) -> tuple[list, int]:
    """The (re, im) parts of Gaussian rationals times L, as integer pairs,
    and L, the lcm of the denominators of all the parts."""
    values = list(values)
    scale = math.lcm(*(f.denominator for v in values for f in (v.re, v.im)))
    return [
        (v.re.numerator * (scale // v.re.denominator),
         v.im.numerator * (scale // v.im.denominator))
        for v in values
    ], scale


def _integer_tensor(a: BMatrix) -> tuple[np.ndarray, int, int]:
    """L times a's entries in real 2d x 2d form, L, and M, its largest |entry|.

    L is the common denominator of _gaussian_integers; the tensor has shape
    (N, N, 2d, 2d), block [[re, -im], [im, re]], int64 if M < 2^63, else Python ints.
    """
    pairs, scale = _gaussian_integers(
        v for row in a.rows for x in row for r in x.rows for v in r
    )
    n, d = a.size, a.algebra.dim
    bound = max(abs(v) for pair in pairs for v in pair)
    ints = np.array(pairs, dtype=np.int64 if bound < 2**63 else object)
    re, im = ints[:, 0].reshape(n, n, d, d), ints[:, 1].reshape(n, n, d, d)
    return np.block([[re, -im], [im, re]]), scale, bound


def _tensor_sum(constraint: Partition, lifts, algebra: DenseAlgebra) -> BMatrix:
    """The constrained sum as one einsum spec over the factors' integer
    tensors, run by its compiled plan (_einsum_plan).

    Factor k carries the subscripts (block of slot 2k-1, block of slot 2k,
    chain k-1, chain k); contracting the chain multiplies the d x d blocks in
    order, and repeating a block's subscript imposes its index equalities.
    Any value the plan forms (an entry of the total or of an intermediate, a
    partial sum of a matmul or of a one-operand reduction) sums at most
    N^blocks (2d)^(m+1) products of one entry per factor, so
    B = prod_k max(M_k, 1) N^blocks (2d)^(m+1) bounds it: the exact sum runs
    on int64 if B < 2^63, else on Python ints.  The scales divide out last.
    """
    m, nblocks = len(lifts), len(constraint.blocks)
    tensors = [tensor for tensor, _, _ in lifts]
    d, n = algebra.dim, tensors[0].shape[0]
    bound = math.prod(max(b, 1) for _, _, b in lifts) * n**nblocks * (2 * d) ** (m + 1)
    if bound >= 2**63:
        tensors = [tensor.astype(object) for tensor in tensors]
    total = _contract(_tensor_spec(constraint, m), tensors, d)
    denominator = math.prod(scale for _, scale, _ in lifts)
    return algebra.from_components({
        (a, b): GaussianRational(
            Fraction(int(total[a, b]), denominator), Fraction(int(total[d + a, b]), denominator)
        )
        for a in range(d)
        for b in range(d)
    })


def _tensor_spec(constraint: Partition, m: int) -> str:
    """The einsum spec of _tensor_sum for m factors."""
    nblocks = len(constraint.blocks)
    block_of = constraint.block_index()
    chain = _SUBSCRIPTS[nblocks:nblocks + m + 1]
    terms = [
        _SUBSCRIPTS[block_of[2 * k - 1]] + _SUBSCRIPTS[block_of[2 * k]]
        + chain[k - 1] + chain[k]
        for k in range(1, m + 1)
    ]
    return ",".join(terms) + "->" + chain[0] + chain[m]


def _contract(spec: str, tensors: list, d: int) -> np.ndarray:
    """spec over (N, N, 2d, 2d) tensors, run by its compiled plan."""
    tensors = list(tensors)
    for positions, step in _einsum_plan(spec, d):
        picked = [tensors.pop(i) for i in positions]
        tensors.append(step(*picked))
    return tensors[0]


def _einsum_plan(spec: str, d: int) -> list:
    """The steps that contract spec over (N, N, 2d, 2d) tensors.

    The greedy path is searched once per key, on zero-stride probes of size
    MAX_N, with no memory limit: numpy's default limit (the largest input)
    falls back to one naive n-ary contraction on cyclic slot patterns.  Each
    step pops the operands at its positions, as einsum's path does, and
    appends its result: a pairwise step runs as _matmul_step, the one operand
    of a one-factor word and the final transpose as one einsum without path
    optimization.
    """
    key = (spec, d)
    plan = _EINSUM_PLANS.get(key)
    if plan is not None:
        return plan
    inputs, output = spec.split("->")
    terms = inputs.split(",")
    probe = np.broadcast_to(np.zeros((), np.int64), (MAX_N, MAX_N, 2 * d, 2 * d))
    path = np.einsum_path(
        spec, *[probe] * len(terms), optimize=("greedy", sys.maxsize)
    )[0][1:]
    plan = []
    for contract in path:
        positions = sorted(contract, reverse=True)
        picked = [terms.pop(i) for i in positions]
        if len(picked) == 1:  # the one factor of a one-factor word
            step, result = _einsum_step(f"{picked[0]}->{output}"), output
        else:
            step, result = _matmul_step(*picked, set("".join(terms) + output))
        plan.append((positions, step))
        terms.append(result)
    if terms[0] != output:
        plan.append(((0,), _einsum_step(f"{terms[0]}->{output}")))
    _EINSUM_PLANS[key] = plan
    return plan


def _kept(subscripts: str, later: set) -> str:
    """The distinct letters of subscripts that a later term needs, in order."""
    return "".join(dict.fromkeys(c for c in subscripts if c in later))


def _einsum_step(spec: str):
    return lambda *operands: np.einsum(spec, *operands, optimize=False)


def _matmul_step(ta: str, tb: str, later: set):
    """A pairwise step as one matmul, and its result's subscripts.

    A one-operand einsum reduces each operand to its (batch, free,
    contracted) axes, taking the diagonals of repeated subscripts and summing
    the axes that no later term needs; batch subscripts are shared and
    needed later, contracted ones shared and not needed.
    """
    shared = set(ta) & set(tb)
    batch = _kept(ta, shared & later)
    inner = _kept(ta, shared - later)
    free_a = _kept(ta, later - shared)
    free_b = _kept(tb, later - shared)
    prep_a = _einsum_step(f"{ta}->{batch}{free_a}{inner}")
    prep_b = _einsum_step(f"{tb}->{batch}{inner}{free_b}")
    nb, na, nc = len(batch), len(free_a), len(inner)

    def step(a, b):
        a, b = prep_a(a), prep_b(b)
        shape = a.shape[:nb + na] + b.shape[nb + nc:]
        lead = math.prod(a.shape[:nb])
        a = a.reshape(lead, math.prod(a.shape[nb:nb + na]), -1)
        b = b.reshape(lead, -1, math.prod(b.shape[nb + nc:]))
        return np.matmul(a, b).reshape(shape)

    return step, batch + free_a + free_b


def _diagram_terms(a: BMatrix) -> dict | None:
    """A matrix over matrix units as a partition-algebra element, or None.

    The entries A_rc = sum x E_ab(1) E_a'b'(2) form a map on 6-tuples of
    legs (r, c, a, b, a', b').  If the map is invariant under simultaneous
    permutation of the indices, it has one value x_k per kernel class k and
    equals sum_pi d_pi delta_pi with the d_pi of _moebius.  Returns the
    nonzero d_pi keyed by (pi, 0), the terms of a DiagramMatrix, or None for
    a map that is not invariant.
    """
    items = (
        ((r, c) + quad, v)
        for r, row in enumerate(a.rows, start=1)
        for c, x in enumerate(row, start=1)
        for quad, v in x.terms.items()
    )
    try:
        orbits = _orbit_coefficients(items, a.size)
    except ValueError:
        return None
    return {(pi, 0): d for pi, d in _moebius(orbits).items()}


def _moebius(classes: dict) -> dict:
    """Kernel-class coordinates x_k as diagram coefficients, the nonzero d_pi.

    The element with value x_k on the tuples of kernel class k equals
    sum_pi d_pi delta_pi, where delta_pi is 1 on the tuples constant on the
    blocks of pi and d_pi = sum_{k <= pi} mu(k, pi) x_k (Moebius inversion
    on the full partition lattice).  That holds at every N, since a class
    with more blocks than N has no tuples.
    """
    coeffs: dict[Partition, GaussianRational] = {}
    for kap, x in classes.items():
        x = _as_gauss(x)
        for pi, mu in _coarsenings(kap):
            coeffs[pi] = coeffs.get(pi, _ZERO) + x * mu
    return {pi: d for pi, d in coeffs.items() if d}


@lru_cache(maxsize=None)
def _coarsenings(kap: Partition) -> tuple:
    """Every pi >= kap, with the Moebius value mu(kap, pi) of the full lattice."""
    # element x of pi carries the block of grouping holding x's block of kap
    idx = kap.block_index()
    out = []
    for grouping in enumerate_family("all", len(kap.blocks)):
        g = grouping.block_index()
        pi = kernel(g[idx[x] + 1] for x in range(1, kap.size + 1))
        out.append((pi, mobius_full(kap, pi)))
    return tuple(out)


@lru_cache(maxsize=None)
def _classes_above(pattern: tuple) -> tuple:
    """The kernel classes coarser than the kernel of a delta pattern's labels."""
    return tuple(kap for kap, _ in _coarsenings(kernel(pattern)))


# diagram choices one loop count may visit, at about 3.5 us each (README)
MAX_LOOP_CHOICES = 100_000


def _loop_sum(constraint: Partition, lifts) -> tuple[dict, tuple[int, ...]]:
    """The constrained sum of partition-algebra factors by loop counting.

    Each lift maps (diagram, power of N) to a coefficient, as
    DiagramMatrix.terms does.  Factor k has the legs 6k..6k+5 = (r, c, a, b,
    a', b').  For each choice of one diagram per factor, union-find joins
    the legs that are forced equal: the row and column slots of each
    constraint block, the chains b_k ~ a_{k+1} and b'_k ~ a'_{k+1} of the
    matrix-unit products, and the blocks of the chosen diagrams.  Each
    component that meets none of the four output legs (a_1, b_m, a'_1, b'_m)
    is a closed loop and adds one to the power of N, as the chosen diagrams'
    powers do; how the output legs fall together is a delta pattern, and the
    coefficient of a kernel class is the sum over the patterns below it.
    Returns (classes, den): classes maps each kernel class to its numerator
    polynomial in N as (re, im) lists of integer coefficients, entry i the
    coefficient of N^i, and the class's value is that polynomial over den,
    the integer polynomial L * N^-low.  Here low <= 0 is the lowest power of
    N that occurs and L the product of the factors' coefficient denominators.
    """
    if (count := math.prod(map(len, lifts))) > MAX_LOOP_CHOICES:
        raise ValueError(f"loop counting needs {count} diagram choices, "
                         f"over MAX_LOOP_CHOICES = {MAX_LOOP_CHOICES}")
    m = len(lifts)
    nlegs = 6 * m
    base = list(range(nlegs))
    merged = 0
    for block in constraint.blocks:
        # slot 2k+1 is factor k's row leg 6k, slot 2k+2 its column leg 6k+1
        legs = [6 * ((s - 1) // 2) + (s - 1) % 2 for s in block]
        for leg in legs[1:]:
            merged += _union(base, legs[0], leg)
    for k in range(m - 1):
        merged += _union(base, 6 * k + 3, 6 * k + 8)
        merged += _union(base, 6 * k + 5, 6 * k + 10)
    outputs = (2, nlegs - 3, 4, nlegs - 1)
    choices = []
    denominator = 1
    for k, lift in enumerate(lifts):
        pairs, scale = _gaussian_integers(lift.values())
        denominator *= scale
        # leg l (1..6) of factor k's diagram is leg 6k + l - 1
        off = 6 * k - 1
        choices.append([
            ([(off + b[0], off + leg) for b in pi.blocks for leg in b[1:]], power, re, im)
            for (pi, power), (re, im) in zip(lift, pairs)
        ])
    # (output pattern, power of N) -> Gaussian integer [re, im]
    totals: dict[tuple, list] = {}

    def visit(k: int, parent: list, merged: int, power: int, re: int, im: int) -> None:
        if k == m:
            seen: dict = {}
            pattern = tuple(seen.setdefault(_find(parent, x), len(seen)) for x in outputs)
            key = (pattern, power + nlegs - merged - len(seen))
            acc = totals.get(key)
            if acc is None:
                totals[key] = [re, im]
            else:
                acc[0] += re
                acc[1] += im
            return
        for pairs, dpower, dre, dim in choices[k]:
            joined = parent[:]
            more = merged
            for x, y in pairs:
                more += _union(joined, x, y)
            visit(k + 1, joined, more, power + dpower, re * dre - im * dim, re * dim + im * dre)

    visit(0, base, merged, 0, 1, 0)
    low = high = 0
    for _, power in totals:
        low, high = min(low, power), max(high, power)
    width = high - low + 1
    classes: dict[Partition, tuple[list, list]] = {}
    for (pattern, power), (re, im) in totals.items():
        i = power - low
        for kap in _classes_above(pattern):
            acc = classes.get(kap)
            if acc is None:
                acc = classes[kap] = ([0] * width, [0] * width)
            acc[0][i] += re
            acc[1][i] += im
    return classes, (0,) * -low + (denominator,)


# transfer-scan steps one constrained sum may take, at about 15 us each on
# matrix-unit factors (README)
MAX_SCAN_STEPS = 200_000


def _scan_sum(constraint: Partition, args):
    """The constrained sum by a transfer scan over the factors.

    States assign indices to the constraint blocks still in scope, and blocks
    whose last slot has passed are dropped so states merge.  Enumeration order
    is fixed, so results are reproducible term for term.
    """
    m = len(args)
    algebra = args[0].algebra
    n = args[0].size
    block_of = constraint.block_index()
    # ordered layout of the blocks still in scope after each factor; state
    # keys are index tuples aligned to these layouts, so no sorting happens
    # in the inner loop and merged states stay deterministic
    open_after = [
        tuple(bid for bid, block in enumerate(constraint.blocks) if block[0] <= 2 * k < block[-1])
        for k in range(m + 1)
    ]
    states: dict[tuple, object] = {(): None}
    rng = range(1, n + 1)
    for k in range(1, m + 1):
        r_slot, c_slot = 2 * k - 1, 2 * k
        rb, cb = block_of[r_slot], block_of[c_slot]
        prev_open = open_after[k - 1]
        rpos = prev_open.index(rb) if rb in prev_open else -1
        cpos = prev_open.index(cb) if cb in prev_open else -1
        plan = []
        for bid in open_after[k]:
            if bid == rb:
                plan.append(("r", 0))
            elif bid == cb:
                plan.append(("c", 0))
            else:
                plan.append(("p", prev_open.index(bid)))
        rows = args[k - 1].rows
        new_states: dict[tuple, object] = {}
        for assign, acc in states.items():
            r_choices = (assign[rpos],) if rpos >= 0 else rng
            for r in r_choices:
                if cb == rb:
                    c_choices = (r,)
                elif cpos >= 0:
                    c_choices = (assign[cpos],)
                else:
                    c_choices = rng
                row = rows[r - 1]
                for c in c_choices:
                    entry = row[c - 1]
                    if not entry:
                        continue
                    value = entry if acc is None else acc * entry
                    if not value:
                        continue
                    key = tuple(
                        r if tag == "r" else c if tag == "c" else assign[idx]
                        for tag, idx in plan
                    )
                    cur = new_states.get(key)
                    new_states[key] = value if cur is None else cur + value
        states = new_states
        if not states:
            return algebra.zero()
    return states.get((), algebra.zero())


class NormCheck(NamedTuple):
    lhs: float
    bound: float
    ok: bool


def norm_check(sigma: Partition, args) -> NormCheck:
    """Compare the constrained sum's norm against N^{blocks} times factor norms.

    The bound follows from the triangle inequality over the N^{|sigma|}
    admissible tuples; verdicts allow a 1e-6 relative tolerance and are
    reported, never raised.
    """
    args = _check_args(args)
    value = constrained_sum(sigma, args)
    lhs = args[0].algebra.norm_float(value)
    bound = float(args[0].size) ** len(sigma.blocks)
    for a in args:
        bound *= a.norm_float()
    ok = lhs <= bound + max(1e-9, 1e-6 * bound)
    return NormCheck(lhs, bound, ok)


# ---------------------------------------------------------------------------
# the expression language of scenario input

MAX_EXPONENT = 8
MAX_DEPTH = 200

_SYNTAX = (
    ast.Expression, ast.Load, ast.Constant, ast.Name, ast.Call, ast.UnaryOp,
    ast.UAdd, ast.USub, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
)


def _is_pow(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)


def parse_expression(text: str, names) -> ast.Expression:
    """Parse an expression and check it before any arithmetic runs.

    Allowed: integer literals, the given names (values, or functions called
    with positional arguments), unary + and -, and + - * / **.  An exponent
    is an integer literal from 0 to MAX_EXPONENT, and a power's base holds
    no other power, so the work stays bounded.  Errors are ValueErrors.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, RecursionError) as exc:
        raise ValueError(f"cannot parse expression {text!r}") from exc
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ValueError(f"expressions nest at most {MAX_DEPTH} levels deep")
        if not isinstance(node, _SYNTAX) or (
            isinstance(node, ast.Call) and not isinstance(node.func, ast.Name)
        ):
            raise ValueError(f"unsupported syntax in {text!r}: {type(node).__name__}")
        if isinstance(node, ast.Constant) and type(node.value) is not int:
            raise ValueError(f"only integer literals are allowed, got {node.value!r}")
        if isinstance(node, ast.Name) and node.id not in names:
            raise ValueError(f"unknown name {node.id!r}")
        if _is_pow(node):
            exp = node.right
            # a non-integer literal fails the literal check on its own visit
            if not (isinstance(exp, ast.Constant) and exp.value in range(MAX_EXPONENT + 1)):
                raise ValueError(f"exponents are integer literals from 0 to {MAX_EXPONENT}")
            if any(_is_pow(sub) for sub in ast.walk(node.left)):
                raise ValueError("the base of a power cannot hold another power")
        stack.extend((child, depth + 1) for child in ast.iter_child_nodes(node))
    return tree


def evaluate_expression(tree: ast.Expression, env: dict, one):
    """Value of a parsed expression in the ring whose unit is one.

    env maps each name to a value or a function of integers.  Scalars (the
    integer literals, rationals, Gaussian rationals) combine among
    themselves; a scalar next to a ring value, like a scalar result, stands
    for that multiple of one.  Division is only by nonzero scalars.  Every
    domain error is a ValueError.
    """

    def lift(v):
        return one * v if isinstance(v, _SCALARS) else v

    def ev(node):
        if isinstance(node, ast.Constant):
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            value = env.get(node.id)
            if value is None or callable(value):
                raise ValueError(f"{node.id} is not a value")
            return value
        if isinstance(node, ast.Call):
            name, args = node.func.id, [ev(a) for a in node.args]
            fn = env.get(name)
            if not callable(fn):
                raise ValueError(f"{name} is not a function")
            if any(not isinstance(a, Fraction) or a.denominator != 1 for a in args):
                raise ValueError(f"{name} takes integer arguments")
            try:
                return fn(*map(int, args))
            except TypeError as exc:
                raise ValueError(f"{name}: {exc}") from exc
        if isinstance(node, ast.UnaryOp):
            value = ev(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if _is_pow(node):
            k = node.right.value
            return reduce(operator.mul, [ev(node.left)] * k) if k else Fraction(1)
        left, right = ev(node.left), ev(node.right)
        if isinstance(node.op, ast.Div):
            if not isinstance(right, _SCALARS):
                raise ValueError("division only by scalars")
            if not right:
                raise ValueError("division by zero")
            return left * (Fraction(1) / right)
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(left, _SCALARS) != isinstance(right, _SCALARS):
            left, right = lift(left), lift(right)
        return left + right if isinstance(node.op, ast.Add) else left - right

    return lift(ev(tree.body))


def parse_scalar(value) -> GaussianRational:
    """Exact scalar literal: an int, or a string like "3", "-1/2", "1+2*i"."""
    if isinstance(value, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(value, _SCALARS):
        return _as_gauss(value)
    if isinstance(value, str):
        env = {"i": GaussianRational.i()}
        return evaluate_expression(parse_expression(value, env), env, _ONE)
    raise ValueError(f"cannot read {value!r} as an exact scalar")
