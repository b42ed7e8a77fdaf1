"""Exact scalar arithmetic: rationals, Gaussian rationals, rational functions in n.

The Weingarten tables live over the field of rational functions of the
dimension variable n with integer coefficients; moments of concrete matrix
models live over Q or Q(i).  This module provides those fields, exact
inversion of matrices over the rational functions, Laurent expansions at
n = infinity, and exact rational interpolation from sampled values.

BigRational is fractions.Fraction: it already guarantees arbitrary precision,
positive denominators and reduced form, so it is re-exported as the rational
scalar type rather than wrapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "BigRational",
    "GaussianRational",
    "RationalFunction",
    "FieldMatrix",
    "LaurentExpansion",
    "SingularMatrixError",
    "InconsistentSamplesError",
    "laurent_at_infinity",
    "interpolate_rational",
]

BigRational = Fraction


class SingularMatrixError(ValueError):
    """Raised by FieldMatrix.invert, carrying the pivot position that failed."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"matrix is singular: no pivot available in column {column}")


class InconsistentSamplesError(ValueError):
    """Raised when sampled values admit no rational function of the given degrees."""


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q(i) with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    @classmethod
    def zero(cls) -> "GaussianRational":
        return cls()

    @classmethod
    def one(cls) -> "GaussianRational":
        return cls(Fraction(1))

    @staticmethod
    def i() -> "GaussianRational":
        return GaussianRational(Fraction(0), Fraction(1))

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(Fraction(x))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.im and not o.im:
            a, b = self.re, o.re
            if a.numerator == 1 and a.denominator == 1:
                return o
            if b.numerator == 1 and b.denominator == 1:
                return self
            return GaussianRational(a * b)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        # equal to a Fraction or int when real, so it must hash like one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    adjoint = conjugate

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"


# ---------------------------------------------------------------------------
# dense integer polynomials (little-endian coefficient tuples)


def _pstrip(c) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pdeg(c: tuple[int, ...]) -> int:
    return len(c) - 1  # -1 for the zero polynomial


def _padd(a, b) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _pstrip([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _pneg(a) -> tuple[int, ...]:
    return tuple(-c for c in a)


def _pmul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _pstrip(out)


def _pcontent(a) -> int:
    return math.gcd(*a) if a else 0


def _pprimitive(a) -> tuple[int, ...]:
    if not a:
        return ()
    c = _pcontent(a)
    sign = 1 if a[-1] > 0 else -1
    return tuple(x // (sign * c) for x in a)


def _prem(a, b) -> tuple[int, ...]:
    """Pseudo-remainder of integer polynomials (exact, denominator-free)."""
    r = list(a)
    db = _pdeg(b)
    lb = b[-1]
    while len(r) - 1 >= db and any(r):
        r = _pstrip(r)
        if len(r) - 1 < db:
            break
        dr = len(r) - 1
        coef = r[-1]
        r = [lb * c for c in r]
        for t in range(db + 1):
            r[dr - db + t] -= coef * b[t]
        r = list(_pstrip(r))
    return _pstrip(r)


def _pgcd(a, b) -> tuple[int, ...]:
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    a, b = _pstrip(a), _pstrip(b)
    if not a:
        return _pprimitive(b)
    if not b:
        return _pprimitive(a)
    a, b = _pprimitive(a), _pprimitive(b)
    while b:
        r = _prem(a, b)
        a, b = b, _pprimitive(r)
    return a


def _peval(a, x: int | Fraction) -> int | Fraction:
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def _pformat(a: tuple[int, ...]) -> str:
    if not a:
        return "0"
    parts: list[str] = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "n" if mag == 1 else f"{mag}n"
        else:
            body = f"n^{k}" if mag == 1 else f"{mag}n^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


@dataclass(frozen=True)
class RationalFunction:
    """A reduced quotient of integer-coefficient polynomials in n.

    Canonical form: gcd(num, den) = 1 up to rational scalars, the integer
    contents of numerator and denominator are coprime, and the denominator has
    a positive leading coefficient, so equal functions are structurally equal.
    """

    num: tuple[int, ...] = (0,)
    den: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        num = _pstrip(self.num)
        den = _pstrip(self.den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", (1,))
            return
        # a common power of n cancels by a shift; once either side is a
        # constant, the polynomial gcd is 1 and the PRS can be skipped
        shift = min(next(k for k, c in enumerate(a) if c) for a in (num, den))
        num, den = num[shift:], den[shift:]
        if len(num) > 1 and len(den) > 1:
            g = _pgcd(num, den)
            if g != (1,):
                num = _pexact_div(num, g)
                den = _pexact_div(den, g)
        cn, cd = _pcontent(num), _pcontent(den)
        c = math.gcd(cn, cd)
        sign = 1 if den[-1] > 0 else -1
        num = tuple(x // (sign * c) for x in num)
        den = tuple(x // (sign * c) for x in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls((), (1,))

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls((1,), (1,))

    @classmethod
    def from_int(cls, c: int) -> "RationalFunction":
        return cls((c,), (1,))

    @classmethod
    def from_fraction(cls, q: Fraction) -> "RationalFunction":
        q = Fraction(q)
        return cls((q.numerator,), (q.denominator,))

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls((0, 1), (1,))

    @classmethod
    def monomial(cls, k: int) -> "RationalFunction":
        """n**k for any integer k, negative powers included."""
        if k >= 0:
            return cls((0,) * k + (1,), (1,))
        return cls((1,), (0,) * (-k) + (1,))

    # -- arithmetic

    @staticmethod
    def _coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, int):
            return RationalFunction.from_int(x)
        if isinstance(x, Fraction):
            return RationalFunction.from_fraction(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(
            _padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
            _pmul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        # negating the numerator keeps the canonical form
        out = object.__new__(RationalFunction)
        object.__setattr__(out, "num", _pneg(self.num))
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k: int) -> "RationalFunction":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = RationalFunction.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        # equal to a Fraction or int when constant, so it must hash like one
        if len(self.den) == 1 and len(self.num) <= 1:
            return hash(Fraction(self.num[0], self.den[0])) if self.num else 0
        return hash((self.num, self.den))

    def evaluate(self, x) -> Fraction:
        # an int argument keeps Horner in int arithmetic, one Fraction at the end
        xq = x if isinstance(x, int) else Fraction(x)
        d = _peval(self.den, xq)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at n = {x}")
        return Fraction(_peval(self.num, xq), d)

    def degrees(self) -> tuple[int, int]:
        return (_pdeg(self.num), _pdeg(self.den))

    def __str__(self) -> str:
        if _pdeg(self.den) == 0 and self.den == (1,):
            return _pformat(self.num)
        num_s = _pformat(self.num)
        den_s = _pformat(self.den)
        if _pdeg(self.num) > 0:
            num_s = f"({num_s})"
        unit_monomial = self.den[-1] == 1 and not any(self.den[:-1])
        if _pdeg(self.den) > 0 and not unit_monomial:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"


def _pexact_div(a, b) -> tuple[int, ...]:
    """Exact division of integer polynomials by a primitive divisor.

    By Gauss's lemma a primitive b that divides a over Q divides it over Z,
    so every quotient digit is an integer; anything else is an error.
    """
    a = list(a)
    db, lb = _pdeg(b), b[-1]
    out = [0] * (len(a) - db)
    for k in range(len(out) - 1, -1, -1):
        c = a[k + db]
        if c % lb != 0:
            raise ArithmeticError("inexact polynomial division")
        q = c // lb
        out[k] = q
        for t in range(db + 1):
            a[k + t] -= q * b[t]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return _pstrip(out)


# ---------------------------------------------------------------------------
# exact matrices


@dataclass(frozen=True)
class FieldMatrix:
    """A square matrix over the rational functions of n (Gram and Weingarten)."""

    entries: tuple[tuple[RationalFunction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        rows = tuple(tuple(row) for row in self.entries)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def invert(self, symmetries=()) -> "FieldMatrix":
        """Exact inverse W of a symmetric matrix G: G = L D L^T without
        pivoting, then L^T W = D^-1 L^-1, whose upper triangle is D^-1, from
        the last row up: W_ij = [i == j] / d_i - sum_{k > i} L_ki W_kj.

        Each entry update is reduced once.  symmetries are index
        permutations s with G[s[i]][s[j]] == G[i][j]; W keeps them, so each
        computed entry is copied to its images (for a group: one entry per
        orbit).  ValueError if G is not symmetric or an s does not fix it;
        SingularMatrixError(k) on a zero pivot d_k.  A Gram matrix n^{|p v q|}
        of 2m-point pairings has none: it is positive definite at n >= 2m,
        so every leading minor is a nonzero function.
        """
        g, size = self.entries, self.size
        lower = [(i, j) for i in range(size) for j in range(i + 1)]
        if any(g[i][j] != g[j][i] for i, j in lower):
            raise ValueError("matrix is not symmetric")
        for s in symmetries:
            if sorted(s) != list(range(size)) or any(g[s[i]][s[j]] != g[i][j] for i, j in lower):
                raise ValueError(f"permutation {tuple(s)} does not fix the matrix")
        a = [list(row[:i + 1]) for i, row in enumerate(g)]
        low = [[None] * i for i in range(size)]
        for k in range(size):
            if not a[k][k]:
                raise SingularMatrixError(k)
            for i in range(k + 1, size):
                low[i][k] = l = a[i][k] / a[k][k]
                a[i][k + 1:] = [_minus_sum(a[i][j], [(l, a[j][k])]) for j in range(k + 1, i + 1)]
        wg, zero = {}, RationalFunction.zero()
        for i in range(size - 1, -1, -1):
            for j in range(size - 1, i - 1, -1):
                if (i, j) not in wg:
                    value = _minus_sum(1 / a[i][i] if i == j else zero,
                                       [(low[k][i], wg[k, j]) for k in range(i + 1, size)])
                    for s in [range(size), *symmetries]:
                        wg[s[i], s[j]] = wg[s[j], s[i]] = value
        return FieldMatrix(tuple(tuple(wg[i, j] for j in range(size)) for i in range(size)))


def _minus_sum(c: RationalFunction, pairs) -> RationalFunction:
    """c minus the sum of the products f*h, reduced once: numerators over
    equal denominators are added first.  With no nonzero product, c itself."""
    groups: dict[tuple[int, ...], tuple[int, ...]] = {}
    for f, h in pairs:
        if f and h:
            den = _pmul(f.den, h.den)
            groups[den] = _padd(groups.get(den, ()), _pmul(f.num, h.num))
    if not groups:
        return c
    num, den = c.num, c.den
    for d, n in groups.items():
        num, den = _padd(_pmul(num, d), _pneg(_pmul(n, den))), _pmul(den, d)
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# Laurent expansions at infinity


@dataclass(frozen=True)
class LaurentExpansion:
    """f(n) = n**leading_exponent * (c0 + c1/n + c2/n^2 + ...), exact coefficients.

    The zero function carries the designated expansion (0, (0,...), is_zero=True).
    """

    leading_exponent: int
    coeffs: tuple[Fraction, ...]
    is_zero: bool = False

    def abs_coefficient(self, power: int) -> Fraction:
        """Coefficient of n**power; the expansion must reach that depth."""
        if self.is_zero:
            return Fraction(0)
        offset = self.leading_exponent - power
        if offset < 0:
            return Fraction(0)
        if offset >= len(self.coeffs):
            raise ValueError(f"expansion not computed to depth n^{power}")
        return self.coeffs[offset]


def laurent_at_infinity(f: RationalFunction, order: int) -> LaurentExpansion:
    """Expand f in powers of 1/n at infinity, through order terms past the lead."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not f.num:
        return LaurentExpansion(0, tuple(Fraction(0) for _ in range(order + 1)), True)
    dp, dq = _pdeg(f.num), _pdeg(f.den)
    e = dp - dq
    a = [Fraction(f.num[dp - i]) if dp - i >= 0 else Fraction(0) for i in range(order + 1)]
    b = [Fraction(f.den[dq - i]) if dq - i >= 0 else Fraction(0) for i in range(order + 1)]
    c: list[Fraction] = []
    for k in range(order + 1):
        acc = a[k]
        for t in range(k):
            acc -= c[t] * b[k - t]
        c.append(acc / b[0])
    return LaurentExpansion(e, tuple(c))


# ---------------------------------------------------------------------------
# rational interpolation


def _nullspace_vector(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """One nonzero kernel vector of the matrix, or None if the kernel is trivial."""
    if not rows:
        return None
    ncols = len(rows[0])
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][col]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    # set the first free variable to one, all others to zero
    fv = free[0]
    vec = [Fraction(0)] * ncols
    vec[fv] = Fraction(1)
    for row_idx, col in enumerate(pivots):
        vec[col] = -mat[row_idx][fv]
    return vec


def interpolate_rational(
    samples, num_degree: int, den_degree: int
) -> RationalFunction:
    """Exact rational function through integer-point samples, degrees bounded.

    samples: iterable of (x, y) with integer x and Fraction y.  Requires at
    least num_degree + den_degree + 2 samples so that the fit is
    over-determined; every sample is re-checked against the reduced result and
    any mismatch raises InconsistentSamplesError.
    """
    pts = [(int(x), Fraction(y)) for x, y in samples]
    if len({x for x, _ in pts}) != len(pts):
        raise ValueError("sample points must be distinct")
    needed = num_degree + den_degree + 2
    if len(pts) < needed:
        raise ValueError(f"need at least {needed} samples, got {len(pts)}")
    rows = []
    for x, y in pts:
        xq = Fraction(x)
        row = [xq**k for k in range(num_degree + 1)]
        row.extend(-y * xq**k for k in range(den_degree + 1))
        rows.append(row)
    vec = _nullspace_vector(rows)
    if vec is None:
        raise InconsistentSamplesError(
            f"no rational function of degrees ({num_degree},{den_degree}) fits the samples"
        )
    num_q = vec[: num_degree + 1]
    den_q = vec[num_degree + 1 :]
    lcm = math.lcm(*(q.denominator for q in num_q + den_q))
    num = _pstrip([int(q * lcm) for q in num_q])
    den = _pstrip([int(q * lcm) for q in den_q])
    if not den:
        raise InconsistentSamplesError("fit degenerated to a zero denominator")
    f = RationalFunction(num, den)
    for x, y in pts:
        try:
            val = f.evaluate(x)
        except ZeroDivisionError as exc:
            raise InconsistentSamplesError(
                f"reduced fit has a pole at sampled point n = {x}"
            ) from exc
        if val != y:
            raise InconsistentSamplesError(
                f"fit disagrees with sample at n = {x}: {val} != {y}"
            )
    return f
