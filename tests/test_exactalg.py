"""Tests for exact scalars, matrices, Laurent expansions and interpolation."""

import math
import random
from fractions import Fraction

import pytest

from qhaar.exactalg import (
    BigRational,
    FieldMatrix,
    GaussianRational,
    InconsistentSamplesError,
    LaurentExpansion,
    RationalFunction,
    SingularMatrixError,
    interpolate_rational,
    _pcontent,
    _pexact_div,
    _pgcd,
    _pmul,
    _pneg,
    laurent_at_infinity,
)

RF = RationalFunction
N_VAR = RF.variable()


def test_bigrational_is_fraction():
    assert BigRational is Fraction
    assert BigRational(6, 4) == Fraction(3, 2)


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(Fraction(1), Fraction(2))
        b = GaussianRational(Fraction(3), Fraction(-1))
        assert a * b == GaussianRational(Fraction(5), Fraction(5))
        assert a + b == GaussianRational(Fraction(4), Fraction(1))
        assert a - b == GaussianRational(Fraction(-2), Fraction(3))
        assert (a / b) * b == a

    def test_mixed_scalars(self):
        a = GaussianRational(Fraction(1, 2), Fraction(1))
        assert a + 1 == GaussianRational(Fraction(3, 2), Fraction(1))
        assert 2 * a == GaussianRational(Fraction(1), Fraction(2))
        assert a - Fraction(1, 2) == GaussianRational(0, Fraction(1))
        assert 1 / GaussianRational.i() == GaussianRational(0, Fraction(-1))

    def test_conjugate_and_modulus(self):
        a = GaussianRational(Fraction(3), Fraction(4))
        assert a.conjugate() == GaussianRational(Fraction(3), Fraction(-4))
        assert (a * a.conjugate()).re == 25

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational.one() / GaussianRational.zero()

    def test_real_values_hash_like_their_rationals(self):
        # equal values must hash equally, or set and dict lookups miss them
        assert GaussianRational(1) == 1
        assert 1 in {GaussianRational(1)}
        assert GaussianRational(1) in {1}
        assert {Fraction(1, 3): "x"}[GaussianRational(Fraction(1, 3))] == "x"
        assert hash(GaussianRational.zero()) == hash(0)
        a = GaussianRational(Fraction(1, 2), Fraction(-3))
        assert hash(a) == hash(GaussianRational(Fraction(2, 4), Fraction(-6, 2)))

    def test_str(self):
        assert str(GaussianRational(Fraction(1), Fraction(-1))) == "1-i"
        assert str(GaussianRational(0, Fraction(3, 2))) == "3/2i"
        assert str(GaussianRational(Fraction(5))) == "5"


class TestRationalFunction:
    def test_canonical_reduction(self):
        # (n^2 - 1)/(n - 1) reduces to n + 1
        f = RF((-1, 0, 1), (-1, 1))
        assert f == RF((1, 1))
        assert f.den == (1,)

    def test_sign_normalization(self):
        f = RF((1,), (-1, 0, 1))
        g = RF((-1,), (1, 0, -1))
        assert f == g
        assert f.den[-1] > 0

    def test_content_reduction(self):
        assert RF((2, 4), (6,)) == RF((1, 2), (3,))

    def test_arithmetic_identities(self):
        rng = random.Random(7)

        def rnd():
            num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
            den = ()
            while not any(den):
                den = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
            return RF(num, den)

        one = RF.one()
        for _ in range(40):
            a, b, c = rnd(), rnd(), rnd()
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert a - a == RF.zero()
            if a:
                assert a / a == one
                assert (b / a) * a == b

    def test_pow_and_monomial(self):
        assert N_VAR**3 == RF.monomial(3)
        assert RF.monomial(-2) == one_over(N_VAR * N_VAR)
        assert RF.monomial(0) == RF.one()
        assert (N_VAR + 1) ** 2 == N_VAR * N_VAR + 2 * N_VAR + 1

    def test_evaluate(self):
        f = RF((1, 0, 1), (0, -1, 0, 1))  # (n^2+1)/(n^3-n)
        assert f.evaluate(2) == Fraction(5, 6)
        assert f.evaluate(Fraction(1, 2)) == Fraction(5, 4) / Fraction(-3, 8)
        with pytest.raises(ZeroDivisionError):
            f.evaluate(1)

    def test_evaluate_on_ints_matches_the_fraction_route(self):
        # an int argument takes Horner in int arithmetic; a Fraction the
        # Fraction route: same values, and the same error at a pole
        rng = random.Random(20261)
        poles = 0
        for _ in range(200):
            f = RF(_random_poly(rng), (0,) * rng.randint(0, 2) + _random_poly(rng))
            for n in range(2, 17):
                try:
                    expected = f.evaluate(Fraction(n))
                except ZeroDivisionError as exc:
                    with pytest.raises(ZeroDivisionError) as got:
                        f.evaluate(n)
                    assert str(got.value) == str(exc) == f"denominator vanishes at n = {n}"
                    poles += 1
                    continue
                value = f.evaluate(n)
                assert type(value) is Fraction
                assert value == expected
        assert poles

    def test_text_roundtrip(self):
        f = RF((1, 0, 1), (0, -1, 0, 1))
        assert str(f) == "(n^2 + 1)/(n^3 - n)"
        assert RF.from_text("(n^2 + 1)/(n^3 - n)") == f
        assert RF.from_text(str(f)) == f

    def test_text_forms(self):
        assert RF.from_text("n") == N_VAR
        assert RF.from_text("3/5") == RF((3,), (5,))
        assert RF.from_text("2n^2 - n + 7") == 2 * N_VAR**2 - N_VAR + 7
        assert RF.from_text("2*n^2") == 2 * N_VAR**2
        assert str(RF.from_int(-3)) == "-3"
        assert str(RF.zero()) == "0"

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            RF.from_text("n + x")
        with pytest.raises(ValueError):
            RF.from_text("1/2/3")

    def test_equality_with_scalars(self):
        assert RF.from_int(5) == 5
        assert RF.from_fraction(Fraction(1, 2)) == Fraction(1, 2)
        assert N_VAR != 1

    def test_constants_hash_like_their_rationals(self):
        assert RF.from_int(5) == 5
        assert 5 in {RF.from_int(5)}
        assert RF.from_int(5) in {5}
        assert Fraction(-2, 3) in {RF.from_fraction(Fraction(-2, 3))}
        assert {Fraction(1, 2): "x"}[RF((3,), (6,))] == "x"
        assert hash(RF.zero()) == hash(0)
        assert hash(N_VAR / 2) == hash(RF((0, 3), (6,)))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RF((1,), (0,))
        with pytest.raises(ZeroDivisionError):
            N_VAR / RF.zero()


def _random_poly(rng, max_degree=3):
    """A nonzero integer polynomial; its leading coefficient may be negative."""
    head = [rng.randint(-4, 4) for _ in range(rng.randint(0, max_degree))]
    return tuple(head) + (rng.choice((-3, -2, -1, 1, 2, 3)),)


def _random_factor(rng):
    """A constant, a monomial c*n^k, or a polynomial times a power of n."""
    kind = rng.randrange(3)
    if kind == 0:
        return (rng.choice((-6, -2, -1, 2, 3, 4)),)
    if kind == 1:
        return (0,) * rng.randint(1, 3) + (rng.choice((-2, -1, 1, 3)),)
    return (0,) * rng.randint(0, 2) + _random_poly(rng)


def assert_canonical(f):
    """The invariants of RationalFunction's docstring."""
    if not f.num:
        assert f.den == (1,)
        return
    assert _pgcd(f.num, f.den) == (1,)
    assert math.gcd(_pcontent(f.num), _pcontent(f.den)) == 1
    assert f.den[-1] > 0


def test_canonical_form_properties():
    rng = random.Random(20241)
    for _ in range(300):
        a = (0,) * rng.randint(0, 2) + _random_poly(rng)
        b = (0,) * rng.randint(0, 2) + _random_poly(rng)
        c = _random_factor(rng)
        f = RF(a, b)
        assert_canonical(f)
        reduced = RF(_pmul(a, c), _pmul(b, c))
        assert_canonical(reduced)
        assert (reduced.num, reduced.den) == (f.num, f.den)
        g = RF(_random_factor(rng), _random_poly(rng))
        neg = -f
        assert_canonical(neg)
        normalized = RF(_pneg(f.num), f.den)
        assert (neg.num, neg.den) == (normalized.num, normalized.den)
        assert neg + f == RF.zero()
        diff = f - g
        assert_canonical(diff)
        via_add = f + RF(_pneg(g.num), g.den)
        assert (diff.num, diff.den) == (via_add.num, via_add.den)
        assert f - f == RF.zero()
        assert_canonical(f - f)


def one_over(f):
    return RF.one() / f


def is_inverse(m, inv):
    """Whether m @ inv and inv @ m are both the identity, computed entrywise."""
    n = m.size
    for left, right in ((m, inv), (inv, m)):
        for a in range(n):
            for b in range(n):
                acc = RF.zero()
                for t in range(n):
                    acc = acc + left.entry(a, t) * right.entry(t, b)
                if acc != RF.from_int(1 if a == b else 0):
                    return False
    return True


def fraction_inverse(rows):
    """Gauss-Jordan inverse of a nonsingular matrix of Fractions."""
    n = len(rows)
    aug = [list(row) + [Fraction(int(a == b)) for b in range(n)] for a, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def realified(rows):
    """The real 2n x 2n form [[Re, -Im], [Im, Re]] of a Gaussian-integer matrix."""
    re = [[int(z.re) for z in row] for row in rows]
    im = [[int(z.im) for z in row] for row in rows]
    top = [r + [-x for x in i] for r, i in zip(re, im)]
    bottom = [i + r for r, i in zip(re, im)]
    return FieldMatrix(tuple(tuple(RF.from_int(x) for x in row) for row in top + bottom))


def test_exact_division_rejects_a_non_integral_quotient():
    # dividing by the primitive gcd always leaves integer digits; any other
    # remainder is an arithmetic error, not a rational fallback
    assert _pexact_div((2, 4), (1, 2)) == (2,)
    with pytest.raises(ArithmeticError):
        _pexact_div((1,), (2,))


class TestFieldMatrix:
    def test_two_by_two_closed_form(self):
        n2 = N_VAR * N_VAR
        m = FieldMatrix(((n2, N_VAR), (N_VAR, n2)))
        inv = m.invert()
        # inverse of [[n^2, n], [n, n^2]] is 1/(n^2(n^2-1)) [[n^2, -n], [-n, n^2]]
        assert inv.entry(0, 0) == RF((1,), (-1, 0, 1))
        assert inv.entry(0, 1) == RF((-1,), (0, -1, 0, 1))
        assert inv.entry(1, 0) == inv.entry(0, 1)
        assert inv.entry(1, 1) == inv.entry(0, 0)
        assert is_inverse(m, inv)

    def test_random_rational_inverse(self):
        rng = random.Random(11)
        for _ in range(8):
            size = rng.randint(1, 4)
            while True:
                rows = tuple(
                    tuple(RF.from_int(rng.randint(-5, 5)) for _ in range(size))
                    for _ in range(size)
                )
                m = FieldMatrix(rows)
                try:
                    inv = m.invert()
                except SingularMatrixError:
                    continue
                break
            assert is_inverse(m, inv)

    def test_gaussian_entries(self):
        i = GaussianRational.i()
        one = GaussianRational.one()
        m = realified(((one, i), (-i, one + one)))
        inv = m.invert()
        assert is_inverse(m, inv)
        # [[1, i], [-i, 2]] has determinant 1 and inverse [[2, -i], [i, 1]]
        assert inv == realified(((one + one, -i), (i, one)))

    def test_singular_reports_column(self):
        z, o = RF.zero(), RF.one()
        m = FieldMatrix(((o, o, z), (o, o, z), (z, z, o)))
        with pytest.raises(SingularMatrixError) as exc:
            m.invert()
        assert exc.value.column == 1

    def test_empty_matrix(self):
        m = FieldMatrix(())
        assert m.invert().size == 0

    def test_row_update_with_nonconstant_denominators(self):
        # each updated entry a - f * b is built over one denominator and
        # reduced once; a zero first pivot forces a row swap
        f = RF.from_text
        m = FieldMatrix((
            (RF.zero(), f("1/(n + 1)"), f("n/(n - 1)")),
            (f("1/n"), f("(n + 2)/(n^2 + 1)"), RF.one()),
            (f("(n - 3)/(n + 2)"), RF.from_int(2), f("1/(n^2 - 2)")),
        ))
        inv = m.invert()
        assert is_inverse(m, inv)
        for size in (5, 7):
            at = [[m.entry(a, b).evaluate(size) for b in range(3)] for a in range(3)]
            expected = fraction_inverse(at)
            assert [[inv.entry(a, b).evaluate(size) for b in range(3)] for a in range(3)] == expected

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FieldMatrix(((RF.one(), RF.zero()),))


class TestLaurent:
    def test_inverse_square_lead(self):
        f = one_over(N_VAR * N_VAR - 1)
        exp = laurent_at_infinity(f, 4)
        assert exp.leading_exponent == -2
        assert exp.coeffs == tuple(Fraction(c) for c in (1, 0, 1, 0, 1))

    def test_cubic_tail(self):
        f = RF((-1,), (0, -1, 0, 1))  # -1/(n^3 - n)
        exp = laurent_at_infinity(f, 2)
        assert exp.leading_exponent == -3
        assert exp.coeffs == tuple(Fraction(c) for c in (-1, 0, -1))

    def test_polynomial_part(self):
        f = (N_VAR**3 + 1) / N_VAR
        exp = laurent_at_infinity(f, 3)
        assert exp.leading_exponent == 2
        assert exp.coeffs == tuple(Fraction(c) for c in (1, 0, 0, 1))

    def test_zero_function(self):
        exp = laurent_at_infinity(RF.zero(), 2)
        assert exp.is_zero
        assert exp.abs_coefficient(0) == 0
        assert exp.abs_coefficient(-5) == 0

    def test_abs_coefficient(self):
        f = one_over(N_VAR * N_VAR - 1)
        exp = laurent_at_infinity(f, 3)
        assert exp.abs_coefficient(-2) == 1
        assert exp.abs_coefficient(-3) == 0
        assert exp.abs_coefficient(-1) == 0  # above the lead
        assert exp.abs_coefficient(0) == 0
        with pytest.raises(ValueError):
            exp.abs_coefficient(-6)  # deeper than computed

    def test_truncation_consistency(self):
        # partial sums converge to the function value numerically
        f = RF((3, 0, 1), (1, -2, 0, 0, 1))
        exp = laurent_at_infinity(f, 12)
        n = 10.0
        approx = sum(
            float(c) * n ** (exp.leading_exponent - t) for t, c in enumerate(exp.coeffs)
        )
        assert abs(approx - float(f.evaluate(10))) < 1e-9


class TestInterpolation:
    def test_recovers_rational_function(self):
        f = RF((1, 0, 1), (0, -1, 0, 1))
        pts = [(x, f.evaluate(x)) for x in range(2, 10)]
        got = interpolate_rational(pts, 2, 3)
        assert got == f

    def test_overdetermined_degrees_still_reduce(self):
        f = (N_VAR + 1) / (N_VAR + 2)
        pts = [(x, f.evaluate(x)) for x in range(1, 10)]
        got = interpolate_rational(pts, 3, 3)
        assert got == f

    def test_polynomial_case(self):
        f = N_VAR**2 - 3
        pts = [(x, f.evaluate(x)) for x in range(5)]
        assert interpolate_rational(pts, 2, 1) == f

    def test_corrupted_sample_raises(self):
        f = RF((1, 0, 1), (0, -1, 0, 1))
        pts = [(x, f.evaluate(x)) for x in range(2, 10)]
        pts[3] = (pts[3][0], pts[3][1] + 1)
        with pytest.raises(InconsistentSamplesError):
            interpolate_rational(pts, 2, 3)

    def test_insufficient_samples_raises(self):
        with pytest.raises(ValueError):
            interpolate_rational([(1, Fraction(1)), (2, Fraction(2))], 2, 2)

    def test_duplicate_points_raise(self):
        pts = [(1, Fraction(1))] * 6
        with pytest.raises(ValueError):
            interpolate_rational(pts, 1, 1)

    def test_nonmatching_degree_budget_raises(self):
        # samples of n^3 cannot be matched with numerator degree 1, denominator 0
        f = N_VAR**3
        pts = [(x, f.evaluate(x)) for x in range(6)]
        with pytest.raises(InconsistentSamplesError):
            interpolate_rational(pts, 1, 0)


def test_laurent_expansion_is_plain_record():
    exp = LaurentExpansion(-1, (Fraction(2), Fraction(0)))
    assert exp.leading_exponent == -1
    assert not exp.is_zero
