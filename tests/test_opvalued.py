"""Tests for operator-valued expectations, cumulants, and constrained sums."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qhaar import opvalued
from qhaar.exactalg import GaussianRational, RationalFunction
from qhaar.freeness import (
    MixedWord,
    UnitaryLetter,
    _finite_dim_spec,
    _lhs_terms,
    _limit_terms,
    _slot_partition,
    counterexample_word,
    lhs_exact,
    limit_formula,
    load_scenario,
)
from qhaar.opvalued import (
    MAX_DEPTH,
    MAX_EXPONENT,
    BMatrix,
    DenseAlgebra,
    DiagramMatrix,
    MatrixUnitAlgebra,
    MatrixUnitElement,
    constrained_sum,
    cumulant_k,
    evaluate_expression,
    expectation,
    functional_e,
    loop_polynomials,
    norm_check,
    parse_expression,
    parse_scalar,
    _scan_sum,
)
from qhaar.oracles import nested_functional
from qhaar.partitions import (
    Partition,
    enumerate_family,
    fatten,
    fatten_extended,
    interleave,
    kernel,
    kreweras,
    leq,
)
from qhaar.weingarten import SignPattern, _pair_weights

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def rand_gauss(rng: random.Random) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
    )


def rand_dense(rng: random.Random, alg: DenseAlgebra):
    return alg.element(
        [[rand_gauss(rng) for _ in range(alg.dim)] for _ in range(alg.dim)]
    )


def rand_matrix_unit(rng: random.Random, alg: MatrixUnitAlgebra):
    terms = {}
    for _ in range(4):
        key = tuple(rng.randint(1, alg.n) for _ in range(4))
        terms[key] = rand_gauss(rng)
    return MatrixUnitElement(alg.n, terms)


def rand_element(rng, alg):
    if isinstance(alg, DenseAlgebra):
        return rand_dense(rng, alg)
    return rand_matrix_unit(rng, alg)


def rand_bmatrix(rng, alg, size):
    return BMatrix(
        alg, [[rand_element(rng, alg) for _ in range(size)] for _ in range(size)]
    )


def both_algebras():
    return [DenseAlgebra(2), MatrixUnitAlgebra(2)]


def flip_matrix(alg: MatrixUnitAlgebra, system: int = 1) -> BMatrix:
    """The matrix over B with (i, j) entry E_ji of the given system."""
    n = alg.n
    return BMatrix(
        alg,
        [[alg.unit(system, j, i) for j in range(1, n + 1)] for i in range(1, n + 1)],
    )


class TestDenseAlgebra:
    def test_one_is_neutral(self):
        alg = DenseAlgebra(3)
        rng = random.Random(11)
        x = rand_dense(rng, alg)
        assert alg.one() * x == x
        assert x * alg.one() == x
        assert x + alg.zero() == x

    def test_product_matches_embedding(self):
        alg = DenseAlgebra(3)
        rng = random.Random(12)
        x, y = rand_dense(rng, alg), rand_dense(rng, alg)
        lhs = alg.to_complex_array(x * y)
        rhs = alg.to_complex_array(x) @ alg.to_complex_array(y)
        assert np.allclose(lhs, rhs)

    def test_adjoint_is_conjugate_transpose(self):
        alg = DenseAlgebra(2)
        rng = random.Random(13)
        x = rand_dense(rng, alg)
        assert np.allclose(
            alg.to_complex_array(x.adjoint()), alg.to_complex_array(x).conj().T
        )
        assert x.adjoint().adjoint() == x

    def test_components_roundtrip(self):
        alg = DenseAlgebra(2)
        rng = random.Random(14)
        x = rand_dense(rng, alg)
        assert alg.from_components(alg.components(x)) == x

    @pytest.mark.parametrize(
        "other", [0.5, MatrixUnitAlgebra(2).one()], ids=["float", "matrix-unit"]
    )
    def test_foreign_operand_is_unsupported(self, other):
        x = DenseAlgebra(2).one()
        with pytest.raises(TypeError, match="unsupported operand"):
            x * other
        with pytest.raises(TypeError, match="unsupported operand"):
            other * x

    def test_dimension_mismatch_keeps_its_message(self):
        # dense elements are BMatrix instances over Q(i), so the mismatch is
        # BMatrix's own: two matrices of different sizes
        with pytest.raises(TypeError, match="^matrices over different spaces$"):
            DenseAlgebra(2).one() * DenseAlgebra(3).one()

    def test_element_is_a_bmatrix_over_q_i(self):
        alg = DenseAlgebra(2)
        i = GaussianRational.i()
        x = alg.element([[1, i], [Fraction(1, 2), 2 - i]])
        assert isinstance(x, BMatrix) and x.size == 2 and alg.contains(x)
        assert x.adjoint() == alg.element([[1, Fraction(1, 2)], [-i, 2 + i]])
        assert alg.one() * x == x == x * alg.one()
        assert alg.one() == BMatrix.identity(x.algebra, 2)

    def test_element_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match="^need a 2x2 matrix$"):
            DenseAlgebra(2).element([[1]])


# denominators that share factors with each other (2, 3, 6, 12), coprime
# ones, and large ones past 2^63
DENOMINATORS = (1, 2, 3, 6, 12, 7, 101, 2**61 - 1, 2**64 + 1, 10**30 + 57)


def rand_weight(rng: random.Random) -> Fraction:
    # Fraction moves a negative denominator's sign to the numerator
    return Fraction(rng.randint(-10**20, 10**20) or 1, rng.choice((1, -1)) * rng.choice(DENOMINATORS))


def rand_wide_dense(rng: random.Random, alg: DenseAlgebra):
    """A dense element whose parts are zero, small, or past 2^63, over the
    shared, coprime and large DENOMINATORS."""

    def part():
        num = rng.choice((0, rng.randint(-5, 5), rng.choice((1, -1)) * rng.randint(2**63, 2**80)))
        return Fraction(num, rng.choice(DENOMINATORS))

    return alg.element([[GaussianRational(part(), part()) for _ in range(alg.dim)]
                        for _ in range(alg.dim)])


def fraction_loop(alg, pairs):
    """The reference of weighted_sum: w * x added term by term in the
    algebra's own Fraction arithmetic."""
    total = alg.zero()
    for w, x in pairs:
        total = total + x * w
    return total


class TestWeightedSum:
    """weighted_sum adds a row's coordinates in integers over one common
    denominator; it equals the term-by-term Fraction loop."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_dense_route_equals_the_default_loop(self, d):
        alg = DenseAlgebra(d)
        rng = random.Random(40 + d)
        for _ in range(40):
            pairs = [(rand_weight(rng), rand_wide_dense(rng, alg))
                     for _ in range(rng.randint(1, 8))]
            if rng.random() < 0.3:
                pairs.insert(rng.randrange(len(pairs) + 1), (rand_weight(rng), alg.zero()))
            got = alg.weighted_sum(pairs)
            assert got == fraction_loop(alg, pairs)
            assert alg.contains(got)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_weights_that_share_factors_with_the_entries(self, d):
        # w = 1/2 against entries over 2: the terms' common denominator is
        # 4, not lcm(2, 2), and the sum is 1/4 + 1/4 = 1/2 in each part
        alg = DenseAlgebra(d)
        half = GaussianRational(Fraction(1, 2), Fraction(-1, 2))
        x = alg.element([[half] * d] * d)
        got = alg.weighted_sum([(Fraction(1, 2), x), (Fraction(1, 2), x)])
        assert got == x
        assert got == fraction_loop(alg, [(Fraction(1, 2), x)] * 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_zero_terms(self, d):
        alg = DenseAlgebra(d)
        assert alg.weighted_sum([]) == alg.zero()
        assert alg.weighted_sum([(Fraction(-3, 7), alg.zero())]) == alg.zero()
        assert fraction_loop(alg, []) == alg.zero()

    def test_matrix_unit_rows_equal_the_loop(self):
        # term maps: random elements at N = 2, which have no kernel classes
        rng = random.Random(45)
        alg = MatrixUnitAlgebra(2)
        for _ in range(20):
            pairs = [(rand_weight(rng), rand_matrix_unit(rng, alg)) for _ in range(5)]
            got = alg.weighted_sum(pairs)
            assert got.classes is None
            assert got == fraction_loop(alg, pairs)
        # class maps: the flip word's fast_sum results, below N = 4 (where
        # components raises) and above it
        for n in range(2, 8):
            word = counterexample_word(n, "quantum")
            pairs = []
            for constraint, w in _lhs_terms(word):
                x = constrained_sum(constraint, word.all_factors())
                assert x.classes is not None
                pairs.append((w.evaluate(n) / n, x))
            got = word.algebra.weighted_sum(pairs)
            assert got.classes is not None
            assert got == fraction_loop(word.algebra, pairs) == lhs_exact(word, n)
            # one element without classes: the whole row goes on term maps
            stray = (rand_weight(rng), rand_matrix_unit(rng, word.algebra))
            pairs.insert(rng.randrange(len(pairs)), stray)
            got = word.algebra.weighted_sum(pairs)
            assert got.classes is None
            assert got == fraction_loop(word.algebra, pairs)


class TestMatrixUnitAlgebra:
    def test_product_rule(self):
        one = GaussianRational.one()
        a = MatrixUnitElement(3, {(1, 2, 3, 1): one})
        b = MatrixUnitElement(3, {(2, 3, 1, 2): one})
        assert a * b == MatrixUnitElement(3, {(1, 3, 3, 2): one})
        c = MatrixUnitElement(3, {(3, 3, 1, 2): one})
        assert not (a * c)

    @pytest.mark.parametrize("n", [4, 5])
    def test_components_of_one_round_trip(self, n):
        alg = MatrixUnitAlgebra(n)
        one = GaussianRational.one()
        assert alg.components(alg.one()) == {
            Partition.from_text("{{1,2},{3,4}}"): one,
            Partition.from_text("{{1,2,3,4}}"): one,
        }
        assert alg.from_components(alg.components(alg.one())) == alg.one()

    @pytest.mark.parametrize("n", [4, 5])
    def test_components_of_flip_value_round_trip(self, n):
        scn = load_scenario(SCENARIO_DIR / "infinitesimal_flip.json")
        word = scn.word_at(n)
        value = lhs_exact(word, n)
        comps = word.algebra.components(value)
        assert comps and all(len(kap.blocks) <= 4 for kap in comps)
        assert word.algebra.from_components(comps) == value

    def test_components_need_four_indices(self):
        alg = MatrixUnitAlgebra(3)
        with pytest.raises(ValueError, match="N >= 4"):
            alg.components(alg.one())

    def test_from_components_skips_classes_larger_than_n(self):
        alg = MatrixUnitAlgebra(3)
        kap = Partition.from_text("{{1},{2},{3},{4}}")
        assert alg.from_components({kap: 1}) == alg.zero()

    @pytest.mark.parametrize(
        "other", [0.5, DenseAlgebra(2).one()], ids=["float", "dense"]
    )
    def test_foreign_operand_is_unsupported(self, other):
        x = MatrixUnitAlgebra(2).one()
        with pytest.raises(TypeError, match="unsupported operand"):
            x * other
        with pytest.raises(TypeError, match="unsupported operand"):
            other * x

    def test_size_mismatch_keeps_its_message(self):
        with pytest.raises(TypeError, match="mismatched size"):
            MatrixUnitAlgebra(2).one() * MatrixUnitAlgebra(3).one()

    def test_systems_commute(self):
        alg = MatrixUnitAlgebra(2)
        for a, b, c, d in itertools.product(range(1, 3), repeat=4):
            x = alg.unit(1, a, b)
            y = alg.unit(2, c, d)
            assert x * y == y * x

    def test_one_is_neutral(self):
        alg = MatrixUnitAlgebra(2)
        rng = random.Random(15)
        x = rand_matrix_unit(rng, alg)
        assert alg.one() * x == x
        assert x * alg.one() == x

    def test_unit_resolution_of_identity(self):
        alg = MatrixUnitAlgebra(3)
        total = alg.zero()
        for a in range(1, 4):
            total = total + alg.unit(1, a, a)
        assert total == alg.one()

    def test_product_matches_embedding(self):
        alg = MatrixUnitAlgebra(2)
        rng = random.Random(16)
        x, y = rand_matrix_unit(rng, alg), rand_matrix_unit(rng, alg)
        lhs = alg.to_complex_array(x * y)
        rhs = alg.to_complex_array(x) @ alg.to_complex_array(y)
        assert np.allclose(lhs, rhs)

    def test_adjoint_matches_embedding(self):
        alg = MatrixUnitAlgebra(2)
        rng = random.Random(17)
        x = rand_matrix_unit(rng, alg)
        assert np.allclose(
            alg.to_complex_array(x.adjoint()), alg.to_complex_array(x).conj().T
        )


class TestBMatrix:
    def test_identity(self):
        for alg in both_algebras():
            ident = BMatrix.identity(alg, 3)
            rng = random.Random(18)
            a = rand_bmatrix(rng, alg, 3)
            assert ident @ a == a
            assert a @ ident == a

    def test_matmul_matches_embedding(self):
        for alg in both_algebras():
            rng = random.Random(19)
            a, b = rand_bmatrix(rng, alg, 2), rand_bmatrix(rng, alg, 2)
            assert np.allclose(
                (a @ b).to_complex_array(),
                a.to_complex_array() @ b.to_complex_array(),
            )

    def test_adjoint_matches_embedding(self):
        for alg in both_algebras():
            rng = random.Random(20)
            a = rand_bmatrix(rng, alg, 2)
            assert np.allclose(
                a.adjoint().to_complex_array(), a.to_complex_array().conj().T
            )

    def test_scalar_entries_are_coerced(self):
        alg = DenseAlgebra(2)
        a = BMatrix(alg, [[1, 0], [0, Fraction(1, 2)]])
        assert a.entry(0, 0) == alg.one()
        assert a.entry(1, 1) == alg.scalar(Fraction(1, 2))

    def test_truth_is_a_nonzero_entry(self):
        for alg in both_algebras():
            assert not BMatrix.zero(alg, 3)
            a = BMatrix.zero(alg, 3)
            rows = [list(r) for r in a.rows]
            rows[2][1] = alg.one()
            assert BMatrix(alg, rows)
            assert BMatrix.identity(alg, 2)

    def test_diagram_matrix_truth_reads_no_entries(self, monkeypatch):
        def no_entries(self):
            raise AssertionError("entries built")

        alg = MatrixUnitAlgebra(4)
        ident = DiagramMatrix.identity(alg, 4)
        monkeypatch.setattr(DiagramMatrix, "rows", property(no_entries))
        assert ident
        assert not ident - ident
        assert not DiagramMatrix(alg, {})

    def test_left_right_mul(self):
        for alg in both_algebras():
            rng = random.Random(21)
            a = rand_bmatrix(rng, alg, 2)
            b = rand_element(rng, alg)
            assert a.left_mul(b).entry(0, 1) == b * a.entry(0, 1)
            assert a.right_mul(b).entry(1, 0) == a.entry(1, 0) * b


class TestExpectation:
    def test_identity_maps_to_one(self):
        for alg in both_algebras():
            assert expectation(BMatrix.identity(alg, 3)) == alg.one()

    def test_exact_diagonal_average(self):
        alg = DenseAlgebra(2)
        rng = random.Random(22)
        a = rand_bmatrix(rng, alg, 3)
        total = a.entry(0, 0) + a.entry(1, 1) + a.entry(2, 2)
        assert expectation(a) == total * Fraction(1, 3)

    def test_bimodule_property(self):
        for alg in both_algebras():
            rng = random.Random(23)
            a = rand_bmatrix(rng, alg, 2)
            b = rand_element(rng, alg)
            assert expectation(a.left_mul(b)) == b * expectation(a)
            assert expectation(a.right_mul(b)) == expectation(a) * b


class TestFunctionalE:
    def test_single_block_is_expectation_of_product(self):
        for alg in both_algebras():
            rng = random.Random(24)
            args = [rand_bmatrix(rng, alg, 2) for _ in range(3)]
            sigma = Partition.full(3)
            assert functional_e(sigma, args) == expectation(args[0] @ args[1] @ args[2])

    def test_ten_point_nesting(self):
        # {{1,8,9,10},{2,7},{3,4,5},{6}} resolves innermost intervals first:
        # E(a1 E(a2 E(a3 a4 a5) E(a6) a7) a8 a9 a10)
        pi = Partition.from_text("{{1,8,9,10},{2,7},{3,4,5},{6}}")
        for alg in both_algebras():
            rng = random.Random(25)
            a = [rand_bmatrix(rng, alg, 2) for _ in range(10)]
            e1 = expectation(a[2] @ a[3] @ a[4])
            e2 = expectation(a[5])
            inner = expectation(a[1].right_mul(e1).right_mul(e2) @ a[6])
            expected = expectation(
                a[0].right_mul(inner) @ a[7] @ a[8] @ a[9]
            )
            assert functional_e(pi, a) == expected

    def test_outer_bimodule(self):
        for alg in both_algebras():
            rng = random.Random(26)
            for sigma in enumerate_family("nc", 3):
                args = [rand_bmatrix(rng, alg, 2) for _ in range(3)]
                b = rand_element(rng, alg)
                left = [args[0].left_mul(b), args[1], args[2]]
                assert functional_e(sigma, left) == b * functional_e(sigma, args)
                right = [args[0], args[1], args[2].right_mul(b)]
                assert functional_e(sigma, right) == functional_e(sigma, args) * b

    def test_middle_shift(self):
        # moving a coefficient across a factor boundary never changes the value
        for alg in both_algebras():
            rng = random.Random(27)
            for sigma in enumerate_family("nc", 4):
                args = [rand_bmatrix(rng, alg, 2) for _ in range(4)]
                b = rand_element(rng, alg)
                base = None
                for l in range(3):
                    shifted = list(args)
                    shifted[l] = shifted[l].right_mul(b)
                    v1 = functional_e(sigma, shifted)
                    shifted = list(args)
                    shifted[l + 1] = shifted[l + 1].left_mul(b)
                    v2 = functional_e(sigma, shifted)
                    assert v1 == v2
                    if base is None:
                        base = v1

    def test_crossing_rejected(self):
        alg = DenseAlgebra(2)
        rng = random.Random(28)
        args = [rand_bmatrix(rng, alg, 2) for _ in range(4)]
        crossing = Partition.from_text("{{1,3},{2,4}}")
        with pytest.raises(ValueError):
            functional_e(crossing, args)

    def test_arity_mismatch_rejected(self):
        alg = DenseAlgebra(2)
        rng = random.Random(29)
        args = [rand_bmatrix(rng, alg, 2) for _ in range(2)]
        with pytest.raises(ValueError):
            functional_e(Partition.full(3), args)


class TestCumulantK:
    def test_singleton_cumulant_is_expectation(self):
        for alg in both_algebras():
            rng = random.Random(30)
            a = rand_bmatrix(rng, alg, 2)
            assert cumulant_k(Partition.full(1), [a]) == expectation(a)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_moment_cumulant_inversion(self, k):
        # E^(tau) must equal the sum of cumulants over sigma <= tau
        for alg in both_algebras():
            rng = random.Random(31 + k)
            args = [rand_bmatrix(rng, alg, 2) for _ in range(k)]
            family = enumerate_family("nc", k)
            moments = {tau: functional_e(tau, args) for tau in family}
            cumulants = {tau: cumulant_k(tau, args) for tau in family}
            for tau in family:
                total = args[0].algebra.zero()
                for sigma in family:
                    if leq(sigma, tau):
                        total = total + cumulants[sigma]
                assert total == moments[tau]


class TestConstrainedSum:
    def test_brute_force_agreement(self):
        # every partition of the four slots of a two-factor product
        for alg in both_algebras():
            rng = random.Random(33)
            args = [rand_bmatrix(rng, alg, 2) for _ in range(2)]
            n = 2
            for constraint in enumerate_family("all", 4):
                blocks = constraint.blocks
                total = alg.zero()
                for tup in itertools.product(range(1, n + 1), repeat=4):
                    if any(len({tup[s - 1] for s in b}) != 1 for b in blocks):
                        continue
                    term = args[0].entry(tup[0] - 1, tup[1] - 1) * args[1].entry(
                        tup[2] - 1, tup[3] - 1
                    )
                    total = total + term
                assert constrained_sum(constraint, args) == total

    def test_fattened_full_gives_scaled_expectation(self):
        for alg in both_algebras():
            rng = random.Random(34)
            for m, size in [(2, 2), (3, 3)]:
                args = [rand_bmatrix(rng, alg, size) for _ in range(m)]
                lhs = constrained_sum(fatten(Partition.full(m)), args)
                prod = args[0]
                for a in args[1:]:
                    prod = prod @ a
                assert lhs == expectation(prod) * size

    def test_fattened_sums_match_nested_functionals(self):
        # the constrained sum over fatten(sigma) equals N^{|sigma|} E^(sigma),
        # with E^(sigma) from the block-extraction oracle
        for alg in both_algebras():
            rng = random.Random(35)
            for n in (2, 3):
                args = [rand_bmatrix(rng, alg, n) for _ in range(3)]
                for sigma in enumerate_family("nc", 3):
                    expected = nested_functional(sigma, args)
                    lhs = constrained_sum(fatten(sigma), args)
                    rhs = expected * (n ** len(sigma.blocks))
                    assert lhs == rhs
                    assert functional_e(sigma, args) == expected

    def test_interleaved_form(self):
        # sigma wr K(pi) on 2m slots, constraint its fattening on 4m slots
        for alg in both_algebras():
            rng = random.Random(36)
            n = 2
            for pi in enumerate_family("nc", 2):
                for sigma in enumerate_family("nc", 2):
                    if not leq(sigma, pi):
                        continue
                    omega = interleave(sigma, kreweras(pi))
                    args = [rand_bmatrix(rng, alg, n) for _ in range(4)]
                    expected = nested_functional(omega, args)
                    lhs = constrained_sum(fatten(omega), args)
                    rhs = expected * (n ** len(omega.blocks))
                    assert lhs == rhs
                    assert functional_e(omega, args) == expected

    def test_repeatability(self):
        alg = MatrixUnitAlgebra(2)
        rng = random.Random(37)
        args = [rand_bmatrix(rng, alg, 2) for _ in range(3)]
        constraint = Partition.from_text("{{1,4},{2,5},{3,6}}")
        first = constrained_sum(constraint, args)
        second = constrained_sum(constraint, args)
        assert first == second

    def test_slot_count_mismatch_rejected(self):
        alg = DenseAlgebra(2)
        rng = random.Random(38)
        args = [rand_bmatrix(rng, alg, 2) for _ in range(2)]
        with pytest.raises(ValueError):
            constrained_sum(Partition.full(6), args)


def rand_sparse_bmatrix(rng, alg, size):
    """A random matrix over a dense algebra with about a third of its cells zero."""
    zero = alg.zero()
    return BMatrix(
        alg,
        [
            [zero if rng.random() < 0.3 else rand_dense(rng, alg) for _ in range(size)]
            for _ in range(size)
        ],
    )


def big_bmatrix(rng, alg, size, magnitude):
    """A random matrix over a dense algebra whose entries have integer real
    and imaginary parts of absolute value between magnitude/2 and magnitude."""

    def part():
        return rng.choice((-1, 1)) * rng.randint(magnitude // 2, magnitude)

    def cell():
        return alg.element([
            [GaussianRational(Fraction(part()), Fraction(part())) for _ in range(alg.dim)]
            for _ in range(alg.dim)
        ])

    return BMatrix(alg, [[cell() for _ in range(size)] for _ in range(size)])


def contraction_dtypes(monkeypatch) -> list:
    """The set of operand dtypes of each np.einsum and np.matmul call from
    now on: the calls of a dense sum's compiled plan."""
    seen = []

    def spy(call):
        def spied(*args, **kwargs):
            seen.append({op.dtype for op in args if isinstance(op, np.ndarray)})
            return call(*args, **kwargs)
        return spied

    monkeypatch.setattr(np, "einsum", spy(np.einsum))
    monkeypatch.setattr(np, "matmul", spy(np.matmul))
    return seen


INT64, OBJECT = np.dtype(np.int64), np.dtype(object)


def slot_partitions(word: MixedWord):
    weights = _pair_weights(word.flavor, SignPattern(word.signs()), word.labels())
    return [_slot_partition(word, p, q) for p, q in weights]


def assert_route_matches_scan(word: MixedWord):
    factors = word.all_factors()
    for constraint in slot_partitions(word):
        assert constrained_sum(constraint, factors) == _scan_sum(constraint, factors)


class TestTensorSum:
    """The dense einsum route equals the transfer scan, its oracle, exactly."""

    def test_every_slot_partition(self):
        for n in (1, 2, 3):
            for d in (1, 2, 3):
                alg = DenseAlgebra(d)
                rng = random.Random(100 * n + d)
                for m in (1, 2, 3):
                    args = [rand_sparse_bmatrix(rng, alg, n) for _ in range(m)]
                    # a repeated factor shares one integer tensor
                    args[-1] = args[0]
                    for constraint in enumerate_family("all", 2 * m):
                        assert constrained_sum(constraint, args) == _scan_sum(
                            constraint, args
                        )

    def test_all_zero_factor(self):
        alg = DenseAlgebra(2)
        rng = random.Random(41)
        args = [rand_bmatrix(rng, alg, 2), BMatrix.zero(alg, 2)]
        for constraint in enumerate_family("all", 4):
            assert constrained_sum(constraint, args) == alg.zero()

    def test_random_words(self):
        rng = random.Random(42)
        for _ in range(200):
            flavor = rng.choice(("quantum", "classical"))
            half = rng.randint(1, 3)
            # six-letter words stay at N = 2 and d = 1, where the scan oracle
            # takes milliseconds
            n = 2 if half == 3 else rng.choice((2, 3))
            alg = DenseAlgebra(1 if half == 3 else rng.choice((1, 2)))
            signs = ["1"] * half + ["*"] * half
            rng.shuffle(signs)
            labels = (1, 2) if flavor == "quantum" else (1,)
            letters = tuple(
                UnitaryLetter(rng.choice(labels), sign, rand_sparse_bmatrix(rng, alg, n))
                for sign in signs
            )
            lead = rand_sparse_bmatrix(rng, alg, n) if rng.random() < 0.5 else None
            assert_route_matches_scan(MixedWord(flavor, letters, lead=lead))

    def test_shipped_dense_scenarios(self):
        for name in ("dense_circulant", "diagonal_pattern"):
            scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
            for n in range(2, 7):
                assert_route_matches_scan(scenario.word_at(n))

    def test_finite_dim_scenario_cells(self):
        # at N = 3 each of the three circulant cells has its own diagonal;
        # d = 3 runs at N = 2, where the scan oracle takes a second, not eight
        for d, n in ((1, 3), (2, 3), (3, 2)):
            assert_route_matches_scan(_finite_dim_spec(d).word_at(n))

    def test_dim_four_six_letter_word(self):
        # the largest dense algebra a scenario may declare; a memory cap on
        # the path search once made this word a naive contraction
        def cell(seed):
            return [[str((seed * 7 + 3 * r + 5 * c) % 5 - 2) for c in range(4)] for r in range(4)]

        scenario = load_scenario({
            "flavor": "quantum",
            "algebra": {"kind": "dense", "dim": 4},
            "families": {
                "A": {"constructor": "circulant", "coefficients": [cell(1), cell(2)]},
                "B": {"constructor": "diagonal_pattern", "cells": [cell(3), cell(4), cell(5)]},
            },
            "word": [{"label": 1, "sign": "1*"[t % 2], "factor": "AB"[t % 2]} for t in range(6)],
            "n_range": [2, 16],
        })
        assert_route_matches_scan(scenario.word_at(2))

    @pytest.mark.parametrize(
        "m, refused", [(18, "_tensor_sum"), (17, "_scan_sum")], ids=["55-axes", "52-axes"]
    )
    def test_subscript_limit_picks_the_route(self, monkeypatch, m, refused):
        # 2m singleton blocks, m factors and one chain end: 55 axes for 18
        # factors are more than einsum's 52 letters, 52 for 17 factors fit
        alg = DenseAlgebra(1)
        rng = random.Random(43)
        args = [rand_bmatrix(rng, alg, 1) for _ in range(m)]
        constraint = Partition.from_text(
            "{" + ",".join(f"{{{s}}}" for s in range(1, 2 * m + 1)) + "}"
        )
        expected = _scan_sum(constraint, args)

        def refuse(*_):
            raise AssertionError(f"{refused} must not run for {m} factors")

        monkeypatch.setattr(opvalued, refused, refuse)
        assert constrained_sum(constraint, args) == expected

    def test_int64_guard_on_either_side_of_the_bound(self, monkeypatch):
        # entries near 2^17 and 2^18 put B = prod_k max(M_k, 1) N^blocks
        # (2d)^(m+1) below 2^63 for some slot partitions and above it for others
        seen = contraction_dtypes(monkeypatch)
        rng = random.Random(44)
        n, m = 2, 3
        routes = set()
        for _ in range(4):
            d = rng.choice((1, 2))
            alg = DenseAlgebra(d)
            args = [big_bmatrix(rng, alg, n, 2 ** rng.choice((17, 18))) for _ in range(m)]
            entries = math.prod(max(bound, 1) for _, _, bound in (a.lift() for a in args))
            for constraint in enumerate_family("all", 2 * m):
                bound = entries * n ** len(constraint.blocks) * (2 * d) ** (m + 1)
                route = INT64 if bound < 2**63 else OBJECT
                seen.clear()
                assert constrained_sum(constraint, args) == _scan_sum(constraint, args)
                # every call of the sum's plan runs on the route's dtype
                assert seen and all(dtypes == {route} for dtypes in seen)
                routes.add(route)
        assert routes == {INT64, OBJECT}

    def test_object_route_for_large_entries(self, monkeypatch):
        # entries near 2^40 fit int64 one by one, but products of two do not;
        # an entry of 2^70 does not fit at all and lifts to Python ints
        seen = contraction_dtypes(monkeypatch)
        rng = random.Random(45)
        alg = DenseAlgebra(2)
        args = [big_bmatrix(rng, alg, 2, 2**40) for _ in range(2)]
        huge = big_bmatrix(rng, alg, 2, 2**70)
        assert [a.lift()[0].dtype for a in args + [huge]] == [INT64, INT64, OBJECT]
        for factors in (args, [args[0], huge]):
            for constraint in enumerate_family("all", 4):
                seen.clear()
                assert constrained_sum(constraint, factors) == _scan_sum(constraint, factors)
                assert seen and all(dtypes == {OBJECT} for dtypes in seen)

    def test_shipped_dense_scenarios_run_on_int64(self, monkeypatch):
        # the fast route must not go dead: every contraction of both dense
        # reports at N = 2..8 runs on int64
        seen = contraction_dtypes(monkeypatch)
        for name in ("dense_circulant", "diagonal_pattern"):
            load_scenario(SCENARIO_DIR / f"{name}.json").report(n_range=range(2, 9))
        assert seen
        assert all(dtypes == {INT64} for dtypes in seen)

    def test_each_spec_is_searched_once(self, monkeypatch):
        # the greedy path search runs once per spec and d, on probes of size
        # MAX_N, not once per size: both dense reports at N = 2..8 search as
        # many paths as they have distinct specs
        from qhaar import freeness

        monkeypatch.setattr(opvalued, "_EINSUM_PLANS", {})
        searched, specs = [], set()
        search, summed = np.einsum_path, freeness.constrained_sum

        def counted_search(spec, *operands, **kwargs):
            searched.append(spec)
            assert {op.shape[0] for op in operands} == {opvalued.MAX_N}
            return search(spec, *operands, **kwargs)

        def recorded_sum(constraint, factors):
            specs.add(opvalued._tensor_spec(constraint, len(factors)))
            return summed(constraint, factors)

        monkeypatch.setattr(np, "einsum_path", counted_search)
        monkeypatch.setattr(freeness, "constrained_sum", recorded_sum)
        for name in ("dense_circulant", "diagonal_pattern"):
            load_scenario(SCENARIO_DIR / f"{name}.json").report(n_range=range(2, 9))
        assert specs
        assert sorted(searched) == sorted(specs)


def plan_tensors(rng, d: int, n: int, m: int, dtype=np.int64) -> list:
    """m random (n, n, 2d, 2d) tensors with small integer entries."""
    return [
        np.array(
            [rng.randint(-3, 3) for _ in range(n * n * 4 * d * d)], dtype=dtype
        ).reshape(n, n, 2 * d, 2 * d)
        for _ in range(m)
    ]


def assert_plan_matches(constraint: Partition, tensors: list, d: int):
    """The compiled plan equals einsum without path optimization."""
    spec = opvalued._tensor_spec(constraint, len(tensors))
    total = opvalued._contract(spec, tensors, d)
    expected = np.einsum(spec, *tensors, optimize=False)
    assert total.shape == expected.shape
    assert total.tolist() == expected.tolist()


def admitted_specs(flavor: str, k: int) -> set:
    """The einsum spec of every slot partition of a dense k-letter word of
    the flavor: each pairing pair of lhs_exact, with and without a lead, and
    each term of limit_formula."""
    a = BMatrix.zero(DenseAlgebra(1), 1)
    specs = set()
    for signs in itertools.product("1*", repeat=k):
        if signs.count("1") != k // 2:
            continue
        letters = tuple(UnitaryLetter(1, sign, a) for sign in signs)
        for lead in (None, a):
            word = MixedWord(flavor, letters, lead)
            m = len(word.all_factors())
            specs.update(opvalued._tensor_spec(c, m) for c in slot_partitions(word))
        if flavor == "quantum":
            terms = _limit_terms(MixedWord(flavor, letters))
            specs.update(opvalued._tensor_spec(tau, k) for tau, _ in terms)
    return specs


class TestEinsumPlan:
    """Edge cases of the compiled contraction plans of the dense route."""

    def test_one_factor_sum(self):
        # a single-operand path, [(0,)]: the sum is one einsum
        alg = DenseAlgebra(2)
        a = rand_bmatrix(random.Random(46), alg, 2)
        constraint = Partition.full(2)
        assert opvalued._tensor_spec(constraint, 1) == "aabc->bc"
        assert constrained_sum(constraint, [a]) == _scan_sum(constraint, [a])
        assert_plan_matches(constraint, [a.lift()[0]], 2)

    def test_repeated_subscripts(self):
        # a block holding both slots of a factor repeats its subscript in
        # that factor's term; the plan takes the diagonal before the matmul
        rng = random.Random(47)
        alg = DenseAlgebra(2)
        args = [rand_sparse_bmatrix(rng, alg, 3) for _ in range(3)]
        repeated = 0
        for constraint in enumerate_family("all", 6):
            terms = opvalued._tensor_spec(constraint, 3).split("->")[0].split(",")
            if any(len(set(term)) < len(term) for term in terms):
                repeated += 1
                assert constrained_sum(constraint, args) == _scan_sum(constraint, args)
                assert_plan_matches(constraint, [a.lift()[0] for a in args], 2)
        assert repeated

    def test_every_step_is_pairwise_on_six_slots(self, monkeypatch):
        # the greedy search has no memory limit, so no step contracts more
        # than two operands, cyclic slot patterns included
        monkeypatch.setattr(opvalued, "_EINSUM_PLANS", {})
        rng = random.Random(48)
        for d in (1, 2):
            alg = DenseAlgebra(d)
            args = [rand_sparse_bmatrix(rng, alg, 2) for _ in range(3)]
            for constraint in enumerate_family("all", 6):
                assert constrained_sum(constraint, args) == _scan_sum(constraint, args)
                assert_plan_matches(constraint, plan_tensors(rng, d, 2, 3), d)
        arity = {len(pos) for plan in opvalued._EINSUM_PLANS.values() for pos, _ in plan}
        assert max(arity) == 2

    @pytest.mark.parametrize("d, flavor, k", [
        (4, "quantum", 6), (4, "classical", 6), (4, "quantum", 8), (3, "quantum", 8),
    ])
    def test_admitted_extremes_are_pairwise(self, d, flavor, k):
        # every spec of the largest dense words a scenario may declare; run
        # on probes at N = 3, an intermediate of 3^a (2d)^b entries has
        # MAX_N^a (2d)^b at MAX_N
        n = 3
        probe = np.broadcast_to(np.zeros((), np.int64), (n, n, 2 * d, 2 * d))
        largest = 0
        for spec in admitted_specs(flavor, k):
            tensors = [probe] * (spec.count(",") + 1)
            for positions, step in opvalued._einsum_plan(spec, d):
                assert len(positions) <= 2
                tensors.append(step(*[tensors.pop(i) for i in positions]))
                size = math.prod(opvalued.MAX_N if s == n else s for s in tensors[-1].shape)
                largest = max(largest, size)
        assert largest <= 4_200_000

    def test_object_route(self):
        # Python ints past 2^63 go through the same steps
        rng = random.Random(49)
        tensors = plan_tensors(rng, 2, 2, 3, dtype=object)
        tensors = [t * 2**70 for t in tensors]
        for constraint in enumerate_family("all", 6):
            assert_plan_matches(constraint, tensors, 2)

    def test_size_above_max_n_reuses_the_plan(self, monkeypatch):
        monkeypatch.setattr(opvalued, "_EINSUM_PLANS", {})
        rng = random.Random(50)
        n = opvalued.MAX_N + 1
        constraint = Partition.from_text("{{1,4},{2,3}}")
        spec = opvalued._tensor_spec(constraint, 2)
        for size in (3, n):
            assert_plan_matches(constraint, plan_tensors(rng, 1, size, 2), 1)
        assert set(opvalued._EINSUM_PLANS) == {(spec, 1)}
        args = [rand_sparse_bmatrix(rng, DenseAlgebra(1), n) for _ in range(2)]
        assert constrained_sum(constraint, args) == _scan_sum(constraint, args)


def rand_diagrams(rng, n: int, terms: int, max_blocks: int = 3) -> list:
    """Random delta diagrams on six legs with complex coefficients, some of
    them times N.  With at most min(N, max_blocks) blocks each diagram lifts
    to itself, and few blocks keep the scan oracle's entries sparse."""
    shapes = [p for p in enumerate_family("all", 6) if len(p.blocks) <= min(n, max_blocks)]
    return [
        (rng.choice(shapes), rand_gauss(rng) * (n if rng.random() < 0.3 else 1))
        for _ in range(terms)
    ]


def invariant_bmatrix(alg: MatrixUnitAlgebra, diagrams) -> BMatrix:
    """The matrix over matrix units that is the sum of the given delta
    diagrams on the six legs (row, column, a, b, a', b'); it is invariant
    under simultaneous permutation of its indices."""
    n = alg.n
    by_class: dict = {}
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for legs in itertools.product(range(1, n + 1), repeat=6):
        key = tuple(map(legs.index, legs))
        if key not in by_class:
            kap = kernel(legs)
            by_class[key] = sum(
                (d for pi, d in diagrams if leq(pi, kap)), GaussianRational.zero()
            )
        if by_class[key]:
            rows[legs[0] - 1][legs[1] - 1][legs[2:]] = by_class[key]
    return BMatrix(alg, [[MatrixUnitElement(n, e) for e in row] for row in rows])


def rand_invariant_bmatrix(rng, alg: MatrixUnitAlgebra, terms: int) -> BMatrix:
    return invariant_bmatrix(alg, rand_diagrams(rng, alg.n, terms))


def diagram_choices(args) -> int:
    return math.prod(len(opvalued._diagram_terms(a)) for a in args)


class TestLoopSum:
    """The matrix-unit loop-counting route equals the transfer scan, its oracle, exactly."""

    def test_every_slot_partition(self):
        for n in (1, 2, 3, 4):
            alg = MatrixUnitAlgebra(n)
            rng = random.Random(200 + n)
            for m in (1, 2, 3):
                args = [rand_invariant_bmatrix(rng, alg, rng.randint(2, 3)) for _ in range(m)]
                # a repeated factor is lifted once
                args[-1] = args[0]
                for constraint in enumerate_family("all", 2 * m):
                    assert constrained_sum(constraint, args) == _scan_sum(
                        constraint, args
                    )

    def test_all_zero_factor(self):
        alg = MatrixUnitAlgebra(3)
        rng = random.Random(210)
        args = [rand_invariant_bmatrix(rng, alg, 3), BMatrix.zero(alg, 3)]
        assert diagram_choices(args) == 0
        for constraint in enumerate_family("all", 4):
            assert constrained_sum(constraint, args) == alg.zero()
            assert _scan_sum(constraint, args) == alg.zero()

    def test_lift_recovers_the_diagrams(self):
        # at N = 6 every diagram has members, so the lift is unique; fine
        # diagrams exercise the Moebius values of merging up to six blocks
        rng = random.Random(212)
        alg = MatrixUnitAlgebra(6)
        for _ in range(3):
            diagrams = rand_diagrams(rng, 6, 4, max_blocks=6)
            expected: dict = {}
            for pi, d in diagrams:
                expected[pi] = expected.get(pi, GaussianRational.zero()) + d
            lifted = opvalued._diagram_terms(invariant_bmatrix(alg, diagrams))
            assert {power for _, power in lifted} == {0}
            lifted = {pi: d for (pi, _), d in lifted.items()}
            assert lifted == {pi: d for pi, d in expected.items() if d}

    def test_loop_polynomials_equal_the_scan_at_each_n(self):
        # diagram coefficients carry powers of N, negative ones included, which
        # the polynomials keep and loop counting at one N evaluates exactly
        rng = random.Random(215)
        shapes = [p for p in enumerate_family("all", 6) if len(p.blocks) <= 3]
        terms = [
            {(rng.choice(shapes), power): rand_gauss(rng) for power in (-1, 0, 1, 2)}
            for _ in range(2)
        ]
        for m in (1, 2):
            for constraint in enumerate_family("all", 2 * m):
                polys = loop_polynomials(
                    constraint, [DiagramMatrix(MatrixUnitAlgebra(4), t) for t in terms[:m]]
                )
                for n in (1, 2, 3, 4):
                    alg = MatrixUnitAlgebra(n)
                    value = alg.from_components({
                        kap: GaussianRational(re.evaluate(n), im.evaluate(n))
                        for kap, (re, im) in polys.items()
                    })
                    args = [DiagramMatrix(alg, t) for t in terms[:m]]
                    assert value == _scan_sum(constraint, args)
                    assert value == constrained_sum(constraint, args)

    def test_loop_polynomials_build_two_functions_per_class(self, monkeypatch):
        # each kernel class's (re, im) polynomials become one RationalFunction
        # each, with no arithmetic per (class, power) term
        word = counterexample_word(4, "quantum")
        constraints = slot_partitions(word)
        built = []
        post_init = RationalFunction.__post_init__
        monkeypatch.setattr(
            RationalFunction, "__post_init__", lambda self: built.append(1) or post_init(self)
        )
        classes = 0
        for constraint in constraints:
            built.clear()
            polys = loop_polynomials(constraint, word.all_factors())
            assert len(built) <= 2 * len(polys)
            classes += len(polys)
        assert classes

    def test_per_n_sums_build_no_functions(self, monkeypatch):
        # at one N the class polynomials are evaluated on integers
        n = 5
        word = counterexample_word(n, "quantum")
        factors = word.all_factors()
        constraints = slot_partitions(word)

        def refuse(self):
            raise AssertionError("a per-N sum built a RationalFunction")

        monkeypatch.setattr(RationalFunction, "__post_init__", refuse)
        values = [constrained_sum(constraint, factors) for constraint in constraints]
        monkeypatch.undo()
        alg = MatrixUnitAlgebra(n)
        for constraint, value in zip(constraints, values):
            assert value == alg.from_components({
                kap: GaussianRational(re.evaluate(n), im.evaluate(n))
                for kap, (re, im) in loop_polynomials(constraint, factors).items()
            })

    def test_loop_polynomials_need_diagrams(self):
        alg = MatrixUnitAlgebra(3)
        with pytest.raises(TypeError):
            loop_polynomials(Partition(2, ((1, 2),)), [flip_matrix(alg)])

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_flip_matrix_is_one_diagram(self, n):
        # entry (i, j) is E_ji(1): row ~ b, column ~ a, and a' ~ b'
        ((pi, power), d), = opvalued._diagram_terms(flip_matrix(MatrixUnitAlgebra(n))).items()
        assert sorted(pi.blocks) == [(1, 4), (2, 3), (5, 6)]
        assert power == 0
        assert d == GaussianRational.one()

    @pytest.mark.parametrize("case", ["matrix-units", "dense"])
    def test_each_factor_is_lifted_once(self, monkeypatch, case):
        # a factor enters one sum per pairing pair and one per sigma of the
        # limit formula, and its lift is computed once all the same
        if case == "matrix-units":
            # the flip word built entry by entry, so that each factor is lifted
            # from its entries
            alg = MatrixUnitAlgebra(4)
            a, b = flip_matrix(alg, 1), flip_matrix(alg, 2)
            lifter, word = "_orbit_coefficients", MixedWord.rotated("quantum", [a] * 3, [b] * 3)
        else:
            lifter = "_integer_tensor"
            word = load_scenario(SCENARIO_DIR / "dense_circulant.json").word_at(3)
        calls = []
        lift = getattr(opvalued, lifter)
        monkeypatch.setattr(opvalued, lifter, lambda *a: calls.append(1) or lift(*a))
        lhs_exact(word, word.size)
        limit_formula(word)
        assert len({id(f) for f in word.all_factors()}) == 2
        assert len(calls) == 2

    @pytest.mark.parametrize("case", ["invariant", "not-invariant"])
    def test_route(self, monkeypatch, case):
        alg = MatrixUnitAlgebra(3)
        rng = random.Random(211)
        if case == "not-invariant":
            args = [BMatrix(alg, [[alg.unit(1, 1, 2)] * 3] * 3), flip_matrix(alg)]
        else:
            args = [rand_invariant_bmatrix(rng, alg, 3) for _ in range(2)]
        refused = "_scan_sum" if case == "invariant" else "_loop_sum"
        constraint = Partition.from_text("{{1,4},{2},{3}}")
        expected = _scan_sum(constraint, args)

        def refuse(*_):
            raise AssertionError(f"{refused} must not run for a {case} sum")

        monkeypatch.setattr(opvalued, refused, refuse)
        assert expected
        assert constrained_sum(constraint, args) == expected

    def test_scan_steps_are_bounded(self, monkeypatch):
        # N^2 steps open {1,4} and {2} at factor 1, N^(1+1) more keep {1,4}
        # and open {3} at factor 2: 18 at N = 3
        alg = MatrixUnitAlgebra(3)
        args = [BMatrix(alg, [[alg.unit(1, 1, 2)] * 3] * 3), flip_matrix(alg)]
        constraint = Partition.from_text("{{1,4},{2},{3}}")
        monkeypatch.setattr(opvalued, "MAX_SCAN_STEPS", 18)
        value = constrained_sum(constraint, args)
        monkeypatch.setattr(opvalued, "MAX_SCAN_STEPS", 17)
        with pytest.raises(ValueError, match="needs 18 steps, over MAX_SCAN_STEPS = 17"):
            constrained_sum(constraint, args)
        # the oracle itself has no bound
        assert _scan_sum(constraint, args) == value

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("flavor", ["quantum", "classical"])
    def test_counterexample_word(self, monkeypatch, flavor, n):
        # loop counting against the scan, forced by taking the factors' lifts
        # away; each run is barred from the other route
        word = counterexample_word(n, flavor)

        def refuse(*_):
            raise AssertionError("the other route ran")

        monkeypatch.setattr(opvalued, "_scan_sum", refuse)
        value = lhs_exact(word, n)
        monkeypatch.undo()
        monkeypatch.setattr(opvalued, "_loop_sum", refuse)
        monkeypatch.setattr(DiagramMatrix, "lift", lambda self: None)
        assert value == lhs_exact(word, n)

    def test_classical_pole_at_two(self):
        with pytest.raises(ZeroDivisionError, match="denominator vanishes at n = 2"):
            lhs_exact(counterexample_word(2, "classical"), 2)


class TestFlipMatrixFacts:
    def test_expectation_is_scaled_one(self):
        for n in (2, 3, 4):
            alg = MatrixUnitAlgebra(n)
            a = flip_matrix(alg)
            assert expectation(a) == alg.one() * Fraction(1, n)

    def test_square_is_identity(self):
        for n in (2, 3):
            alg = MatrixUnitAlgebra(n)
            a = flip_matrix(alg)
            assert a @ a == BMatrix.identity(alg, n)

    def test_self_adjoint_unitary(self):
        alg = MatrixUnitAlgebra(3)
        a = flip_matrix(alg)
        assert a.adjoint() == a
        assert a.adjoint() @ a == BMatrix.identity(alg, 3)

    def test_norm_is_one(self):
        alg = MatrixUnitAlgebra(3)
        a = flip_matrix(alg)
        assert abs(a.norm_float() - 1.0) < 1e-9

    def test_crossing_pairing_sum(self):
        # sum over j of A_{j1 j2} A_{j3 j1} A_{j2 j3} collapses to N^2 * 1
        for n in (2, 3):
            alg = MatrixUnitAlgebra(n)
            a = flip_matrix(alg)
            crossing = Partition.from_text("{{1,4},{2,5},{3,6}}")
            value = constrained_sum(crossing, [a, a, a])
            assert value == alg.one() * (n * n)

    def test_crossing_norm_check(self):
        alg = MatrixUnitAlgebra(3)
        a = flip_matrix(alg)
        crossing = Partition.from_text("{{1,4},{2,5},{3,6}}")
        result = norm_check(crossing, [a, a, a])
        assert result.ok
        assert abs(result.lhs - 9.0) < 1e-6
        assert abs(result.bound - 27.0) < 1e-6


class TestNormCheck:
    def test_equality_for_diagonal_constraint_on_identities(self):
        # row = column per factor, identity arguments: both sides are N^m
        for alg in both_algebras():
            for m, n in [(2, 2), (3, 3)]:
                args = [BMatrix.identity(alg, n)] * m
                sigma = fatten(Partition.singletons(m))
                result = norm_check(sigma, args)
                assert result.ok
                assert abs(result.lhs - float(n) ** m) < 1e-6
                assert abs(result.bound - float(n) ** m) < 1e-6

    def test_random_instances_stay_below_bound(self):
        for alg in both_algebras():
            rng = random.Random(40)
            for _ in range(30):
                m = rng.choice([2, 3])
                n = rng.choice([2, 3])
                args = [rand_bmatrix(rng, alg, n) for _ in range(m)]
                members = list(enumerate_family("all", 2 * m))
                sigma = members[rng.randrange(len(members))]
                assert norm_check(sigma, args).ok

    def test_sharp_bound_for_fattened_constraints(self):
        # fattened sigma admits the stronger bound N^{|sigma|} prod ||A(k)||
        for alg in both_algebras():
            rng = random.Random(41)
            for n in (2, 3):
                args = [rand_bmatrix(rng, alg, n) for _ in range(3)]
                norms = [a.norm_float() for a in args]
                for sigma in enumerate_family("all", 3):
                    value = constrained_sum(fatten_extended(sigma), args)
                    lhs = alg.norm_float(value)
                    bound = float(n) ** len(sigma.blocks)
                    for x in norms:
                        bound *= x
                    assert lhs <= bound * (1 + 1e-6) + 1e-9

    def test_zero_arguments(self):
        alg = DenseAlgebra(2)
        args = [BMatrix.zero(alg, 2), BMatrix.zero(alg, 2)]
        result = norm_check(Partition.full(4), args)
        assert result.ok
        assert result.lhs == 0.0


class TestNormFloat:
    def test_identity(self):
        assert DenseAlgebra(4).norm_float(DenseAlgebra(4).one()) == pytest.approx(1.0, rel=1e-12)
        alg = MatrixUnitAlgebra(2)
        assert alg.norm_float(alg.one()) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        alg = DenseAlgebra(3)
        x = alg.element([[3, 0, 0], [0, 1, 0], [0, 0, -2]])
        assert alg.norm_float(x) == pytest.approx(3.0, rel=1e-12)

    def test_nilpotent(self):
        alg = DenseAlgebra(2)
        assert alg.norm_float(alg.element([[0, 1], [0, 0]])) == pytest.approx(1.0, rel=1e-12)

    def test_zero(self):
        assert DenseAlgebra(3).norm_float(DenseAlgebra(3).zero()) == 0.0

    def test_top_singular_vector_orthogonal_to_fixed_start(self):
        # eigenvalues 5/2 and 1/2; the top eigenvector (5, -4) is orthogonal
        # to (4, 5), so a power iteration started there never sees 5/2
        rows = [
            [Fraction(141, 82), Fraction(-80, 82)],
            [Fraction(-80, 82), Fraction(105, 82)],
        ]
        alg = DenseAlgebra(2)
        assert alg.norm_float(alg.element(rows)) == pytest.approx(2.5, rel=1e-12)
        scalars = DenseAlgebra(1)
        mat = BMatrix(scalars, [[scalars.element([[v]]) for v in row] for row in rows])
        assert mat.norm_float() == pytest.approx(2.5, rel=1e-12)

    def test_near_equal_top_singular_values(self):
        alg = DenseAlgebra(2)
        x = alg.element([[1, 0], [0, 1 - Fraction(1, 10**7)]])
        assert alg.norm_float(x) == pytest.approx(1.0, rel=1e-12)


def entry(text, algebra=None, env=None):
    """A matrix-unit entry over algebra, or a rational when algebra is None."""
    env = dict(env or {})
    if algebra is not None:
        env["E"] = algebra.unit
    one = algebra.one() if algebra is not None else Fraction(1)
    return evaluate_expression(parse_expression(text, env), env, one)


class TestParsing:
    def test_matrix_unit_symbol(self):
        alg = MatrixUnitAlgebra(3)
        env = {"i": Fraction(2), "j": Fraction(1), "N": Fraction(3)}
        value = entry("E(1,j,i)", alg, env)
        assert value == alg.unit(1, 1, 2)

    def test_arithmetic_on_symbols(self):
        alg = MatrixUnitAlgebra(2)
        value = entry("E(1,1,2)*E(1,2,1)", alg, {})
        assert value == alg.unit(1, 1, 1)
        value = entry("E(2,1,1) + E(2,2,2)", alg, {})
        assert value == alg.one()
        value = entry("E(1,1,1)**2", alg, {})
        assert value == alg.unit(1, 1, 1)

    def test_scalar_division(self):
        alg = MatrixUnitAlgebra(2)
        value = entry("E(1,1,1)/2", alg, {})
        assert value == alg.unit(1, 1, 1) * Fraction(1, 2)

    def test_pure_scalars(self):
        assert entry("3*4 - 2") == Fraction(10)
        assert entry("(1 - 3)/4") == Fraction(-1, 2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            entry("k + 1", env={"i": Fraction(1)})

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            entry("open('x')")

    def test_attribute_access_rejected(self):
        with pytest.raises(ValueError):
            entry("(1).__class__")

    def test_float_literal_rejected(self):
        with pytest.raises(ValueError):
            entry("1.5")

    def test_wrong_arity_e_rejected(self):
        alg = MatrixUnitAlgebra(2)
        with pytest.raises(ValueError):
            entry("E(1,2)", alg)

    def test_e_without_algebra_rejected(self):
        with pytest.raises(ValueError):
            entry("E(1,2,1)")

    def test_parse_scalar_forms(self):
        assert parse_scalar(5) == GaussianRational(Fraction(5))
        assert parse_scalar("-3/4") == GaussianRational(Fraction(-3, 4))
        assert parse_scalar("(1+i)/2") == GaussianRational(
            Fraction(1, 2), Fraction(1, 2)
        )
        assert parse_scalar("2*i") == GaussianRational(Fraction(0), Fraction(2))
        with pytest.raises(ValueError):
            parse_scalar(1.5)
        with pytest.raises(ValueError):
            parse_scalar(True)

    def test_division_by_element_rejected(self):
        alg = MatrixUnitAlgebra(2)
        with pytest.raises(ValueError):
            entry("2/E(1,1,1)", alg)

    def test_scalar_next_to_ring_value_is_a_multiple_of_one(self):
        alg = MatrixUnitAlgebra(2)
        unit = alg.unit(1, 1, 2)
        assert entry("E(1,1,2) + 2", alg) == unit + alg.one() * 2
        assert entry("1 - E(1,1,2)", alg) == alg.one() - unit
        assert entry("2 * E(1,1,2) * 3", alg) == unit * 6
        assert entry("E(1,1,2)**0", alg) == alg.one()
        assert entry("5", alg) == alg.one() * 5

    def test_exponents_are_bounded_literals(self):
        assert entry(f"2**{MAX_EXPONENT}") == Fraction(2**MAX_EXPONENT)
        for text in (f"2**{MAX_EXPONENT + 1}", "2**-1", "2**(1+1)", "(2**2)**2",
                     "(1 + 2**8)**8", "2**8**8", "2**True"):
            with pytest.raises(ValueError):
                parse_expression(text, ())

    def test_nesting_is_bounded(self):
        assert entry("+".join(["1"] * MAX_DEPTH)) == MAX_DEPTH
        for text in ("+".join(["1"] * 2000), "+".join(["1"] * 30000), "-" * 300 + "1"):
            with pytest.raises(ValueError):
                parse_expression(text, ())

    def test_domain_errors_are_value_errors(self):
        alg = MatrixUnitAlgebra(2)
        env = {"i": Fraction(1), "j": Fraction(2), "E": alg.unit}
        for text in ("E(3, i, j)", "E(1, j, i + 2)", "E(1, i/2, j)", "E(1, j)",
                     "E + 1", "j(1)", "E(1, i, j) / 0", "E(1, i, j) / E(1, j, i)"):
            with pytest.raises(ValueError):
                evaluate_expression(parse_expression(text, env), env, alg.one())


def test_expectation_matches_embedding_trace():
    for alg in both_algebras():
        rng = random.Random(43)
        a = rand_bmatrix(rng, alg, 3)
        value = alg.to_complex_array(expectation(a))
        big = a.to_complex_array()
        d = value.shape[0]
        partial = sum(
            big[t * d : (t + 1) * d, t * d : (t + 1) * d] for t in range(3)
        ) / 3.0
        assert np.allclose(value, partial)
