"""Invariant matrix-unit words composed as partition-algebra diagrams.

The diagram route (DiagramMatrix) must equal the per-N BMatrix route, built
entry by entry and summed through _diagram_terms with _loop_sum or _scan_sum,
by == at every N, including N < 6, where one matrix has several diagram
forms and the per-N lift picks one of them.
"""

import functools
import itertools
import operator
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from qhaar import opvalued
from qhaar.freeness import (
    ConstantPattern,
    FamilySpec,
    InfinitesimalPair,
    MixedWord,
    Scenario,
    UnitaryLetter,
    WordToken,
    infinitesimal_check,
    lhs_exact,
    lhs_function,
    load_scenario,
)
from qhaar.opvalued import (
    BMatrix,
    DiagramMatrix,
    MatrixUnitAlgebra,
    MatrixUnitElement,
    _diagram_terms,
    expectation,
)
from qhaar.oracles import laurent_moments
from qhaar.partitions import Partition, enumerate_family, leq

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SIZES = range(2, 8)
FLAVORS = ("quantum", "classical")


def rand_entry(rng: random.Random) -> str:
    """A random entry expression under the lift rule: rational multiples of
    products of zero to two matrix units indexed by i and j."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = f"({rng.choice((-3, -1, 1, 2))} / {rng.choice((1, 2, 3))})"
        units = [
            f"E({rng.choice((1, 2))}, {rng.choice('ij')}, {rng.choice('ij')})"
            for _ in range(rng.choice((0, 1, 1, 2)))
        ]
        terms.append(" * ".join([coeff] + units))
    return " + ".join(terms)


def both_routes(rng: random.Random, n: int, count: int):
    """count random invariant families at size n, as diagrams and as per-N
    matrices."""
    alg = MatrixUnitAlgebra(n)
    specs = [FamilySpec("matrix_unit_pattern", rand_entry(rng)) for _ in range(count)]
    diagrams = [spec.matrix(alg, n) for spec in specs]
    assert all(isinstance(d, DiagramMatrix) for d in diagrams)
    return diagrams, [spec._entries(alg, n) for spec in specs]


def assert_same_matrix(diagram, per_n: BMatrix) -> None:
    assert isinstance(diagram, DiagramMatrix)
    assert type(per_n) is BMatrix
    assert diagram == per_n
    n = diagram.size
    assert lhs_exact(MixedWord("quantum", (), diagram), n) == expectation(per_n)
    if n >= 6:
        # every diagram has members, so the lift at N is unique: the N-free
        # lift with its powers of N evaluated
        at_n: dict = {}
        for (pi, power), d in diagram.lift().items():
            at_n[pi, 0] = at_n.get((pi, 0), 0) + d * n**power
        assert {key: d for key, d in at_n.items() if d} == _diagram_terms(per_n)


class TestDiagramArithmetic:
    @pytest.mark.parametrize("n", SIZES)
    def test_products(self, n):
        rng = random.Random(500 + n)
        (x, y, z), (bx, by, bz) = both_routes(rng, n, 3)
        assert_same_matrix(x @ y, bx @ by)
        assert_same_matrix(x @ y @ z, bx @ by @ bz)
        assert_same_matrix(z * x, bz * bx)

    @pytest.mark.parametrize("n", SIZES)
    def test_sums_and_scalar_multiples(self, n):
        rng = random.Random(600 + n)
        (x, y), (bx, by) = both_routes(rng, n, 2)
        c = Fraction(rng.choice((-2, 1, 3)), rng.choice((1, 2, 5)))
        assert_same_matrix(x + y, bx + by)
        assert_same_matrix(x - y * c, bx - by.scale(c))
        assert_same_matrix(-x, -bx)
        assert_same_matrix(x - x, BMatrix.zero(x.algebra, n))

    @pytest.mark.parametrize("n", SIZES)
    def test_identity_and_constants(self, n):
        alg = MatrixUnitAlgebra(n)
        assert_same_matrix(DiagramMatrix.identity(alg, n), BMatrix.identity(alg, n))
        rng = random.Random(700 + n)
        classes = enumerate_family("all", 4).members
        comps = {kap: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for kap in rng.sample(classes, 6)}
        element = alg.from_components(comps)
        assert_same_matrix(DiagramMatrix.scalar(alg, comps), BMatrix.identity(alg, n).left_mul(element))

    @pytest.mark.parametrize("n", [2, 3])
    def test_plain_operand_takes_the_entry_route(self, n):
        alg = MatrixUnitAlgebra(n)
        x = DiagramMatrix.identity(alg, n)
        b = BMatrix(alg, [[alg.unit(1, 1, 2)] * n] * n)
        for value, expected in ((x @ b, b), (b @ x, b), (x + b, BMatrix.identity(alg, n) + b)):
            assert type(value) is BMatrix
            assert value == expected


class TestDiagramWords:
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("n", SIZES)
    def test_lhs_exact_of_short_words(self, flavor, n):
        rng = random.Random(800 + n + (50 if flavor == "classical" else 0))
        diagrams, per_n = both_routes(rng, n, 4)

        def word(mats, length, lead=None):
            signs = ("1", "*") * (length // 2)
            letters = [UnitaryLetter(1, s, m) for s, m in zip(signs, mats)]
            return MixedWord(flavor, letters, lead)

        for length, lead in ((2, None), (2, 3), (4, None)):
            d_word = word(diagrams, length, None if lead is None else diagrams[lead])
            b_word = word(per_n, length, None if lead is None else per_n[lead])
            value = lhs_exact(d_word, n)
            assert value == lhs_exact(b_word, n)
        lead_only = MixedWord(flavor, (), diagrams[0] @ diagrams[1])
        assert lhs_exact(lead_only, n) == expectation(per_n[0] @ per_n[1])

    @pytest.mark.parametrize(
        "entry, error",
        [
            ("E(1, j, i) * N", None),
            ("E(1, i + 1, j)", "matrix-unit indices out of range"),
            ("E(1, i, 1)", None),
            ("i * E(2, j, i)", None),
        ],
    )
    def test_entries_outside_the_rule_stay_per_n(self, entry, error):
        data = {
            "name": "mixed",
            "flavor": "quantum",
            "algebra": {"kind": "matrix_unit"},
            "families": {
                "A": {"constructor": "matrix_unit_pattern", "entry": "E(1, j, i)"},
                "C": {"constructor": "matrix_unit_pattern", "entry": entry},
            },
            "word": [
                {"label": 1, "sign": "1", "factor": "A * C"},
                {"label": 1, "sign": "*", "factor": "C + A - 2"},
            ],
            "n_range": [2, 5],
        }
        scenario = load_scenario(data)
        assert scenario.families["A"].diagrams is not None
        assert scenario.families["C"].diagrams is None
        for n in (2, 3, 4, 5):
            alg = MatrixUnitAlgebra(n)
            if error is not None:
                with pytest.raises(ValueError, match=error):
                    scenario.word_at(n)
                continue
            assert type(scenario.family_matrix("C", n)) is BMatrix
            a = scenario.families["A"]._entries(alg, n)
            c = scenario.families["C"]._entries(alg, n)
            two = BMatrix.identity(alg, n).scale(2)
            per_n = MixedWord("quantum", (UnitaryLetter(1, "1", a @ c), UnitaryLetter(1, "*", c + a - two)))
            assert lhs_exact(scenario.word_at(n), n) == lhs_exact(per_n, n)


class PerNScenario(Scenario):
    """The per-N route: families built entry by entry at each N, identities
    as BMatrix objects."""

    def family_matrix(self, name, n):
        return self.families[name]._entries(self.algebra(n), n)

    def identity(self, n):
        return BMatrix.identity(self.algebra(n), n)


def per_n_scalar(algebra, comps) -> BMatrix:
    """The per-N stand-in for DiagramMatrix.scalar, which realize calls for
    constants: the identity times the element, as a BMatrix."""
    return BMatrix.identity(algebra, algebra.n).left_mul(algebra.from_components(comps))


def flip_pairs() -> tuple[InfinitesimalPair, InfinitesimalPair]:
    """The infinitesimal_flip pair on the diagram route and on the per-N route."""
    s = load_scenario(SCENARIO_DIR / "infinitesimal_flip.json")
    old = PerNScenario(s.name, s.flavor, s.kind, s.dim, s.families, s.word, s.n_range)
    return InfinitesimalPair.from_scenario(s), InfinitesimalPair.from_scenario(old)


def criterion_8_words() -> list:
    words = []
    for sym in ("A", "B"):
        words += [[("plain", sym)], [("rotated", sym)]]
    for s1 in ("A", "B"):
        for s2 in ("A", "B"):
            words += [[("rotated", s1), ("plain", s2)], [("plain", s1), ("rotated", s2)]]
            for s3 in ("A", "B"):
                words += [
                    [("rotated", s1), ("plain", s2), ("rotated", s3)],
                    [("plain", s1), ("rotated", s2), ("plain", s3)],
                ]
    assert len(words) == 28
    return words


def test_criterion_8_words_equal_the_per_n_realization(monkeypatch):
    pair, old = flip_pairs()
    for letters in criterion_8_words():
        assert infinitesimal_check(pair, letters)
    token_lists = list(pair._cache)
    assert len(token_lists) > 28
    for tokens in token_lists:
        for n in range(4, 16):
            new_word = pair.realize(tokens, n)
            with monkeypatch.context() as m:
                m.setattr(DiagramMatrix, "scalar", staticmethod(per_n_scalar))
                old_word = old.realize(tokens, n)
            assert all(isinstance(f, DiagramMatrix) for f in new_word.all_factors())
            assert all(type(f) is BMatrix for f in old_word.all_factors())
            assert lhs_exact(new_word, n) == lhs_exact(old_word, n), (tokens, n)


def test_criterion_8_functions_equal_the_interpolation():
    # lhs_function against the rational fit of the per-N values, whole
    # functions compared, on every token list of criterion 8's checks
    pair = InfinitesimalPair.from_scenario(load_scenario(SCENARIO_DIR / "infinitesimal_flip.json"))
    for letters in criterion_8_words():
        assert infinitesimal_check(pair, letters)
    token_lists = list(pair._cache)
    assert len(token_lists) == 65
    for tokens in token_lists:
        fitted = laurent_moments(
            lambda n: pair.realize(tokens, n), range(4, 16), degrees=(4, 4)
        )
        assert pair.moments(tokens) == fitted, tokens


def rand_pattern(rng: random.Random) -> ConstantPattern:
    classes = rng.sample(enumerate_family("all", 4).members, 2)
    return ConstantPattern(
        {kap: Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for kap in classes}
    )


def rand_tokens(rng: random.Random) -> list:
    """Two to five tokens: alternately rotated and plain letters of the
    families A, B and C, some centered, and now and then a const token."""
    tokens = []
    for t in range(rng.randint(2, 5)):
        if rng.random() < 0.15:
            tokens.append(WordToken.const(rand_pattern(rng)))
            continue
        center = rand_pattern(rng) if rng.random() < 0.3 else None
        kind = "rotated" if t % 2 == 0 else "plain"
        tokens.append(WordToken(kind, symbol=rng.choice("ABC"), center=center))
    return tokens


@pytest.mark.parametrize("flavor", FLAVORS)
def test_lhs_function_equals_lhs_exact_on_random_words(flavor):
    rng = random.Random(1000 if flavor == "quantum" else 1001)
    data = {
        "name": "random",
        "flavor": flavor,
        "algebra": {"kind": "matrix_unit"},
        "families": {s: {"constructor": "matrix_unit_pattern", "entry": rand_entry(rng)} for s in "ABC"},
        "word": [{"label": 1, "sign": "1", "factor": "A"}, {"label": 1, "sign": "*", "factor": "B"}],
        "n_range": [2, 8],
    }
    pair = InfinitesimalPair.from_scenario(load_scenario(data))
    # classical weights of six letters have a pole at N = 2
    sizes = range(2 if flavor == "quantum" else 3, 9)
    for _ in range(20):
        tokens = rand_tokens(rng)
        f = pair.moments(tokens)
        for n in sizes:
            assert f.value_at(n, MatrixUnitAlgebra(n)) == lhs_exact(pair.realize(tokens, n), n), (tokens, n)


def test_six_letter_word_with_many_diagram_choices(monkeypatch):
    # three diagrams per factor, so 729 choices of one diagram per factor:
    # every per-N sum must count loops, since the transfer scan takes
    # minutes on them over N = 2..10
    t0 = time.perf_counter()
    entry = "E({0}, j, i) + ({1}) * E({2}, j, i) + E({0}, i, i) * E({0}, j, j)"
    data = {
        "name": "six-letter",
        "flavor": "quantum",
        "algebra": {"kind": "matrix_unit"},
        "families": {
            "A": {"constructor": "matrix_unit_pattern", "entry": entry.format(1, "1/2", 2)},
            "B": {"constructor": "matrix_unit_pattern", "entry": entry.format(2, "-1/3", 1)},
        },
        "word": [{"label": 1, "sign": s, "factor": f} for s, f in (("1", "A"), ("*", "B"))] * 3,
        "n_range": [2, 10],
    }
    scenario = load_scenario(data)
    assert [len(f.lift()) for f in scenario.word_at(6).all_factors()] == [3] * 6
    assert scenario.report().verdict
    f = lhs_function(scenario.word_at(2))
    values = {}
    for n in range(2, 11):
        values[n] = lhs_exact(scenario.word_at(n), n)
        assert values[n] == f.value_at(n, MatrixUnitAlgebra(n)), n
    monkeypatch.setattr(DiagramMatrix, "lift", lambda self: None)
    for n in (2, 3):
        assert lhs_exact(scenario.word_at(n), n) == values[n], n
    assert time.perf_counter() - t0 < 30


def test_infinitesimal_check_composes_diagrams(monkeypatch):
    calls: Counter = Counter()
    realizing = []

    def counted(name, fn, only_in_realize=False):
        def wrapper(*args, **kwargs):
            if realizing or not only_in_realize:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    realize = InfinitesimalPair.realize

    def tracked_realize(self, tokens, n):
        realizing.append(n)
        try:
            return realize(self, tokens, n)
        finally:
            realizing.pop()

    monkeypatch.setattr(InfinitesimalPair, "realize", tracked_realize)
    monkeypatch.setattr(BMatrix, "__matmul__", counted("matmul", BMatrix.__matmul__))
    monkeypatch.setattr(opvalued, "_diagram_terms", counted("lift", _diagram_terms))

    scenario = load_scenario(SCENARIO_DIR / "infinitesimal_flip.json")
    assert calls["lift"] == 0
    # each family is lifted once, at N = 6, on first use (from_scenario checks
    # that it lifts); building that one matrix entry by entry is the only
    # per-N work a family needs
    pair = InfinitesimalPair.from_scenario(scenario)
    assert all(spec.diagrams is not None for spec in scenario.families.values())
    assert calls["lift"] == len(scenario.families)
    monkeypatch.setattr(
        MatrixUnitAlgebra, "from_components",
        counted("from_components", MatrixUnitAlgebra.from_components, only_in_realize=True),
    )
    for letters in ([("plain", "A")], [("rotated", "A"), ("plain", "B")],
                    [("plain", "B"), ("rotated", "A"), ("plain", "B")]):
        assert infinitesimal_check(pair, letters)
    assert calls == {"lift": len(scenario.families)}


def test_realize_cancels_and_merges_left_to_right():
    # a maximal run of rotated tokens is one U letter with the product of
    # their matrices (U B U* U B U* = U (B B) U*), the run of other tokens
    # after it the U* letter's factor, the identity if none follows; other
    # tokens before the first U make the lead, and no tokens the identity
    pair, _ = flip_pairs()
    scenario, one = pair.scenario, pair.one_pattern()
    tokens_of = (WordToken.plain("A"), WordToken.rotated("B"), WordToken.const(one))
    for n in (4, 5):
        def matrix(tok):
            if tok.kind == "const":
                return DiagramMatrix.scalar(scenario.algebra(n), one.entries)
            return scenario.family_matrix(tok.symbol, n)

        for length in range(4):
            for tokens in itertools.product(tokens_of, repeat=length):
                lead, letters = None, []
                for rotated, run in itertools.groupby(tokens, lambda t: t.kind == "rotated"):
                    product = functools.reduce(operator.matmul, map(matrix, run))
                    if rotated:
                        letters.append(UnitaryLetter(1, "1", product))
                    elif letters:
                        letters.append(UnitaryLetter(1, "*", product))
                    else:
                        lead = product
                if len(letters) % 2:
                    letters.append(UnitaryLetter(1, "*", scenario.identity(n)))
                if not tokens:
                    lead = scenario.identity(n)
                expected = MixedWord(scenario.flavor, tuple(letters), lead)
                assert pair.realize(tokens, n) == expected, (tokens, n)


class TestClassCoordinates:
    """Elements built from kernel-class coordinates keep them."""

    def test_components_skip_the_scan(self, monkeypatch):
        alg = MatrixUnitAlgebra(15)
        comps = {Partition.from_text("{{1,3},{2},{4}}"): Fraction(2, 3),
                 Partition.full(4): Fraction(-1)}

        def no_scan(*_):
            raise AssertionError("components must not rescan the terms")

        monkeypatch.setattr(opvalued, "_orbit_coefficients", no_scan)
        x = alg.from_components(comps)
        assert alg.components(x) == comps
        assert alg.components((x + x) * Fraction(1, 2) - x * 2) == {k: -v for k, v in comps.items()}
        assert x._terms is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_class_arithmetic_equals_term_arithmetic(self, n):
        alg = MatrixUnitAlgebra(n)
        rng = random.Random(900 + n)
        classes = enumerate_family("all", 4).members
        x, y = (
            alg.from_components({k: Fraction(rng.randint(-2, 2), 3) for k in rng.sample(classes, 5)})
            for _ in range(2)
        )
        tx, ty = MatrixUnitElement(n, x.terms), MatrixUnitElement(n, y.terms)
        assert tx.classes is None
        for got, expected in ((x + y, tx + ty), (x - y * 3, tx - ty * 3), (x * 0, tx * 0)):
            assert got.classes is not None
            assert got == expected
            assert MatrixUnitElement(n, got.terms) == expected
            assert bool(got) == bool(expected)

    def test_components_still_raise(self):
        with pytest.raises(ValueError, match="N >= 4"):
            MatrixUnitAlgebra(3).components(MatrixUnitAlgebra(3).one())
        alg = MatrixUnitAlgebra(4)
        with pytest.raises(ValueError, match="not invariant"):
            alg.components(alg.one() + alg.unit(1, 1, 2))

    def test_lhs_exact_keeps_class_coordinates(self):
        scenario = load_scenario(SCENARIO_DIR / "matrix_unit_flip.json")
        value = lhs_exact(scenario.word_at(5), 5)
        assert value.classes is not None and value._terms is None


def test_coarsenings_are_the_canonical_up_sets():
    # every pi >= kap once, each in the form the validating constructor builds
    for k in range(7):
        full = enumerate_family("all", k).members
        for kap in full:
            found = [pi for pi, _ in opvalued._coarsenings(kap)]
            assert all(pi == Partition(k, pi.blocks) for pi in found)
            assert len(set(found)) == len(found)
            assert set(found) == {pi for pi in full if leq(kap, pi)}


@pytest.mark.parametrize("n", range(1, 7))
def test_identity_is_one_diagram(n):
    # r = c, a = b, a' = b': the two classes of one() after Moebius inversion
    identity = DiagramMatrix.identity(MatrixUnitAlgebra(n), n)
    assert identity.terms == {(Partition(6, ((1, 2), (3, 4), (5, 6))), 0): 1}


def test_scalar_diagrams_are_canonical():
    # the class of kap spreads over the diagrams r = c, (a, b, a', b') ~ pi, pi >= kap
    alg = MatrixUnitAlgebra(3)
    full = enumerate_family("all", 4).members
    for kap in full:
        keys = DiagramMatrix.scalar(alg, {kap: 1}).terms
        expected = {
            (Partition(6, ((1, 2),) + tuple(tuple(x + 2 for x in b) for b in pi.blocks)), 0)
            for pi in full if leq(kap, pi)
        }
        assert set(keys) == expected
        assert all(pi == Partition(6, pi.blocks) for pi, _ in keys)
