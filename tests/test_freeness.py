import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qhaar import opvalued, partitions, weingarten
from qhaar.exactalg import GaussianRational, InconsistentSamplesError, RationalFunction
from qhaar.freeness import (
    ConstantPattern,
    CROSSING_PAIRING,
    FamilySpec,
    InfinitesimalPair,
    MAX_N,
    MixedWord,
    MomentPattern,
    SLOPE_THRESHOLD,
    Scenario,
    UnitaryLetter,
    WordToken,
    _lhs_terms,
    _limit_terms,
    _slot_partition,
    convergence_report,
    counterexample,
    counterexample_word,
    crossing_pairing_present,
    cumulant_limit,
    element_payload,
    _finite_dim_spec,
    finite_dim_scenario,
    infinitesimal_check,
    lhs_exact,
    lhs_function,
    limit_formula,
    load_scenario,
    report_to_json,
)
from qhaar.opvalued import (
    BMatrix,
    DenseAlgebra,
    MatrixUnitAlgebra,
    constrained_sum,
    evaluate_expression,
    expectation,
    parse_expression,
)
from qhaar.oracles import brute_force_moment, laurent_moments
from qhaar.partitions import Partition, SignPattern
from qhaar.weingarten import FLAVORS, build_table

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

ALG2 = DenseAlgebra(2)


def dense_cell(rows, alg=ALG2):
    from qhaar.opvalued import parse_scalar

    return alg.element([[parse_scalar(v) for v in row] for row in rows])


def word_factor(text, mats, alg, n):
    one = BMatrix.identity(alg, n)
    return evaluate_expression(parse_expression(text, mats), mats, one)


def rand_element(rng, alg):
    rows = [
        [
            GaussianRational(
                Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                Fraction(rng.randint(-1, 1), 1),
            )
            for _ in range(alg.dim)
        ]
        for _ in range(alg.dim)
    ]
    return alg.element(rows)


def rand_matrix(rng, n, alg=ALG2):
    return BMatrix(alg, [[rand_element(rng, alg) for _ in range(n)] for _ in range(n)])


def placed_by_entry(kind, cells, alg, n):
    """The dense family at size n by the per-entry rule: entry (r, c) of a
    circulant sums the cells t with t = c - r mod n, and the diagonal entry
    (r, r) of a diagonal pattern is cell r mod p."""
    zero = alg.zero()
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = zero
            if kind == "circulant":
                for t, cell in enumerate(cells):
                    if t % n == (c - r) % n:
                        acc = acc + cell
            elif r == c:
                acc = cells[r % len(cells)]
            row.append(acc)
        rows.append(row)
    return BMatrix(alg, rows)


def flip_infinitesimal_pair():
    return InfinitesimalPair.from_scenario(
        load_scenario(SCENARIO_DIR / "infinitesimal_flip.json")
    )


class TestMixedWord:
    def test_odd_letter_count_rejected(self):
        rng = random.Random(0)
        a = rand_matrix(rng, 2)
        with pytest.raises(ValueError):
            MixedWord("quantum", (UnitaryLetter(1, "1", a),))

    def test_bad_sign_rejected(self):
        rng = random.Random(0)
        a = rand_matrix(rng, 2)
        for sign in ("x", "2"):
            with pytest.raises(ValueError):
                MixedWord("quantum", (UnitaryLetter(1, sign, a), UnitaryLetter(1, "*", a)))

    def test_bad_flavor_rejected(self):
        rng = random.Random(0)
        a = rand_matrix(rng, 2)
        with pytest.raises(ValueError):
            MixedWord("fuzzy", (UnitaryLetter(1, "1", a), UnitaryLetter(1, "*", a)))

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            MixedWord("quantum", ())

    def test_tuple_letters_rejected(self):
        # the letter check runs before the factors are read
        a = rand_matrix(random.Random(0), 2)
        with pytest.raises(TypeError, match="UnitaryLetter"):
            MixedWord("quantum", ((1, "1", a), (1, "*", a)))

    def test_label_true_rejected(self):
        # bool is an int subclass; load_scenario refuses it too (label-true)
        a = rand_matrix(random.Random(0), 2)
        with pytest.raises(ValueError, match="labels are integers"):
            MixedWord("quantum", (UnitaryLetter(True, "1", a), UnitaryLetter(1, "*", a)))

    def test_mismatched_sizes_rejected(self):
        rng = random.Random(0)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 3)
        with pytest.raises(ValueError):
            MixedWord("quantum", (UnitaryLetter(1, "1", a), UnitaryLetter(1, "*", b)))

    def test_non_matrix_lead_rejected(self):
        a = rand_matrix(random.Random(0), 2)
        with pytest.raises(TypeError):
            MixedWord("quantum", (UnitaryLetter(1, "1", a), UnitaryLetter(1, "*", a)), lead=1)

    def test_lead_only_word(self):
        rng = random.Random(0)
        a = rand_matrix(rng, 2)
        w = MixedWord("quantum", (), lead=a)
        assert lhs_exact(w, 2) == expectation(a)

    def test_rotated_builder(self):
        rng = random.Random(0)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
        w = MixedWord.rotated("quantum", [a], [b])
        assert w.signs() == ("1", "*")
        assert w.labels() == (1, 1)


class TestExactEvaluation:
    def test_rank_one_identity(self):
        # E[U A U* B] = E(A) E(B) at every size, both flavors
        rng = random.Random(5)
        for flavor in ("quantum", "classical"):
            for n in (2, 3):
                a, b = rand_matrix(rng, n), rand_matrix(rng, n)
                w = MixedWord.rotated(flavor, [a], [b])
                assert lhs_exact(w, n) == expectation(a) * expectation(b)

    def test_identity_factors_give_one(self):
        for n in (2, 3):
            ident = BMatrix.identity(ALG2, n)
            w = MixedWord.rotated("quantum", [ident], [ident])
            assert lhs_exact(w, n) == ALG2.one()

    @pytest.mark.parametrize("flavor", ["quantum", "classical"])
    def test_brute_force_rank_one(self, flavor):
        rng = random.Random(11)
        for n in (2, 3):
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            w = MixedWord.rotated(flavor, [a], [b])
            assert lhs_exact(w, n) == brute_force_moment(w, n)

    @pytest.mark.parametrize("flavor", ["quantum", "classical"])
    def test_brute_force_rank_two(self, flavor):
        rng = random.Random(13)
        n = 2
        mats = [rand_matrix(rng, n) for _ in range(4)]
        w = MixedWord.rotated(flavor, mats[:2], mats[2:])
        assert lhs_exact(w, n) == brute_force_moment(w, n)

    @pytest.mark.parametrize("flavor", ["quantum", "classical"])
    def test_brute_force_with_lead_and_mixed_signs(self, flavor):
        rng = random.Random(17)
        n = 2
        mats = [rand_matrix(rng, n) for _ in range(5)]
        letters = (
            UnitaryLetter(1, "*", mats[0]),
            UnitaryLetter(1, "*", mats[1]),
            UnitaryLetter(1, "1", mats[2]),
            UnitaryLetter(1, "1", mats[3]),
        )
        w = MixedWord(flavor, letters, lead=mats[4])
        assert lhs_exact(w, n) == brute_force_moment(w, n)

    @pytest.mark.parametrize("signs", ["*11**1", "1**1*1"])
    def test_brute_force_six_letters_with_lead(self, signs):
        # classical 6-letter words have a Weingarten pole at N = 2
        rng = random.Random(37)
        n = 2
        letters = tuple(UnitaryLetter(1, s, rand_matrix(rng, n)) for s in signs)
        w = MixedWord("quantum", letters, lead=rand_matrix(rng, n))
        assert lhs_exact(w, n) == brute_force_moment(w, n)

    def test_brute_force_two_labels(self):
        rng = random.Random(19)
        n = 2
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        w = MixedWord("quantum", (UnitaryLetter(1, "1", a), UnitaryLetter(2, "*", b)))
        assert lhs_exact(w, n) == brute_force_moment(w, n)
        letters = (
            UnitaryLetter(1, "1", a),
            UnitaryLetter(1, "*", b),
            UnitaryLetter(2, "1", a),
            UnitaryLetter(2, "*", b),
        )
        w = MixedWord("quantum", letters)
        assert lhs_exact(w, n) == brute_force_moment(w, n)

    def test_brute_force_random_words(self):
        rng = random.Random(23)
        n = 2
        for _ in range(6):
            m2 = rng.choice((2, 4))
            letters = tuple(
                UnitaryLetter(
                    rng.choice((1, 2)), rng.choice(("1", "*")), rand_matrix(rng, n)
                )
                for _ in range(m2)
            )
            lead = rand_matrix(rng, n) if rng.random() < 0.5 else None
            w = MixedWord("quantum", letters, lead=lead)
            assert lhs_exact(w, n) == brute_force_moment(w, n)

    def test_classical_multi_label_unsupported(self):
        rng = random.Random(29)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
        w = MixedWord("classical", (UnitaryLetter(1, "1", a), UnitaryLetter(2, "*", b)))
        with pytest.raises(NotImplementedError):
            lhs_exact(w, 2)

    def test_size_validation(self):
        rng = random.Random(31)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
        w = MixedWord.rotated("quantum", [a], [b])
        with pytest.raises(ValueError):
            lhs_exact(w, 3)
        with pytest.raises(ValueError):
            lhs_exact(w, 1)

    def test_classical_six_letter_pole(self):
        # the classical length-6 Weingarten entries blow up at N = 2
        w = counterexample_word(2, "classical")
        with pytest.raises(ZeroDivisionError):
            lhs_exact(w, 2)


class TestSumMemo:
    """A word computes the constrained sum of each slot partition once, for
    lhs_exact and the limit formula together."""

    def test_a_dense_row_sums_each_slot_partition_once(self, monkeypatch):
        word = load_scenario(SCENARIO_DIR / "dense_circulant.json").word_at(4)
        n = word.size
        terms = [c for c, w in _lhs_terms(word) + list(_limit_terms(word)) if w.evaluate(n)]
        calls, tensor_sum = [], opvalued._tensor_sum

        def counted(constraint, lifts, algebra):
            calls.append(constraint)
            return tensor_sum(constraint, lifts, algebra)

        monkeypatch.setattr(opvalued, "_tensor_sum", counted)
        lhs_exact(word, n)
        limit_formula(word)
        assert len(calls) == len(set(calls))
        assert set(calls) == set(terms)
        assert len(calls) < len(terms)

    def test_values_do_not_depend_on_call_order(self):
        scenario = load_scenario(SCENARIO_DIR / "diagonal_pattern.json")
        assert "sums" not in {f.name for f in dataclasses.fields(MixedWord)}
        for n in (3, 5):
            first, second = scenario.word_at(n), scenario.word_at(n)
            lhs, limit = lhs_exact(first, n), limit_formula(first)
            assert limit_formula(second) == limit
            assert lhs_exact(second, n) == lhs
            assert first == second
            # fresh word objects start with no sums
            assert lhs_exact(dataclasses.replace(first), n) == lhs
            assert limit_formula(dataclasses.replace(second)) == limit

    def test_a_classical_row_shares_the_memo_with_its_limit(self, monkeypatch):
        # a classical word reads the free limit of its own factors; each
        # noncrossing limit term is also a slot partition of the classical
        # pairings, so the limit contracts nothing lhs_exact did not
        word = _finite_dim_spec(2).word_at(5)
        assert word.flavor == "classical"
        calls, tensor_sum = [], opvalued._tensor_sum

        def counted(constraint, lifts, algebra):
            calls.append(constraint)
            return tensor_sum(constraint, lifts, algebra)

        monkeypatch.setattr(opvalued, "_tensor_sum", counted)
        lhs_exact(word, 5)
        lhs_calls = list(calls)
        limit = limit_formula(word)
        assert calls == lhs_calls and len(calls) == len(set(calls))
        assert {c for c, w in _limit_terms(word) if w.evaluate(5)} <= set(word.sums)
        assert limit == limit_formula(MixedWord("quantum", word.letters))


# the cells of dense_circulant scaled so that every constrained sum of its
# word leaves int64: the contraction and the weighting run on Python ints
LARGE_CELL_SCALES = {"A": "1000000007/3", "B": "999999937/7"}


def large_cell_scenario() -> dict:
    data = json.loads((SCENARIO_DIR / "dense_circulant.json").read_text())
    for name, scale in LARGE_CELL_SCALES.items():
        family = data["families"][name]
        family["coefficients"] = [
            [[f"({c})*{scale}" for c in row] for row in cell] for cell in family["coefficients"]
        ]
    return {**data, "name": "dense-large-cells", "n_range": [2, 8]}


def fraction_oracle(terms, word: MixedWord):
    """Sum of constrained_sum(c, factors) * w(N) over the terms, in the
    algebra's own Fraction arithmetic and with no memo."""
    total = word.algebra.zero()
    for constraint, w in terms:
        total = total + constrained_sum(constraint, word.all_factors()) * w.evaluate(word.size)
    return total


class TestLargeCells:
    """Dense rows whose sums are past int64 are weighted exactly."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rows_equal_the_fraction_oracle(self, n):
        word = load_scenario(large_cell_scenario()).word_at(n)
        lifts = [f.lift() for f in word.all_factors()]
        assert math.prod(bound for _, _, bound in lifts) >= 2**63
        lhs = lhs_exact(word, n)
        assert lhs == fraction_oracle(_lhs_terms(word), word) * Fraction(1, n)
        assert limit_formula(word) == fraction_oracle(list(_limit_terms(word)), word)
        assert lhs


class TestLimitFormulas:
    def test_rank_one_limit(self):
        rng = random.Random(37)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
        w = MixedWord.rotated("quantum", [a], [b])
        assert limit_formula(w) == expectation(a) * expectation(b)

    def test_limit_agrees_with_cumulant_route(self):
        rng = random.Random(41)
        n = 2
        for _ in range(8):
            m = rng.choice((1, 2, 3))
            letters = []
            for _ in range(m):
                letters.append(
                    UnitaryLetter(rng.choice((1, 2)), "1", rand_matrix(rng, n))
                )
                letters.append(
                    UnitaryLetter(rng.choice((1, 2)), "*", rand_matrix(rng, n))
                )
            w = MixedWord("quantum", tuple(letters))
            assert limit_formula(w) == cumulant_limit(w)

    def test_limit_constraints_are_lhs_slot_partitions(self):
        # each fattened sigma interleaved with K(pi) is the slot partition of a
        # pairing pair, so the two sides sum constrained sums of one kind
        a = rand_matrix(random.Random(53), 2)
        checked = 0
        for m2 in (2, 4, 6, 8):
            for signs in itertools.product("1*", repeat=m2):
                w = MixedWord("quantum", tuple(UnitaryLetter(1, s, a) for s in signs))
                family = build_table("quantum", SignPattern(signs)).family
                slots = {_slot_partition(w, p, q) for p in family for q in family}
                assert all(r == Partition(r.size, r.blocks) for r in slots)
                for constraint, _ in _limit_terms(w):
                    assert constraint in slots
                    checked += 1
        assert checked == 576

    def test_limit_reads_classical_words_and_rejects_lead(self):
        # a classical word takes the free limit of its own factors: the
        # value of its quantum copy, by both limit routes
        rng = random.Random(47)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
        flip = load_scenario(SCENARIO_DIR / "classical_flip.json")
        words = [MixedWord.rotated("classical", [a, b], [b, a])]
        words += [flip.word_at(n) for n in range(2, 7)]
        words += [_finite_dim_spec(d).word_at(3) for d in (1, 2, 3)]
        for word in words:
            assert word.flavor == "classical"
            want = limit_formula(MixedWord("quantum", word.letters))
            assert limit_formula(word) == want
            assert cumulant_limit(word) == want
        w = MixedWord(
            "quantum",
            (UnitaryLetter(1, "1", a), UnitaryLetter(1, "*", b)),
            lead=a,
        )
        with pytest.raises(ValueError):
            limit_formula(w)
        with pytest.raises(ValueError):
            limit_formula(MixedWord("quantum", (), lead=a))


class TestCounterexample:
    def test_classical_value_is_one(self):
        for n in range(3, 13):
            alg = MatrixUnitAlgebra(n)
            assert counterexample(n, "classical") == alg.one()

    def test_quantum_value_is_exact(self):
        for n in range(2, 13):
            alg = MatrixUnitAlgebra(n)
            expected = alg.one() * Fraction(3 * n * n - 4, n**4 - 2 * n * n)
            assert counterexample(n, "quantum") == expected

    def test_quantum_value_decays(self):
        prev = None
        for n in (3, 4, 5):
            alg = MatrixUnitAlgebra(n)
            norm = alg.norm_float(counterexample(n, "quantum"))
            assert norm <= 2.0 / n
            if prev is not None:
                assert norm < prev
            prev = norm

    def test_crossing_pairing_membership(self):
        assert CROSSING_PAIRING == Partition.from_text("{{1,4},{2,5},{3,6}}")
        assert crossing_pairing_present("classical")
        assert not crossing_pairing_present("quantum")

    def test_word_shape(self):
        w = counterexample_word(3, "quantum")
        assert len(w.letters) == 6
        assert w.signs() == ("1", "*", "1", "*", "1", "*")
        assert w.algebra == MatrixUnitAlgebra(3)


class TestConvergenceReport:
    def test_quantum_flip_report(self):
        scn = load_scenario(SCENARIO_DIR / "matrix_unit_flip.json")
        rep = scn.report(n_range=range(2, 8))
        assert rep.verdict
        assert rep.slope is not None and rep.slope <= -1.7
        assert rep.n2_bounded
        deltas = [r.delta for r in rep.rows]
        assert deltas == sorted(deltas, reverse=True)

    def test_classical_flip_fails_quantum_criterion(self):
        scn = load_scenario(SCENARIO_DIR / "classical_flip.json")
        rep = scn.report(n_range=range(4, 10))
        assert not rep.verdict
        assert not rep.slope_ok
        assert not rep.n2_bounded
        # the classical value sits exactly at the identity at every size
        for r in rep.rows:
            assert r.value == MatrixUnitAlgebra(r.n).one()

    def test_empty_range_rejected(self):
        scn = load_scenario(SCENARIO_DIR / "matrix_unit_flip.json")
        with pytest.raises(ValueError):
            convergence_report(scn.word_at, [])

    def test_json_form(self):
        # the CSV form is written by the CLI and checked in test_cli
        scn = load_scenario(SCENARIO_DIR / "matrix_unit_flip.json")
        rep = scn.report(n_range=range(2, 5))
        payload = report_to_json(rep)
        assert json.dumps(payload)
        assert [row["n"] for row in payload["rows"]] == [2, 3, 4]
        assert payload["verdict"] == rep.verdict
        assert payload["rows"][0]["value"]["kind"] == "matrix_unit"

    def test_element_payload_dense(self):
        rng = random.Random(53)
        x = rand_element(rng, ALG2)
        payload = element_payload(x)
        assert payload["kind"] == "dense"
        assert payload["dim"] == 2
        assert len(payload["rows"]) == 2


class TestScenarios:
    def test_shipped_scenarios_load(self):
        for name in (
            "matrix_unit_flip.json",
            "dense_circulant.json",
            "diagonal_pattern.json",
            "classical_flip.json",
            "infinitesimal_flip.json",
        ):
            scn = load_scenario(SCENARIO_DIR / name)
            w = scn.word_at(scn.n_range[0])
            assert isinstance(w, MixedWord)

    def test_equality_ignores_the_family_cache(self):
        first = load_scenario(SCENARIO_DIR / "matrix_unit_flip.json")
        second = load_scenario(SCENARIO_DIR / "matrix_unit_flip.json")
        assert first == second
        first.word_at(4)
        assert first._cache and not second._cache
        assert first == second

    def test_flavor_validation(self):
        with pytest.raises(ValueError):
            load_scenario({"name": "x", "flavor": "fuzzy"})

    def test_algebra_validation(self):
        base = {"name": "x", "flavor": "quantum", "algebra": {"kind": "dense"}}
        with pytest.raises(ValueError):
            load_scenario(base)

    def test_word_validation(self):
        data = {
            "name": "x",
            "flavor": "quantum",
            "algebra": {"kind": "matrix_unit"},
            "families": {
                "A": {"constructor": "matrix_unit_pattern", "entry": "E(1, i, j)"}
            },
            "word": [{"label": 1, "sign": "?", "factor": "A"}],
            "n_range": [2, 4],
        }
        with pytest.raises(ValueError):
            load_scenario(data)

    def test_n_range_validation(self):
        data = {
            "name": "x",
            "flavor": "quantum",
            "algebra": {"kind": "matrix_unit"},
            "families": {
                "A": {"constructor": "matrix_unit_pattern", "entry": "E(1, i, j)"}
            },
            "word": [
                {"label": 1, "sign": "1", "factor": "A"},
                {"label": 1, "sign": "*", "factor": "A"},
            ],
            "n_range": [5, 3],
        }
        with pytest.raises(ValueError):
            load_scenario(data)

    def test_unknown_constructor(self):
        data = {
            "name": "x",
            "flavor": "quantum",
            "algebra": {"kind": "dense", "dim": 2},
            "families": {"A": {"constructor": "mystery"}},
            "word": [
                {"label": 1, "sign": "1", "factor": "A"},
                {"label": 1, "sign": "*", "factor": "A"},
            ],
            "n_range": [2, 4],
        }
        with pytest.raises(ValueError):
            load_scenario(data)

    def test_circulant_matrix_shape(self):
        one = dense_cell([["1", "0"], ["0", "1"]])
        shift = dense_cell([["0", "1"], ["0", "0"]])
        spec = FamilySpec("circulant", (one, shift))
        m = spec.matrix(ALG2, 3)
        assert m.rows[0][0] == one
        assert m.rows[0][1] == shift
        assert m.rows[2][0] == shift  # wraps around
        assert not m.rows[1][0]

    def test_diagonal_pattern_periodicity(self):
        c0 = dense_cell([["1", "0"], ["0", "0"]])
        c1 = dense_cell([["0", "0"], ["0", "1"]])
        spec = FamilySpec("diagonal_pattern", (c0, c1))
        m = spec.matrix(ALG2, 4)
        assert m.rows[0][0] == c0
        assert m.rows[1][1] == c1
        assert m.rows[2][2] == c0
        assert not m.rows[0][1]

    def test_placement_matches_the_per_entry_rule(self):
        rng = random.Random(22)
        alg = DenseAlgebra(1)
        for n in range(1, MAX_N + 1):
            # up to 2n + 1 cells, so that cells wrap onto occupied places
            for count in range(1, 2 * n + 2):
                cells = tuple(rand_element(rng, alg) for _ in range(count))
                expected = placed_by_entry("circulant", cells, alg, n)
                assert FamilySpec("circulant", cells).matrix(alg, n) == expected
            for period in range(1, 6):
                cells = tuple(rand_element(rng, ALG2) for _ in range(period))
                expected = placed_by_entry("diagonal_pattern", cells, ALG2, n)
                assert FamilySpec("diagonal_pattern", cells).matrix(ALG2, n) == expected

    def test_diagonal_constant_loads_as_one_cell_pattern(self):
        data = json.loads((SCENARIO_DIR / "diagonal_pattern.json").read_text())
        cell = [["1", "i"], ["0", "2"]]
        data["families"]["P"] = {"constructor": "diagonal_constant", "cell": cell}
        spec = load_scenario(data).families["P"]
        assert spec == FamilySpec("diagonal_pattern", (dense_cell(cell),))

    def test_explicit_family_missing_size(self):
        data = {
            "name": "x",
            "flavor": "quantum",
            "algebra": {"kind": "dense", "dim": 2},
            "families": {
                "A": {
                    "constructor": "explicit",
                    "matrices": {
                        "2": [
                            [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]],
                            [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "1"]]],
                        ]
                    },
                }
            },
            "word": [
                {"label": 1, "sign": "1", "factor": "A"},
                {"label": 1, "sign": "*", "factor": "A"},
            ],
            "n_range": [2, 4],
        }
        scn = load_scenario(data)
        assert scn.word_at(2).size == 2
        with pytest.raises(ValueError):
            scn.word_at(3)

    def test_word_factor_expressions(self):
        scn = load_scenario(SCENARIO_DIR / "dense_circulant.json")
        n = 3
        mats = {nm: scn.family_matrix(nm, n) for nm in scn.families}
        alg = scn.algebra(n)
        a, b = mats["A"], mats["B"]
        assert word_factor("A + B", mats, alg, n) == a + b
        assert word_factor("A * B", mats, alg, n) == a @ b
        assert word_factor("2 * A", mats, alg, n) == a.scale(2)
        assert word_factor("A ** 2", mats, alg, n) == a @ a
        assert word_factor("A - 1", mats, alg, n) == a - BMatrix.identity(alg, n)
        assert word_factor("A / 2", mats, alg, n) == a.scale(Fraction(1, 2))
        assert word_factor("3", mats, alg, n) == BMatrix.identity(alg, n).scale(3)

    def test_word_factor_errors(self):
        scn = load_scenario(SCENARIO_DIR / "dense_circulant.json")
        n = 2
        mats = {nm: scn.family_matrix(nm, n) for nm in scn.families}
        alg = scn.algebra(n)
        with pytest.raises(ValueError):
            word_factor("C", mats, alg, n)
        with pytest.raises(ValueError):
            word_factor("A +", mats, alg, n)
        with pytest.raises(ValueError):
            word_factor("1 / A", mats, alg, n)
        with pytest.raises(ValueError):
            word_factor("A ** B", mats, alg, n)
        with pytest.raises(ValueError):
            word_factor("__import__('os')", mats, alg, n)

    def test_scalar_added_to_entry_is_a_multiple_of_one(self):
        data = json.loads((SCENARIO_DIR / "matrix_unit_flip.json").read_text())
        data["families"]["A"]["entry"] = "E(1, j, i) + 2"
        n = 3
        alg = MatrixUnitAlgebra(n)
        mat = load_scenario(data).family_matrix("A", n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert mat.entry(i - 1, j - 1) == alg.unit(1, j, i) + alg.one() * 2

    def test_family_matrix_cache(self):
        scn = load_scenario(SCENARIO_DIR / "dense_circulant.json")
        assert scn.family_matrix("A", 3) is scn.family_matrix("A", 3)


class TestFiniteDim:
    def test_small_run_is_bounded(self):
        rep = finite_dim_scenario(1)
        assert rep.n2_bounded
        assert rep.verdict

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            finite_dim_scenario(4)

    def test_classical_diagonal_pattern_shows_the_rate(self):
        # the circulants of finite_dim_scenario deviate by exactly 0 from
        # N = 7 on; this periodic diagonal pattern deviates at every size
        data = json.loads((SCENARIO_DIR / "diagonal_pattern.json").read_text())
        data["flavor"] = "classical"
        rep = load_scenario(data).report(range(4, 13))
        assert all(row.delta > 0 for row in rep.rows)
        assert rep.slope <= SLOPE_THRESHOLD
        assert rep.n2_bounded
        assert rep.verdict


class TestConstantPattern:
    def test_dense_round_trip(self):
        one = GaussianRational.one()
        p = ConstantPattern({(0, 0): one, (1, 1): one})
        assert ALG2.from_components(p.entries) == ALG2.one()

    def test_matrix_unit_one_pattern(self):
        pair = flip_infinitesimal_pair()
        p = pair.one_pattern()
        for n in (4, 5):
            alg = MatrixUnitAlgebra(n)
            assert alg.from_components(p.entries) == alg.one()

    def test_add_sub_shift(self):
        one = GaussianRational.one()
        p = ConstantPattern({(0, 0): one})
        q = ConstantPattern({(0, 0): one, (0, 1): one})
        assert (p + q).entries[(0, 0)] == GaussianRational(Fraction(2))
        assert (q - p).entries == {(0, 1): one}
        assert p.shifted((0, 0), -one).is_zero()
        # sums stay zero-free: a cancelled coordinate leaves no key behind
        c = GaussianRational(Fraction(2), Fraction(-1))
        a = ConstantPattern({(0, 0): one, (1, 0): c})
        assert ((a + q) - q).entries == a.entries
        assert (a + q).shifted((0, 1), -one).entries == {(0, 0): one + one, (1, 0): c}

    def test_patterns_hold_entries_only(self):
        # bench/gate.py::pattern_payload digests kind and dim beside the entries
        for cls in (ConstantPattern, MomentPattern):
            assert tuple(f.name for f in dataclasses.fields(cls)) == ("entries",)
        assert (ConstantPattern.kind, ConstantPattern.dim) == ("matrix_unit", None)


class TestLaurentMoments:
    def test_dense_sample_reproduction(self):
        # one-cell diagonal patterns keep the moments rational in N; longer
        # periods would only be quasi-polynomial and cannot interpolate
        families = {
            "P": FamilySpec("diagonal_pattern", (dense_cell([["1", "1"], ["0", "-1"]]),)),
            "Q": FamilySpec("diagonal_pattern", (dense_cell([["1/2", "i"], ["-i", "0"]]),)),
        }
        small = Scenario(
            name="d",
            flavor="quantum",
            kind="dense",
            dim=2,
            families=families,
            word=((1, "1", "P"), (1, "*", "Q")),
            n_range=tuple(range(2, 5)),
        )
        samples = range(2, 13)
        mp = laurent_moments(small.word_at, samples, degrees=(4, 4))
        for n in (2, 7, 12):
            assert mp.value_at(n, small.algebra(n)) == lhs_exact(small.word_at(n), n)

    def test_matrix_unit_sample_reproduction(self):
        pair = flip_infinitesimal_pair()
        tokens = [WordToken.rotated("A"), WordToken.plain("B")]
        mp = pair.moments(tokens)
        for n in (4, 5, 15):
            w = pair.realize(tokens, n)
            assert mp.value_at(n, w.algebra) == lhs_exact(w, n)

    def test_underdetermined_degrees_fail(self):
        scn = load_scenario(SCENARIO_DIR / "infinitesimal_flip.json")
        with pytest.raises(InconsistentSamplesError):
            laurent_moments(scn.word_at, range(4, 8), degrees=(0, 0))

    def test_sample_count_validation(self):
        scn = load_scenario(SCENARIO_DIR / "infinitesimal_flip.json")
        with pytest.raises(ValueError):
            laurent_moments(scn.word_at, range(4, 6), degrees=(4, 4))

    def test_matrix_unit_minimum_size(self):
        scn = load_scenario(SCENARIO_DIR / "infinitesimal_flip.json")
        with pytest.raises(ValueError):
            laurent_moments(scn.word_at, range(2, 13), degrees=(4, 4))

    def test_invariance_check_rejects_asymmetric_values(self):
        alg = MatrixUnitAlgebra(4)
        x = alg.unit(1, 1, 2)
        with pytest.raises(ValueError):
            alg.components(x)

    def test_divergent_moment_rejected(self):
        # A is the all-ones matrix times one(), so E_N(A A) = N one()
        data = {
            "name": "grow",
            "flavor": "quantum",
            "algebra": {"kind": "matrix_unit"},
            "families": {"A": {"constructor": "matrix_unit_pattern", "entry": "1"}},
            "word": [
                {"label": 1, "sign": "1", "factor": "A"},
                {"label": 1, "sign": "*", "factor": "A"},
            ],
            "n_range": [4, 15],
        }
        pair = InfinitesimalPair.from_scenario(load_scenario(data))
        tokens = [WordToken.plain("A"), WordToken.plain("A")]
        n, zero = RationalFunction.variable(), RationalFunction.zero()
        assert pair.moments(tokens).entries == {kap: (n, zero) for kap in pair.one_pattern().entries}
        with pytest.raises(ValueError, match="moment grows with N"):
            pair.e_value(tokens)


class TestLhsFunction:
    @pytest.mark.parametrize("flavor", ["quantum", "classical"])
    def test_counterexample_function(self, flavor):
        f = lhs_function(counterexample_word(4, flavor))
        if flavor == "quantum":
            n = RationalFunction.variable()
            expected = (3 * n**2 - 4) / (n**4 - 2 * n**2)
        else:
            expected = RationalFunction.one()
        zero = RationalFunction.zero()
        assert f.entries == {
            Partition.from_text("{{1,2},{3,4}}"): (expected, zero),
            Partition.from_text("{{1,2,3,4}}"): (expected, zero),
        }
        # classical weights of six letters have a pole at N = 2
        for n in range(2 if flavor == "quantum" else 3, 13):
            assert f.value_at(n, MatrixUnitAlgebra(n)) == counterexample(n, flavor)

    def test_lhs_exact_without_a_size_is_the_function(self, monkeypatch):
        import qhaar.freeness as freeness

        word = counterexample_word(4, "quantum")
        assert lhs_exact(word) == lhs_function(word)
        # E and E' are read through the same entry point as per-N values
        calls = []
        monkeypatch.setattr(freeness, "lhs_exact",
                            lambda w, n=None: calls.append(n) or lhs_exact(w, n))
        pair = InfinitesimalPair.from_scenario(load_scenario(SCENARIO_DIR / "infinitesimal_flip.json"))
        pair.e_prime([WordToken.rotated("A"), WordToken.plain("B")])
        assert calls == [None]

    def test_factors_must_be_diagrams(self):
        alg = MatrixUnitAlgebra(4)
        word = MixedWord("quantum", (), BMatrix.identity(alg, 4))
        with pytest.raises(TypeError):
            lhs_function(word)


class TestInfinitesimal:
    def test_equality_ignores_the_moment_cache(self):
        first, second = flip_infinitesimal_pair(), flip_infinitesimal_pair()
        assert first == second
        first.e_value([WordToken.plain("A")])
        assert first._cache and not second._cache
        assert first == second

    @pytest.mark.parametrize("degrees", [{"num": 8, "den": 8}, {"num": 1000000, "den": 0}])
    def test_degrees_key_is_ignored(self, monkeypatch, degrees):
        data = json.loads((SCENARIO_DIR / "infinitesimal_flip.json").read_text())
        tokens = [[WordToken.plain("A")], [WordToken.rotated("B")],
                  [WordToken.rotated("A"), WordToken.plain("B")]]
        plain = InfinitesimalPair.from_scenario(load_scenario(data))
        expected = [(plain.e_value(t), plain.e_prime(t)) for t in tokens]
        realize = InfinitesimalPair.realize

        def bounded_realize(self, tokens, n):
            if n > MAX_N:
                raise AssertionError(f"realized at N = {n}, above MAX_N")
            return realize(self, tokens, n)

        monkeypatch.setattr(InfinitesimalPair, "realize", bounded_realize)
        pair = InfinitesimalPair.from_scenario(load_scenario({**data, "degrees": degrees}))
        assert [(pair.e_value(t), pair.e_prime(t)) for t in tokens] == expected
        assert infinitesimal_check(pair, [("rotated", "A"), ("plain", "B")])

    @pytest.mark.parametrize("source", [
        SCENARIO_DIR / "dense_circulant.json",
        {
            "name": "grow",
            "flavor": "quantum",
            "algebra": {"kind": "matrix_unit"},
            "families": {"A": {"constructor": "matrix_unit_pattern", "entry": "N * N * E(1, j, i)"}},
            "word": [{"label": 1, "sign": "1", "factor": "A"}, {"label": 1, "sign": "*", "factor": "A"}],
            "n_range": [4, 15],
        },
    ], ids=["dense", "entry-with-N"])
    def test_families_without_diagrams_rejected(self, source):
        with pytest.raises(ValueError, match="^family A: "):
            InfinitesimalPair.from_scenario(load_scenario(source))

    def test_flip_expectations(self):
        pair = flip_infinitesimal_pair()
        assert pair.e_value([WordToken.plain("A")]).is_zero()
        assert pair.e_prime([WordToken.plain("A")]) == pair.one_pattern()
        # conjugation by the Haar unitary does not change E or E'
        assert pair.e_value([WordToken.rotated("A")]).is_zero()
        assert pair.e_prime([WordToken.rotated("A")]) == pair.one_pattern()

    def test_moments_cache_hits_equal_centered_tokens(self):
        pair = flip_infinitesimal_pair()
        first, second = pair.one_pattern(), pair.one_pattern()
        assert first is not second and first == second
        tokens = [WordToken.plain("A", center=first)]
        same = [WordToken.plain("A", center=second)]
        assert pair.moments(tokens) is pair.moments(same)

    def test_const_token_round_trip(self):
        pair = flip_infinitesimal_pair()
        one = pair.one_pattern()
        assert pair.e_value([WordToken.const(one)]) == one
        assert pair.e_prime([WordToken.const(one)]).is_zero()

    def test_realization_merges_letters(self):
        pair = flip_infinitesimal_pair()
        n = 4
        w = pair.realize([WordToken.rotated("A"), WordToken.rotated("A")], n)
        # U A U* U A U* collapses to U (A A) U*
        assert len(w.letters) == 2
        a = pair.scenario.family_matrix("A", n)
        assert w.letters[0].factor == a @ a
        assert w.lead is None

    def test_realization_of_empty_word(self):
        pair = flip_infinitesimal_pair()
        w = pair.realize([], 4)
        assert lhs_exact(w, 4) == MatrixUnitAlgebra(4).one()

    def test_checks_rank_one_and_two(self):
        pair = flip_infinitesimal_pair()
        assert infinitesimal_check(pair, [("plain", "A")])
        assert infinitesimal_check(pair, [("rotated", "B")])
        assert infinitesimal_check(pair, [("rotated", "A"), ("plain", "B")])
        assert infinitesimal_check(pair, [("plain", "A"), ("rotated", "B")])

    def test_corrupted_e_prime_fails(self):
        pair = flip_infinitesimal_pair()
        bad = pair.e_prime([WordToken.plain("B")]).shifted(
            Partition.from_text("{{1,2},{3,4}}"), GaussianRational.one()
        )
        assert not infinitesimal_check(pair, [("plain", "B")], e_prime_overrides={0: bad})

    def test_alternation_enforced(self):
        pair = flip_infinitesimal_pair()
        with pytest.raises(ValueError):
            infinitesimal_check(pair, [("plain", "A"), ("plain", "B")])
        with pytest.raises(ValueError):
            infinitesimal_check(pair, [])
        with pytest.raises(ValueError):
            infinitesimal_check(pair, [("plain", "C")])

    @pytest.mark.parametrize("key", [1, -1])
    def test_override_outside_the_word_rejected(self, key):
        # an ignored override would make a negative control test nothing
        pair = flip_infinitesimal_pair()
        bad = pair.one_pattern()
        with pytest.raises(ValueError, match="e_prime_overrides"):
            infinitesimal_check(pair, [("plain", "B")], e_prime_overrides={key: bad})

    @pytest.mark.parametrize("plain, rotated", [("A", "B"), ("B", "A")])
    def test_seven_letter_words_split_the_flavors(self, plain, rotated):
        # (plain, rotated)^3 plain: six unitary letters, within both caps; the
        # product rule holds for the quantum flip and fails for the classical
        # one, whose centred word still has E = 0
        data = json.loads((SCENARIO_DIR / "infinitesimal_flip.json").read_text())
        letters = [("plain", plain), ("rotated", rotated)] * 3 + [("plain", plain)]
        for flavor, holds in (("quantum", True), ("classical", False)):
            pair = InfinitesimalPair.from_scenario(load_scenario({**data, "flavor": flavor}))
            assert infinitesimal_check(pair, letters) is holds
            tokens = [WordToken(family, symbol=symbol) for family, symbol in letters]
            centered = [tok._replace(center=pair.e_value([tok])) for tok in tokens]
            assert pair.e_value(centered).is_zero()

    def test_the_table_cap_limits_the_letters(self):
        # four rotated letters realize eight unitary letters, the quantum
        # cap; a fifth fails in build_table
        pair = flip_infinitesimal_pair()
        letters = [("rotated", "A"), ("plain", "B")] * 4 + [("rotated", "A")]
        assert infinitesimal_check(pair, letters[:8])
        with pytest.raises(ValueError, match="quantum tables support at most 8 letters, got 10"):
            infinitesimal_check(pair, letters)


class TestDerivedPartitions:
    def test_no_derivation_validates(self, monkeypatch):
        # every partition built after import is a kernel; only blocks from
        # outside (from_text, user code, module literals) are validated
        validated = []

        def refuse(p):
            validated.append(p.blocks)
            raise AssertionError(f"validated derived blocks {p.blocks}")

        monkeypatch.setattr(Partition, "__post_init__", refuse)
        for memo in (partitions._family_members, partitions._pairings, partitions._fatten,
                     partitions._mobius_to_one, opvalued._compose, opvalued._coarsenings):
            memo.cache_clear()
        for cache in (weingarten._TABLE_CACHE, weingarten._INVERSE_CACHE,
                      weingarten._WEIGHT_CACHE, weingarten._CUMULANT_CACHE):
            cache.clear()
        for flavor, record in FLAVORS.items():
            for length in range(2, record.cap + 1, 2):
                for signs in itertools.product("1*", repeat=length):
                    build_table(flavor, SignPattern(signs))
        for flavor in ("quantum", "classical"):
            counterexample(4, flavor)
        load_scenario(SCENARIO_DIR / "dense_circulant.json").report(range(2, 5))
        rng = random.Random(61)
        w = MixedWord("quantum", tuple(
            UnitaryLetter(label, sign, rand_matrix(rng, 2))
            for label, sign in zip((1, 2, 2, 1), "1*1*")
        ))
        lhs_exact(w, 2)
        assert limit_formula(w) == cumulant_limit(w)
        pair = InfinitesimalPair.from_scenario(load_scenario(SCENARIO_DIR / "infinitesimal_flip.json"))
        for letters in ([("plain", "A")], [("rotated", "B")],
                        [("rotated", "A"), ("plain", "B")],
                        [("plain", "A"), ("rotated", "B"), ("plain", "A")]):
            assert infinitesimal_check(pair, letters)
        assert validated == []
