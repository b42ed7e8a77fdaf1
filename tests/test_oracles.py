"""The production routes against the independent oracles in qhaar.oracles."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qhaar import freeness, opvalued, weingarten
from qhaar.exactalg import GaussianRational
from qhaar.freeness import MixedWord, UnitaryLetter, lhs_exact, limit_formula, load_scenario
from qhaar.opvalued import (
    BMatrix,
    DenseAlgebra,
    MatrixUnitAlgebra,
    MatrixUnitElement,
    functional_e,
)
from qhaar.oracles import brute_force_moment, free_product_moment, nested_functional
from qhaar.partitions import (
    SignPattern,
    enumerate_family,
    fatten,
    interleave,
    join_full,
    kernel,
    kreweras,
    leq,
    mobius,
)
from qhaar.weingarten import EntryWord, Letter, word_moment

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def random_entry_word(rng, length, num_labels, balanced):
    """A word in which every label occurs, over both letter kinds.

    When there are enough letters, each label gets an even number of them,
    and a balanced word gives each label as many "1" as "*" letters; half of
    the words use only the index 1.  So the sample holds nonzero moments as
    well as zero ones."""
    if 2 * num_labels <= length:
        pairs = list(range(1, num_labels + 1))
        pairs += [rng.randint(1, num_labels) for _ in range(length // 2 - num_labels)]
        labels = [label for label in pairs for _ in range(2)]
    else:
        labels = list(range(1, num_labels + 1))
        labels += [rng.randint(1, num_labels) for _ in range(length - num_labels)]
    rng.shuffle(labels)
    signs = [rng.choice("1*") for _ in range(length)]
    if balanced:
        for label in set(labels):
            slots = [t for t in range(length) if labels[t] == label]
            for k, t in enumerate(rng.sample(slots, len(slots))):
                signs[t] = "1*"[k % 2]
    top = rng.choice((1, 2))
    return EntryWord(tuple(
        Letter(
            rng.randint(1, top), rng.randint(1, top), signs[t],
            rng.choice(("u", "adjoint")), labels[t],
        )
        for t in range(length)
    ))


def cumulant_route(word):
    gen = word.generator_form()
    return free_product_moment(SignPattern(gen.signs()), gen.labels(), gen.rows(), gen.cols())


class TestWordMomentAgainstCumulants:
    @pytest.mark.parametrize(
        "length, num_labels, count",
        [(4, 2, 60), (4, 3, 30), (6, 2, 30), (6, 3, 20)],
    )
    def test_seeded_sample(self, length, num_labels, count):
        rng = random.Random(1000 * length + num_labels)
        zero = nonzero = 0
        for k in range(count):
            word = random_entry_word(rng, length, num_labels, balanced=k % 3 != 0)
            got = word_moment(word)
            assert got == cumulant_route(word), word
            if got:
                nonzero += 1
            else:
                zero += 1
        # a label with a single letter has a vanishing first cumulant
        assert zero > 0 and (nonzero > 0 or 2 * num_labels > length)

    def test_eight_letter_two_label_words(self):
        # the quantum table cap is the only letter limit of mixed words;
        # balanced words keep nonzero values in a sample this small
        rng = random.Random(8002)
        nonzero = 0
        for _ in range(6):
            word = random_entry_word(rng, 8, 2, balanced=True)
            got = word_moment(word)
            assert got == cumulant_route(word), word
            nonzero += bool(got)
        assert nonzero

    def test_classical_mixed_word_unsupported(self):
        word = EntryWord.of((1, 1, "1", "u", 1), (1, 1, "*", "u", 2))
        with pytest.raises(NotImplementedError):
            word_moment(word, "classical")


ALG1 = DenseAlgebra(1)


def dense_matrix(rng, n):
    def cell():
        return ALG1.element([[GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-1, 1))
        )]])

    return BMatrix(ALG1, [[cell() for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("flavor, labels", [("quantum", (1, 1, 2, 2)), ("classical", (1, 1, 1, 1))])
def test_brute_force_never_reaches_pair_weights(monkeypatch, flavor, labels):
    rng = random.Random(5)
    letters = tuple(
        UnitaryLetter(label, sign, dense_matrix(rng, 2)) for label, sign in zip(labels, "1**1")
    )
    word = MixedWord(flavor, letters, lead=dense_matrix(rng, 2))
    expected = lhs_exact(word, 2)
    assert expected

    def forbidden(*args):
        raise AssertionError("the oracle reached the production pair weights")

    monkeypatch.setattr(weingarten, "_pair_weights", forbidden)
    monkeypatch.setattr(freeness, "_pair_weights", forbidden)
    assert brute_force_moment(word, 2) == expected


# A * C is not invariant under index permutations (C = E(1, i, 1)), so every
# sum of this word takes the transfer scan and its rows are weighted on term
# maps; the flip word's factors are diagrams, summed by loop counting and
# weighted on kernel-class maps
TERM_MAP_SCENARIO = {
    "flavor": "quantum",
    "algebra": {"kind": "matrix_unit"},
    "families": {"A": {"constructor": "matrix_unit_pattern", "entry": "E(1, j, i)"},
                 "C": {"constructor": "matrix_unit_pattern", "entry": "E(1, i, 1)"}},
    "word": [{"label": 1, "sign": "1", "factor": "A * C"},
             {"label": 1, "sign": "*", "factor": "C + A - 2"}],
    "n_range": [2, 7],
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("maps", ["term", "class"])
def test_matrix_unit_words_match_brute_force(routes, maps, n):
    if maps == "term":
        word = load_scenario(TERM_MAP_SCENARIO).word_at(n)
    else:
        word = MixedWord("quantum", freeness.counterexample_word(n, "quantum").letters[:2])
    value = lhs_exact(word, n)
    assert value and (value.classes is None) == (maps == "term")
    assert routes["_tensor_sum"] == 0
    assert (routes["_scan_sum"] > 0, routes["_loop_sum"] > 0) == (maps == "term", maps == "class")
    assert value == brute_force_moment(word, n)


# ---------------------------------------------------------------------------
# functional_e (a constrained sum over fatten(sigma)) against nested_functional
# (block-by-block extraction), on every noncrossing sigma of 1..5 points

NC_UP_TO_5 = [s for k in range(1, 6) for s in enumerate_family("nc", k).members]


def gauss(rng):
    return GaussianRational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
    )


@pytest.fixture
def routes(monkeypatch):
    """Count the calls of each constrained-sum route."""
    calls = dict.fromkeys(("_tensor_sum", "_loop_sum", "_scan_sum"), 0)
    for name in calls:
        route = getattr(opvalued, name)

        def counted(*args, _name=name, _route=route):
            calls[_name] += 1
            return _route(*args)

        monkeypatch.setattr(opvalued, name, counted)
    return calls


def assert_every_sigma_agrees(mats):
    """functional_e == nested_functional on the first k factors, for k = 1..5."""
    nonzero = 0
    for sigma in NC_UP_TO_5:
        args = mats[: sigma.size]
        value = functional_e(sigma, args)
        assert value == nested_functional(sigma, args), sigma
        nonzero += bool(value)
    return nonzero


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_functional_e_matches_oracle_dense(routes, d, n):
    rng = random.Random(10 * d + n)
    alg = DenseAlgebra(d)

    def cell():
        return alg.element([[gauss(rng) for _ in range(d)] for _ in range(d)])

    mats = [BMatrix(alg, [[cell() for _ in range(n)] for _ in range(n)]) for _ in range(5)]
    assert assert_every_sigma_agrees(mats) == len(NC_UP_TO_5)
    assert routes == {"_tensor_sum": len(NC_UP_TO_5), "_loop_sum": 0, "_scan_sum": 0}


def test_functional_e_matches_oracle_on_matrix_units(routes):
    rng = random.Random(7)
    alg = MatrixUnitAlgebra(2)

    def cell():
        terms = {tuple(rng.randint(1, 2) for _ in range(4)): gauss(rng) for _ in range(4)}
        return MatrixUnitElement(2, terms)

    mats = [BMatrix(alg, [[cell() for _ in range(2)] for _ in range(2)]) for _ in range(5)]
    assert assert_every_sigma_agrees(mats) > len(NC_UP_TO_5) // 2
    assert routes == {"_tensor_sum": 0, "_loop_sum": 0, "_scan_sum": len(NC_UP_TO_5)}


# partitions of the six legs (r, c, a, b, a', b') of a matrix-unit factor:
# the 15 pairings (Brauer diagrams) and the 31 two-block partitions.  At
# N >= 3 each lifts to exactly one diagram; at N = 2 a pairing lifts to four,
# so five such factors give loop counting over a thousand choices.  Other
# three-block patterns make the oracle's products two to three times slower.
LEGS = enumerate_family("all", 6).members
PAIRINGS = [p for p in LEGS if p.is_pairing()]
TWO_BLOCKS = [p for p in LEGS if len(p.blocks) == 2]


def invariant_matrix(rng, alg):
    """A random pairing delta pattern on the six legs, plus at times a
    two-block one.

    delta_pi is 1 on the leg values that are constant on the blocks of pi,
    so the matrix is invariant under simultaneous index permutations."""
    n = alg.n
    cells: dict = {}
    for pi in [rng.choice(PAIRINGS)] + rng.sample(TWO_BLOCKS, rng.randint(0, 1)):
        coeff = gauss(rng) or GaussianRational(1)
        for values in itertools.product(range(1, n + 1), repeat=len(pi.blocks)):
            legs = [0] * 6
            for block, v in zip(pi.blocks, values):
                for leg in block:
                    legs[leg - 1] = v
            terms = cells.setdefault((legs[0], legs[1]), {})
            quad = tuple(legs[2:])
            terms[quad] = terms.get(quad, GaussianRational(0)) + coeff
    rows = [[MatrixUnitElement(n, cells.get((r, c), {})) for c in range(1, n + 1)]
            for r in range(1, n + 1)]
    return BMatrix(alg, rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_functional_e_matches_oracle_on_invariant_matrix_units(routes, n):
    rng = random.Random(50 + n)
    alg = MatrixUnitAlgebra(n)
    mats = [invariant_matrix(rng, alg) for _ in range(5)]
    assert assert_every_sigma_agrees(mats) > len(NC_UP_TO_5) // 2
    assert routes == {"_tensor_sum": 0, "_loop_sum": len(NC_UP_TO_5), "_scan_sum": 0}
    # an all-zero factor zeroes every sigma that reaches it, on both routes
    mats[2] = BMatrix.zero(alg, n)
    assert assert_every_sigma_agrees(mats) == 3


def oracle_limit(word):
    """The Mobius sum over sigma <= pi of nested_functional along sigma
    interleaved with K(pi), written out independently of _limit_terms."""
    m2 = len(word.letters)
    eps = SignPattern(word.signs())
    ker_l = kernel(word.labels())
    factors = word.factors()
    family = enumerate_family("nc_eps", m2 // 2, eps).members
    total = word.algebra.zero()
    for pi in family:
        for sigma in family:
            if leq(sigma, pi) and leq(join_full(fatten(pi), fatten(sigma)), ker_l):
                tau = interleave(sigma, kreweras(pi))
                total = total + nested_functional(tau, factors) * mobius(sigma, pi)
    return total


def test_limit_formula_unchanged_under_the_oracle(monkeypatch):
    words = [
        (path.name, n, load_scenario(path).word_at(n))
        for path in sorted(SCENARIO_DIR.glob("*.json"))
        for n in range(2, 7)
    ]
    assert len(words) == 25
    production = [limit_formula(word) for _, _, word in words]
    assert any(production)
    for (name, n, word), value in zip(words, production):
        assert oracle_limit(word) == value, (name, n)
    # limit_formula reads _limit_terms through constrained_sum and never
    # reaches functional_e; cumulant_limit does, so with the oracle in its
    # place the free-cumulant route must still land on the production values
    monkeypatch.setattr(freeness, "functional_e", nested_functional)
    for (name, n, word), value in zip(words, production):
        assert freeness.cumulant_limit(word) == value, (name, n)
