"""The production routes against the independent oracles in qhaar.oracles."""

import random
from fractions import Fraction

import pytest

from qhaar import freeness, weingarten
from qhaar.exactalg import GaussianRational
from qhaar.freeness import MixedWord, UnitaryLetter, lhs_exact
from qhaar.opvalued import BMatrix, DenseAlgebra
from qhaar.oracles import brute_force_moment, free_product_moment
from qhaar.partitions import SignPattern
from qhaar.weingarten import EntryWord, Letter, word_moment


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

    def test_eight_letter_mixed_word_rejected(self):
        word = EntryWord.of(*[(1, 1, "1*"[t % 2], "u", 1 + t // 4) for t in range(8)])
        with pytest.raises(ValueError, match="at most 6 letters"):
            word_moment(word)

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
