"""Haar-state moments of words in matrix entries.

Computes exact moments of entry words under both flavors, compares the two,
rewrites adjoint entries into generator form, and evaluates a free-product
moment with two independent copies.
"""

from qhaar.partitions import SignPattern
from qhaar.weingarten import EntryWord, adjoint_reduce, word_moment


def absolute_moment(m: int, flavor: str):
    """E |u_11|^(2m): the word u_11 u*_11 ... with 2m letters."""
    eps = SignPattern.alternating(2 * m)
    return word_moment(EntryWord.of(*((1, 1, s) for s in eps.signs)), flavor)


def main():
    print("== absolute moments of a single entry ==")
    print("E |u_11|^(2m) as a function of the size n:")
    for m in range(1, 4):
        q = absolute_moment(m, "quantum")
        c = absolute_moment(m, "classical")
        print(f"  m={m}:  quantum {str(q):24s} classical {c}")

    print()
    print("evaluated at n = 4:")
    for m in range(1, 4):
        q = absolute_moment(m, "quantum").evaluate(4)
        c = absolute_moment(m, "classical").evaluate(4)
        print(f"  m={m}:  quantum {str(q):8s} classical {c}")

    print()
    print("== general entry words ==")
    w = EntryWord.of((1, 2, "1"), (1, 2, "*"), (2, 1, "1"), (2, 1, "*"))
    print(f"word u_12 u*_12 u_21 u*_21:")
    print(f"  quantum   {word_moment(w, 'quantum')}")
    print(f"  classical {word_moment(w, 'classical')}")
    odd = EntryWord.of((1, 1, "1"))
    print(f"odd words vanish: {word_moment(odd)}")

    print()
    print("== adjoint entries reduce to generator words ==")
    w = EntryWord.of((1, 2, "1", "adjoint"), (1, 2, "*", "adjoint"))
    reduced = adjoint_reduce(w)
    print("letters of U^eps read entrywise:", [str(l) for l in w.letters])
    print("reduced generator letters:      ", [str(l) for l in reduced.letters])
    print(f"moments agree: {word_moment(w)} == {word_moment(reduced)}")

    print()
    print("== two independent copies (free product) ==")
    def labelled(labels):
        # u_11 u*_11 u_11 u*_11, letter t taken from copy labels[t]
        return EntryWord.of(*[(1, 1, "1*"[t % 2], "u", lab) for t, lab in enumerate(labels)])

    same = word_moment(labelled((1, 1, 1, 1)))
    paired = word_moment(labelled((1, 1, 2, 2)))
    mixed = word_moment(labelled((1, 2, 1, 2)))
    print(f"labels 1111 (single copy):    {same}")
    print(f"labels 1122 (blocks factor):  {paired}")
    print(f"labels 1212 (mixed cumulant): {mixed}")


if __name__ == "__main__":
    main()
