"""Order 1/N corrections and the infinitesimal product rule.

Computes exact moments as rational functions of the size, splits each
into its limit (E) and its 1/N coefficient (E'), and checks the product rule
that characterizes infinitesimal freeness on centered alternating words.
A deliberately corrupted E' shows the check has teeth.
"""

from pathlib import Path

from qhaar.exactalg import GaussianRational
from qhaar.freeness import (
    InfinitesimalPair,
    WordToken,
    infinitesimal_check,
    lhs_exact,
    load_scenario,
)
from qhaar.partitions import Partition

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def main():
    pair = InfinitesimalPair.from_scenario(
        load_scenario(SCENARIO_DIR / "infinitesimal_flip.json")
    )
    print(f"scenario {pair.scenario.name}")

    print()
    print("== moments as exact rational functions of N ==")
    tokens = [WordToken.rotated("A"), WordToken.plain("B")]
    moments = pair.moments(tokens)
    print("E_N[U A U* B] by kernel class:")
    for kap, (re, im) in sorted(moments.entries.items(), key=lambda item: str(item[0])):
        print(f"  {kap}: {re}" + (f" + i*({im})" if im else ""))
    for n in (4, 9):
        w = pair.realize(tokens, n)
        print(f"value at N={n} equals the exact evaluation:",
              moments.value_at(n, w.algebra) == lhs_exact(w, n))

    print()
    print("== the pair (E, E') ==")
    for tok, label in [(WordToken.plain("A"), "A"),
                       (WordToken.rotated("A"), "U A U*")]:
        e = pair.e_value([tok])
        ep = pair.e_prime([tok])
        print(f"  E[{label}] zero: {e.is_zero()};  "
              f"E'[{label}] == one-pattern: {ep == pair.one_pattern()}")

    print()
    print("== product rule on centered alternating words ==")
    cases = [
        [("plain", "A")],
        [("rotated", "B")],
        [("rotated", "A"), ("plain", "B")],
        [("plain", "A"), ("rotated", "B"), ("plain", "A")],
    ]
    for letters in cases:
        ok = infinitesimal_check(pair, letters)
        shape = " ".join(f"{fam}:{sym}" for fam, sym in letters)
        print(f"  [{shape}]  ->  {ok}")

    print()
    print("== corrupted control ==")
    bad = pair.e_prime([WordToken.plain("B")]).shifted(
        Partition.from_text("{{1,2},{3,4}}"), GaussianRational.one()
    )
    ok = infinitesimal_check(pair, [("plain", "B")], e_prime_overrides={0: bad})
    print(f"  with a shifted E' override the check returns {ok}")


if __name__ == "__main__":
    main()
