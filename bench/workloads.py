"""The four benchmark workloads, built from a seed.

Each workload is a list of operations run back to back in one interpreter: a
closed loop with one client and no threads, as a CLI user or the acceptance
gate runs them.  An operation has a key, a callable that does the timed
work, a function that turns the result into an exact payload for the gate
(gate.py), and an optional independent oracle check.

Every call into qhaar goes through the module attribute at call time (for
example ``freeness.lhs_exact``), so that the traced run sees it.  Building
the operation lists is set-up: it imports qhaar, parses scenarios and draws
the seeded inputs.  The seed changes which inputs are drawn and their order,
never their size.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from qhaar import cli, exactalg, freeness, opvalued, partitions, weingarten

import gate

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
FLAVORS = ("quantum", "classical")


class Op(NamedTuple):
    key: str
    run: Callable
    exact: Callable
    oracle: Callable | None = None


# ---------------------------------------------------------------------------
# mu_counterexample: the classical-vs-quantum separation at N = 4..7


def _counterexample(n: int, flavor: str):
    value = freeness.counterexample(n, flavor)
    algebra = opvalued.MatrixUnitAlgebra(n)
    bound = 2.0 / n
    if flavor == "classical":
        within = algebra.norm_float(value - algebra.one()) <= bound
    else:
        within = algebra.norm_float(value) <= bound
    return value, within, freeness.crossing_pairing_present(flavor)


def _counterexample_payload(result) -> list:
    value, within, crossing = result
    return [gate.matrix_unit_profile(value), within, crossing]


def counterexample_ops(ns) -> list[Op]:
    return [
        Op(f"counterexample/{flavor}/N{n}", partial(_counterexample, n, flavor),
           _counterexample_payload)
        for n in ns
        for flavor in FLAVORS
    ]


def mu_counterexample(seed: int, smoke: bool) -> list[Op]:
    ops = counterexample_ops((4,) if smoke else range(4, 8))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# dense_freeness: the CLI freeness report on the shipped dense scenarios


DENSE_SCENARIOS = ("dense_circulant", "diagonal_pattern")


def _freeness_cli(name: str, n_max: int) -> dict:
    argv = ["freeness", "--scenario", str(SCENARIOS / f"{name}.json"),
            "--n-min", "2", "--n-max", str(n_max)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return json.loads(out.getvalue())


def _freeness_payload(envelope: dict) -> list:
    # The exit code and the combined 'verdict' are left out on purpose: the
    # rule that combines slope_ok and n2_bounded is due to change, while both
    # components sit far from their thresholds on these scenarios.
    results = envelope["results"]
    rows = [[row["n"], json.dumps(row["value"], sort_keys=True)] for row in results["rows"]]
    return [rows, results["slope_ok"], results["n2_bounded"]]


def freeness_ops(n_max: int) -> list[Op]:
    return [
        Op(f"freeness/{name}/N2-{n_max}", partial(_freeness_cli, name, n_max),
           _freeness_payload)
        for name in DENSE_SCENARIOS
    ]


def dense_freeness(seed: int, smoke: bool) -> list[Op]:
    ops = freeness_ops(3 if smoke else 8)
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# free_product: cold table builds, West expansions and two-label pair weights


def sign_patterns(max_len: int):
    for length in range(2, max_len + 1, 2):
        for signs in itertools.product("1*", repeat=length):
            yield "".join(signs)


def _build_table(flavor: str, eps):
    return weingarten.build_table(flavor, eps)


def _table_payload(table) -> list:
    return [json.dumps(weingarten.table_to_json(table), sort_keys=True)]


def table_ops(quantum_max: int, classical_max: int) -> list[Op]:
    return [
        Op(f"table/{flavor}/{s}",
           partial(_build_table, flavor, partitions.SignPattern.from_text(s)),
           _table_payload)
        for flavor, cap in (("quantum", quantum_max), ("classical", classical_max))
        for s in sign_patterns(cap)
    ]


def _west(eps):
    table = weingarten.build_table("quantum", eps)
    m = len(eps) // 2
    family = [
        p for p in partitions.enumerate_family("nc", m).members
        if table.contains(partitions.fatten(p))
    ]
    return [(p, s, weingarten.west_expansion(table, p, s)) for p in family for s in family]


def _west_payload(entries) -> list:
    return [
        [str(p), str(s), w.exponent, gate.q(w.c0), gate.q(w.c1), gate.q(w.c2)]
        for p, s, w in entries
    ]


def west_ops(max_len: int) -> list[Op]:
    return [
        Op(f"west/{s}", partial(_west, partitions.SignPattern.from_text(s)), _west_payload)
        for s in sign_patterns(max_len)
        if 2 * s.count("1") == len(s)
    ]


def word_pool() -> list[tuple[str, tuple[int, ...]]]:
    """The 180 two-label length-6 words with a nonzero chance of a nonzero
    moment: a balanced sign pattern, and labels 1 and 2 (the first letter
    labelled 1) such that each label's letters are themselves balanced."""
    pool = []
    for s in sign_patterns(6):
        if len(s) != 6 or s.count("1") != 3:
            continue
        for labels in itertools.product((1, 2), repeat=6):
            if labels[0] != 1 or 2 not in labels:
                continue
            if all(
                sum(1 if s[t] == "1" else -1 for t in range(6) if labels[t] == lab) == 0
                for lab in (1, 2)
            ):
                pool.append((s, labels))
    return pool


def _word(index: int, signs: str, labels) -> freeness.MixedWord:
    # 1x1 dense factors at N = 2; the entries depend only on the pool index,
    # so every seed meets the same value for the same word
    rng = random.Random(index)
    algebra = opvalued.DenseAlgebra(1)

    def entry():
        return algebra.element([[exactalg.GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-1, 1))
        )]])

    letters = []
    for sign, label in zip(signs, labels):
        factor = opvalued.BMatrix(algebra, [[entry() for _ in range(2)] for _ in range(2)])
        letters.append(freeness.UnitaryLetter(label, sign, factor))
    return freeness.MixedWord("quantum", tuple(letters))


def _lhs_at_2(word):
    return freeness.lhs_exact(word, 2)


def _limit_routes_agree(word, _result) -> bool:
    return freeness.cumulant_limit(word) == freeness.limit_formula(word)


def word_ops(indices) -> list[Op]:
    pool = word_pool()
    ops = []
    for index in indices:
        signs, labels = pool[index]
        word = _word(index, signs, labels)
        ops.append(Op(
            f"word/{signs}/{''.join(map(str, labels))}",
            partial(_lhs_at_2, word),
            gate.dense_payload,
            partial(_limit_routes_agree, word),
        ))
    return ops


def pick_words(seed: int, smoke: bool) -> list[int]:
    """Three labelings per sign pattern (60 words), or three words in all."""
    rng = random.Random(seed)
    pool = word_pool()
    if smoke:
        return rng.sample(range(len(pool)), 3)
    by_pattern: dict = {}
    for index, (signs, _) in enumerate(pool):
        by_pattern.setdefault(signs, []).append(index)
    picks = [i for group in by_pattern.values() for i in rng.sample(group, 3)]
    rng.shuffle(picks)
    return picks


def free_product(seed: int, smoke: bool) -> list[Op]:
    if smoke:
        return table_ops(4, 4) + west_ops(4) + word_ops(pick_words(seed, True))
    return table_ops(8, 6) + west_ops(8) + word_ops(pick_words(seed, False))


# ---------------------------------------------------------------------------
# infinitesimal: order-1/N product rule checks on the matrix-unit flip


def check_words(smoke: bool) -> list[list[tuple[str, str]]]:
    """The one- and two-letter checks, then three-letter checks that begin
    with a plain letter; in smoke mode only the two one-letter A checks."""
    if smoke:
        return [[("plain", "A")], [("rotated", "A")]]
    words = []
    for sym in ("A", "B"):
        words += [[("plain", sym)], [("rotated", sym)]]
    for s1, s2 in itertools.product("AB", repeat=2):
        words += [[("rotated", s1), ("plain", s2)], [("plain", s1), ("rotated", s2)]]
    for s1, s2, s3 in itertools.product("AB", repeat=3):
        words.append([("plain", s1), ("rotated", s2), ("plain", s3)])
    return words


def _check(pair, letters):
    return freeness.infinitesimal_check(pair, letters)


def _check_payload(pair, letters, ok) -> list:
    if len(letters) > 1:
        return [ok]
    tokens = [freeness.WordToken(letters[0][0], symbol=letters[0][1])]
    return [ok, gate.pattern_payload(pair.e_value(tokens)),
            gate.pattern_payload(pair.e_prime(tokens))]


def _negative_control(pair):
    bad = pair.e_prime([freeness.WordToken.plain("B")]).shifted(
        partitions.Partition.from_text("{{1,2},{3,4}}"), exactalg.GaussianRational.one()
    )
    return freeness.infinitesimal_check(pair, [("plain", "B")], e_prime_overrides={0: bad})


def infinitesimal(seed: int, smoke: bool) -> list[Op]:
    scenario = freeness.load_scenario(SCENARIOS / "infinitesimal_flip.json")
    pair = freeness.InfinitesimalPair.from_scenario(scenario)
    ops = [
        Op("check/" + ",".join(f"{fam}:{sym}" for fam, sym in letters),
           partial(_check, pair, letters), partial(_check_payload, pair, letters))
        for letters in check_words(smoke)
    ]
    ops.append(Op("negative_control/plain:B", partial(_negative_control, pair),
                  lambda ok: [ok]))
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "mu_counterexample": mu_counterexample,
    "dense_freeness": dense_freeness,
    "free_product": free_product,
    "infinitesimal": infinitesimal,
}
