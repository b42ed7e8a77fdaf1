"""Acceptance gate: ten end-to-end capability checks, one test each.

Every test exercises one shipped capability at its contract tolerance and
asserts its wall-clock budget, so a verbose run prints exactly one pass or
fail line per criterion.  Exactness checks use rational arithmetic; the only
floats are spectral-norm verdicts with their stated tolerances.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from qhaar.exactalg import GaussianRational, RationalFunction
from qhaar.freeness import (
    InfinitesimalPair,
    MixedWord,
    UnitaryLetter,
    WordToken,
    counterexample,
    crossing_pairing_present,
    cumulant_limit,
    finite_dim_scenario,
    infinitesimal_check,
    lhs_exact,
    limit_formula,
    load_scenario,
)
from qhaar.opvalued import (
    BMatrix,
    DenseAlgebra,
    MatrixUnitAlgebra,
    constrained_sum,
    functional_e,
    norm_check,
)
from qhaar.oracles import brute_force_moment, laurent_moments, nested_functional
from qhaar.partitions import (
    Partition,
    SignPattern,
    enumerate_family,
    fatten,
    interleave,
    join_full,
    kreweras,
    leq,
    mobius,
    rotate_left,
    unfatten,
)
from qhaar.weingarten import (
    EntryWord,
    Letter,
    adjoint_reduce,
    build_table,
    west_expansion,
    word_moment,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
RF = RationalFunction


def all_sign_patterns(length):
    for combo in itertools.product("1*", repeat=length):
        yield SignPattern(combo)


def balanced_sign_patterns(length):
    for eps in all_sign_patterns(length):
        if eps.signs.count("1") == length // 2:
            yield eps


def rand_gauss(rng):
    return GaussianRational(
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
    )


ALG2 = DenseAlgebra(2)


def rand_element(rng, alg=ALG2):
    return alg.element(
        [[rand_gauss(rng) for _ in range(alg.dim)] for _ in range(alg.dim)]
    )


def rand_bmatrix(rng, n, alg=ALG2):
    return BMatrix(
        alg, [[rand_element(rng, alg) for _ in range(n)] for _ in range(n)]
    )


def finish(number, name, t0, budget):
    dt = time.perf_counter() - t0
    assert dt <= budget, f"criterion {number} exceeded its {budget:.0f}s budget: {dt:.1f}s"
    print(f"criterion {number:2d} {name}: PASS ({dt:.1f}s of {budget:.0f}s)")


def test_criterion_01_partition_combinatorics():
    t0 = time.perf_counter()

    # fattening is a bijection NC(m) -> NC2(2m) with exact inverse, m <= 6
    for m in range(1, 7):
        nc = enumerate_family("nc", m).members
        nc2 = enumerate_family("nc2", 2 * m).members
        images = [fatten(p) for p in nc]
        assert len(set(images)) == len(nc)
        assert set(images) == set(nc2)
        for p in nc:
            assert unfatten(fatten(p)) == p

    # complement lemma: fattening the complement rotates the fattening, m <= 5
    for m in range(1, 6):
        for p in enumerate_family("nc", m):
            assert fatten(kreweras(p)) == rotate_left(fatten(p))

    # intertwining: joined fattenings of a nested pair are noncrossing with
    # complement sigma interleaved with K(pi), m <= 5
    for m in range(1, 6):
        fam = enumerate_family("nc", m).members
        for pi in fam:
            for sigma in fam:
                if not leq(sigma, pi):
                    continue
                tau = join_full(fatten(sigma), fatten(pi))
                assert tau.is_noncrossing()
                assert kreweras(tau) == interleave(sigma, kreweras(pi))

    # linearization of join block counts, exhaustive to m <= 6
    for m in range(1, 7):
        fam = enumerate_family("nc", m).members
        for p in fam:
            for s in fam:
                lhs = len(join_full(fatten(p), fatten(s)).blocks)
                rhs = m + 2 * len(join_full(p, s).blocks) - len(p.blocks) - len(s.blocks)
                assert lhs == rhs
                if leq(s, p):
                    assert lhs == m + len(p.blocks) - len(s.blocks)

    # even-block factorization: joined fattenings of nested admissible pairs
    # enumerate the even-block alternating family exactly once, m <= 5
    for m in range(1, 6):
        for eps in balanced_sign_patterns(2 * m):
            nch = set(enumerate_family("nch_eps", 2 * m, eps).members)
            built = {}
            fam = enumerate_family("nc_eps", m, eps).members
            for pi in fam:
                for sigma in fam:
                    if leq(sigma, pi):
                        tau = join_full(fatten(sigma), fatten(pi))
                        assert tau not in built
                        built[tau] = (sigma, pi)
            assert set(built) == nch

    # admissible families are closed under lattice intervals, m <= 5
    for m in range(1, 6):
        nc = enumerate_family("nc", m).members
        below = {(s, p): leq(s, p) for s in nc for p in nc}
        intervals = {
            (s, p): [t for t in nc if below[(s, t)] and below[(t, p)]]
            for s in nc
            for p in nc
            if below[(s, p)]
        }
        for eps in balanced_sign_patterns(2 * m):
            fam = set(enumerate_family("nc_eps", m, eps).members)
            for s in fam:
                for p in fam:
                    if below[(s, p)]:
                        for t in intervals[(s, p)]:
                            assert t in fam

    # Moebius convolution: summing mu(t, p) over an interval is a delta, m <= 5
    for m in range(1, 6):
        fam = enumerate_family("nc", m).members
        for s in fam:
            for p in fam:
                if not leq(s, p):
                    continue
                total = sum(mobius(t, p) for t in fam if leq(s, t) and leq(t, p))
                assert total == (1 if s == p else 0)

    finish(1, "partition combinatorics", t0, 30.0)


def test_criterion_02_weingarten_exactness():
    t0 = time.perf_counter()

    for flavor, lengths in [("quantum", (2, 4, 6, 8)), ("classical", (2, 4, 6))]:
        for length in lengths:
            for eps in all_sign_patterns(length):
                table = build_table(flavor, eps)
                size = len(table.family)
                for a in range(size):
                    for b in range(size):
                        acc = RF.zero()
                        for k in range(size):
                            acc = acc + table.gram.entry(a, k) * table.wg.entry(k, b)
                        assert acc == RF.from_int(1 if a == b else 0)

    # closed form for the two-pair quantum table
    diag = RF((1,), (-1, 0, 1))  # 1/(n^2 - 1)
    off = RF((-1,), (0, -1, 0, 1))  # -1/(n(n^2 - 1))
    table = build_table("quantum", SignPattern.from_text("1*1*"))
    p0, p1 = table.family
    assert table.wg_entry(p0, p0) == diag
    assert table.wg_entry(p1, p1) == diag
    assert table.wg_entry(p0, p1) == off
    assert table.wg_entry(p1, p0) == off

    finish(2, "weingarten exactness", t0, 120.0)


def test_criterion_03_weingarten_asymptotics():
    t0 = time.perf_counter()

    checked = 0
    for m in (1, 2, 3):
        for eps in balanced_sign_patterns(2 * m):
            table = build_table("quantum", eps)
            family = enumerate_family("nc_eps", m, eps).members
            for p in family:
                for s in family:
                    got = west_expansion(table, p, s)
                    assert got.c0 == mobius(s, p)
                    assert got.c1 == 0
                    if got.exponent is not None:
                        bound = (
                            2 * len(join_full(p, s).blocks)
                            - len(p.blocks)
                            - len(s.blocks)
                            - m
                        )
                        assert got.exponent <= bound
                    checked += 1
    assert checked > 0

    finish(3, "weingarten asymptotics", t0, 60.0)


def test_criterion_04_adjoint_reduction():
    t0 = time.perf_counter()

    # single copy: direct evaluation equals evaluation of the reduced word,
    # exhaustively over kinds, sign patterns, and indices in {1, 2}
    for length in (2, 4):
        for eps in all_sign_patterns(length):
            for kinds in itertools.product(("u", "adjoint"), repeat=length):
                for idx in itertools.product((1, 2), repeat=2 * length):
                    letters = tuple(
                        Letter(idx[2 * p], idx[2 * p + 1], eps.signs[p], kinds[p])
                        for p in range(length)
                    )
                    w = EntryWord(letters)
                    assert word_moment(w) == word_moment(adjoint_reduce(w))

    # free product: the same equality with two independent copies, all
    # two-label patterns at four letters
    two_label = [
        labels
        for labels in itertools.product((1, 2), repeat=4)
        if len(set(labels)) == 2
    ]
    for labels in two_label:
        for eps in all_sign_patterns(4):
            for idx in itertools.product((1, 2), repeat=8):
                letters = tuple(
                    Letter(idx[2 * p], idx[2 * p + 1], eps.signs[p], "adjoint", labels[p])
                    for p in range(4)
                )
                w = EntryWord(letters)
                assert word_moment(w) == word_moment(adjoint_reduce(w))

    finish(4, "adjoint reduction", t0, 120.0)


def test_criterion_05_nested_functionals_and_norm_bounds():
    t0 = time.perf_counter()

    # the constrained sum over a fattened interleaving equals the nested
    # functional scaled by N^{blocks}, for every nested pair in NC(3); the
    # functional comes from the block-extraction oracle, and functional_e
    # must agree with it
    rng = random.Random(2024)
    nc3 = enumerate_family("nc", 3).members
    pairs = [(s, p) for p in nc3 for s in nc3 if leq(s, p)]
    assert len(pairs) == 12
    for n in (2, 3, 4):
        for s, p in pairs:
            omega = interleave(s, kreweras(p))
            target = fatten(omega)
            scale = n ** len(omega.blocks)
            for _ in range(20):
                args = [rand_bmatrix(rng, n) for _ in range(6)]
                expected = nested_functional(omega, args)
                assert constrained_sum(target, args) == expected * scale
                assert functional_e(omega, args) == expected

    # triangle-inequality norm bound on 200 random instances
    for _ in range(200):
        m = rng.choice([2, 3])
        n = rng.choice([2, 3])
        args = [rand_bmatrix(rng, n) for _ in range(m)]
        members = enumerate_family("all", 2 * m).members
        sigma = members[rng.randrange(len(members))]
        assert norm_check(sigma, args).ok

    finish(5, "nested functionals and norm bounds", t0, 120.0)


def test_criterion_06_asymptotic_freeness_scenarios():
    t0 = time.perf_counter()

    for name in ("dense_circulant", "diagonal_pattern", "matrix_unit_flip"):
        scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
        assert scenario.flavor == "quantum"
        assert tuple(scenario.n_range) == tuple(range(2, 11))
        report = scenario.report()
        assert report.n2_bounded, f"{name}: squared deltas grow"
        assert report.slope_ok, f"{name}: tail slope {report.slope} above -1.7"

    finish(6, "asymptotic freeness scenarios", t0, 600.0)


def test_criterion_07_counterexample_dichotomy():
    t0 = time.perf_counter()

    for n in range(4, 13):
        alg = MatrixUnitAlgebra(n)
        classical = counterexample(n, "classical")
        assert alg.norm_float(classical - alg.one()) <= 2.0 / n
        quantum = counterexample(n, "quantum")
        assert alg.norm_float(quantum) <= 2.0 / n

    assert crossing_pairing_present("classical")
    assert not crossing_pairing_present("quantum")

    finish(7, "counterexample dichotomy", t0, 300.0)


def test_criterion_08_infinitesimal_freeness():
    t0 = time.perf_counter()

    # interpolated moments of the matrix-unit scenario reproduce every
    # sampled per-size value exactly
    scenario = load_scenario(SCENARIO_DIR / "matrix_unit_flip.json")
    samples = range(4, 14)
    moments = laurent_moments(scenario.word_at, samples, degrees=(4, 4))
    for n in samples:
        w = scenario.word_at(n)
        assert moments.value_at(n, w.algebra) == lhs_exact(w, n)

    # order-one expectations: every alternating centered word with at most
    # three letters satisfies the product rule exactly
    pair = InfinitesimalPair.from_scenario(
        load_scenario(SCENARIO_DIR / "infinitesimal_flip.json")
    )
    words = []
    for sym in ("A", "B"):
        words.append([("plain", sym)])
        words.append([("rotated", sym)])
    for s1 in ("A", "B"):
        for s2 in ("A", "B"):
            words.append([("rotated", s1), ("plain", s2)])
            words.append([("plain", s1), ("rotated", s2)])
    for s1 in ("A", "B"):
        for s2 in ("A", "B"):
            for s3 in ("A", "B"):
                words.append([("rotated", s1), ("plain", s2), ("rotated", s3)])
                words.append([("plain", s1), ("rotated", s2), ("plain", s3)])
    assert len(words) == 28
    for letters in words:
        assert infinitesimal_check(pair, letters), f"failed for {letters}"

    # negative control: a corrupted order-one expectation must be detected
    bad = pair.e_prime([WordToken.plain("B")]).shifted(
        Partition.from_text("{{1,2},{3,4}}"), GaussianRational.one()
    )
    assert not infinitesimal_check(pair, [("plain", "B")], e_prime_overrides={0: bad})

    finish(8, "infinitesimal freeness", t0, 300.0)


def test_criterion_09_finite_dimensional_coefficients():
    t0 = time.perf_counter()

    report = finite_dim_scenario(2)
    assert report.n2_bounded
    assert report.slope_ok

    finish(9, "finite dimensional coefficients", t0, 300.0)


def test_criterion_10_oracle_equivalence():
    t0 = time.perf_counter()

    # exact evaluation equals the all-index brute force on 10 random words
    rng = random.Random(777)
    for case in range(10):
        flavor = "quantum" if case % 2 == 0 else "classical"
        n = rng.choice((2, 3))
        m2 = rng.choice((2, 4))
        letters = tuple(
            UnitaryLetter(
                rng.choice((1, 2)) if flavor == "quantum" else 1,
                rng.choice(("1", "*")),
                rand_bmatrix(rng, n),
            )
            for _ in range(m2)
        )
        lead = rand_bmatrix(rng, n) if rng.random() < 0.5 else None
        w = MixedWord(flavor, letters, lead=lead)
        assert lhs_exact(w, n) == brute_force_moment(w, n)

    # the limit formula equals the cumulant expansion on 10 random words
    for _ in range(10):
        m = rng.choice((1, 2, 3))
        letters = []
        for _ in range(m):
            letters.append(UnitaryLetter(rng.choice((1, 2)), "1", rand_bmatrix(rng, 2)))
            letters.append(UnitaryLetter(rng.choice((1, 2)), "*", rand_bmatrix(rng, 2)))
        w = MixedWord("quantum", tuple(letters))
        assert limit_formula(w) == cumulant_limit(w)

    finish(10, "oracle equivalence", t0, 120.0)
