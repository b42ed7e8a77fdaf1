"""Tests for Gram/Weingarten tables, Haar moments, and entry-word reductions."""

import itertools
from fractions import Fraction

import pytest

from qhaar import freeness, weingarten
from qhaar.cli import main
from qhaar.exactalg import FieldMatrix, RationalFunction, laurent_at_infinity
from qhaar.partitions import (
    Partition,
    SignPattern,
    enumerate_family,
    fatten,
    join_full,
    kernel,
    leq,
    mobius,
)
from qhaar.weingarten import (
    EntryWord,
    Letter,
    adjoint_reduce,
    build_table,
    table_to_json,
    west_expansion,
    word_moment,
)
from qhaar.oracles import entry_cumulant, free_product_moment, haar_moment, moment_function

RF = RationalFunction
N = RF.variable()
ALT2 = SignPattern.from_text("1*")
ALT4 = SignPattern.from_text("1*1*")
ALT6 = SignPattern.from_text("1*1*1*")


def P(text):
    return Partition.from_text(text)


def all_sign_patterns(length):
    for combo in itertools.product("1*", repeat=length):
        yield SignPattern(combo)


class TestBuildTable:
    def test_single_pair(self):
        t = build_table("quantum", ALT2)
        assert t.family == (P("{{1,2}}"),)
        assert t.gram.entry(0, 0) == N
        assert t.wg.entry(0, 0) == 1 / N

    def test_two_by_two_closed_form(self):
        t = build_table("quantum", ALT4)
        assert len(t.family) == 2
        diag = RF((1,), (-1, 0, 1))  # 1/(n^2 - 1)
        off = RF((-1,), (0, -1, 0, 1))  # -1/(n^3 - n)
        a = P("{{1,2},{3,4}}")
        b = P("{{1,4},{2,3}}")
        assert t.wg_entry(a, a) == diag
        assert t.wg_entry(b, b) == diag
        assert t.wg_entry(a, b) == off
        assert t.wg_entry(b, a) == off

    def test_gram_entries_are_join_block_counts(self):
        # every table of both flavors up to their caps
        for flavor, record in weingarten.FLAVORS.items():
            for length in range(2, record.cap + 1, 2):
                for eps in all_sign_patterns(length):
                    t = build_table(flavor, eps)
                    for p in t.family:
                        for s in t.family:
                            expect = RF.monomial(len(join_full(p, s).blocks))
                            assert t.gram_entry(p, s) == expect

    def test_inverse_is_exact(self):
        tables = [build_table("quantum", eps) for eps in (ALT4, ALT6, SignPattern.from_text("11**"))]
        tables.append(build_table("classical", ALT6))
        for t in tables:
            k = len(t.family)
            for a in range(k):
                for b in range(k):
                    acc = RF.zero()
                    for c in range(k):
                        acc = acc + t.gram.entry(a, c) * t.wg.entry(c, b)
                    assert acc == RF.from_int(1 if a == b else 0)

    def test_weingarten_symmetry(self):
        for flavor, eps in (("quantum", ALT6), ("classical", ALT6)):
            t = build_table(flavor, eps)
            k = len(t.family)
            for a in range(k):
                for b in range(k):
                    assert t.wg.entry(a, b) == t.wg.entry(b, a)

    def test_unbalanced_pattern_gives_empty_family(self):
        t = build_table("quantum", SignPattern.from_text("11"))
        assert t.family == ()
        assert t.gram.size == 0
        assert haar_moment(t, (1, 1), (1, 1)) == RF.zero()

    def test_classical_family_has_crossing_member(self):
        tq = build_table("quantum", ALT6)
        tc = build_table("classical", ALT6)
        crossing = P("{{1,4},{2,5},{3,6}}")
        assert len(tc.family) == 6
        assert len(tq.family) == 5
        assert tc.contains(crossing)
        assert not tq.contains(crossing)
        assert set(tq.family) < set(tc.family)

    def test_caching_returns_same_object(self):
        assert build_table("quantum", ALT4) is build_table("quantum", ALT4)

    def test_equal_gram_matrices_share_one_inverse(self, monkeypatch):
        monkeypatch.setattr(weingarten, "_TABLE_CACHE", {})
        monkeypatch.setattr(weingarten, "_INVERSE_CACHE", {})
        assert build_table("quantum", "1*").wg is build_table("quantum", "*1").wg
        # 1*1* has no crossing pairing, so both flavors have one family and
        # one Weingarten matrix; the classical one comes from characters
        quantum, classical = build_table("quantum", ALT4), build_table("classical", ALT4)
        assert quantum.wg == classical.wg
        assert quantum.wg is not classical.wg
        assert build_table("quantum", ALT6).wg != build_table("classical", ALT6).wg

    def test_quantum_tables_take_fourteen_inversions_classical_none(self, monkeypatch):
        # every quantum pattern up to 8 letters shares one of 14 Gram
        # matrices, the cache key must find them; classical tables invert nothing
        monkeypatch.setattr(weingarten, "_TABLE_CACHE", {})
        monkeypatch.setattr(weingarten, "_INVERSE_CACHE", {})
        calls = []
        invert = FieldMatrix.invert

        def counted(matrix):
            calls.append(matrix)
            return invert(matrix)

        monkeypatch.setattr(FieldMatrix, "invert", counted)
        for flavor, cap, inversions in (("quantum", 8, 14), ("classical", 6, 0)):
            calls.clear()
            for length in range(2, cap + 1, 2):
                for eps in all_sign_patterns(length):
                    build_table(flavor, eps)
            assert len(calls) == inversions

    @pytest.mark.parametrize("flavor", ["quantum", "classical"])
    def test_shared_inverse_equals_a_fresh_inversion(self, flavor):
        for length in (2, 4, 6):
            for eps in all_sign_patterns(length):
                table = build_table(flavor, eps)
                assert table.wg == table.gram.invert()

    @pytest.mark.parametrize("text", ["1*1*1*1*", "1111****"])
    def test_eight_letter_characters_equal_the_gram_inverse(self, text):
        # over the cap, so straight from the family: a P2^eps pair is a
        # permutation with cycles half the blocks of its join
        family = enumerate_family("p2_eps", 8, SignPattern.from_text(text)).members
        joins = [[join_full(p, s).blocks for s in family] for p in family]
        gram = FieldMatrix(tuple(tuple(RF.monomial(len(j)) for j in row) for row in joins))
        wg = FieldMatrix(tuple(
            tuple(weingarten._classical_wg(tuple(sorted((len(b) // 2 for b in j), reverse=True)))
                  for j in row)
            for row in joins
        ))
        assert len(family) == 24
        assert wg == gram.invert()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_classical_rows_sum_to_the_inverse_rising_factorial(self, k):
        # sum over tau in S_k of Wg(sigma tau) = 1/(n(n+1)...(n+k-1)), the
        # moment E|u_11|^{2k} over k!; no Gram matrix enters
        rising = RF.one()
        for c in range(k):
            rising = rising * (N + c)
        total = RF.zero()
        for perm in itertools.permutations(range(k)):
            seen, cycles = set(), []
            for start in range(k):
                length = 0
                while start not in seen:
                    seen.add(start)
                    start = perm[start]
                    length += 1
                if length:
                    cycles.append(length)
            total = total + weingarten._classical_wg(tuple(sorted(cycles, reverse=True)))
        assert total == 1 / rising

    def test_size_caps(self):
        with pytest.raises(ValueError):
            build_table("quantum", SignPattern.alternating(10))
        with pytest.raises(ValueError):
            build_table("classical", SignPattern.alternating(8))
        with pytest.raises(ValueError):
            build_table("orthogonal", ALT2)


class TestHaarMoment:
    def test_pair_moments(self):
        t = build_table("quantum", ALT2)
        assert haar_moment(t, (1, 1), (1, 1)) == 1 / N
        assert haar_moment(t, (1, 2), (2, 2)) == RF.zero()
        assert haar_moment(t, (3, 3), (7, 7)) == 1 / N

    def test_fourth_moment_closed_form(self):
        t = build_table("quantum", ALT4)
        ones = (1, 1, 1, 1)
        # 2/(n^2 - 1) - 2/(n^3 - n) = 2/(n(n+1))
        assert haar_moment(t, ones, ones) == RF((2,), (0, 1, 1))

    def test_classical_fourth_moment_matches_here(self):
        # NC2 and P2 coincide on 4 points for the alternating pattern
        tq = build_table("quantum", ALT4)
        tc = build_table("classical", ALT4)
        for i in itertools.product((1, 2), repeat=4):
            for j in itertools.product((1, 2), repeat=4):
                assert haar_moment(tq, i, j) == haar_moment(tc, i, j)

    def test_transposition_invariance(self):
        for eps in (ALT4, SignPattern.from_text("1**1")):
            t = build_table("quantum", eps)
            for i in itertools.product((1, 2), repeat=4):
                for j in itertools.product((1, 2), repeat=4):
                    assert haar_moment(t, i, j) == haar_moment(t, j, i)

    def test_unitarity_row_sums(self):
        # sum_k psi(U_ik U*_jk) = delta_ij: each of the n summands is equal
        t = build_table("quantum", ALT2)
        for i in range(1, 4):
            for j in range(1, 4):
                term = haar_moment(t, (i, j), (1, 1))
                expect = RF.one() if i == j else RF.zero()
                assert N * term == expect

    def test_length_validation(self):
        t = build_table("quantum", ALT4)
        with pytest.raises(ValueError):
            haar_moment(t, (1, 1), (1, 1, 1, 1))
        with pytest.raises(ValueError):
            haar_moment(t, (0, 1, 1, 1), (1, 1, 1, 1))
        # indices are ints >= 1, not bools, as for weingarten.Letter
        for i in ((1.5, 1.5), (True, 1), (0, 1), ("1", 1)):
            with pytest.raises(ValueError, match="matrix indices start at 1"):
                haar_moment(build_table("quantum", ALT2), i, (1, 1))


class TestWordMoment:
    def test_odd_word_is_zero(self):
        w = EntryWord.of((1, 1), (1, 1, "*"), (1, 1))
        assert word_moment(w) == RF.zero()

    def test_empty_word_is_one(self):
        assert word_moment(EntryWord(())) == RF.one()

    def test_generator_word(self):
        w = EntryWord.of((1, 1), (1, 1, "*"))
        assert word_moment(w) == 1 / N

    def test_adjoint_entry_rewrites(self):
        assert Letter(1, 2, "*", "adjoint").as_generator() == Letter(2, 1, "*", "u")
        assert Letter(1, 2, "1", "adjoint").as_generator() == Letter(1, 2, "1", "u")
        # psi((U*)_{12} (U)_{21}) = psi(u*_{21} u_{21}) = 1/n
        w = EntryWord.of((1, 2, "*", "adjoint"), (2, 1))
        assert word_moment(w) == 1 / N

    def test_multi_label_routes_to_free_product(self):
        w = EntryWord.of((1, 1, "1", "u", 1), (1, 1, "*", "u", 2))
        assert word_moment(w) == RF.zero()
        with pytest.raises(NotImplementedError):
            word_moment(w, flavor="classical")

    def test_classical_single_label(self):
        w = EntryWord.of((1, 1), (1, 1, "*"))
        assert word_moment(w, flavor="classical") == 1 / N

    def test_renamed_labels_share_one_weight_entry(self, monkeypatch):
        # pair weights depend on the labels only through their kernel
        cache: dict = {}
        monkeypatch.setattr(weingarten, "_WEIGHT_CACHE", cache)

        def word(labels):
            return EntryWord.of(*[(1, 1, "1*"[t % 2], "u", lab) for t, lab in enumerate(labels)])

        first = word_moment(word((1, 2, 1, 2, 1, 2)))
        assert word_moment(word((2, 1, 2, 1, 2, 1))) == first
        assert len(cache) == 1

    def test_freeness_shares_the_weight_cache(self):
        assert freeness._WEIGHT_CACHE is weingarten._WEIGHT_CACHE


class TestCumulantCoefficients:
    @staticmethod
    def double_sum(ker):
        # the unrestricted sum over NC(k) x NC(k) of Moebius values
        ncs = enumerate_family("nc", ker.size).members
        below = [tau for tau in ncs if leq(tau, ker)]
        out = {}
        for omega in ncs:
            tot = sum(mobius(omega, tau) for tau in below if leq(omega, tau))
            if tot:
                out[omega] = tot
        return out

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_noncrossing_kernel_is_its_own_coefficient(self, k):
        # the Moebius identity: sum of mu(omega, tau) over omega <= tau <= pi
        # is 1 if omega = pi and 0 otherwise
        for ker in enumerate_family("nc", k).members:
            assert weingarten._cumulant_coefficients(ker) == {ker: 1}

    @pytest.mark.parametrize("k", [4, 6])
    def test_crossing_kernel_matches_the_double_sum(self, k):
        # every crossing kernel of the size
        kernels = [ker for ker in enumerate_family("all", k).members if not ker.is_noncrossing()]
        assert len(kernels) == {4: 1, 6: 71}[k]
        for ker in kernels:
            got = weingarten._cumulant_coefficients(ker)
            expected = self.double_sum(ker)
            assert got == expected
            assert list(got) == list(expected)

    def test_sign_patterns_share_one_entry(self, monkeypatch):
        # the coefficients depend on the label kernel alone
        cache: dict = {}
        monkeypatch.setattr(weingarten, "_CUMULANT_CACHE", cache)
        monkeypatch.setattr(weingarten, "_WEIGHT_CACHE", {})
        labels = (1, 1, 2, 2, 1, 1)
        for signs in ("1*1**1", "1**11*"):
            word_moment(EntryWord.of(*[(1, 1, s, "u", lab) for s, lab in zip(signs, labels)]))
        assert len(weingarten._WEIGHT_CACHE) == 2
        assert list(cache) == [kernel(labels)]


class TestAdjointReduce:
    def test_statement_first_two_factors(self):
        w = EntryWord.of((1, 2, "1", "adjoint"), (1, 2, "*", "adjoint"))
        got = adjoint_reduce(w)
        assert got.letters == (Letter(1, 2, "1", "u"), Letter(2, 1, "*", "u"))

    def test_plain_generator_word_swaps_even_positions(self):
        w = EntryWord.of((1, 2), (1, 2))
        got = adjoint_reduce(w)
        assert got.letters == (Letter(1, 2, "1", "u"), Letter(2, 1, "1", "u"))

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            adjoint_reduce(EntryWord.of((1, 1)))

    def test_moment_equality_two_letters_exhaustive(self):
        for signs in all_sign_patterns(2):
            for kinds in itertools.product(("u", "adjoint"), repeat=2):
                for idx in itertools.product((1, 2), repeat=4):
                    w = EntryWord.of(
                        (idx[0], idx[1], signs.signs[0], kinds[0]),
                        (idx[2], idx[3], signs.signs[1], kinds[1]),
                    )
                    assert word_moment(w) == word_moment(adjoint_reduce(w))

    def test_moment_equality_four_letters_sampled(self):
        signs = SignPattern.from_text("1**1")
        for idx in itertools.product((1, 2), repeat=4):
            w = EntryWord.of(
                (idx[0], idx[1], signs.signs[0], "adjoint"),
                (idx[2], idx[3], signs.signs[1], "adjoint"),
                (idx[1], idx[2], signs.signs[2], "adjoint"),
                (idx[3], idx[0], signs.signs[3], "adjoint"),
            )
            assert word_moment(w) == word_moment(adjoint_reduce(w))


class TestMomentFunction:
    def test_full_block_is_haar_moment(self):
        t = build_table("quantum", ALT4)
        ones = (1, 1, 1, 1)
        omega = Partition.full(4)
        assert moment_function(t, omega, ones, ones) == haar_moment(t, ones, ones)

    def test_pair_blocks_multiply(self):
        t = build_table("quantum", ALT4)
        omega = P("{{1,2},{3,4}}")
        got = moment_function(t, omega, (1, 1, 2, 2), (1, 1, 3, 3))
        assert got == 1 / (N * N)
        assert moment_function(t, omega, (1, 2, 1, 1), (1, 1, 1, 1)) == RF.zero()

    def test_odd_block_vanishes(self):
        t = build_table("quantum", ALT4)
        omega = P("{{1},{2,3,4}}")
        assert moment_function(t, omega, (1, 1, 1, 1), (1, 1, 1, 1)) == RF.zero()

    def test_crossing_omega_rejected(self):
        t = build_table("quantum", ALT4)
        with pytest.raises(ValueError):
            moment_function(t, P("{{1,3},{2,4}}"), (1, 1, 1, 1), (1, 1, 1, 1))


class TestEntryCumulant:
    def test_pair_cumulant(self):
        t = build_table("quantum", ALT2)
        assert entry_cumulant(t, Partition.full(2), (1, 1), (1, 1)) == 1 / N

    def test_odd_block_vanishes(self):
        t = build_table("quantum", ALT4)
        tau = P("{{1},{2,3,4}}")
        assert entry_cumulant(t, tau, (1, 1, 1, 1), (1, 1, 1, 1)) == RF.zero()

    def test_mobius_inversion_roundtrip(self):
        t = build_table("quantum", ALT4)
        i = (1, 1, 2, 2)
        j = (1, 2, 2, 1)
        for omega in enumerate_family("nc", 4):
            total = RF.zero()
            for tau in enumerate_family("nc", 4):
                if leq(tau, omega):
                    total = total + entry_cumulant(t, tau, i, j)
            assert total == moment_function(t, omega, i, j)


class TestFreeProductMoment:
    def test_single_label_reduces_to_haar(self):
        t = build_table("quantum", ALT4)
        ones = (1, 1, 1, 1)
        got = free_product_moment(ALT4, (1, 1, 1, 1), ones, ones)
        assert got == haar_moment(t, ones, ones)

    def test_alternating_labels_vanish(self):
        # only tau <= ker l = {{1,3},{2,4}} could contribute, but each such
        # noncrossing tau has a singleton block, so every cumulant is zero
        ones = (1, 1, 1, 1)
        got = free_product_moment(ALT4, (1, 2, 1, 2), ones, ones)
        assert got == RF.zero()

    def test_paired_labels_factorize(self):
        ones = (1, 1, 1, 1)
        got = free_product_moment(ALT4, (1, 1, 2, 2), ones, ones)
        assert got == 1 / (N * N)

    def test_numeric_evaluation(self):
        ones = (1, 1, 1, 1)
        got = free_product_moment(ALT4, (1, 1, 1, 1), ones, ones)
        assert got.evaluate(5) == Fraction(2, 30)

    def test_size_cap(self):
        # the quantum table cap is the oracle's one letter limit
        with pytest.raises(ValueError, match="quantum tables support at most 8 letters, got 10"):
            free_product_moment(
                SignPattern.alternating(10), (1,) * 10, (1,) * 10, (1,) * 10
            )

    def test_integrate_estimate_cross_check(self):
        # exact free-product value minus the leading double sum over
        # NC^eps(m) pairs decays at least two orders faster than the largest
        # admissible exponent
        cases = [
            ((1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)),
            ((1, 1, 2, 2, 1, 1), (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)),
            ((1, 1, 1, 1), (1, 2, 2, 1), (1, 2, 2, 1)),
        ]
        for labels, i, j in cases:
            eps = SignPattern.alternating(len(labels))
            m = len(labels) // 2
            exact = free_product_moment(eps, labels, i, j)
            ker_i = kernel(i)
            ker_j = kernel(j)
            ker_l = kernel(labels)
            family = enumerate_family("nc_eps", m, eps).members
            approx = RF.zero()
            exponents = []
            for p in family:
                fp = fatten(p)
                if not (leq(fp, ker_i) and leq(fp, ker_l)):
                    continue
                for s in family:
                    fs = fatten(s)
                    if not (leq(fs, ker_j) and leq(fs, ker_l)):
                        continue
                    e = len(p.blocks) - len(s.blocks) - m
                    exponents.append(e)
                    approx = approx + mobius(s, p) * RF.monomial(e)
            assert exponents, "test case must have admissible pairs"
            diff = exact - approx
            if diff:
                dp, dq = diff.degrees()
                assert dp - dq <= max(exponents) - 2


def west_by_rescaling(table, p, s):
    # the expansion read off the rescaled function n^scale * entry itself
    m = len(table.pattern) // 2
    scale = m + len(s.blocks) - len(p.blocks)
    scaled = RF.monomial(scale) * table.wg_entry(fatten(p), fatten(s))
    if not scaled:
        return (None, 0, 0, 0)
    dp, dq = scaled.degrees()
    series = laurent_at_infinity(scaled, max(0, dp - dq + 2))
    return (
        dp - dq - scale,
        series.abs_coefficient(0),
        series.abs_coefficient(-1),
        series.abs_coefficient(-2),
    )


class TestWestExpansion:
    def test_equal_partitions(self):
        t = build_table("quantum", ALT4)
        for p in enumerate_family("nc", 2):
            got = west_expansion(t, p, p)
            assert got.c0 == 1
            assert got.c1 == 0

    def test_strict_pair_gives_mobius(self):
        t = build_table("quantum", ALT4)
        got = west_expansion(t, Partition.full(2), Partition.singletons(2))
        assert got.c0 == -1
        assert got.c1 == 0
        # raw entry -1/(n^3 - n) has leading exponent -3 = 2|pvs|-|p|-|s|-m
        assert got.exponent == -3

    def test_incomparable_pair_gives_zero(self):
        t = build_table("quantum", ALT4)
        got = west_expansion(t, Partition.singletons(2), Partition.full(2))
        assert got.c0 == 0
        assert got.c1 == 0

    def test_exponent_bound_all_pairs_m3(self):
        t = build_table("quantum", ALT6)
        family = enumerate_family("nc_eps", 3, ALT6).members
        for p in family:
            for s in family:
                got = west_expansion(t, p, s)
                assert got.c0 == mobius(s, p)
                assert got.c1 == 0
                if got.exponent is not None:
                    bound = (
                        2 * len(join_full(p, s).blocks)
                        - len(p.blocks)
                        - len(s.blocks)
                        - 3
                    )
                    assert got.exponent <= bound

    @pytest.mark.parametrize("flavor", ["quantum", "classical"])
    def test_equals_the_rescaled_series(self, flavor):
        # every (p, s) of every balanced pattern up to the flavor's cap
        checked = 0
        for length in range(2, weingarten.flavor_of(flavor).cap + 1, 2):
            for eps in all_sign_patterns(length):
                if 2 * eps.signs.count("1") != length:
                    continue
                t = build_table(flavor, eps)
                family = [
                    p for p in enumerate_family("nc", length // 2).members
                    if t.contains(fatten(p))
                ]
                for p in family:
                    for s in family:
                        got = west_expansion(t, p, s)
                        expected = west_by_rescaling(t, p, s)
                        assert got.exponent == expected[0]
                        assert (got.c0, got.c1, got.c2) == expected[1:]
                        checked += 1
        assert checked == {"quantum": 1210, "classical": 118}[flavor]

    def test_partition_outside_family_rejected(self):
        eps = SignPattern.from_text("11**")
        t = build_table("quantum", eps)
        with pytest.raises(ValueError):
            west_expansion(t, Partition.singletons(2), Partition.singletons(2))


class TestEmission:
    def test_json_roundtrip_strings(self):
        t = build_table("quantum", ALT4)
        data = table_to_json(t)
        assert data["flavor"] == "quantum"
        assert data["pattern"] == "1*1*"
        assert data["labels"] == [str(p) for p in t.family]
        for a in range(2):
            for b in range(2):
                assert RF.from_text(data["wg"][a][b]) == t.wg.entry(a, b)
                assert RF.from_text(data["gram"][a][b]) == t.gram.entry(a, b)

    def test_csv_shape(self, capsys):
        # the CSV form of a table is written by the CLI
        t = build_table("quantum", ALT4)
        assert main(["weingarten", "--eps", "1*1*", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "pi,sigma,gram,wg"
        assert len(lines) == 1 + len(t.family) ** 2


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter(0, 1)
    with pytest.raises(ValueError):
        Letter(1, 1, "x")
    with pytest.raises(ValueError):
        Letter(1, 1, "1", "conjugate")
    with pytest.raises(ValueError):
        Letter(1, 1, "1", "u", 0)
    # indices and labels are ints, never floats, strings or bools
    for bad in ((1.5, 1), (1, 1.5), (True, 1), (1, True), (1, 1, "1", "u", True),
                (1, 1, "1", "u", "1"), (1, 1, "1", "u", 1.0)):
        with pytest.raises(ValueError):
            Letter(*bad)
    with pytest.raises(ValueError):
        word_moment(EntryWord.of((1.5, 1), (1, 1, "*")))


def test_laurent_of_fourth_moment():
    # psi(U11 U*11 U11 U*11) = 2/(n(n+1)) = 2n^-2 - 2n^-3 + ...
    t = build_table("quantum", ALT4)
    ones = (1, 1, 1, 1)
    exp = laurent_at_infinity(haar_moment(t, ones, ones), 2)
    assert exp.leading_exponent == -2
    assert exp.coeffs == (Fraction(2), Fraction(-2), Fraction(2))
