"""Combinatorial layer: canonical forms, enumeration, fattening, Kreweras, Moebius."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from qhaar.partitions import (
    Partition,
    PartitionFamily,
    SignPattern,
    catalan,
    enumerate_family,
    fatten,
    fatten_extended,
    interleave,
    join_full,
    kernel,
    kreweras,
    leq,
    mobius,
    mobius_full,
    restrict,
    rotate_left,
    unfatten,
)
from qhaar.oracles import mobius_recursive

P = Partition.from_text


def all_sign_patterns(length: int):
    for combo in itertools.product("1*", repeat=length):
        yield SignPattern(combo)


def balanced_sign_patterns(length: int):
    """Patterns with equally many 1 and * letters (the others carry no pairings)."""
    for eps in all_sign_patterns(length):
        if eps.signs.count("1") == length // 2:
            yield eps


# ---------------------------------------------------------------------------
# canonical form and basic predicates


def test_canonical_form_and_equality():
    a = Partition(6, ((5, 4, 1), (3, 2), (6,)))
    b = P("{{1,4,5},{2,3},{6}}")
    assert a == b
    assert str(a) == "{{1,4,5},{2,3},{6}}"
    assert a.blocks == ((1, 4, 5), (2, 3), (6,))
    assert hash(a) == hash(b)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, ((1, 2),))  # 3 missing
    with pytest.raises(ValueError):
        Partition(3, ((1, 2), (2, 3)))  # 2 repeated
    with pytest.raises(ValueError):
        Partition(2, ((1, 2, 3),))  # 3 outside ground set


def test_text_roundtrip():
    for text in ("{{1,4,5},{2,3},{6}}", "{{1}}", "{{1,2,3}}"):
        assert str(P(text)) == text


def test_noncrossing_predicate():
    assert P("{{1,4},{2,3}}").is_noncrossing()
    assert not P("{{1,3},{2,4}}").is_noncrossing()
    assert P("{{1,10},{2,7},{3,6},{4,5},{8,9},{11,12}}").is_noncrossing()
    assert not P("{{1,4},{2,5},{3,6}}").is_noncrossing()


def test_leq_refinement():
    assert leq(Partition.singletons(4), Partition.full(4))
    assert leq(P("{{1,2},{3},{4}}"), P("{{1,2,3},{4}}"))
    assert not leq(P("{{1,3},{2},{4}}"), P("{{1,2},{3,4}}"))


def test_kernel():
    assert kernel((3, 1, 3, 2)) == P("{{1,3},{2},{4}}")
    assert kernel("aa") == P("{{1,2}}")


def test_restrict_example():
    assert restrict(P("{{1,4,5},{2,3}}"), (2, 3, 4)) == P("{{1,2},{3}}")
    with pytest.raises(ValueError):
        restrict(P("{{1,2}}"), (2, 1))
    for outside in ((0, 1), (2, 3)):
        with pytest.raises(ValueError, match="ground set"):
            restrict(P("{{1,2}}"), outside)


# ---------------------------------------------------------------------------
# joins


def test_join_examples():
    assert join_full(P("{{1,2},{3,4}}"), P("{{2,3},{1,4}}")) == Partition.full(4)
    assert join_full(P("{{1,3},{2},{4}}"), P("{{1},{2,4},{3}}")) == P("{{1,3},{2,4}}")


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_counts():
    assert len(enumerate_family("all", 1)) == 1
    assert enumerate_family("all", 1).members == (P("{{1}}"),)
    # k = 0 counts the empty partition, which the scans yield as any other member
    assert [len(enumerate_family("nc", k)) for k in range(9)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430
    ]
    assert enumerate_family("nc", 0).members == (Partition(0, ()),)
    assert [len(enumerate_family("all", k)) for k in range(6)] == [1, 1, 2, 5, 15, 52]
    assert len(enumerate_family("nc2", 6)) == catalan(3)
    assert len(enumerate_family("nc2", 8)) == catalan(4)


def test_enumerate_is_sorted_canonically():
    fam = enumerate_family("nc", 3)
    assert [str(p) for p in fam] == [
        "{{1},{2},{3}}",
        "{{1},{2,3}}",
        "{{1,2},{3}}",
        "{{1,2,3}}",
        "{{1,3},{2}}",
    ]


def test_p2_eps_alternating_six():
    eps = SignPattern.from_text("1*1*1*")
    fam = enumerate_family("p2_eps", 6, eps)
    assert len(fam) == 6
    crossing = [p for p in fam if not p.is_noncrossing()]
    assert crossing == [P("{{1,4},{2,5},{3,6}}")]
    nc_fam = enumerate_family("nc2_eps", 6, eps)
    assert len(nc_fam) == 5
    assert set(nc_fam.members) == set(fam.members) - {crossing[0]}


def test_nc_eps_matches_fattening_filter():
    for m in (1, 2, 3):
        for eps in all_sign_patterns(2 * m):
            fam = enumerate_family("nc_eps", m, eps)
            expect = [
                p
                for p in enumerate_family("nc", m)
                if all(eps.signs[a - 1] != eps.signs[b - 1] for a, b in fatten(p).blocks)
            ]
            assert list(fam.members) == expect


def test_nch_eps_matches_the_nc_filter():
    # the filter nch_eps was first defined by, kept as its oracle
    def alternating(eps, block):
        if len(block) % 2 != 0:
            return False
        return all(eps.signs[a - 1] != eps.signs[b - 1] for a, b in zip(block, block[1:]))

    for k in (2, 4, 6, 8):
        for eps in all_sign_patterns(k):
            expect = tuple(
                p
                for p in enumerate_family("nc", k)
                if all(alternating(eps, b) for b in p.blocks)
            )
            assert enumerate_family("nch_eps", k, eps).members == expect


def test_families_are_memoized():
    eps = SignPattern.from_text("1**1")
    cases = [("nc", 5, None), ("all", 4, None), ("nc2", 6, None), ("nc2_eps", 4, eps),
             ("p2_eps", 4, eps), ("nch_eps", 4, eps), ("nc_eps", 2, eps)]
    for kind, k, pattern in cases:
        first = enumerate_family(kind, k, pattern)
        again = enumerate_family(kind, k, pattern)
        assert again.members is first.members
        assert (again.kind, again.ground_size, again.eps) == (kind, k, pattern)
    p = P("{{1,4,5},{2,3},{6}}")
    assert fatten(p) is fatten(p)


def test_enumeration_caps():
    with pytest.raises(ValueError):
        enumerate_family("nc", 13)
    with pytest.raises(ValueError):
        enumerate_family("all", 11)
    with pytest.raises(ValueError):
        enumerate_family("nc2", 14)
    with pytest.raises(ValueError):
        enumerate_family("nch_eps", 14, SignPattern.alternating(14))


def test_family_argument_validation():
    with pytest.raises(ValueError):
        enumerate_family("bogus", 3)
    with pytest.raises(ValueError):
        enumerate_family("nc2_eps", 4)  # missing eps
    with pytest.raises(ValueError):
        enumerate_family("nc", 3, SignPattern.from_text("1*"))
    with pytest.raises(ValueError):
        enumerate_family("nc_eps", 3, SignPattern.from_text("1*1*"))  # needs length 6


def test_sign_pattern_validation():
    with pytest.raises(ValueError):
        SignPattern.from_text("1*1")
    with pytest.raises(ValueError):
        SignPattern.from_text("")
    with pytest.raises(ValueError):
        SignPattern.from_text("1x")
    assert str(SignPattern.alternating(4)) == "1*1*"


# ---------------------------------------------------------------------------
# fattening and friends


def test_fatten_example():
    assert fatten(P("{{1,4,5},{2,3},{6}}")) == P(
        "{{1,10},{2,7},{3,6},{4,5},{8,9},{11,12}}"
    )


def test_fatten_rejects_crossing():
    with pytest.raises(ValueError):
        fatten(P("{{1,3},{2,4}}"))
    # the extended rule accepts anything
    q = fatten_extended(P("{{1,3},{2,4}}"))
    assert q.is_pairing() and q.size == 8


def test_fattening_bijection():
    for m in range(1, 7):
        nc = enumerate_family("nc", m).members
        nc2 = enumerate_family("nc2", 2 * m).members
        images = [fatten(p) for p in nc]
        assert len(set(images)) == len(nc)
        assert set(images) == set(nc2)
        for p in nc:
            assert canonical(unfatten(fatten(p)))
            assert unfatten(fatten(p)) == p


def test_unfatten_validation():
    with pytest.raises(ValueError):
        unfatten(P("{{1,2,3,4}}"))
    with pytest.raises(ValueError):
        unfatten(P("{{1,3},{2,4}}"))  # crossing pairing


def test_hat_and_interleave():
    assert interleave(P("{{1,2}}"), P("{{1},{2}}")) == P("{{1,3},{2},{4}}")


def test_rotations():
    assert rotate_left(P("{{1,2},{3}}")) == P("{{1,3},{2}}")
    for k in (2, 3, 5):
        for p in enumerate_family("nc", k):
            q = p
            for _ in range(k):
                q = rotate_left(q)
            assert q == p


# ---------------------------------------------------------------------------
# Kreweras complement


def test_kreweras_worked_example():
    assert kreweras(P("{{1,5},{2,3,4},{6,8},{7}}")) == P("{{1,4},{2},{3},{5,8},{6,7}}")


def test_kreweras_extremes():
    for m in (1, 2, 3, 4, 5):
        assert kreweras(Partition.singletons(m)) == Partition.full(m)
        assert kreweras(Partition.full(m)) == Partition.singletons(m)


def test_kreweras_fattening_lemma():
    # the fattening of the complement is the rotated fattening
    for m in range(1, 7):
        for p in enumerate_family("nc", m):
            assert fatten(kreweras(p)) == rotate_left(fatten(p))


def test_kreweras_double_is_rotation():
    for m in range(1, 6):
        for p in enumerate_family("nc", m):
            assert kreweras(kreweras(p)) == rotate_left(p)


def test_kreweras_is_maximal_noncrossing_complement():
    for m in range(7):
        for p in enumerate_family("nc", m):
            kc = kreweras(p)
            assert canonical(kc)
            assert interleave(p, kc).is_noncrossing()
            for q in enumerate_family("nc", m):
                if interleave(p, q).is_noncrossing():
                    assert leq(q, kc)


def test_intertwine_lemma():
    # sigma <= pi: the joined fattenings are noncrossing with complement sigma wr K(pi)
    for m in range(1, 6):
        fam = enumerate_family("nc", m).members
        for pi in fam:
            for sigma in fam:
                if not leq(sigma, pi):
                    continue
                tau = join_full(fatten(sigma), fatten(pi))
                assert tau.is_noncrossing()
                assert kreweras(tau) == interleave(sigma, kreweras(pi))


def test_linearization_block_counts():
    # |fatten(p) v fatten(s)| = m + 2|p v s| - |p| - |s|
    rng = random.Random(11)
    for m in range(1, 7):
        fam = enumerate_family("nc", m).members
        pairs = [(p, s) for p in fam for s in fam]
        if len(pairs) > 400:
            pairs = rng.sample(pairs, 400)
        for p, s in pairs:
            lhs = len(join_full(fatten(p), fatten(s)))
            rhs = m + 2 * len(join_full(p, s)) - len(p) - len(s)
            assert lhs == rhs
            if leq(s, p):
                assert lhs == m + len(p) - len(s)


def test_even_block_factorization():
    # fattened pairs sigma <= pi, seen through tau = fatten(sigma) v fatten(pi),
    # classify exactly the even-block alternating partitions refining ker
    for m in range(1, 5):
        for eps in balanced_sign_patterns(2 * m):
            nch = set(enumerate_family("nch_eps", 2 * m, eps).members)
            built = {}
            for pi in enumerate_family("nc_eps", m, eps):
                for sigma in enumerate_family("nc_eps", m, eps):
                    if leq(sigma, pi):
                        tau = join_full(fatten(sigma), fatten(pi))
                        assert tau not in built
                        built[tau] = (sigma, pi)
            assert set(built) == nch


def test_nc_eps_interval_closure():
    for m in range(1, 5):
        for eps in balanced_sign_patterns(2 * m):
            fam = set(enumerate_family("nc_eps", m, eps).members)
            for sigma in fam:
                for pi in fam:
                    if not leq(sigma, pi):
                        continue
                    for tau in enumerate_family("nc", m):
                        if leq(sigma, tau) and leq(tau, pi):
                            assert tau in fam


# ---------------------------------------------------------------------------
# Moebius function


def test_mobius_small_values():
    assert mobius(Partition.singletons(2), Partition.full(2)) == -1
    assert mobius(Partition.singletons(3), Partition.full(3)) == 2
    assert mobius(Partition.singletons(4), Partition.full(4)) == -5
    assert mobius(Partition.full(3), Partition.full(3)) == 1
    assert mobius(Partition.full(3), Partition.singletons(3)) == 0


def test_mobius_signed_catalan_on_top_intervals():
    for k in range(1, 7):
        assert mobius(Partition.singletons(k), Partition.full(k)) == (-1) ** (
            k - 1
        ) * catalan(k - 1)


def test_mobius_matches_recursion():
    # the second pass reads the values the first one cached
    for k in range(1, 6):
        fam = enumerate_family("nc", k).members
        for _ in range(2):
            for s in fam:
                for p in fam:
                    assert mobius(s, p) == mobius_recursive(s, p)


def test_mobius_convolution_identity():
    # sum over s <= t <= p of mu(t, p) is the indicator of s == p
    for k in range(1, 6):
        fam = enumerate_family("nc", k).members
        for s in fam:
            for p in fam:
                if not leq(s, p):
                    continue
                total = sum(
                    mobius(t, p) for t in fam if leq(s, t) and leq(t, p)
                )
                assert total == (1 if s == p else 0)


def test_mobius_multiplicative_over_blocks():
    for k in range(1, 6):
        fam = enumerate_family("nc", k).members
        for p in fam:
            for s in fam:
                if not leq(s, p):
                    continue
                prod = math.prod(
                    mobius(restrict(s, b), Partition.full(len(b))) for b in p.blocks
                )
                assert mobius(s, p) == prod


def test_mobius_full_small_values():
    for k in range(1, 7):
        top = mobius_full(Partition.singletons(k), Partition.full(k))
        assert top == (-1) ** (k - 1) * math.factorial(k - 1)
    # the crossing partition has its own coarsening interval in P(4)
    assert mobius_full(P("{{1,3},{2,4}}"), Partition.full(4)) == -1
    assert mobius_full(Partition.full(3), Partition.singletons(3)) == 0


def test_mobius_full_definition():
    # the defining identity: sum over k <= s <= p of mu(k, s) is [k == p]
    for k in range(1, 6):
        fam = enumerate_family("all", k).members
        for kap in fam:
            above = [s for s in fam if leq(kap, s)]
            for p in fam:
                total = sum(mobius_full(kap, s) for s in above if leq(s, p))
                assert total == (1 if kap == p else 0)


def test_mobius_full_agrees_on_noncrossing_intervals_of_three():
    # below four points every interval of NC(k) is an interval of P(k)
    for k in range(1, 4):
        fam = enumerate_family("nc", k).members
        for s in fam:
            for p in fam:
                assert mobius_full(s, p) == mobius(s, p)


def test_mobius_requires_noncrossing():
    with pytest.raises(ValueError):
        mobius(P("{{1,3},{2,4}}"), Partition.full(4))


# ---------------------------------------------------------------------------
# derived partitions are kernels: each derivation returns the canonical form
# that the validating constructor builds from the same blocks, and meets its
# defining property, checked by brute force for k <= 6

SMALL = range(7)
BELL = (1, 1, 2, 5, 15, 52, 203)


def canonical(r: Partition) -> bool:
    return r == Partition(r.size, r.blocks)


def same_block(p: Partition):
    idx = p.block_index()
    return lambda x, y: idx[x] == idx[y]


def point_pairs(k: int):
    return itertools.combinations(range(1, k + 1), 2)


def test_kernel_and_extremes_are_canonical():
    for k in SMALL:
        for values in itertools.product(range(3), repeat=k):
            r = kernel(values)
            assert canonical(r) and r.size == k
            same = same_block(r)
            assert all(same(x, y) == (values[x - 1] == values[y - 1]) for x, y in point_pairs(k))
        assert canonical(Partition.singletons(k)) and len(Partition.singletons(k)) == k
        assert canonical(Partition.full(k)) and len(Partition.full(k)) == min(k, 1)


def test_enumerated_members_are_canonical():
    for k in SMALL:
        full = enumerate_family("all", k).members
        assert all(canonical(p) for p in full)
        assert len(set(full)) == len(full) == BELL[k]
        nc = enumerate_family("nc", k).members
        assert all(canonical(p) for p in nc)
        assert set(nc) == {p for p in full if p.is_noncrossing()}
        nc2 = enumerate_family("nc2", k).members
        assert set(nc2) == {p for p in nc if p.is_pairing()}
        if k == 0 or k % 2:
            continue
        for eps in all_sign_patterns(k):
            p2 = enumerate_family("p2_eps", k, eps).members
            assert all(canonical(p) for p in p2)
            assert set(p2) == {
                p for p in full
                if p.is_pairing() and all(eps.signs[a - 1] != eps.signs[b - 1] for a, b in p.blocks)
            }
            assert all(canonical(p) for p in enumerate_family("nch_eps", k, eps))


def test_joins_are_canonical_finest_common_coarsenings():
    for k in SMALL:
        full = enumerate_family("all", k).members
        where = {p: i for i, p in enumerate(full)}
        above = [frozenset(where[r] for r in full if leq(p, r)) for p in full]
        for i, p in enumerate(full):
            for j, q in enumerate(full):
                r = join_full(p, q)
                assert canonical(r)
                common = above[i] & above[j]
                assert where[r] in common and common <= above[where[r]]


def test_restrictions_are_canonical_induced_partitions():
    for k in SMALL:
        for p in enumerate_family("all", k):
            same = same_block(p)
            for size in range(k + 1):
                for sub in itertools.combinations(range(1, k + 1), size):
                    r = restrict(p, sub)
                    assert canonical(r) and r.size == size
                    rsame = same_block(r)
                    assert all(
                        rsame(x, y) == same(sub[x - 1], sub[y - 1]) for x, y in point_pairs(size)
                    )


def test_rotations_and_fattenings_are_canonical():
    for k in SMALL:
        for p in enumerate_family("all", k):
            same = same_block(p)
            r = rotate_left(p)
            assert canonical(r)
            rsame = same_block(r)
            assert all(rsame(x, y) == same(x % k + 1, y % k + 1) for x, y in point_pairs(k))
            pairs = []
            for block in p.blocks:
                pairs.append((2 * block[0] - 1, 2 * block[-1]))
                pairs.extend((2 * a, 2 * b - 1) for a, b in zip(block, block[1:]))
            f = fatten_extended(p)
            assert canonical(f)
            assert f == Partition(2 * k, tuple(pairs))


def test_interleavings_are_canonical():
    for k in SMALL:
        full = enumerate_family("all", k).members
        for p in full:
            for q in full:
                r = interleave(p, q)
                assert canonical(r)
                rsame, psame, qsame = same_block(r), same_block(p), same_block(q)
                for x, y in itertools.product(range(1, k + 1), repeat=2):
                    assert rsame(2 * x - 1, 2 * y - 1) == psame(x, y)
                    assert rsame(2 * x, 2 * y) == qsame(x, y)
                    assert not rsame(2 * x - 1, 2 * y)
