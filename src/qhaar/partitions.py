"""Set partitions, noncrossing lattices, sign patterns and the fattening maps.

Everything downstream (Weingarten tables, operator-valued functionals, the
asymptotic machinery) is driven by the combinatorics in this module: canonical
immutable partitions of {1..k}, enumeration of the partition families that
index Gram/Weingarten matrices, the Kreweras complement, the doubling maps
between NC(m) and noncrossing pair partitions of 2m points, and the Moebius
functions of the noncrossing and of the full partition lattice.

Ground sets are 1-based.  All values are immutable and hashable; operations
return new objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Partition",
    "SignPattern",
    "PartitionFamily",
    "FAMILY_KINDS",
    "enumerate_family",
    "join_full",
    "kreweras",
    "fatten",
    "fatten_extended",
    "unfatten",
    "interleave",
    "rotate_left",
    "mobius",
    "mobius_full",
    "kernel",
    "restrict",
    "leq",
    "catalan",
]

# Eager enumeration stays cheap at desk scale; larger requests are refused.
MAX_NC_GROUND = 12
MAX_PAIRING_GROUND = 12
MAX_ALL_GROUND = 10

PLAIN = "1"
STAR = "*"


def catalan(n: int) -> int:
    """n-th Catalan number C_n = binom(2n, n)/(n+1)."""
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class Partition:
    """A partition of {1..size} in canonical form.

    Blocks are stored sorted internally and ordered by their minima, so two
    partitions are equal iff they are structurally identical.  Every
    partition the package derives from others is a kernel (see kernel),
    built in canonical form without validation; this constructor sorts and
    validates blocks that come from outside: from_text, user code and
    module-level literals.

    >>> str(Partition(6, ((5, 4, 1), (3, 2), (6,))))
    '{{1,4,5},{2,3},{6}}'
    """

    size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("partition ground size must be nonnegative")
        canon = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0]))
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise ValueError("empty block")
            for x in block:
                if not 1 <= x <= self.size:
                    raise ValueError(f"element {x} outside ground set 1..{self.size}")
                if x in seen:
                    raise ValueError(f"element {x} appears twice")
                seen.add(x)
        if len(seen) != self.size:
            missing = sorted(set(range(1, self.size + 1)) - seen)
            raise ValueError(f"elements {missing} not covered")
        object.__setattr__(self, "blocks", canon)

    @staticmethod
    def singletons(k: int) -> "Partition":
        """The minimal partition 0_k."""
        return kernel(range(k))

    @staticmethod
    def full(k: int) -> "Partition":
        """The maximal partition 1_k."""
        return kernel((0,) * k)

    @staticmethod
    def from_text(text: str) -> "Partition":
        """Parse the {{1,4,5},{2,3},{6}} text form."""
        s = text.strip()
        if not (s.startswith("{{") and s.endswith("}}")) and s != "{}":
            raise ValueError(f"not a partition literal: {text!r}")
        if s == "{}":
            return Partition(0, ())
        body = s[1:-1]
        blocks = []
        for chunk in body.replace("},{", "}|{").split("|"):
            chunk = chunk.strip()
            if not (chunk.startswith("{") and chunk.endswith("}")):
                raise ValueError(f"malformed block in {text!r}")
            blocks.append(tuple(int(t) for t in chunk[1:-1].split(",")))
        size = max(max(b) for b in blocks)
        return Partition(size, tuple(blocks))

    def __str__(self) -> str:
        if not self.blocks:
            return "{}"
        return "{" + ",".join("{" + ",".join(str(x) for x in b) + "}" for b in self.blocks) + "}"

    def __len__(self) -> int:
        return len(self.blocks)

    def block_index(self) -> dict[int, int]:
        """Map each element to the position of its block in canonical order."""
        out: dict[int, int] = {}
        for idx, block in enumerate(self.blocks):
            for x in block:
                out[x] = idx
        return out

    def is_pairing(self) -> bool:
        return all(len(b) == 2 for b in self.blocks)

    def is_noncrossing(self) -> bool:
        """True iff no two blocks interleave as a < c < b < d."""
        idx = self.block_index()
        stack: list[int] = []
        for x in range(1, self.size + 1):
            b = idx[x]
            if stack and stack[-1] == b:
                pass
            elif b in stack:
                return False  # reopening a block that was interrupted
            else:
                stack.append(b)
            if x == self.blocks[b][-1]:
                stack.pop()
        return True


def leq(p: Partition, q: Partition) -> bool:
    """Refinement order: every block of p lies inside a block of q."""
    if p.size != q.size:
        raise ValueError("ground sizes differ")
    idx = q.block_index()
    return all(len({idx[x] for x in block}) == 1 for block in p.blocks)


@dataclass(frozen=True)
class SignPattern:
    """A word over {1, *} of even positive length, e.g. SignPattern.from_text("1*1*")."""

    signs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.signs) == 0 or len(self.signs) % 2 != 0:
            raise ValueError("sign pattern length must be even and positive")
        for s in self.signs:
            if s not in (PLAIN, STAR):
                raise ValueError(f"invalid sign {s!r}")

    @staticmethod
    def from_text(text: str) -> "SignPattern":
        return SignPattern(tuple(text))

    @staticmethod
    def alternating(length: int) -> "SignPattern":
        """1*1*... of the given even length."""
        return SignPattern(tuple(PLAIN if i % 2 == 0 else STAR for i in range(length)))

    def __str__(self) -> str:
        return "".join(self.signs)

    def __len__(self) -> int:
        return len(self.signs)


def kernel(values) -> Partition:
    """ker of an index tuple: positions carrying equal values share a block.

    The one constructor of derived partitions: blocks come out in order of
    first occurrence, each increasing, which is the canonical form, so the
    result skips Partition's validation.

    >>> str(kernel((4, 7, 4)))
    '{{1,3},{2}}'
    """
    groups: dict[object, list[int]] = {}
    size = 0
    for size, v in enumerate(values, start=1):
        groups.setdefault(v, []).append(size)
    out = object.__new__(Partition)
    object.__setattr__(out, "size", size)
    object.__setattr__(out, "blocks", tuple(map(tuple, groups.values())))
    return out


def restrict(p: Partition, subset) -> Partition:
    """Induced partition on a strictly increasing subset, relabeled to 1..len.

    >>> str(restrict(Partition.from_text("{{1,4,5},{2,3}}"), (2, 3, 4)))
    '{{1,2},{3}}'
    """
    sub = tuple(subset)
    if any(a >= b for a, b in zip(sub, sub[1:])):
        raise ValueError("subset must be strictly increasing")
    if sub and not (1 <= sub[0] and sub[-1] <= p.size):
        raise ValueError(f"subset leaves the ground set 1..{p.size}")
    idx = p.block_index()
    return kernel(idx[x] for x in sub)


def _find(parent: list, x: int) -> int:
    """The root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list, x: int, y: int) -> int:
    """Join the components of x and y; 1 if they were apart, else 0."""
    rx, ry = _find(parent, x), _find(parent, y)
    if rx == ry:
        return 0
    parent[ry] = rx
    return 1


def _join_forest(p: Partition, q: Partition) -> tuple[list, int]:
    """The union-find forest joining the blocks of p and q, and its merge
    count; |p v q| is the ground size less the merges."""
    parent = list(range(p.size + 1))
    merges = 0
    for part in (p, q):
        for block in part.blocks:
            for a, b in zip(block, block[1:]):
                merges += _union(parent, a, b)
    return parent, merges


def join_full(p: Partition, q: Partition) -> Partition:
    """Join in the full partition lattice P(k), by union-find over blocks."""
    if p.size != q.size:
        raise ValueError("ground sizes differ")
    parent, _ = _join_forest(p, q)
    return kernel(_find(parent, x) for x in range(1, p.size + 1))


def _inverse_permutation(p: Partition) -> dict[int, int]:
    """sigma_p^{-1}, sigma_p taking each block as an increasing cycle: x maps
    to the block element before it, and the least to the greatest."""
    inv: dict[int, int] = {}
    for block in p.blocks:
        for a, b in zip(block, block[1:]):
            inv[b] = a
        inv[block[0]] = block[-1]
    return inv


def kreweras(p: Partition) -> Partition:
    """Kreweras complement on NC(m).

    K(p) is the maximal partition of the interleaved copies 1',...,m' keeping
    the overlay noncrossing; it is computed here through the cycle calculus
    (cycles of sigma_p^{-1} composed with the long cycle) and verified
    noncrossing.

    >>> str(kreweras(Partition.from_text("{{1,5},{2,3,4},{6,8},{7}}")))
    '{{1,4},{2},{3},{5,8},{6,7}}'
    """
    if not p.is_noncrossing():
        raise ValueError("kreweras complement requires a noncrossing partition")
    m = p.size
    inv = _inverse_permutation(p)
    # each element is labelled by the first element of its cycle
    cycle: dict[int, int] = {}
    for start in range(1, m + 1):
        x = start
        while x not in cycle:
            cycle[x] = start
            x = inv[x % m + 1]
    out = kernel(cycle[x] for x in range(1, m + 1))
    if not out.is_noncrossing():
        raise AssertionError(f"kreweras produced a crossing partition for {p}")
    return out


def fatten(p: Partition) -> Partition:
    """The pair partition of 2m points attached to p in NC(m).

    Block (i1 < ... < is) turns into the pairs (2*i1-1, 2*is) and
    (2*it, 2*i(t+1)-1) for t = 1..s-1.

    >>> str(fatten(Partition.from_text("{{1,4,5},{2,3},{6}}")))
    '{{1,10},{2,7},{3,6},{4,5},{8,9},{11,12}}'
    """
    return _fatten(p)


@lru_cache(maxsize=None)
def _fatten(p: Partition) -> Partition:
    if not p.is_noncrossing():
        raise ValueError("fatten requires a noncrossing partition")
    return fatten_extended(p)


def fatten_extended(p: Partition) -> Partition:
    """The fattening rule applied verbatim to an arbitrary partition.

    fatten is its noncrossing-checked, cached form and its only caller in
    the package; the norm-bound tests use it directly on crossing partitions.
    """
    # point 2y carries y, and point 2y - 1 the element before y in its block
    # (cyclically), so each pair is labelled by its even point's element
    prev = _inverse_permutation(p)
    return kernel(v for y in range(1, p.size + 1) for v in (prev[y], y))


def unfatten(q: Partition) -> Partition:
    """Inverse of fatten on noncrossing pair partitions of an even ground set."""
    if q.size % 2 != 0:
        raise ValueError("unfatten requires an even ground set")
    if not q.is_pairing() or not q.is_noncrossing():
        raise ValueError("unfatten requires a noncrossing pair partition")
    m = q.size // 2
    # point i of the result is the pair {2i - 1, 2i} of q's ground set
    idx = join_full(q, kernel(x // 2 for x in range(2 * m))).block_index()
    out = kernel(idx[2 * i] for i in range(1, m + 1))
    if fatten(out) != q:
        raise ValueError(f"{q} is not the fattening of any partition")
    return out


def interleave(p: Partition, q: Partition) -> Partition:
    """p on the odd points, q on the even points of {1..2m} (p wr q)."""
    if p.size != q.size:
        raise ValueError("interleave requires equal ground sizes")
    ip, iq, off = p.block_index(), q.block_index(), len(p.blocks)
    return kernel(v for x in range(1, p.size + 1) for v in (ip[x], off + iq[x]))


def rotate_left(p: Partition) -> Partition:
    """Shift the ground set down by one, cyclically: s ~ t iff s+1 ~ t+1 in p.

    >>> str(rotate_left(Partition.from_text("{{1,2},{3}}")))
    '{{1,3},{2}}'
    """
    m = p.size
    idx = p.block_index()
    return kernel(idx[x % m + 1] for x in range(1, m + 1))


# ---------------------------------------------------------------------------
# Enumeration


def _all_partitions(k: int) -> tuple[Partition, ...]:
    if k > MAX_ALL_GROUND:
        raise ValueError(f"full partition enumeration capped at {MAX_ALL_GROUND} points, got {k}")
    out: list[Partition] = []

    # restricted growth: each point joins one of the blocks opened before it
    # or opens the next one
    def rec(labels: list[int], nblocks: int) -> None:
        if len(labels) == k:
            out.append(kernel(labels))
            return
        for b in range(nblocks + 1):
            labels.append(b)
            rec(labels, max(nblocks, b + 1))
            labels.pop()

    rec([], 0)
    return tuple(sorted(out, key=lambda p: p.blocks))


def _nc_partitions(k: int, eps: SignPattern | None = None) -> tuple[Partition, ...]:
    """NC(k); with eps, only the members whose blocks alternate in sign and
    have even length (nch_eps)."""
    if k > MAX_NC_GROUND:
        raise ValueError(f"noncrossing enumeration capped at {MAX_NC_GROUND} points, got {k}")
    signs = (None,) + eps.signs if eps is not None else None
    out: list[Partition] = []

    # Scan left to right with a stack of open blocks: joining a block below
    # the top permanently closes everything above it, which is exactly the
    # noncrossing condition.  Under eps a join must switch sign and every
    # block it closes must be even.
    def rec(pos: int, stack: list[list[int]], closed: list[list[int]]) -> None:
        if pos > k:
            if signs is None or all(len(b) % 2 == 0 for b in stack):
                first = {x: b[0] for b in closed + stack for x in b}
                out.append(kernel(first[x] for x in range(1, k + 1)))
            return
        for depth in range(len(stack)):
            finished = stack[depth + 1 :]
            if signs is not None and (
                signs[stack[depth][-1]] == signs[pos] or any(len(b) % 2 for b in finished)
            ):
                continue
            kept = stack[: depth + 1]
            kept[depth] = kept[depth] + [pos]
            rec(pos + 1, kept, closed + finished)
        rec(pos + 1, stack + [[pos]], closed)

    rec(1, [], [])
    assert eps is not None or len(out) == catalan(k)
    return tuple(sorted(out, key=lambda p: p.blocks))


@lru_cache(maxsize=None)
def _pairings(k: int) -> tuple[Partition, ...]:
    if k > MAX_PAIRING_GROUND:
        raise ValueError(f"pairing enumeration capped at {MAX_PAIRING_GROUND} points, got {k}")
    if k % 2 != 0:
        return ()
    out: list[Partition] = []
    # each point is labelled by the first point of its pair
    labels = [0] * k

    def rec(remaining: tuple[int, ...]) -> None:
        if not remaining:
            out.append(kernel(labels))
            return
        first = remaining[0]
        for t in range(1, len(remaining)):
            labels[first - 1] = labels[remaining[t] - 1] = first
            rec(remaining[1:t] + remaining[t + 1 :])

    rec(tuple(range(1, k + 1)))
    return tuple(sorted(out, key=lambda p: p.blocks))


def _eps_pair_ok(eps: SignPattern, pair: tuple[int, int]) -> bool:
    a, b = pair
    return eps.signs[a - 1] != eps.signs[b - 1]


FAMILY_KINDS = ("all", "nc", "nc2", "nc2_eps", "nc_eps", "nch_eps", "p2_eps")


@dataclass(frozen=True)
class PartitionFamily:
    """An eagerly enumerated family of partitions in canonical order."""

    kind: str
    ground_size: int
    eps: SignPattern | None
    members: tuple[Partition, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def enumerate_family(kind: str, k: int, eps: SignPattern | None = None) -> PartitionFamily:
    """Enumerate one of the partition families, in canonical lexicographic order.

    For the eps-decorated pairing kinds (nc2_eps, nch_eps, p2_eps) the ground
    size k equals len(eps); for nc_eps the elements partition {1..k} and eps
    decorates the fattened 2k points, so len(eps) = 2k.
    """
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}, expected one of {FAMILY_KINDS}")
    needs_eps = kind.endswith("_eps")
    if needs_eps and eps is None:
        raise ValueError(f"family kind {kind!r} requires a sign pattern")
    if not needs_eps and eps is not None:
        raise ValueError(f"family kind {kind!r} takes no sign pattern")
    if needs_eps:
        expected, rule = (2 * k, "2k") if kind == "nc_eps" else (k, "k")
        if len(eps) != expected:
            raise ValueError(f"{kind} needs len(eps) == {rule}, got {len(eps)} != {expected}")
    if k < 0:
        raise ValueError("partition ground size must be nonnegative")
    return PartitionFamily(kind, k, eps, _family_members(kind, k, eps))


@lru_cache(maxsize=None)
def _family_members(kind: str, k: int, eps: SignPattern | None) -> tuple[Partition, ...]:
    if kind == "all":
        return _all_partitions(k)
    if kind == "nc":
        return _nc_partitions(k)
    if kind == "nc2":
        return tuple(p for p in _pairings(k) if p.is_noncrossing())
    if kind == "nc2_eps":
        nc2 = _family_members("nc2", k, None)
        return tuple(p for p in nc2 if all(_eps_pair_ok(eps, b) for b in p.blocks))
    if kind == "p2_eps":
        return tuple(p for p in _pairings(k) if all(_eps_pair_ok(eps, b) for b in p.blocks))
    if kind == "nch_eps":
        return _nc_partitions(k, eps)
    # nc_eps
    nc = _family_members("nc", k, None)
    return tuple(p for p in nc if all(_eps_pair_ok(eps, b) for b in fatten(p).blocks))


# ---------------------------------------------------------------------------
# Moebius function of NC(k)


def _signed_catalan(block_size: int) -> int:
    return (-1) ** (block_size - 1) * catalan(block_size - 1)


@lru_cache(maxsize=None)
def _mobius_to_one(tau: Partition) -> int:
    """mu(tau, 1_k) on NC(k), via the Kreweras complement product formula."""
    return math.prod(_signed_catalan(len(b)) for b in kreweras(tau).blocks)


def mobius(s: Partition, p: Partition) -> int:
    """Moebius function of the noncrossing lattice; 0 unless s <= p.

    Computed multiplicatively: the interval [s, p] factors over the blocks of
    p, and mu(tau, 1) is a signed Catalan product over the Kreweras complement
    of tau.  The definitional chain recursion is qhaar.oracles.mobius_recursive,
    and the test suite checks the two against each other.

    >>> mobius(Partition.singletons(3), Partition.full(3))
    2
    """
    if s.size != p.size:
        raise ValueError("ground sizes differ")
    if not (s.is_noncrossing() and p.is_noncrossing()):
        raise ValueError("mobius is defined on the noncrossing lattice")
    if not leq(s, p):
        return 0
    return math.prod(_mobius_to_one(restrict(s, block)) for block in p.blocks)


def mobius_full(s: Partition, p: Partition) -> int:
    """Moebius function of the full partition lattice P(k); 0 unless s <= p.

    The interval [s, p] is a product of full partition lattices, one per
    block of p, on the blocks of s inside it; mu(0_j, 1_j) = (-1)^(j-1) (j-1)!.

    >>> mobius_full(Partition.singletons(4), Partition.full(4))
    -6
    """
    if not leq(s, p):
        return 0
    idx = p.block_index()
    inside: dict[int, int] = {}
    for block in s.blocks:
        inside[idx[block[0]]] = inside.get(idx[block[0]], 0) + 1
    return math.prod((-1) ** (j - 1) * math.factorial(j - 1) for j in inside.values())
