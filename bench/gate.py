"""Correctness gate: exact payloads of each operation, compared by digest.

Only exact data enters a payload: rational values, matrix-unit kernel-class
profiles, E/E' patterns and verdict booleans.  Float fields (norms, deltas,
slopes) never do, so a change to the norm routine cannot fail the gate while
a change to any exact value always does.

A payload is a nested list of str, int, bool, None and Fraction.  Its digest
is the SHA-256 of a canonical JSON rendering, truncated to 16 hex digits.
The expected digests live in digests.json beside this file; they were
recorded with record_digests.py on the commit named in that file.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"


def q(x) -> Fraction:
    """An exact rational as a Fraction; anything else is refused."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact rational: {type(x).__name__}")
    return Fraction(x)


def gauss(g) -> list:
    """A Gaussian rational as [re, im]."""
    return [q(g.re), q(g.im)]


def dense_payload(x) -> list:
    """A dense coefficient-algebra element as its rows of [re, im] pairs."""
    return [[gauss(v) for v in row] for row in x.rows]


def _kernel_class(quad) -> str:
    """The equality pattern of an index quadruple, e.g. (3, 3, 1, 5) -> '0012'."""
    seen: dict = {}
    return "".join(str(seen.setdefault(v, len(seen))) for v in quad)


def matrix_unit_profile(x) -> list:
    """A matrix-unit element by the coefficient on each index-kernel class.

    The values the benchmark checks are invariant under simultaneous index
    permutations, so each class carries one coefficient.  A non-invariant
    element falls back to its full term list, which still compares exactly.
    """
    coeffs: dict = {}
    counts: dict = {}
    invariant = True
    for quad, v in x.terms.items():
        cls = _kernel_class(quad)
        if cls in coeffs and coeffs[cls] != v:
            invariant = False
            break
        coeffs[cls] = v
        counts[cls] = counts.get(cls, 0) + 1
    if invariant:
        for cls, cnt in counts.items():
            size = 1
            for t in range(len(set(cls))):
                size *= x.n - t
            if cnt != size:
                invariant = False
                break
    if not invariant:
        return ["terms", x.n, [[list(k)] + gauss(v) for k, v in sorted(x.terms.items())]]
    return ["profile", x.n, [[cls] + gauss(coeffs[cls]) for cls in sorted(coeffs)]]


def pattern_payload(p) -> list:
    """A size-independent E or E' pattern: coordinates keyed by their text."""
    return [p.kind, p.dim, sorted([str(k)] + gauss(v) for k, v in p.entries.items())]


def _plain(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    raise TypeError(f"payloads hold exact data only, got {type(obj).__name__}")


def digest(payload) -> str:
    text = json.dumps(_plain(payload), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def perturb(payload):
    """The payload with its first rational raised by one, or, if it holds no
    rational, its first boolean negated; used to show the gate fails."""
    for kind, change in ((Fraction, lambda x: x + 1), (bool, lambda x: not x)):
        hit = []

        def walk(obj):
            if isinstance(obj, list):
                return [walk(v) for v in obj]
            if isinstance(obj, kind) and not hit:
                hit.append(obj)
                return change(obj)
            return obj

        out = walk(payload)
        if hit:
            return out
    raise ValueError("payload holds nothing to perturb")


def load_expected(workload: str) -> dict:
    return json.loads(DIGEST_FILE.read_text())["workloads"][workload]
