"""Command-line front end.

Subcommands: partitions (enumerate partition families), weingarten (exact
Gram and Weingarten tables), moment (Haar-state moments of entry words),
freeness (scenario convergence reports), counterexample (the two-flavor
matrix-unit word), and selftest (fast invariant suite).  Output is JSON or
CSV, written to --out or standard output; exact scalars are emitted as
strings.  Exit codes: 0 success, 1 verdict failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .exactalg import GaussianRational, RationalFunction, laurent_at_infinity
from .freeness import (
    CROSSING_PAIRING,
    MAX_N,
    counterexample,
    crossing_pairing_present,
    lhs_exact,
    limit_formula,
    load_scenario,
    report_to_json,
    MixedWord,
)
from .opvalued import (
    BMatrix,
    DenseAlgebra,
    MatrixUnitAlgebra,
    expectation,
    functional_e,
)
from .partitions import (
    Partition,
    SignPattern,
    catalan,
    enumerate_family,
    kreweras,
)
from .weingarten import (
    FLAVORS,
    EntryWord,
    build_table,
    table_to_json,
    word_moment,
)


class UsageError(Exception):
    """A bad invocation; the message names the offending parameter."""


def _parse_eps(text: str) -> SignPattern:
    try:
        return SignPattern.from_text(text)
    except ValueError as exc:
        raise UsageError(f"--eps: {exc}") from exc


def _check_m(args, eps: SignPattern) -> None:
    if args.m is not None and 2 * args.m != len(eps):
        raise UsageError("--m: inconsistent with --eps; pairings need len(eps) = 2m")


def _require_flavor(flavor: str) -> str:
    if flavor not in FLAVORS:
        raise UsageError(f"--flavor: must be one of {', '.join(FLAVORS)}")
    return flavor


def _n_range(args, default_lo: int, default_hi: int) -> range:
    lo = args.n_min if args.n_min is not None else default_lo
    hi = args.n_max if args.n_max is not None else default_hi
    if lo < 2:
        raise UsageError("--n-min: sizes start at 2")
    if hi < lo and args.n_max is None:
        raise UsageError(f"--n-min: must be at most {hi}, the default --n-max")
    if hi < lo:
        raise UsageError("--n-max: must be at least --n-min")
    if hi > MAX_N:
        raise UsageError(f"--n-max: capped at {MAX_N} to keep exact evaluation tractable")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (parameters, results, verdicts, csv_rows),
# the CSV rows header first


def _cmd_partitions(args):
    if args.eps is not None:
        eps = _parse_eps(args.eps)
        flavor = _require_flavor(args.flavor)
        _check_m(args, eps)
        params = {"flavor": flavor, "eps": str(eps)}
        flag, kind, size = "--eps", FLAVORS[flavor].pairings, len(eps)
    else:
        if args.m is None:
            raise UsageError("--m: required when --eps is not given")
        params = {"m": args.m}
        eps, flag, kind, size = None, "--m", "nc", args.m
    try:
        family = enumerate_family(kind, size, eps)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc
    members = [str(p) for p in family.members]
    results = {"kind": kind, "size": size, "count": len(members), "members": members}
    rows = [["index", "partition"], *enumerate(members)]
    return params, results, {}, rows


def _cmd_weingarten(args):
    if args.eps is None:
        raise UsageError("--eps: required")
    eps = _parse_eps(args.eps)
    flavor = _require_flavor(args.flavor)
    try:
        table = build_table(flavor, eps)
    except ValueError as exc:
        raise UsageError(f"--eps: {exc}") from exc
    params = {"flavor": flavor, "eps": str(eps)}
    rows = [["pi", "sigma", "gram", "wg"]]
    for a, p in enumerate(table.family):
        for b, s in enumerate(table.family):
            rows.append([p, s, table.gram.entry(a, b), table.wg.entry(a, b)])
    return params, table_to_json(table), {}, rows


def _cmd_moment(args):
    flavor = _require_flavor(args.flavor)
    if args.eps is not None:
        eps = _parse_eps(args.eps)
        _check_m(args, eps)
    elif args.m is not None:
        if args.m < 1:
            raise UsageError("--m: must be positive")
        cap = FLAVORS[flavor].cap
        if 2 * args.m > cap:
            raise UsageError(
                f"--m: {flavor} tables support at most {cap} letters (m <= {cap // 2}), "
                f"got {args.m}"
            )
        eps = SignPattern.alternating(2 * args.m)
    else:
        raise UsageError("--eps: required (or give --m for the alternating pattern)")
    try:
        build_table(flavor, eps)
    except ValueError as exc:
        raise UsageError(f"--eps: {exc}") from exc
    f = word_moment(EntryWord.of(*((1, 1, s) for s in eps.signs)), flavor)
    params = {"flavor": flavor, "eps": str(eps)}
    results = {"flavor": flavor, "pattern": str(eps), "moment": str(f)}
    rows = [["moment"], [f]]
    if args.n_min is not None or args.n_max is not None:
        values = {str(n): str(f.evaluate(n)) for n in _n_range(args, 2, 8)}
        results["values"] = values
        rows = [["n", "value"], *values.items()]
    return params, results, {}, rows


def _cmd_freeness(args):
    if args.scenario is None:
        raise UsageError("--scenario: required")
    try:
        scenario = load_scenario(args.scenario)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"--scenario: {exc}") from exc
    n_range = scenario.n_range
    if args.n_min is not None or args.n_max is not None:
        n_range = _n_range(args, scenario.n_range[0], scenario.n_range[-1])
    try:
        report = scenario.report(n_range=n_range)
    except ZeroDivisionError as exc:
        # poles lie at the small end of the range, set by --n-min only if given
        where = "--n-min" if args.n_min is not None else "--scenario: n_range"
        raise UsageError(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"--scenario: {exc}") from exc
    params = {
        "scenario": str(args.scenario),
        "n_min": min(n_range),
        "n_max": max(n_range),
    }
    results = report_to_json(report)
    results["name"] = scenario.name
    results["flavor"] = scenario.flavor
    verdicts = {key: results[key] for key in ("slope_ok", "n2_bounded", "verdict")}
    rows = [["N", "delta", "N2_delta"]]
    rows.extend([r.n, r.delta, r.n2_delta] for r in report.rows)
    return params, results, verdicts, rows


def _cmd_counterexample(args):
    flavor = _require_flavor(args.flavor)
    rng = _n_range(args, 4, 8)
    crossing = crossing_pairing_present(flavor)
    rows = []
    ok = True
    for n in rng:
        try:
            value = counterexample(n, flavor)
        except ZeroDivisionError as exc:
            raise UsageError(f"--n-min: {exc}") from exc
        alg = MatrixUnitAlgebra(n)
        norm = alg.norm_float(value)
        dist = alg.norm_float(value - alg.one())
        bound = 2.0 / n
        # the crossing pairing keeps the word at one(); without it the word decays
        row_ok = (dist <= bound) if crossing else (norm <= bound)
        ok = ok and row_ok
        rows.append(
            {"n": n, "norm": norm, "distance_from_one": dist, "within_bound": row_ok}
        )
    results = {
        "word": "(U A U* B)^3 over commuting matrix-unit systems",
        "rows": rows,
        "crossing_pairing": str(CROSSING_PAIRING),
        "crossing_in_family": crossing,
    }
    params = {"flavor": flavor, "n_min": min(rng), "n_max": max(rng)}
    verdicts = {"within_bound": ok}
    csv_rows = [["N", "norm", "distance_from_one"]]
    csv_rows.extend([r["n"], r["norm"], r["distance_from_one"]] for r in rows)
    return params, results, verdicts, csv_rows


def _selftest_checks():
    import random

    def partitions_counts():
        if len(enumerate_family("nc", 4).members) != catalan(4):
            return False
        eps = SignPattern.alternating(6)
        return len(enumerate_family("nc2_eps", 6, eps).members) == catalan(3)

    def kreweras_block_count():
        for p in enumerate_family("nc", 4).members:
            if len(p.blocks) + len(kreweras(p).blocks) != 5:
                return False
        return True

    def laurent_coefficients():
        f = RationalFunction((1, 0, 1), (0, -1, 0, 1))
        exp = laurent_at_infinity(f, 4)
        return (
            exp.leading_exponent == -1
            and exp.abs_coefficient(-1) == 1
            and exp.abs_coefficient(-3) == 2
        )

    def weingarten_m2_closed_form():
        table = build_table("quantum", SignPattern.from_text("1*1*"))
        p0, p1 = table.family
        return (
            str(table.wg_entry(p0, p0)) == "1/(n^2 - 1)"
            and str(table.wg_entry(p0, p1)) == "-1/(n^3 - n)"
        )

    def gram_wg_inverse():
        for flavor in FLAVORS:
            table = build_table(flavor, SignPattern.from_text("1*1*"))
            size = len(table.family)
            for a in range(size):
                for b in range(size):
                    acc = RationalFunction.zero()
                    for t in range(size):
                        acc = acc + table.gram.entry(a, t) * table.wg.entry(t, b)
                    want = RationalFunction.from_int(1 if a == b else 0)
                    if acc != want:
                        return False
        return True

    dense = DenseAlgebra(2)

    def cell(rng, imag=True):
        return dense.element(
            [
                [
                    GaussianRational(
                        Fraction(rng.randint(-2, 2)),
                        Fraction(rng.randint(-1, 1) if imag else 0),
                    )
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
        )

    def mat(rng, imag=True):
        return BMatrix(dense, [[cell(rng, imag) for _ in range(2)] for _ in range(2)])

    def expectation_module_map():
        rng = random.Random(3)
        a = mat(rng)
        b = cell(rng)
        return expectation(a.left_mul(b)) == b * expectation(a)

    def functional_pair_is_product_expectation():
        rng = random.Random(4)
        a, b = mat(rng), mat(rng)
        pair = Partition.from_text("{{1,2}}")
        return functional_e(pair, [a, b]) == expectation(a @ b)

    def rank_one_moment_identity():
        rng = random.Random(5)
        a, b = mat(rng, imag=False), mat(rng, imag=False)
        want = expectation(a) * expectation(b)
        for flavor in FLAVORS:
            word = MixedWord.rotated(flavor, [a], [b])
            if lhs_exact(word, 2) != want:
                return False
            if limit_formula(word) != want:
                return False
        return True

    def counterexample_dichotomy():
        alg = MatrixUnitAlgebra(3)
        if counterexample(3, "classical") != alg.one():
            return False
        if alg.norm_float(counterexample(3, "quantum")) > 2.0 / 3.0:
            return False
        return crossing_pairing_present("classical") and not crossing_pairing_present(
            "quantum"
        )

    return [
        ("partitions.family_counts", partitions_counts),
        ("partitions.kreweras_block_count", kreweras_block_count),
        ("exactalg.laurent_coefficients", laurent_coefficients),
        ("weingarten.m2_closed_form", weingarten_m2_closed_form),
        ("weingarten.gram_wg_inverse", gram_wg_inverse),
        ("opvalued.expectation_module_map", expectation_module_map),
        ("opvalued.functional_pair", functional_pair_is_product_expectation),
        ("freeness.rank_one_identity", rank_one_moment_identity),
        ("freeness.counterexample_dichotomy", counterexample_dichotomy),
    ]


def _cmd_selftest(args):
    checks = []
    all_ok = True
    for name, fn in _selftest_checks():
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append({"name": name, "ok": ok})
        all_ok = all_ok and ok
    results = {"checks": checks}
    verdicts = {"all_passed": all_ok}
    rows = [["check", "ok"]]
    rows.extend([row["name"], str(row["ok"]).lower()] for row in checks)
    return {}, results, verdicts, rows


_HANDLERS = {
    "partitions": _cmd_partitions,
    "weingarten": _cmd_weingarten,
    "moment": _cmd_moment,
    "freeness": _cmd_freeness,
    "counterexample": _cmd_counterexample,
    "selftest": _cmd_selftest,
}


def _add_common(sub, *, eps=False, m=False, flavor=False, scenario=False,
                n_range=False):
    if flavor:
        sub.add_argument("--flavor", default="quantum", help="haar family: quantum or classical")
    if eps:
        sub.add_argument("--eps", help="sign pattern string over characters 1 and *")
    if m:
        sub.add_argument("--m", type=int, help="half length: the word has 2m letters")
    if scenario:
        sub.add_argument("--scenario", help="path to a scenario JSON file")
    if n_range:
        sub.add_argument("--n-min", type=int, dest="n_min", help="smallest matrix size")
        sub.add_argument("--n-max", type=int, dest="n_max", help="largest matrix size")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="output format")
    sub.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhaar",
        description="Exact Weingarten calculus and operator-valued freeness checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "partitions",
        help="enumerate noncrossing partitions or admissible pairing families",
        description="Enumerate the noncrossing partitions of {1..m}, or with "
        "--eps the admissible pairing family of the chosen flavor.",
    )
    _add_common(p, eps=True, m=True, flavor=True)

    p = subs.add_parser(
        "weingarten",
        help="exact Gram and Weingarten tables for a sign pattern",
        description="Build the exact Gram matrix and its inverse over the "
        "admissible pairing family of a sign pattern.",
    )
    _add_common(p, eps=True, flavor=True)

    p = subs.add_parser(
        "moment",
        help="Haar-state moment of the diagonal entry word of a sign pattern",
        description="The Haar-state value of the entry word u_11^(eps_1) "
        "u_11^(eps_2) ... as an exact rational function of the size, with "
        "optional evaluation over a size range.",
    )
    _add_common(p, eps=True, m=True, flavor=True, n_range=True)

    p = subs.add_parser(
        "freeness",
        help="convergence report for a scenario word family",
        description="Evaluate a scenario's word exactly at every size in the "
        "range, compare against the limit formula, and report the decay "
        "diagnostics; exits 1 when the decay criterion fails.",
    )
    _add_common(p, scenario=True, n_range=True)

    p = subs.add_parser(
        "counterexample",
        help="the two-flavor matrix-unit word separating the flavors",
        description="Evaluate the length-six word over two commuting "
        "matrix-unit systems: classical values stay at the identity while "
        "quantum values decay to zero; exits 1 when the 2/N bound fails.",
    )
    _add_common(p, flavor=True, n_range=True)

    p = subs.add_parser(
        "selftest",
        help="fast invariant suite across every module",
        description="Run one fast invariant per core capability and report "
        "pass or fail for each; exits 1 when any check fails.",
    )
    _add_common(p)

    return parser


def _emit(args, payload: dict, csv_rows: list) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = _HANDLERS[args.command]
    try:
        params, results, verdicts, csv_rows = handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "command": args.command,
        "parameters": params,
        "results": results,
        "verdicts": verdicts,
    }
    try:
        _emit(args, payload, csv_rows)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    if verdicts and not all(verdicts.values()):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
