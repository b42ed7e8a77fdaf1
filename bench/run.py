"""Benchmark of qhaar's exact evaluations, end to end and per layer.

    python3 bench/run.py --workload mu_counterexample --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --smoke --trace 1      # a few seconds

Workloads: mu_counterexample, dense_freeness, free_product, infinitesimal
(see workloads.py and README.md).  Each pass of a workload runs in a fresh
interpreter (one_pass.py), so the Weingarten-table and weight caches start
cold, as in every qhaar CLI invocation.  Passes run one after another, one
client, no threads.  They repeat until the next one would end after
--seconds, with at least two; --trace 1 alternates untraced and traced
passes.

End-to-end metrics (--trace 0), medians over the passes:
  wall_s       wall time of the timed phase of one pass
  setup_s      process start to inputs ready: importing qhaar, parsing the
               scenarios, drawing the seeded inputs
  peak_rss_mb  peak resident memory of the pass's process
error_rate (failed over attempted operations) is printed beside them and
is the 'failed' and 'attempted' of the result line.  --trace 1 reports the
per-layer metrics of tracing.py instead, and trace.overhead_s, the traced
minus the untraced wall_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit codes: 0 every output correct, 1 some
output wrong (the result line is still printed), 2 the sources are missing
or the arguments are bad, 3 a pass crashed or ran out of time.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("mu_counterexample", "dense_freeness", "free_product", "infinitesimal")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# a run must end within 180 s; no pass starts that would end after this
TIME_LIMIT_S = 160.0
# extra interpreter starts per run that only set up, for a steadier setup_s
SETUP_REPEATS = 5


class PassFailed(RuntimeError):
    pass


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _run_pass(workload, seed, traced, smoke, perturb, index, timeout,
              setup_only=False) -> dict:
    cmd = [sys.executable, str(BENCH / "one_pass.py"),
           "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--trace", "--spans-out",
                str(OUT / f"{workload}-seed{seed}-pass{index}.spans.json")]
    if smoke:
        cmd.append("--smoke")
    if perturb:
        cmd.append("--perturb")
    # fixed string hashing, so every pass iterates its sets in the same order
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload}: pass {index} ran out of time") from exc
    elapsed = time.monotonic() - started
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"{workload}: pass {index} exited with code {proc.returncode}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    raw_setup = data["ready"] - started
    data.update(traced=traced, elapsed=elapsed, raw_setup_s=raw_setup,
                setup_s=raw_setup * data["setup_speed"])
    return data


def run_workload(workload, seed, seconds, trace, smoke, perturb) -> dict:
    """Set up SETUP_REPEATS times, then run passes until the next would end
    after `seconds`; aggregate them."""
    kinds = itertools.cycle((False, True)) if trace else itertools.repeat(False)
    minimum = 2 if trace or not smoke else 1
    start = time.monotonic()
    setups = [
        _run_pass(workload, seed, False, smoke, False, "setup", TIME_LIMIT_S / 2, setup_only=True)
        for _ in range(SETUP_REPEATS)
    ]
    passes = []
    while True:
        elapsed = time.monotonic() - start
        passes.append(_run_pass(workload, seed, next(kinds), smoke, perturb,
                                len(passes), TIME_LIMIT_S - elapsed))
        elapsed = time.monotonic() - start
        estimate = max(p["elapsed"] for p in passes[-2:])
        if elapsed + estimate > TIME_LIMIT_S:
            break
        if len(passes) >= minimum and (smoke or elapsed + estimate > seconds):
            break

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or (trace and not traced):
        raise PassFailed(f"{workload}: no time left for both kinds of pass")
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if not op["ok"])
    samples = {
        "wall_s": [p["wall_s"] for p in plain],
        "setup_s": [p["setup_s"] for p in passes + setups],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "raw_wall_s": [p["raw_wall_s"] for p in plain],
        "raw_setup_s": [p["raw_setup_s"] for p in passes + setups],
        "speed": [p["speed"] for p in plain],
    }
    if trace:
        names = list(traced[0]["layer"])
        for name in names:
            samples[name] = [p["layer"][name] for p in traced]
        samples["trace.overhead_s"] = [
            statistics.median(samples["trace.wall_s"]) - statistics.median(samples["wall_s"])
        ]
        units = {name: tracing.unit(name) for name in names + ["trace.overhead_s"]}
    else:
        units = END_TO_END
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in units.items()
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "numpy": passes[0]["numpy"],
        "passes": passes,
    }


def _describe(res: dict) -> list[str]:
    n_plain = len(res["samples"]["wall_s"])
    lines = [f"{res['workload']}: seed {res['seed']}, trace {res['trace']}, "
             f"{len(res['passes'])} passes of {len(res['passes'][0]['ops'])} operations"]
    for name, m in res["metrics"].items():
        vals = res["samples"][name]
        spread = f"  [min {min(vals):.6g}, max {max(vals):.6g}]" if len(vals) > 1 else ""
        lines.append(f"  {name:40s} {m['value']:14.6f} {m['unit']:6s} "
                     f"median of {len(vals)}{spread}")
    if res["trace"]:
        m = res["metrics"]
        layers = sum(v["value"] for k, v in m.items()
                     if k.endswith(".self_s") and not k.startswith("bench."))
        lines.append(f"  layers' self time {layers:.6f} s + bench.self_s "
                     f"{m['bench.self_s']['value']:.6f} s against traced wall "
                     f"{m['trace.wall_s']['value']:.6f} s; untraced wall "
                     f"{statistics.median(res['samples']['wall_s']):.6f} s "
                     f"(median of {n_plain})")
    med = {k: statistics.median(res["samples"][k]) for k in ("raw_wall_s", "raw_setup_s", "speed")}
    lines.append(f"  unscaled: wall_s {med['raw_wall_s']:.6f} s, setup_s {med['raw_setup_s']:.6f} s; "
                 f"speed factor {med['speed']:.4f} (medians)")
    rate = res["failed"] / res["attempted"]
    lines.append(f"  {'error_rate':40s} {rate:14.6f} {'ratio':6s} "
                 f"{res['failed']} failed of {res['attempted']} operations")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs, one pass per kind: a few seconds")
    parser.add_argument("--perturb", action="store_true",
                        help="perturb one exact output per pass; the gate must fail")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qhaar" / "__init__.py").is_file() \
            or not (ROOT / "scenarios").is_dir():
        print(f"error: no qhaar sources under {ROOT}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": git_commit(),
        "loadavg_1m_start": os.getloadavg()[0],
    }
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            res = run_workload(workload, args.seed, args.seconds, args.trace,
                               args.smoke, args.perturb)
            results.append(res)
            print("\n".join(_describe(res)), flush=True)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    env["loadavg_1m_end"] = os.getloadavg()[0]
    print("env " + json.dumps(env))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    (OUT / f"{tag}.json").write_text(json.dumps({"env": env, "results": results}, indent=1))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
