"""One pass of one workload in a fresh interpreter; run.py starts it.

Set-up (importing qhaar, parsing scenarios, drawing the seeded inputs) ends
when the inputs are ready; the pass reports that moment on the monotonic
clock, which run.py compares with the moment it started this process.  Then
the timed phase runs every operation back to back, and the correctness gate
checks each exact output against the recorded digests.  A speed probe
(speed.py) samples the machine's speed during set-up and the timed phase;
the pass reports raw times and the factors that rescale them.  The last
line of standard output is one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _import_qhaar():
    sys.path.insert(0, str(SRC))
    import qhaar

    if Path(qhaar.__file__).resolve().parent != SRC / "qhaar":
        raise SystemExit(f"qhaar was imported from {qhaar.__file__}, not from {SRC}")


def _timed_phase(ops) -> list:
    clock = time.perf_counter
    results = []
    for op in ops:
        start = clock()
        try:
            results.append((op.run(), None, clock() - start))
        except Exception:
            results.append((None, traceback.format_exc(), clock() - start))
    return results


def _gate(workload: str, ops, results, perturb: bool) -> list[dict]:
    import gate

    expected = gate.load_expected(workload)
    report = []
    for i, (op, (result, error, seconds)) in enumerate(zip(ops, results)):
        ok = False
        if error is None:
            try:
                payload = op.exact(result)
                if perturb and i == 0:
                    payload = gate.perturb(payload)
                ok = expected.get(op.key) == gate.digest(payload)
                if not ok:
                    error = "exact output differs from the recorded digest"
                elif op.oracle is not None and not op.oracle(result):
                    ok, error = False, "independent oracle route disagrees"
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"{workload} {op.key}: {error}", file=sys.stderr)
        report.append({"key": op.key, "seconds": seconds, "ok": ok})
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop when the inputs are ready; only set-up is measured")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    setup_start = time.perf_counter()
    _import_qhaar()
    import numpy
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    ready = time.monotonic()
    timed_start = time.perf_counter()
    if args.setup_only:
        probe.stop()
        setup_factor, setup_samples = probe.factor(setup_start, timed_start)
        print(json.dumps({"ready": ready, "setup_speed": setup_factor,
                          "setup_speed_samples": setup_samples}))
        return 0

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            results, wall = tracer.run_root(lambda: _timed_phase(ops))
        finally:
            tracer.uninstall()
    else:
        results = _timed_phase(ops)
        wall = time.perf_counter() - timed_start
    timed_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.stop()
    setup_factor, setup_samples = probe.factor(setup_start, timed_start)
    factor, samples = probe.factor(timed_start, timed_end)

    layer = None
    if args.trace:
        layer = {k: v * factor if tracing.unit(k) == "s" else v
                 for k, v in tracer.metrics().items()}
        if args.spans_out is not None:
            tracer.write_spans(args.spans_out)

    report = _gate(args.workload, ops, results, args.perturb)
    print(json.dumps({
        "ready": ready,
        "setup_speed": setup_factor,
        "setup_speed_samples": setup_samples,
        "raw_wall_s": wall,
        "wall_s": wall * factor,
        "speed": factor,
        "speed_samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "ops": report,
        "numpy": numpy.__version__,
        "layer": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
