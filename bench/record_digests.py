"""Record the expected digest of every operation any seed can draw.

    python3 bench/record_digests.py

Runs every operation of the full and smoke input sets once, with no timing,
checks the independent oracle routes, and rewrites digests.json.  Run it only
on a commit whose outputs are trusted; the benchmark compares later commits
against what it writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import workloads as w  # noqa: E402
from run import git_commit  # noqa: E402


def all_ops() -> dict:
    return {
        "mu_counterexample": w.counterexample_ops(range(4, 8)),
        "dense_freeness": w.freeness_ops(8) + w.freeness_ops(3),
        "free_product": w.table_ops(8, 6) + w.west_ops(8)
        + w.word_ops(range(len(w.word_pool()))),
        "infinitesimal": w.infinitesimal(0, False),
    }


def main() -> int:
    out = {}
    for workload, ops in all_ops().items():
        digests = {}
        for op in ops:
            result = op.run()
            if op.oracle is not None and not op.oracle(result):
                raise SystemExit(f"{workload} {op.key}: oracle routes disagree")
            digests[op.key] = gate.digest(op.exact(result))
        out[workload] = dict(sorted(digests.items()))
        print(f"{workload}: {len(digests)} digests", file=sys.stderr)
    data = {"commit": git_commit(), "workloads": out}
    gate.DIGEST_FILE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
