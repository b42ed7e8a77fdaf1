"""Tests of the benchmark itself, on its smoke inputs (a few seconds each).

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.fixture(scope="module")
def untraced():
    return run_bench("--workload", "all", "--smoke", "--trace", "0", "--seed", "5")


@pytest.fixture(scope="module")
def traced():
    return run_bench("--workload", "all", "--smoke", "--trace", "1", "--seed", "5")


def test_end_to_end_metrics_are_reported_and_correct(untraced):
    proc, result = untraced
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in ("wall_s", "setup_s", "peak_rss_mb", "error_rate"):
        assert name in proc.stdout


def test_per_layer_metrics_and_self_times(traced):
    proc, result = traced
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for w in WORKLOADS:
        m = {k.split(".", 1)[1]: v["value"] for k, v in result["metrics"].items()
             if k.startswith(w + ".")}
        layers = sum(v for k, v in m.items() if k.endswith(".self_s") and k != "bench.self_s")
        assert layers + m["bench.self_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert m["bench.self_s"] < 0.05 * m["trace.wall_s"]
        assert m["freeness.lhs_exact.calls"] > 0
    assert result["metrics"]["dense_freeness.cli.main.calls"]["value"] == 2
    assert result["metrics"]["free_product.weingarten.build_table.misses"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_output_fails_the_gate(workload):
    proc, result = run_bench("--workload", workload, "--smoke", "--perturb")
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] > 1


def test_perturb_changes_the_digest():
    payload = [["0011", Fraction(1, 3), Fraction(0)], True]
    assert gate.digest(gate.perturb(payload)) != gate.digest(payload)
    assert gate.perturb([True, [False]]) == [False, [False]]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = run_bench("--workload", "free_product", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_inputs_follow_the_seed():
    import workloads

    def keys(seed):
        return [op.key for op in workloads.free_product(seed, False)]

    assert keys(3) == keys(3)
    assert keys(3) != keys(4)
    words = [k for k in keys(3) if k.startswith("word/")]
    assert len(words) == len(set(words)) == 60
    assert len(workloads.word_pool()) == 180
    expected = gate.load_expected("free_product")
    assert all(k in expected for k in keys(3))
