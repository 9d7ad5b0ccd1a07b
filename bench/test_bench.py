"""Smoke test of the benchmark itself, on tiny versions of every workload.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

assert bench.load_library() is not None
import pipeline  # noqa: E402
from profitmax.rrsets import ProfitEstimator  # noqa: E402

TINY = {name: dataclasses.replace(w, n=200, m=w.m * 200 // w.n, theta=2000,
                                  validation_theta=2000)
        for name, w in pipeline.WORKLOADS.items()}


def run_tiny(capsys, workload, seed=3, trace=0):
    code = bench.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                       "--trace", str(trace)], workloads=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(pipeline.WORKLOADS))
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    lines, result = run_tiny(capsys, workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(pipeline.WORKLOADS)
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.95
    else:
        assert f"failed_share 0.0 {bench.FAILED_SHARE_UNIT}" in lines


def test_tracing_restores_the_library(capsys):
    originals = {name: ProfitEstimator.__dict__[name] for name in ("build", "value", "marginal")}
    mu_bound = sys.modules["profitmax.certify"].mu_bound
    run_tiny(capsys, "lattice-select", trace=1)
    assert {name: ProfitEstimator.__dict__[name] for name in originals} == originals
    assert sys.modules["profitmax.certify"].mu_bound is mu_bound


def test_outputs_repeat_at_a_seed_and_differ_across_seeds(capsys):
    def digest(seed):
        lines, result = run_tiny(capsys, "baseline-sweep", seed=seed)
        assert result["correct"] is True
        return next(line for line in lines if line.startswith("output_hash "))

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lattice-select",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
