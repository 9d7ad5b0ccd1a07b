"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/collect.py --trace-seeds 2 --out bench/baseline.json
    python3 bench/collect.py --seeds 11-20

Runs ``bench/run.py`` once per (workload, seed), one at a time, for every
workload at ``BENCHMARK.json``'s ``run_seconds``, and prints for every
metric the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median.
``--trace-seeds K`` also makes traced runs on the first K seeds.  ``--out``
writes the summary together with the environment (commit, Python, numpy,
CPU count and model, and the informational ``src/profitmax`` line count),
the workloads and the layer map below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

# (layer, end-to-end metric it moves, on which workloads, its per-layer metrics)
LAYERS = (
    ("graph", "setup_s", "mainly costly-sampling; near zero elsewhere",
     ("graph.load_s", "graph.weights_s", "graph.edges", "graph.edges_per_s")),
    ("rrsets sampling", "select_s",
     "costly-sampling most, lattice-select less, baseline-sweep least",
     ("rrsets.sample_s", "rrsets.sets", "rrsets.members", "rrsets.mean_size",
      "rrsets.max_size", "rrsets.members_per_s", "rrsets.bytes", "rrsets.index_s")),
    ("rrsets queries", "select_s", "lattice-select and baseline-sweep; barely costly-sampling",
     ("rrsets.queries", "rrsets.query_s", "rrsets.queries.value", "rrsets.queries.marginal",
      "rrsets.queries.marginal_many", "rrsets.queries.marginal_vs_rest",
      "rrsets.queries.chain_increments")),
    ("prune", "select_s", "costly-sampling; prune.free_nodes sets the selectors' work elsewhere",
     ("prune.s", "prune.iterations", "prune.must_include", "prune.free_nodes")),
    ("optimize", "select_s",
     "greedy on lattice-select, k_sweep on baseline-sweep; near zero on costly-sampling",
     ("optimize.greedy_s", "optimize.greedy_rounds", "optimize.modmod_s",
      "optimize.modmod_rounds", "optimize.sweep_s", "optimize.sweep_rounds", "optimize.seeds")),
    ("certify", "certify_s",
     "validation sampling on costly-sampling; mu_bound more on the other two",
     ("certify.s", "certify.sample_s", "certify.mu_s", "certify.members")),
    ("benchmark", "total_s", "every workload", ("trace.overhead_s", "trace.coverage")),
)


def seed_list(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_benchmark(workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(median) if median else None,
                     "values": values}
    return out


def environment():
    import numpy
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    src = sorted((ROOT / "src" / "profitmax").glob("*.py"))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    return {
        "commit": commit or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_loc": sum(len(p.read_text().splitlines()) for p in src),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace-seeds", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import pipeline
    import run as bench

    summary = {}
    for name in pipeline.WORKLOADS:
        runs = {0: [], 1: []}
        for trace, seeds in ((0, args.seeds), (1, args.seeds[:args.trace_seeds])):
            for seed in seeds:
                result = run_benchmark(name, seed, trace)
                if not result["correct"] or result["failed"]:
                    print(f"{name} seed {seed}: outputs failed their checks", file=sys.stderr)
                    return 1
                runs[trace].append(result)
        summary[name] = {"seeds": args.seeds, "end_to_end": summarise(runs[0])}
        if runs[1]:
            summary[name]["per_layer"] = summarise(runs[1])
        print(f"{name} ({len(args.seeds)} seeds, {RUN_SECONDS} s each)")
        for part in ("end_to_end", "per_layer"):
            for metric, s in summary[name].get(part, {}).items():
                spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {metric:34s} median {s['median']:<14.6g} {s['unit']:<14s} "
                      f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread}")

    if args.out:
        doc = {
            "environment": environment(),
            "run_seconds": RUN_SECONDS,
            "graphs_per_run": bench.GRAPHS_PER_RUN,
            "workloads": {w.name: {k: v for k, v in vars(w).items() if k != "name"}
                          for w in pipeline.WORKLOADS.values()},
            "layers": [{"layer": layer, "moves": moves, "workloads": where,
                        "metrics": list(metrics)} for layer, moves, where, metrics in LAYERS],
            "results": summary,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
