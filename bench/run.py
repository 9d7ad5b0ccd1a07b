"""profitmax benchmark: one seeded workload, timed end to end or traced.

    python3 bench/run.py --workload lattice-select --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nothing needs installing.  The workload's edge lists
(``GRAPHS_PER_RUN`` graphs) are generated from ``--seed``, then passes over
them repeat until ``--seconds`` have passed.  A pass runs the whole pipeline
once on each graph; each such run is one operation.  Every operation's
outputs are checked, and every pass over a graph must give the same
``output_hash``.

The machine's speed drifts by tens of percent from minute to minute, so a
fixed reference computation (``reference.py``) is timed before and after
every operation, and the operation's times are scaled to the speed at which
the reference takes ``NOMINAL_S``; the unscaled medians are printed too.

``--trace 0`` reports the end-to-end metrics: stage times as the mean over
the graphs of a pass and the median over passes, the peak RSS the first pass
adds to the process (``ru_maxrss`` after it minus before it, so the
interpreter, numpy and the generated inputs are left out, and the figure does
not depend on how many passes fit), and the mean profit and guarantee of the
certificates.  ``--trace 1`` alternates traced and untraced passes and
reports the per-layer metrics, each summed over the graphs of a pass: self
times (medians over traced passes), exact counts, the tracing overhead and
the share of the total that layer spans cover.  It also writes every span
to ``bench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command exits
with 2, printing no result, when the checkout has no ``src/profitmax``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# independent graphs per run: their mean averages out how much one random
# graph happens to cost and how much profit it allows (on lattice-select,
# profit is a small difference of benefit and cost and varies most)
GRAPHS_PER_RUN = 6

# metric name -> unit, for the end-to-end and the per-layer metrics
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
# printed with the end-to-end metrics but left out of the result line: it is
# zero whenever nothing fails, and the result line carries attempted/failed
FAILED_SHARE_UNIT = "ratio"
# span name -> per-layer self-time metric
SELF_TIME_METRIC = {
    "graph.load": "graph.load_s", "graph.weights": "graph.weights_s",
    "rrsets.sample": "rrsets.sample_s", "rrsets.index": "rrsets.index_s",
    "rrsets.query": "rrsets.query_s", "prune": "prune.s",
    "optimize.greedy": "optimize.greedy_s", "optimize.modmod": "optimize.modmod_s",
    "optimize.sweep": "optimize.sweep_s", "certify": "certify.s",
    "certify.sample": "certify.sample_s", "certify.mu": "certify.mu_s",
}
TIMED_COUNTS = {"graph.edges_per_s": ("graph.edges", "graph.load_s"),
                "rrsets.members_per_s": ("rrsets.members", "rrsets.sample_s")}


@dataclasses.dataclass
class Timing:
    """Stage times of one operation, already multiplied by ``scale``."""

    setup_s: float
    select_s: float
    certify_s: float
    scale: float
    certificate: object

    @property
    def total_s(self) -> float:
        return self.setup_s + self.select_s + self.certify_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_library():
    """Put the checkout's ``src/`` first on the import path; None if absent."""
    src = ROOT / "src"
    if not (src / "profitmax" / "__init__.py").is_file():
        return None
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import profitmax
    if not Path(profitmax.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return profitmax


def rr_stats(est) -> dict:
    colls = [c for c in (est.benefit_rr, est.cost_rr) if c is not None]
    sizes = [len(s) for c in colls for s in c.sets]
    members = sum(sizes)
    return {
        "sets": len(sizes),
        "members": members,
        "mean_size": members / len(sizes),
        "max_size": max(sizes),
        "bytes": sum(a.nbytes for c in colls for a in (*c.sets, *c.index)),
    }


def rebuild_index(tracer, est) -> None:
    """Time ingestion of the sampled sets into a fresh RRCollection."""
    from profitmax.rrsets import RRCollection
    with tracer.span("rrsets.index"):
        for c in (est.benefit_rr, est.cost_rr):
            if c is not None:
                RRCollection(kind=c.kind, node_count=c.node_count,
                             total_weight=c.total_weight, seed=c.seed, sets=c.sets)


def op_sample(tracer, rep, scale) -> dict:
    """Per-layer values of the traced operation ``tracer.run``.

    Times are multiplied by ``scale``; the ``_top_s`` and ``_total_s``
    entries carry what ``trace.coverage`` is computed from.
    """
    run = tracer.run
    values = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    for span, seconds in tracer.self_seconds(run).items():
        values[SELF_TIME_METRIC[span]] = seconds * scale
    values["_top_s"] = tracer.top_level_seconds(run, exclude={"rrsets.index"}) * scale
    values["_total_s"] = rep.total_s * scale
    calls = tracer.query_calls(run)
    values["rrsets.queries"] = sum(calls.values())
    for method, count in calls.items():
        values[f"rrsets.queries.{method}"] = count
    values["graph.edges"] = rep.estimator.graph.edge_count
    for key, value in rr_stats(rep.estimator).items():
        values[f"rrsets.{key}"] = value
    values["certify.members"] = sum(rr_stats(est)["members"] for name, est in tracer.built
                                    if name == "certify.sample")
    lat = rep.lattice
    values["prune.iterations"] = len(lat.iterations) - 1
    values["prune.must_include"] = len(lat.must_include)
    values["prune.free_nodes"] = len(lat.free_nodes)
    rounds = {"greedy": 0, "modmod": 0, "sweep": 0}
    for name, r in rep.results.items():
        if name == "greedy":
            rounds["greedy"] += len(r.trajectory)
        elif name.startswith("modmod"):
            # the trajectory holds the start and every move; the loop also
            # runs one final round that confirms the fixpoint
            rounds["modmod"] += len(r.trajectory)
        else:
            # benefitmax makes k greedy rounds for every swept k; random
            # and highdegree make one selection each
            swept = r.params["swept"]
            rounds["sweep"] += sum(s["k"] for s in swept) if name == "benefitmax" else len(swept)
    for key, count in rounds.items():
        values[f"optimize.{key}_rounds"] = count
    values["optimize.seeds"] = len(rep.best.seeds)
    return values


def pass_sample(ops) -> dict:
    """Sum the operations of one traced pass; sizes and shares are recombined."""
    values = {key: sum(op[key] for op in ops) for key in ops[0]}
    values["rrsets.mean_size"] = values["rrsets.members"] / values["rrsets.sets"]
    values["rrsets.max_size"] = max(op["rrsets.max_size"] for op in ops)
    values["trace.coverage"] = values.pop("_top_s") / values.pop("_total_s")
    return values


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fmt(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def main(argv=None, workloads=None) -> int:
    if load_library() is None:
        print(f"error: no profitmax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import pipeline
    import spans
    from gen import write_edge_list
    from profitmax.rng import derive_seed
    from reference import NOMINAL_S, Reference

    workloads = workloads or pipeline.WORKLOADS
    args = parse_args(argv, workloads)
    w = workloads[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    graphs = []
    start = time.perf_counter()
    for i in range(GRAPHS_PER_RUN):
        graph_seed = derive_seed(args.seed, w.name, i)
        path = OUT_DIR / f"{w.name}-seed{args.seed}-{i}-{os.getpid()}.edges"
        graphs.append((path, graph_seed))
        write_edge_list(path, w.n, w.m, graph_seed, w.active_share)
    gen_s = time.perf_counter() - start

    reference = Reference()
    tracer = spans.Tracer() if args.trace else None
    untraced = spans.NullTracer()
    passes, layer_samples, traced_totals, failures, reference_s = [], [], [], [], []
    hashes = [set() for _ in graphs]
    attempted = n_pass = 0
    rss_before_mb = peak_rss_mb()
    deadline = time.perf_counter() + args.seconds
    try:
        while n_pass < 1 + args.trace or time.perf_counter() < deadline:
            traced = args.trace and n_pass % 2 == 0
            n_pass += 1
            recorder = tracer if traced else untraced
            timings, ops = [], []
            before = reference.seconds()
            for i, (path, graph_seed) in enumerate(graphs):
                attempted += 1
                if traced:
                    tracer.run, tracer.built = attempted, []
                try:
                    with recorder.patched():
                        rep = pipeline.run_once(w, path, graph_seed, recorder)
                    problems = pipeline.check(w, rep)
                except Exception:  # a failed operation is counted, the run goes on
                    traceback.print_exc()
                    problems = ["raised"]
                after = reference.seconds()
                reference_s.append(after)
                scale = NOMINAL_S / ((before + after) / 2)
                before = after
                if problems:
                    failures.append(problems)
                    print(f"pass {n_pass} graph {i} failed: {'; '.join(problems)}",
                          file=sys.stderr)
                    continue
                hashes[i].add(pipeline.output_hash(rep))
                timings.append(Timing(rep.setup_s * scale, rep.select_s * scale,
                                      rep.certify_s * scale, scale, rep.certificate))
                if traced:
                    rebuild_index(tracer, rep.estimator)
                    ops.append(op_sample(tracer, rep, scale))
            if n_pass == 1:
                first_pass_rss_mb = peak_rss_mb()
            if len(timings) < len(graphs):
                continue
            if traced:
                layer_samples.append(pass_sample(ops))
                traced_totals.append(sum(t.total_s for t in timings))
            else:
                passes.append(timings)
    finally:
        for path, _ in graphs:
            path.unlink(missing_ok=True)
    if not passes or (args.trace and not layer_samples):
        print("error: no pass completed without a failure", file=sys.stderr)
        return 1

    notes = []
    if any(len(h) != 1 for h in hashes):
        notes.append("output_hash differs between passes over one graph")
    counts = [{k: v for k, v in s.items() if PER_LAYER[k] == "count"} for s in layer_samples]
    if any(c != counts[0] for c in counts):
        notes.append("per-layer counts differ between traced passes")
    for note in notes:
        print(f"check failed: {note}", file=sys.stderr)
    digest = hashlib.sha256("".join(sorted(h)[0] for h in hashes).encode()).hexdigest()

    print(f"workload {w.name}: seed={args.seed} graphs={GRAPHS_PER_RUN} n={w.n} m={w.m} "
          f"active_share={w.active_share} r={w.r} theta={w.theta} "
          f"validation_theta={w.validation_theta} selectors={','.join(w.selectors)}")
    print(f"generation {gen_s:.4f} s (in no metric); {n_pass} passes, {attempted} operations, "
          f"{'alternating traced and untraced' if args.trace else 'untraced'}")
    print(f"reference computation: median {statistics.median(reference_s):.4f} s over "
          f"{len(reference_s)} timings; times below are scaled to {NOMINAL_S} s")
    print(f"output_hash {digest}")
    for t in passes[0]:
        print(f"certificate {t.certificate.summary_line()}")

    if args.trace:
        # counts repeat exactly (checked above); times are medians
        metrics = {name: layer_samples[0][name] if PER_LAYER[name] == "count"
                   else statistics.median(s[name] for s in layer_samples)
                   for name in layer_samples[0]}
        for name, (count, seconds) in TIMED_COUNTS.items():
            metrics[name] = metrics[count] / metrics[seconds]
        untraced_totals = [sum(t.total_s for t in timings) for timings in passes]
        metrics["trace.overhead_s"] = (statistics.median(traced_totals)
                                       - statistics.median(untraced_totals))
        metrics = {name: metrics[name] for name in PER_LAYER}
        units = PER_LAYER
        with open(OUT_DIR / f"trace-{w.name}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": w.name, "seed": args.seed, "output_hash": digest,
                       "samples": layer_samples, "metrics": metrics,
                       **tracer.to_json_dict()}, fh)
    else:
        metrics = {}
        for name in ("setup_s", "select_s", "certify_s", "total_s"):
            times = [statistics.fmean(getattr(t, name) for t in timings) for timings in passes]
            raw = [statistics.fmean(getattr(t, name) / t.scale for t in timings)
                   for timings in passes]
            metrics[name] = statistics.median(times)
            print(f"  {name}: mean per graph, median of {len(times)} passes; "
                  f"min {min(times):.4f} max {max(times):.4f}; "
                  f"unscaled median {statistics.median(raw):.4f}")
        metrics["peak_rss_mb"] = first_pass_rss_mb - rss_before_mb
        print(f"  peak_rss_mb: rise over the first pass; process peak {peak_rss_mb():.2f} MB, "
              f"{rss_before_mb:.2f} MB before the first operation")
        metrics["profit"] = statistics.fmean(t.certificate.phi_estimate for t in passes[0])
        metrics["guarantee"] = statistics.fmean(t.certificate.guarantee for t in passes[0])
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {fmt(value)} {units[name]}")
    if not args.trace:
        print(f"failed_share {len(failures) / attempted!r} {FAILED_SHARE_UNIT}")

    result = {
        "correct": not failures and not notes,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
