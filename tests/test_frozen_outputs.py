"""Differential test: pipeline outputs pinned bit for bit.

Every value the pipeline returns on a few small seeded graphs is compared,
by ``repr``, against ``tests/data/frozen_outputs.json``: the pruning lattice
and all of its margins, the greedy and modular-modular selections with
their trajectories, the three swept baselines, and the certificates.  A
change to how coverage is stored or queried must leave all of them
unchanged, including the Python types of the returned numbers (``repr`` of
a numpy scalar differs from that of the equal Python float).

Regenerate the fixture only when outputs are meant to change:

    PYTHONPATH=src python tests/test_frozen_outputs.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from profitmax import (ExactEvaluator, ProfitEstimator, assign_weights, certify,
                       greedy, iterative_prune, k_sweep, load_edge_list, modmod,
                       normalize_weights, trivial_lattice)
from profitmax.rng import derive_seed

from conftest import make_demo_graph

FIXTURE = Path(__file__).parent / "data" / "frozen_outputs.json"

# name -> (n, m, share of nodes with out-edges, cost ratio r, theta); the
# three shapes follow the benchmark workloads at a third of their size
CASES = {
    "lattice": (200, 1000, 1.0, 1.0, 2000),
    "sparse-posters": (200, 4000, 0.5, 2.0, 2000),
    "sweep": (200, 800, 1.0, 0.75, 2000),
}
BASELINES = ("random", "highdegree", "benefitmax")


def pin(x):
    """JSON-able form of a result in which every scalar is kept as its repr."""
    if isinstance(x, dict):
        return {repr(k): pin(v) for k, v in x.items()}
    if isinstance(x, (frozenset, set)):
        return sorted(pin(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [pin(v) for v in x]
    return repr(x)


def pin_selection(result) -> dict:
    return {"algorithm": result.algorithm, "seeds": sorted(result.seeds),
            "estimated_profit": repr(result.estimated_profit),
            "trajectory": pin(result.trajectory)}


def pin_lattice(lat) -> dict:
    return {"must_include": sorted(lat.must_include), "may_include": sorted(lat.may_include),
            "iterations": [{"must_include": sorted(s.must_include),
                            "may_include": sorted(s.may_include),
                            "lower_margin": pin(s.lower_margin),
                            "upper_margin": pin(s.upper_margin)}
                           for s in lat.iterations]}


def bench_style_graph(n, m, active_share, r, seed):
    """Distinct random edges from posting nodes, WIC probabilities, degree cost."""
    rng = np.random.default_rng(seed)
    active = np.flatnonzero(rng.random(n) < active_share)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        size = 2 * (m - len(keys)) + 64
        draw = active[rng.integers(0, len(active), size=size)] * n + rng.integers(0, n, size=size)
        pool = np.concatenate([keys, draw[draw // n != draw % n]])
        _, first = np.unique(pool, return_index=True)
        keys = pool[np.sort(first)]
    keys = keys[:m]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.edges"
        np.savetxt(path, np.column_stack([keys // n, keys % n]), fmt="%d %d")
        g = load_edge_list(path)
    return normalize_weights(assign_weights(g, "uniform", "degree", r=r))


def sampled_case(name) -> dict:
    n, m, share, r, theta = CASES[name]
    seed = derive_seed(4242, name)
    g = bench_style_graph(n, m, share, r, seed)
    est = ProfitEstimator.build(g, theta, theta, seed=derive_seed(seed, "select"))
    lat = iterative_prune(est)
    heuristics = {"greedy": greedy(est, lat),
                  "modmod1": modmod(est, lat, gamma_bound_variant=3, seed=derive_seed(seed, 1)),
                  "modmod2": modmod(est, lat, gamma_bound_variant=4, seed=derive_seed(seed, 2))}
    sweeps = {kind: k_sweep(kind, g, est, seed=derive_seed(seed, kind)) for kind in BASELINES}
    best = max(heuristics.values(), key=lambda res: res.estimated_profit)
    best_sweep = max(sweeps.values(), key=lambda res: res.estimated_profit)
    certificates = {
        "heuristic": certify(best.seeds, g, lat, theta, seed=derive_seed(seed, "cert")),
        "baseline": certify(best_sweep.seeds, g, trivial_lattice(n), (theta, theta // 2),
                            seed=derive_seed(seed, "cert-baseline")),
    }
    selections = {k: pin_selection(v) for k, v in heuristics.items()}
    selections.update({k: {**pin_selection(v), "params": pin(v.params)}
                       for k, v in sweeps.items()})
    return {"lattice": pin_lattice(lat), "selections": selections,
            "certificates": {k: pin(c.to_json_dict()) for k, c in certificates.items()}}


def exact_case() -> dict:
    ev = ExactEvaluator(make_demo_graph())
    lat = iterative_prune(ev)
    results = {"greedy": greedy(ev, lat),
               "modmod1": modmod(ev, lat, gamma_bound_variant=3),
               "modmod2": modmod(ev, lat, gamma_bound_variant=4, pi_policy="random", seed=9)}
    return {"lattice": pin_lattice(lat),
            "selections": {k: pin_selection(v) for k, v in results.items()}}


def all_cases() -> dict:
    return {**{name: sampled_case(name) for name in CASES}, "exact-demo": exact_case()}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [*CASES, "exact-demo"])
def test_outputs_match_fixture(frozen, name):
    got = exact_case() if name == "exact-demo" else sampled_case(name)
    want = frozen[name]
    assert got["lattice"] == want["lattice"]
    for algo in want["selections"]:
        assert got["selections"][algo] == want["selections"][algo], algo
    assert got.get("certificates") == want.get("certificates")


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(all_cases(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")
