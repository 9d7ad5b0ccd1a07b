"""Shared fixtures, an independent brute-force oracle, and the modular bounds
of ``ModularBounds`` as records that tests evaluate at any seed set.

The oracle here deliberately reimplements exact evaluation from scratch
(a loop over edge subsets, dict-based DFS) so library results are checked
against an arithmetic path they do not share.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from profitmax import ModularBounds, WeightedGraph

# the canonical 4-node demo graph: nodes 0..3, four edges, hand-checkable
DEMO_EDGES = [(0, 1, 0.3), (0, 3, 0.4), (1, 3, 0.2), (2, 3, 0.3)]
DEMO_BENEFIT = [1.5, 2.0, 3.0, 2.0]
DEMO_COST = [1.0, 1.0, 1.0, 5.0]

DEMO_OPTIMUM = frozenset({1, 2})
DEMO_OPTIMUM_PROFIT = 1.68

# margins per pruning iteration, keyed by node (verified by brute force)
DEMO_LOWER_MARGINS = [
    {0: -1.98, 1: -0.6, 2: 0.5, 3: -4.328},
    {0: -1.326, 1: -0.3, 3: -2.828},
    {0: -0.878, 1: -0.1824},
]
DEMO_UPPER_MARGINS = [
    {0: 1.972, 1: 1.7, 2: 2.6, 3: 0.32},
    {0: 1.7104, 1: 1.58, 3: -0.28},
    {0: 0.5904, 1: 1.286},
]


def make_demo_graph() -> WeightedGraph:
    return WeightedGraph(4, DEMO_EDGES, benefit=DEMO_BENEFIT, cost=DEMO_COST)


@pytest.fixture(scope="session")
def demo_graph() -> WeightedGraph:
    return make_demo_graph()


def edgeless_graph(net_weights) -> WeightedGraph:
    """Graph with no edges whose node i has net weight net_weights[i]."""
    benefit = [max(0.0, w) for w in net_weights]
    cost = [max(0.0, -w) for w in net_weights]
    return WeightedGraph(len(net_weights), [], benefit=benefit, cost=cost)


def live_edge_worlds(g: WeightedGraph):
    """Yield (w, probability, reach) for every live-edge world w, where bit k
    of w says edge k is live (the oracle's numbering).  The probability is a
    product taken edge by edge from 1.0; reach[u] is the set of nodes u
    reaches over live edges, by DFS."""
    src, dst, prob = g.edge_arrays()
    edges = list(zip(src.tolist(), dst.tolist(), prob.tolist()))
    for w in range(1 << len(edges)):
        p = 1.0
        adj = {}
        for k, (u, v, pe) in enumerate(edges):
            if w >> k & 1:
                p *= pe
                adj.setdefault(u, []).append(v)
            else:
                p *= 1.0 - pe
        reach = []
        for root in range(g.node_count):
            seen = {root}
            stack = [root]
            while stack:
                for v in adj.get(stack.pop(), ()):
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            reach.append(seen)
        yield w, p, reach


def brute_evaluate(g: WeightedGraph, seeds):
    """Exact (benefit, cost) by summing over every live-edge outcome."""
    beta = gamma = 0.0
    for _, p, reach in live_edge_worlds(g):
        if p == 0.0:
            continue
        active = set().union(*(reach[s] for s in seeds))
        beta += p * sum(g.benefit[v] for v in active)
        gamma += p * sum(g.cost[v] for v in active)
    return beta, gamma


def brute_profit(g: WeightedGraph, seeds) -> float:
    beta, gamma = brute_evaluate(g, seeds)
    return beta - gamma


def brute_optimum(g: WeightedGraph):
    """(best seed set, best profit, all optimal sets) by full enumeration."""
    n = g.node_count
    best_value = None
    best_set = None
    values = {}
    for mask in range(1 << n):
        subset = frozenset(v for v in range(n) if mask >> v & 1)
        value = brute_profit(g, subset)
        values[subset] = value
        if (best_value is None or value > best_value
                or (value == best_value and tuple(sorted(subset)) < tuple(sorted(best_set)))):
            best_value, best_set = value, subset
    optima = [s for s, v in values.items() if v >= best_value - 1e-9]
    return best_set, best_value, optima


def random_graph(rng: np.random.Generator, max_nodes: int = 7,
                 max_edges: int = 12) -> WeightedGraph:
    """Random small instance: directed edges, continuous weights and probs."""
    n = int(rng.integers(2, max_nodes + 1))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = int(rng.integers(1, min(max_edges, len(pairs)) + 1))
    chosen = rng.choice(len(pairs), size=m, replace=False)
    edges = [(pairs[i][0], pairs[i][1], float(rng.uniform(0.05, 0.95)))
             for i in chosen]
    benefit = rng.uniform(0.0, 2.5, size=n)
    cost = rng.uniform(0.0, 2.5, size=n)
    return WeightedGraph(n, edges, benefit=benefit, cost=cost)


def random_subset(rng: np.random.Generator, n: int) -> frozenset:
    return frozenset(int(v) for v in range(n) if rng.random() < 0.5)


class Modular(NamedTuple):
    """A modular bound as a record: its value at Y is ``base`` plus ``per_node``
    summed by numpy over Y in ascending order, which is how ``mu_bound`` sums."""

    base: float
    per_node: dict

    def at(self, Y) -> float:
        return float(self.base + np.array([self.per_node[v] for v in sorted(Y)]).sum())


def upper_bound(ev, metric: str, X, variant: int, lat) -> Modular:
    """``ModularBounds`` upper bound ``variant`` on ``metric``, tight at X."""
    bounds = ModularBounds(ev, lat)
    inside = bounds.mask(X)
    state = ev.coverage_state(metric, X)
    per_node = bounds.upper(state, inside, variant, bounds.fixed(metric, variant))
    return Modular(float(state.value - per_node[inside].sum()),
                   dict(zip(bounds.ceiling.tolist(), per_node.tolist())))


def lower_bound(ev, metric: str, X, lat) -> Modular:
    """``ModularBounds`` lower bound on ``metric`` along the singleton chain, tight at X."""
    bounds = ModularBounds(ev, lat)
    per_node = bounds.lower(metric, bounds.chain(bounds.rank(), bounds.mask(X)))
    return Modular(0.0, dict(zip(bounds.ceiling.tolist(), per_node.tolist())))


def maximizer(pos: Modular, neg: Modular, lat) -> frozenset:
    """``ModularBounds.maximizer`` of pos - neg over the lattice."""
    bounds = ModularBounds(None, lat)
    ceiling = bounds.ceiling.tolist()
    diff = (np.array([pos.per_node[v] for v in ceiling], dtype=float)
            - np.array([neg.per_node[v] for v in ceiling], dtype=float))
    return bounds.maximizer(diff > 0.0)


def variant_cap(ev, X, lat, variant: int) -> float:
    """The profit cap of one benefit ceiling (3 or 4): its largest difference
    to the cost floor over the lattice."""
    ceiling = upper_bound(ev, "benefit", X, variant, lat)
    floor = lower_bound(ev, "cost", X, lat)
    best = maximizer(ceiling, floor, lat)
    return ceiling.at(best) - floor.at(best)
