"""Independent-cascade simulation and an exact brute-force oracle.

The diffusion process is the classic independent cascade: when a node first
activates it gets one chance per out-edge to activate that neighbor, with the
edge's probability.  Flipping every edge coin up front yields a deterministic
"live-edge" subgraph, and the set activated by seeds S equals the set
reachable from S over live edges.

Simulation runs on the RR sampler's frontier kernel (``rrsets._reach``),
forward over the out-edges instead of backward over the in-edges, so one
numpy pass per cascade level serves a whole block of runs.

For small graphs the expectation over live-edge outcomes can be computed
exactly by enumerating all 2^m edge subsets.  That enumeration is the ground
truth against which every estimator and search property in this package is
tested, including the shared kernel, so it is deliberately direct and shares
no code with it: per-world transitive closure, weighted by the world's
probability.  Size caps keep accidental blowups out.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, DomainError
from .evaluation import MarginalEvaluator
from .graph import WeightedGraph
from .rng import make_rng
from .rrsets import _check_count, _reach

DEFAULT_EDGE_CAP = 20
DEFAULT_NODE_CAP = 16

# reach sets are int64 bitmasks over the nodes that touch an edge
_MASK_BITS = 63
_LIMB_BITS = 16
_LIMB_MASK = (1 << _LIMB_BITS) - 1


def _check_seeds(g: WeightedGraph, seeds) -> frozenset:
    seeds = frozenset(int(v) for v in seeds)
    for v in seeds:
        if not (0 <= v < g.node_count):
            raise DomainError(f"seed node {v} outside 0..{g.node_count - 1}")
    return seeds


def _check_edge_cap(g: WeightedGraph, edge_cap: int) -> None:
    if g.edge_count > edge_cap:
        raise CapacityError(
            f"exact enumeration needs 2^{g.edge_count} worlds; "
            f"the edge cap is {edge_cap}")


def simulate_spread(g: WeightedGraph, seeds, runs: int, rng) -> np.ndarray:
    """Run ``runs`` independent-cascade diffusions from one seed set.

    Returns a (runs, n) bool array whose row r marks the nodes run r
    activates; every row contains the seeds.  The runs grow together on the
    RR sampler's frontier kernel over the forward CSR: each new member
    flips each of its out-edges once, including edges into nodes already
    active, whose coins cannot change the outcome.  ``rng`` is a seed or a
    ``numpy.random.Generator``.
    """
    runs = _check_count(runs, "runs")
    seeds = np.array(sorted(_check_seeds(g, seeds)), dtype=np.int64)
    sizes, nodes = _reach(np.broadcast_to(seeds, (runs, len(seeds))), make_rng(rng),
                          g.forward_csr())
    active = np.zeros((runs, g.node_count), dtype=bool)
    active[np.repeat(np.arange(runs), sizes), nodes] = True
    return active


class ExactEvaluator(MarginalEvaluator):
    """Exact benefit/cost oracle backed by full live-edge enumeration.

    All 2^m worlds are tabulated once (probability, plus a reachability
    bitmask per node incident to an edge); each subsequent query is a few
    vectorized passes over that table, for the one side it asks about.

    Memory grows as 2^m * (#nodes touching edges), which the edge cap keeps
    in check.
    """

    def __init__(self, g: WeightedGraph, edge_cap: int = DEFAULT_EDGE_CAP):
        _check_edge_cap(g, edge_cap)
        self.graph = g
        self.node_count = g.node_count

        src, dst, prob = g.edge_arrays()
        m = g.edge_count
        degree = g.out_degree + g.in_degree
        active_nodes = [v for v in range(g.node_count) if degree[v] > 0]
        self._active_pos = {v: i for i, v in enumerate(active_nodes)}
        n_act = len(active_nodes)
        if n_act > _MASK_BITS:
            raise CapacityError(
                f"exact enumeration packs reach sets into {_MASK_BITS}-bit masks; "
                f"{n_act} nodes touch an edge")

        world_count = 1 << m
        self._prob = np.empty(world_count, dtype=np.float64)
        self._reach = np.empty((world_count, n_act), dtype=np.int64) if n_act else None

        if n_act:
            a_src = np.array([self._active_pos[int(u)] for u in src], dtype=np.int64)
            a_dst = np.array([self._active_pos[int(v)] for v in dst], dtype=np.int64)
            powers = (np.int64(1) << np.arange(n_act, dtype=np.int64))
        chunk = max(1, (1 << 22) // max(1, n_act * n_act))
        for lo in range(0, world_count, chunk):
            hi = min(lo + chunk, world_count)
            worlds = np.arange(lo, hi, dtype=np.int64)
            live = ((worlds[:, None] >> np.arange(m, dtype=np.int64)) & 1).astype(bool)
            self._prob[lo:hi] = np.prod(np.where(live, prob, 1.0 - prob), axis=1)
            if not n_act:
                continue
            adj = np.zeros((hi - lo, n_act, n_act), dtype=bool)
            adj[:, np.arange(n_act), np.arange(n_act)] = True
            for k in range(m):
                adj[live[:, k], a_src[k], a_dst[k]] = True
            # closure by repeated squaring; path length doubles per round
            while True:
                closed = adj | (adj.astype(np.uint8) @ adj.astype(np.uint8) > 0)
                if np.array_equal(closed, adj):
                    break
                adj = closed
            self._reach[lo:hi] = adj @ powers

        self._tables_b = self._limb_tables(g.benefit, active_nodes)
        self._tables_c = self._limb_tables(g.cost, active_nodes)

    @staticmethod
    def _limb_tables(weights, active_nodes):
        """Per-16-bit-limb lookup of total weight over a node bitmask."""
        n_act = len(active_nodes)
        tables = []
        for limb_start in range(0, n_act, _LIMB_BITS):
            bits = min(_LIMB_BITS, n_act - limb_start)
            table = np.zeros(1 << bits, dtype=np.float64)
            for x in range(1, 1 << bits):
                low = x & -x
                table[x] = table[x ^ low] + weights[active_nodes[limb_start + low.bit_length() - 1]]
            tables.append(table)
        return tables

    def _mask_weight(self, masks, tables):
        total = tables[0][masks & _LIMB_MASK] if tables else 0.0
        for i, table in enumerate(tables[1:], start=1):
            total = total + table[(masks >> (_LIMB_BITS * i)) & _LIMB_MASK]
        return total

    def value(self, seeds, metric: str) -> float:
        self._check_metric(metric)
        if metric == "profit":
            return self.value(seeds, "benefit") - self.value(seeds, "cost")
        weights, tables = ((self.graph.benefit, self._tables_b) if metric == "benefit"
                           else (self.graph.cost, self._tables_c))
        total = 0.0
        active_cols = []
        for v in _check_seeds(self.graph, seeds):
            pos = self._active_pos.get(v)
            if pos is None:
                total += float(weights[v])
            else:
                active_cols.append(pos)
        if active_cols:
            union = np.bitwise_or.reduce(self._reach[:, active_cols], axis=1)
            total += float(self._prob @ self._mask_weight(union, tables))
        return total


def exhaustive_optimum(g: WeightedGraph, node_cap: int = DEFAULT_NODE_CAP,
                       edge_cap: int = DEFAULT_EDGE_CAP):
    """Best seed set by trying all 2^n subsets; ties go lexicographically.

    Returns (seed set, exact profit).
    """
    n = g.node_count
    if n > node_cap:
        raise CapacityError(
            f"exhaustive search needs 2^{n} subsets; the node cap is {node_cap}")
    ev = ExactEvaluator(g, edge_cap=edge_cap)
    best_set = frozenset()
    best_key = ()
    best_value = ev.value(best_set, "profit")
    for mask in range(1, 1 << n):
        subset = frozenset(v for v in range(n) if mask >> v & 1)
        value = ev.value(subset, "profit")
        key = tuple(sorted(subset))
        if value > best_value or (value == best_value and key < best_key):
            best_set, best_key, best_value = subset, key, value
    return best_set, best_value
