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
no code with it: per-world reach sets grown edge by edge to a live-edge
fixpoint, weighted by the world's probability.  Size caps keep accidental
blowups out.  Every query, ``value`` included, reads the oracle's own
coverage state (``_ExactCoverage``), which shares no code with the sampler.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, DomainError
from .evaluation import MarginalEvaluator, _node_array
from .graph import WeightedGraph
from .rng import make_rng
from .rrsets import _check_count, _reach

DEFAULT_EDGE_CAP = 20
DEFAULT_NODE_CAP = 16

# reach sets are int64 bitmasks over the nodes that touch an edge
_MASK_BITS = 63
_LIMB_BITS = 16
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# int64 cells of the (node, world) masks a coverage state weighs at once
_BLOCK_CELLS = 1 << 21


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


def _sum(weights, nodes) -> float:
    """The weights of ``nodes`` added one after another, in the order given."""
    total = 0.0
    for v in nodes:
        total += float(weights[v])
    return total


def _others(reach, cols, picks) -> np.ndarray:
    """Per column of ``picks`` (distinct, each one of ``cols``), the OR of the
    reach masks of the other ``cols``: a prefix pass, then a suffix pass."""
    slot = {c: j for j, c in enumerate(picks.tolist())}
    rows = np.zeros((len(picks), reach.shape[1]), dtype=np.int64)
    for order in (cols.tolist(), cols.tolist()[::-1]):
        acc = np.zeros(reach.shape[1], dtype=np.int64)
        for c in order:
            if c in slot:
                rows[slot[c]] |= acc
            acc |= reach[c]
    return rows


class ExactEvaluator(MarginalEvaluator):
    """Exact benefit/cost oracle backed by full live-edge enumeration.

    All 2^m worlds are tabulated once (probability, plus a reachability
    bitmask per node incident to an edge); each subsequent query is a few
    vectorized passes over that table, for the one side it asks about.
    f(S) is the weight of S's isolated nodes, added in ascending order, plus
    the expected weight of the OR of the other nodes' masks.

    Memory grows as 2^m * (#nodes touching edges), which the edge cap keeps
    in check.  Building the reach table takes rounds of m passes over the 2^m
    worlds, one per edge; a round that changes no row ends it, so there are
    at most (longest live path + 1) rounds.
    """

    def __init__(self, g: WeightedGraph, edge_cap: int = DEFAULT_EDGE_CAP):
        _check_edge_cap(g, edge_cap)
        self.graph = g
        self.node_count = g.node_count

        src, dst, prob = g.edge_arrays()
        m = g.edge_count
        degree = g.out_degree + g.in_degree
        active_nodes = np.flatnonzero(degree > 0)
        n_act = len(active_nodes)
        if n_act > _MASK_BITS:
            raise CapacityError(
                f"exact enumeration packs reach sets into {_MASK_BITS}-bit masks; "
                f"{n_act} nodes touch an edge")
        # each node's row of the reach table, or -1 for a node on no edge
        self._column = np.full(g.node_count, -1, dtype=np.int64)
        self._column[active_nodes] = np.arange(n_act)

        # world w has edge k live iff bit k of w is set
        worlds = np.arange(1 << m, dtype=np.int64)
        self._prob = np.ones(len(worlds))
        for k in range(m):
            self._prob *= np.where((worlds >> k) & 1, prob[k], 1.0 - prob[k])
        # row i: the reach bitmask of active node i in each world, grown to the
        # fixpoint reach(u) = {u} | reach(v) over u's live edges (u, v)
        self._reach = reach = np.repeat(
            np.int64(1) << np.arange(n_act, dtype=np.int64)[:, None], len(worlds), axis=1)
        edges = list(enumerate(zip(self._column[src].tolist(), self._column[dst].tolist())))
        grew = True
        while grew:
            grew = False
            for k, (u, v) in edges:
                grown = (reach[v] & -((worlds >> k) & 1)) | reach[u]
                if not np.array_equal(grown, reach[u]):
                    reach[u], grew = grown, True

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

    def _expect(self, masks, tables) -> np.ndarray:
        """Per row of ``masks`` (a node bitmask per world), the expected weight
        it reaches: one ``prob @ weight`` per row, ``_BLOCK_CELLS`` at a time."""
        out = np.empty(len(masks))
        step = max(1, _BLOCK_CELLS // masks.shape[1])
        for lo in range(0, len(masks), step):
            part = masks[lo:lo + step]
            weight = np.zeros(part.shape)
            for i, table in enumerate(tables):
                weight += table[(part >> (_LIMB_BITS * i)) & _LIMB_MASK]
            out[lo:lo + step] = [self._prob @ row for row in weight]
        return out

    def value(self, seeds, metric: str) -> float:
        self._check_metric(metric)
        if metric == "profit":
            return self.value(seeds, "benefit") - self.value(seeds, "cost")
        return self.coverage_state(metric, seeds).value

    def coverage_state(self, metric: str, seeds=()) -> "_ExactCoverage":
        self._check_kind(metric)
        return _ExactCoverage(self, metric, seeds)


class _ExactCoverage:
    """One side's exact f(S), f(v | S) and f(v | S - v) as nodes enter and leave S.

    A read ORs the reach masks of S's nodes into one mask U per world; f(S)
    is U's expected weight plus the sum of S's isolated nodes.  ``gains``
    and ``inside`` put each node asked for into S or take it out: into or
    out of that sum, or ORing its mask into U, or leaving the OR of the
    others' (prefix and suffix ORs over S's rows).  Each answer is the
    difference of the two f that ``value`` gives, bit for bit.
    """

    def __init__(self, ev: ExactEvaluator, kind: str, seeds):
        self.ev = ev
        self.weights, self.tables = ((ev.graph.benefit, ev._tables_b) if kind == "benefit"
                                     else (ev.graph.cost, ev._tables_c))
        self.on = np.zeros(ev.node_count, dtype=bool)
        self.add(seeds)

    def add(self, nodes) -> None:
        self._move(nodes, True)

    def remove(self, nodes) -> None:
        self._move(nodes, False)

    def _move(self, nodes, enter: bool) -> None:
        nodes = _check_seeds(self.ev.graph, [nodes] if np.isscalar(nodes) else nodes)
        self.on[list(nodes)] = enter

    @property
    def value(self) -> float:
        isolated, _, union = self._split()
        return _sum(self.weights, isolated) + float(self.ev._expect(union[None], self.tables)[0])

    @property
    def gains(self) -> np.ndarray:
        off = np.flatnonzero(~self.on)
        value, toggled = self._toggled(off)
        gains = np.zeros(self.ev.node_count)
        gains[off] = toggled - value
        return gains

    def inside(self, nodes) -> np.ndarray:
        """f(v | S - v) for each of ``nodes``: f(v | S) for those off S."""
        nodes = _node_array(nodes, self.ev.node_count)
        value, toggled = self._toggled(nodes)
        return np.where(self.on[nodes], value - toggled, toggled - value)

    def _split(self):
        """S's isolated nodes, ascending; its rows of the reach table; and U."""
        ev = self.ev
        seeds = self.on.nonzero()[0]
        col = ev._column[seeds]
        cols = col[col >= 0]
        union = np.zeros(ev._reach.shape[1], dtype=np.int64)
        for c in cols.tolist():
            union |= ev._reach[c]
        return seeds[col < 0].tolist(), cols, union

    def _toggled(self, nodes):
        """f(S), and f of S with each of ``nodes`` put in or taken out."""
        ev, weights = self.ev, self.weights
        isolated, cols, union = self._split()
        alone = _sum(weights, isolated)
        term = float(ev._expect(union[None], self.tables)[0])
        out = np.empty(len(nodes))
        col = ev._column[nodes]
        for i in np.flatnonzero(col < 0).tolist():
            out[i] = _sum(weights, sorted(set(isolated) ^ {int(nodes[i])})) + term
        inner = (col >= 0) & self.on[nodes]
        if inner.any():
            picks, back = np.unique(col[inner], return_inverse=True)
            out[inner] = alone + ev._expect(_others(ev._reach, cols, picks), self.tables)[back]
        outer = np.flatnonzero((col >= 0) & ~self.on[nodes])
        step = max(1, _BLOCK_CELLS // len(union))
        for lo in range(0, len(outer), step):
            at = outer[lo:lo + step]
            masks = ev._reach[col[at]]
            masks |= union
            out[at] = alone + ev._expect(masks, self.tables)
        return alone + term, out


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
