"""Weighted reverse-reachable (RR) sampling and coverage-based estimation.

One RR set is drawn by picking a root node with probability proportional to
the node weights (benefit or cost), sampling a live-edge outcome of the
diffusion, and collecting every node that reaches the root in that outcome.
For a collection of theta such sets with total node weight Upsilon, the
number Lambda(S) of sets that S intersects estimates the weighted spread:

    benefit(S) ~ Lambda(S) * Upsilon / theta

Two independent collections, one per weight kind, estimate benefit and cost.
Collections are frozen after generation; every downstream algorithm sees a
fixed, deterministic function of (seed, theta), which is what makes the
pruning and selection loops terminate.

A collection is one CSR store: the members of all sets in one flat array
with per-set offsets, and the inverted index (the sets containing each
node) built from it by one sort of packed (member, set) keys.  The index
only finds a node's sets; every per-node count is one pass over the member
lists of the sets involved (``RRCollection.members_of``).  Greedy
selection uses an incremental coverage state: a mask of the sets the seed
set covers and, per node, the count of its sets still uncovered,
decremented only for the sets a new seed covers (the node-selection
scheme of IMM, Tang, Shi and Xiao, SIGMOD 2015), so a whole greedy run
touches each member of each set once.  Pruning keeps such a state for its
floor A and, for its ceiling B, per-set counts of the nodes of B, updated
only for the sets a node leaving B touches (``RRLattice``).

Sampling is batch-frontier: the sets of a batch grow together, one BFS level
per numpy pass (see ``generate``), all from one generator derived from
(seed, kind).
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .errors import DomainError
from .evaluation import KINDS, MarginalEvaluator
from .graph import WeightedGraph, _check_int_fields, _check_int_ids, _read_json
from .rng import derive_seed, make_rng

# bytes of the (set, node) visited bitmap that one batch of sets may use
VISITED_BUDGET = 1 << 20


def _spans(ptr, rows) -> np.ndarray:
    """Positions in a CSR data array of the rows ``rows``, concatenated."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.repeat(starts + lens - ends, lens) + np.arange(ends[-1] if len(ends) else 0)


def _distinct(keys) -> np.ndarray:
    """The distinct values of an int array, ascending (``np.unique`` hashes and is slower)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _node_array(nodes, node_count) -> np.ndarray:
    """Node ids as an int64 array; any id outside 0..node_count-1 raises."""
    if isinstance(nodes, np.ndarray):
        arr = nodes.astype(np.int64, copy=False)
    else:
        count = len(nodes) if hasattr(nodes, "__len__") else -1
        arr = np.fromiter(nodes, dtype=np.int64, count=count)
    bad = arr[(arr < 0) | (arr >= node_count)]
    if bad.size:
        raise _outside(int(bad[0]), node_count)
    return arr


def _outside(v: int, node_count) -> DomainError:
    return DomainError(f"node {v} outside 0..{node_count - 1}")


def _rows(ptr, data) -> list:
    """The rows of a CSR pair as views: row i is data[ptr[i]:ptr[i+1]]."""
    return np.split(data, ptr[1:-1]) if len(ptr) > 1 else []


class RRCollection:
    """A frozen batch of RR sets of one weight kind, stored as one CSR pair.

    Set i holds ``members[set_ptr[i]:set_ptr[i+1]]``, root first; the sets
    containing node v are ``set_ids[node_ptr[v]:node_ptr[v+1]]``, ascending.
    ``sets`` and ``index`` show the two sides as lists of read-only views.
    ``total_weight`` is the Upsilon of the kind the collection was sampled
    under.
    """

    def __init__(self, kind: str, node_count: int, total_weight: float, seed: int, sets):
        rows = [np.asarray(s, dtype=np.int32) for s in sets]
        set_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=set_ptr[1:])
        members = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int32)
        self._store(kind, node_count, total_weight, seed, set_ptr, members)

    @classmethod
    def _from_csr(cls, kind, node_count, total_weight, seed, set_ptr, members) -> "RRCollection":
        """A collection over the flat arrays of its sets, taken over without a copy."""
        coll = cls.__new__(cls)
        coll._store(kind, node_count, total_weight, seed, set_ptr, members)
        return coll

    def _store(self, kind, node_count, total_weight, seed, set_ptr, members):
        if kind not in KINDS:
            raise DomainError(f"unknown RR kind {kind!r}; expected one of {KINDS}")
        self.kind, self.node_count = kind, int(node_count)
        self.total_weight, self.seed = total_weight, seed
        self.theta = len(set_ptr) - 1
        empty = np.flatnonzero(set_ptr[1:] == set_ptr[:-1])
        if empty.size:
            raise DomainError(f"RR set {int(empty[0])} is empty")
        if members.size and not (0 <= members.min() and members.max() < self.node_count):
            raise DomainError(f"RR set members must lie in 0..{self.node_count - 1}")
        self.set_ptr, self.members = set_ptr, members
        self.node_ptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(members, minlength=self.node_count), out=self.node_ptr[1:])
        # sorted (member, set) pairs list each node's set ids ascending
        width = max(self.theta, 1)
        rows = np.repeat(np.arange(self.theta, dtype=np.int64), np.diff(set_ptr))
        pairs = np.sort(members * np.int64(width) + rows)
        self.set_ids = (pairs % width).astype(np.int32)
        twice = np.flatnonzero(pairs[1:] == pairs[:-1])
        if twice.size:
            raise DomainError(f"RR set {int(self.set_ids[twice[0]])} repeats a node")
        for arr in (self.set_ptr, self.members, self.node_ptr, self.set_ids):
            arr.setflags(write=False)

    @property
    def sets(self) -> list:
        return _rows(self.set_ptr, self.members)

    @property
    def index(self) -> list:
        return _rows(self.node_ptr, self.set_ids)

    def roots(self) -> np.ndarray:
        return self.members[self.set_ptr[:-1]].astype(np.int64)

    # -- coverage counts; node ids are int64 arrays the caller has checked --

    def covered(self, seeds) -> np.ndarray:
        """Mask over the sets: which ones the seed set intersects."""
        mask = np.zeros(self.theta, dtype=bool)
        mask[self.set_ids[_spans(self.node_ptr, seeds)]] = True
        return mask

    def hits(self, nodes) -> np.ndarray:
        """Per set, how many of the (distinct) ``nodes`` it holds."""
        return np.bincount(self.set_ids[_spans(self.node_ptr, nodes)], minlength=self.theta)

    def members_of(self, sets) -> np.ndarray:
        """Per node, how many of the (distinct) ``sets`` hold it."""
        return np.bincount(self.members[_spans(self.set_ptr, sets)], minlength=self.node_count)

    def rest_counts(self, whole) -> np.ndarray:
        """Per node v, how many of its sets whole - v leaves uncovered."""
        whole = _distinct(whole)
        hits = self.hits(whole)
        counts = self.members_of(np.flatnonzero(hits == 0))
        # inside whole, v's own membership is the single allowed hit
        counts[whole] = self.members_of(np.flatnonzero(hits == 1))[whole]
        return counts

    def chain_counts(self, order) -> np.ndarray:
        """Per position i, how many sets order[i] reaches first along the prefix chain."""
        first = np.full(self.node_count, len(order), dtype=np.int64)
        first[order[::-1]] = np.arange(len(order) - 1, -1, -1)
        reached = np.minimum.reduceat(first[self.members], self.set_ptr[:-1])
        return np.bincount(reached, minlength=len(order) + 1)[:len(order)]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "node_count": self.node_count,
            "total_weight": self.total_weight,
            "seed": self.seed,
            "theta": self.theta,
            "sets": [s.tolist() for s in self.sets],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RRCollection":
        args = {key: d[key] for key in ("kind", "node_count", "total_weight", "seed", "sets")}
        _check_int_fields(d, ("node_count", "seed", "theta"))
        _check_int_ids(itertools.chain.from_iterable(args["sets"]), "RR set member")
        c = cls(**args)
        if c.theta != d["theta"]:
            raise DomainError("collection theta does not match its sets")
        return c


def _reach(starts, rng, csr):
    """Grow one reached set per row of ``starts``; return (sizes, members).

    Row i of ``starts`` lists set i's distinct start nodes and ``csr`` is a
    graph's ``(ptr, neighbour, prob)`` arrays: reverse for RR sets, forward
    for cascades.  Sets grow together in batches of ``VISITED_BUDGET // n``,
    one numpy pass per level: one coin per edge of each new member, the live
    ones kept as ``set * n + node`` keys, minus those in the batch's visited
    bitmap, sorted and deduplicated.  One sort of ``set * span + level * n +
    node`` per batch then lists each set's start nodes, then its members
    level by level, ascending within a level.  ``members`` holds the sets one
    after another and ``sizes`` counts each set's members.
    """
    ptr, nbr, prob = csr
    n = len(ptr) - 1
    degrees = np.diff(ptr)
    batch = max(1, VISITED_BUDGET // max(n, 1))
    visited = np.zeros(min(batch, len(starts)) * n, dtype=bool)
    sizes, members = [], []
    for lo in range(0, len(starts), batch):
        part = starts[lo:lo + batch]
        frontier = (np.arange(len(part), dtype=np.int64)[:, None] * n + part).ravel()
        visited[frontier] = True
        levels = [frontier]
        while frontier.size:
            sets, nodes = np.divmod(frontier, n)
            degree = degrees[nodes]
            ends = np.cumsum(degree)
            pos = np.repeat(ptr[nodes] + degree - ends, degree) + np.arange(ends[-1])
            live = np.flatnonzero(rng.random(len(pos)) < prob[pos])
            # the set of live edge i is that of the member whose edges span i
            keys = sets[np.searchsorted(ends, live, side="right")] * n + nbr[pos[live]]
            frontier = _distinct(keys[~visited[keys]])
            visited[frontier] = True
            levels.append(frontier)
        keys = np.concatenate(levels)
        visited[keys] = False
        span = n * len(levels)
        level = np.repeat(np.arange(len(levels), dtype=np.int64), [len(f) for f in levels])
        keys = np.sort(keys + keys // n * (span - n) + level * n)
        sizes.append(np.bincount(keys // span, minlength=len(part)))
        members.append((keys % n).astype(np.int32))
    return np.concatenate(sizes), np.concatenate(members)


def generate(g: WeightedGraph, kind: str, theta: int, seed: int) -> RRCollection:
    """Sample theta RR sets of the given weight kind.

    Each set draws its root proportionally to the node weights of the kind,
    then walks the graph backwards, flipping each incoming edge of each
    member once and keeping every node whose live path reaches the root.
    One generator draws all roots up front, then the coins of ``_reach``, the
    frontier kernel that also runs forward cascades, over the reverse CSR;
    its members become the collection's flat member array as they are.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown RR kind {kind!r}; expected one of {KINDS}")
    theta = int(theta)
    if theta < 1:
        raise DomainError("theta must be at least 1")
    weights = g.benefit if kind == "benefit" else g.cost
    total = float(weights.sum())
    if total <= 0:
        raise DomainError(f"no sampleable roots: total {kind} weight is zero")
    n = g.node_count
    seed = int(seed)
    rng = make_rng(derive_seed(seed, "rr", kind))
    # choice searches the CDF of p with side="right", so zero-weight nodes never root
    roots = rng.choice(n, size=theta, p=weights / total)
    sizes, members = _reach(roots[:, None], rng, g.reverse_csr())
    set_ptr = np.zeros(theta + 1, dtype=np.int64)
    np.cumsum(sizes, out=set_ptr[1:])
    return RRCollection._from_csr(kind, n, total, seed, set_ptr, members)


def chernoff_a(delta: float) -> float:
    """The concentration constant a = 4(e-2) ln(2/delta)."""
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0,1), got {delta}")
    return 4.0 * (math.e - 2.0) * math.log(2.0 / delta)


def confidence_bounds(lambda_: float, theta: int, upsilon: float, delta: float):
    """Two-sided bounds on the true weighted spread behind a coverage count.

    With a = 4(e-2) ln(2/delta),

        lower = (sqrt(Lambda + a/4) - sqrt(a)/2)^2 * Upsilon / theta
        upper = (sqrt(Lambda + a/4) + sqrt(a)/2)^2 * Upsilon / theta

    and each one-sided bound holds with probability at least 1 - delta/2,
    provided the sets were generated independently of the queried seed set.
    """
    if not (0 <= lambda_ <= theta):
        raise DomainError(f"coverage count {lambda_} outside [0, theta={theta}]")
    if upsilon < 0:
        raise DomainError("upsilon must be nonnegative")
    a = chernoff_a(delta)
    scale = upsilon / theta
    root = math.sqrt(lambda_ + 0.25 * a)
    half = 0.5 * math.sqrt(a)
    lower = (root - half) ** 2 * scale
    upper = (root + half) ** 2 * scale
    return lower, upper


def sampling_error_limit(upsilon: float, value: float, theta: int, delta: float) -> float:
    """Additive error limit sqrt(a * Upsilon * value / theta) at confidence 1 - delta.

    Evaluating this at the exact benefit and cost shows why weight
    normalization helps: both Upsilon and the metric value shrink, so the
    limit never grows.
    """
    if upsilon < 0 or value < 0:
        raise DomainError("upsilon and value must be nonnegative")
    if theta < 1:
        raise DomainError("theta must be at least 1")
    return math.sqrt(chernoff_a(delta) * upsilon * value / theta)


def theta_for_relative_error(upsilon: float, value: float, rel_err: float,
                             delta: float) -> int:
    """Samples needed so the error limit is at most rel_err * value.

    Inverts the error-limit formula; ``value`` is the smallest metric value
    the estimate must resolve.
    """
    if rel_err <= 0:
        raise DomainError("rel_err must be positive")
    if value <= 0 or upsilon <= 0:
        raise DomainError("upsilon and value must be positive")
    return int(math.ceil(chernoff_a(delta) * upsilon / (rel_err ** 2 * value)))


class RRCoverage:
    """Incremental coverage of one RR collection by a growing seed set S.

    ``covered`` masks the sets S intersects and ``uncovered[v]`` counts the
    sets containing v that S leaves uncovered, so ``gains`` (rho times those
    counts) are the marginals f(v | S).  The counts start as index degrees
    minus the members of the covered sets, and each ``add`` subtracts the
    members of the sets it newly covers.
    """

    def __init__(self, coll: RRCollection, rho: float, base):
        self.coll, self.rho = coll, rho
        self.covered = coll.covered(base)
        self.uncovered = np.diff(coll.node_ptr) - coll.members_of(np.flatnonzero(self.covered))
        self.count = int(np.count_nonzero(self.covered))

    @property
    def gains(self) -> np.ndarray:
        return self.rho * self.uncovered

    @property
    def value(self) -> float:
        return self.rho * float(self.count)

    def add(self, nodes) -> None:
        """Put one node, or each of several, into S."""
        coll = self.coll
        if np.isscalar(nodes):  # one node's sets are distinct already
            v = int(nodes)
            if not 0 <= v < coll.node_count:
                raise _outside(v, coll.node_count)
            sids = coll.set_ids[coll.node_ptr[v]:coll.node_ptr[v + 1]]
        else:
            sids = _distinct(coll.set_ids[_spans(coll.node_ptr,
                                                 _node_array(nodes, coll.node_count))])
        fresh = sids[~self.covered[sids]]
        self.covered[fresh] = True
        self.count += len(fresh)
        self.uncovered -= coll.members_of(fresh)


class RRLattice:
    """Pruning anchors of one RR collection for a lattice [A, B] that tightens.

    A is an ``RRCoverage``, whose uncovered counts give ``ceiling``, f(v | A).
    For B, ``hits[s]`` counts the nodes of B that set s holds and ``sole[v]``
    the sets of v that meet B in v alone, so ``floor`` is f(v | B - v) for v
    in B.  Taking R out of B lowers ``hits`` by R's index rows, and each set
    that drops from two or more to one adds one to the node of B it still
    holds; no other node of B changes.  ``sole`` counts only for nodes of B:
    it is the members of the sets with one hit, masked to B.
    """

    def __init__(self, coll: RRCollection, rho: float, must, may):
        self.coll, self.rho = coll, rho
        self.inner = RRCoverage(coll, rho, must)
        may = _distinct(may)
        self.inside = np.zeros(coll.node_count, dtype=bool)
        self.inside[may] = True
        self.hits = coll.hits(may)
        self.sole = coll.members_of(np.flatnonzero(self.hits == 1)) * self.inside

    def floor(self, nodes) -> np.ndarray:
        return self.rho * self.sole[_node_array(nodes, self.coll.node_count)]

    def ceiling(self, nodes) -> np.ndarray:
        return self.rho * self.inner.uncovered[_node_array(nodes, self.coll.node_count)]

    def tighten(self, added, removed) -> None:
        coll = self.coll
        self.inner.add(added)
        removed = _distinct(_node_array(removed, coll.node_count))
        removed = removed[self.inside[removed]]  # only nodes still in B leave it
        self.inside[removed] = False
        lost = coll.hits(removed)
        self.hits -= lost
        self.sole += coll.members_of(np.flatnonzero((self.hits == 1) & (lost > 0))) * self.inside


class ProfitEstimator(MarginalEvaluator):
    """Benefit and cost estimates from two frozen RR collections.

    A weight kind whose total is zero needs no samples; its collection slot
    is None and every estimate on that side is exactly zero.  Every query is
    a few vectorised passes over the collections' CSR arrays.
    """

    def __init__(self, benefit_rr, cost_rr, graph: WeightedGraph):
        totals = graph.totals()
        self._validate_side(benefit_rr, "benefit", totals.upsilon_b, graph)
        self._validate_side(cost_rr, "cost", totals.upsilon_c, graph)
        self.benefit_rr = benefit_rr
        self.cost_rr = cost_rr
        self.graph = graph
        self.node_count = graph.node_count
        # a side without samples is queried as an empty collection
        self._colls = {kind: coll or RRCollection(kind, self.node_count, 0.0, 0, [])
                       for kind, coll in zip(KINDS, (benefit_rr, cost_rr))}

    @staticmethod
    def _validate_side(coll, kind, upsilon, graph):
        if coll is None:
            if upsilon != 0:
                raise DomainError(f"{kind} collection missing but total weight is {upsilon}")
            return
        if coll.kind != kind:
            raise DomainError(f"collection of kind {coll.kind!r} passed as {kind}")
        if coll.node_count != graph.node_count:
            raise DomainError("collection node count does not match the graph")
        if not math.isclose(coll.total_weight, upsilon, rel_tol=1e-12, abs_tol=1e-12):
            raise DomainError(f"collection {kind} total weight {coll.total_weight} "
                              f"does not match the graph's {upsilon}")

    @classmethod
    def build(cls, g: WeightedGraph, theta_beta: int, theta_gamma: int,
              seed: int) -> "ProfitEstimator":
        """Generate both collections from one master seed."""
        totals = g.totals()
        benefit_rr = (generate(g, "benefit", theta_beta, derive_seed(seed, "benefit"))
                      if totals.upsilon_b > 0 else None)
        cost_rr = (generate(g, "cost", theta_gamma, derive_seed(seed, "cost"))
                   if totals.upsilon_c > 0 else None)
        return cls(benefit_rr, cost_rr, g)

    def rho(self, metric) -> float:
        """Scale factor Upsilon / theta converting counts to weight units."""
        coll = self._colls[metric]
        return coll.total_weight / coll.theta if coll.theta else 0.0

    def _scaled(self, metric, counts):
        """rho * counts(collection) for one metric; benefit minus cost for profit."""
        self._check_metric(metric)
        if metric == "profit":
            return self._scaled("benefit", counts) - self._scaled("cost", counts)
        return self.rho(metric) * counts(self._colls[metric])

    # -- MarginalEvaluator interface --------------------------------------

    def value(self, seeds, metric: str) -> float:
        seeds = _node_array(seeds, self.node_count)
        return self._scaled(metric, lambda c: int(np.count_nonzero(c.covered(seeds))))

    def marginal(self, v, base, metric: str) -> float:
        v = int(v)
        if v in base:
            raise DomainError(f"node {v} already in the base set")
        return float(self.marginal_many([v], base, metric)[0])

    def marginal_many(self, nodes, base, metric: str) -> np.ndarray:
        nodes, base = _node_array(nodes, self.node_count), _node_array(base, self.node_count)
        return self._scaled(metric, lambda c: RRCoverage(c, 1.0, base).uncovered[nodes])

    def marginal_vs_rest(self, nodes, whole, metric: str) -> np.ndarray:
        nodes, whole = _node_array(nodes, self.node_count), _node_array(whole, self.node_count)
        return self._scaled(metric, lambda c: c.rest_counts(whole)[nodes])

    def chain_increments(self, order, metric: str) -> np.ndarray:
        order = _node_array(order, self.node_count)
        return self._scaled(metric, lambda c: c.chain_counts(order))

    def coverage_state(self, metric: str, base=()) -> RRCoverage:
        self._check_kind(metric)
        return RRCoverage(self._colls[metric], self.rho(metric),
                          _node_array(base, self.node_count))

    def lattice_state(self, metric: str, must, may) -> RRLattice:
        self._check_kind(metric)
        return RRLattice(self._colls[metric], self.rho(metric),
                         _node_array(must, self.node_count), _node_array(may, self.node_count))

    def coverage_counts(self, seeds):
        """(Lambda_beta, Lambda_gamma): how many sets of each side the seed set covers."""
        seeds = _node_array(seeds, self.node_count)
        return tuple(int(np.count_nonzero(self._colls[kind].covered(seeds))) for kind in KINDS)


def save_collection(coll: RRCollection, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coll.to_json_dict(), fh)


def load_collection(path) -> RRCollection:
    return _read_json(path, RRCollection.from_json_dict)
