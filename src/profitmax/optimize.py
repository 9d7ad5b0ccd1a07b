"""Seed selection inside the pruned lattice.

Two heuristics search the lattice [A*, B*]:

* greedy hill climbing on the profit marginal, stopping when no candidate
  improves;
* modular-modular iteration, which replaces the benefit by a modular lower
  bound and the cost by a modular upper bound, both tight at the incumbent,
  and jumps to the exact maximizer of their difference.

Certification pairs the modular bounds the other way around (benefit upper
bound, cost lower bound) to cap the maximum achievable profit; that cap,
``mu_bound``, lives here next to ``modmod``, and both build their bounds on
one ``_Bounds``: the lattice as arrays aligned with its sorted ceiling.
Three reference baselines mirror the usual influence-maximization toolkit:
random seeds, top degree, and top coverage of the benefit collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InternalError
from .evaluation import KINDS, MarginalEvaluator
from .graph import WeightedGraph
from .prune import Lattice
from .rng import derive_seed, make_rng

BASELINES = ("random", "highdegree", "benefitmax")
RANDOM_BASELINE_DRAWS = 10


@dataclass(frozen=True)
class ModularFunction:
    """Additive set function: value(Y) = base + sum of per_node over Y.

    ``per_node`` is defined on the lattice ceiling it was built for;
    evaluating outside that domain raises.
    """

    base: float
    per_node: dict

    def evaluate(self, seeds) -> float:
        try:
            return self.base + sum(self.per_node[v] for v in seeds)
        except KeyError as missing:
            raise DomainError(f"node {missing.args[0]} outside the bound's domain") from None


@dataclass
class SelectionResult:
    """A selected seed set with its estimate and the path that produced it."""

    algorithm: str
    params: dict
    seeds: frozenset
    estimated_profit: float
    trajectory: list = field(default_factory=list)

    def to_json_dict(self, g: WeightedGraph = None) -> dict:
        conv = (lambda v: g.external_id(v)) if g is not None else int

        def convert(key, x):  # a trajectory step's node ids
            return conv(x) if key == "added" else sorted(map(conv, x)) if key == "seeds" else x

        return {"algorithm": self.algorithm, "params": self.params,
                "seeds": sorted(conv(v) for v in self.seeds),
                "estimated_profit": self.estimated_profit,
                "trajectory": [{key: convert(key, x) for key, x in step.items()}
                               for step in self.trajectory]}


def _require_lattice_member(X, lat: Lattice, what: str) -> frozenset:
    X = frozenset(X)
    if not lat.contains(X):
        raise DomainError(f"{what} must lie inside the lattice [A*, B*]")
    return X


class _Bounds:
    """The lattice as arrays aligned with its sorted ceiling B*, and the modular
    bounds on them.  ``must`` masks A*; ``free`` is B* - A* in the iteration
    order of ``lat.free_nodes``, at positions ``free_at``.  Building asks the
    evaluator nothing.  ``rank`` and ``fixed`` read coverage states at the
    lattice's anchors (empty, V, A* and B*), ``upper`` one at X, and
    ``lower`` the chain increments."""

    def __init__(self, evaluator: MarginalEvaluator, lat: Lattice):
        self.evaluator, self.lat = evaluator, lat
        self.ceiling = np.sort(np.fromiter(lat.may_include, np.int64, len(lat.may_include)))
        self.must = self.mask(lat.must_include)
        self.free = np.fromiter(lat.free_nodes, np.int64, len(lat.free_nodes))
        self.free_at = np.searchsorted(self.ceiling, self.free)

    def mask(self, nodes) -> np.ndarray:
        """Which ceiling entries lie in ``nodes``, a subset of the ceiling."""
        mask = np.zeros(len(self.ceiling), dtype=bool)
        mask[np.searchsorted(self.ceiling, np.fromiter(nodes, np.int64, len(nodes)))] = True
        return mask

    def rank(self) -> np.ndarray:
        """Positions by descending profit singleton f(v | empty), ties by id."""
        ceiling = self.ceiling
        benefit, cost = (self.evaluator.coverage_state(kind) for kind in KINDS)
        return np.lexsort((ceiling, -(benefit.gains - cost.gains)[ceiling]))

    def chain(self, rank: np.ndarray, inside: np.ndarray) -> np.ndarray:
        """``rank`` stably split into A*, X - A* and B* - X (``inside`` masks X)."""
        return rank[np.argsort((2 - inside - self.must)[rank], kind="stable")]

    def lower(self, metric: str, chain: np.ndarray) -> np.ndarray:
        """``modular_lower`` along the positions ``chain``."""
        per_node = np.empty(len(self.ceiling))
        per_node[chain] = self.evaluator.chain_increments(self.ceiling[chain], metric)
        return per_node

    def fixed(self, metric: str, variant: int) -> np.ndarray:
        """The X-independent half of ``modular_upper``, read from the metric's
        coverage state at the variant's anchor (zero on A* for variant 4)."""
        evaluator, lat = self.evaluator, self.lat
        anchor = (range(evaluator.node_count), (), lat.may_include, lat.must_include)[variant - 1]
        state = evaluator.coverage_state(metric, anchor)
        return state.inside(self.ceiling) if variant in (1, 3) else state.gains[self.ceiling]

    def upper(self, state, inside: np.ndarray, variant: int, fixed: np.ndarray) -> np.ndarray:
        """``modular_upper`` at X (mask ``inside``) but its base: ``fixed`` plus the
        per-X half, read from ``state``, the metric's coverage state at X."""
        per_node = fixed.copy()
        if variant in (1, 3):
            per_node[~inside] = state.gains[self.ceiling[~inside]]
        else:
            per_node[inside] = state.inside(self.ceiling[inside])
        return per_node

    def maximizer(self, keep: np.ndarray) -> frozenset:
        """A*, then the free nodes ``keep`` marks in ``free`` order: the seed
        set's iteration order, which ``mu_bound`` sums in."""
        chosen = set(self.lat.must_include)
        chosen.update(self.free[keep[self.free_at]].tolist())
        return frozenset(chosen)


def modular_upper(evaluator: MarginalEvaluator, metric: str, X, variant: int,
                  lat: Lattice) -> ModularFunction:
    """Modular upper bound on a submodular metric, tight at X.

    Four variants differ in which base sets anchor the per-node marginals;
    all bound f from above on the lattice and agree with f at X:

        1: inside X use f(v | V - v),  outside use f(v | X)
        2: inside X use f(v | X - v),  outside use f(v | empty)
        3: inside X use f(v | B* - v), outside use f(v | X)
        4: inside X use f(v | X - v),  outside use f(v | A*)

    Variants 3 and 4 sharpen 1 and 2 by exploiting that only lattice sets
    matter; they require A* <= X <= B*.

    Half of each bound does not depend on X.  It is computed over all of B*
    (B* - A* for variant 4, whose A* lies inside every lattice X), and the
    X-dependent half then overwrites the nodes on its side of X:

        variant  fixed half             per-X half
        1        f(v | V - v)           f(v | X)      outside X
        2        f(v | empty)           f(v | X - v)  inside X
        3        f(v | B* - v)          f(v | X)      outside X
        4        f(v | A*) on B* - A*   f(v | X - v)  inside X

    The fixed half is a coverage state at the variant's anchor (V, empty, B*
    or A*), the per-X half and f(X) one at X: gains outside, ``inside``
    within.  ``modmod`` computes the fixed half once per run and moves the
    state with X, both on arrays aligned with the sorted ceiling.
    """
    if variant not in (1, 2, 3, 4):
        raise DomainError(f"unknown modular upper bound variant {variant}")
    X = frozenset(X)
    if variant in (3, 4):
        X = _require_lattice_member(X, lat, "X")
    elif not X <= lat.may_include:
        raise DomainError("X must lie inside the lattice ceiling")
    bounds = _Bounds(evaluator, lat)
    inside = bounds.mask(X)
    state = evaluator.coverage_state(metric, X)
    per_node = bounds.upper(state, inside, variant, bounds.fixed(metric, variant))
    # Python's sequential sum over the sorted inside nodes; np.sum would round differently
    return ModularFunction(base=state.value - sum(per_node[inside].tolist()),
                           per_node=dict(zip(bounds.ceiling.tolist(), per_node.tolist())))


def make_permutation(lat: Lattice, X, evaluator: MarginalEvaluator) -> list:
    """Ordering of B* in blocks A*, X - A*, B* - X.

    Within each block, nodes sort by descending singleton profit (ties by
    id, for reproducibility), so promising nodes sit early in the chain and
    collect the larger increments.  Any ordering that respects the blocks
    yields valid bounds, only their tightness away from X differs.
    """
    X = _require_lattice_member(X, lat, "X")
    bounds = _Bounds(evaluator, lat)
    return bounds.ceiling[bounds.chain(bounds.rank(), bounds.mask(X))].tolist()


def modular_lower(evaluator: MarginalEvaluator, metric: str, X, pi,
                  lat: Lattice) -> ModularFunction:
    """Modular lower bound on a submodular metric, tight at X.

    ``pi`` must order all of B* with the nodes of A* first, then X - A*,
    then B* - X.  Node pi(i) contributes the increment of f along that
    prefix chain; the telescoping sum makes the bound exact at X, and
    submodularity makes it a lower bound everywhere on the lattice.
    """
    X = _require_lattice_member(X, lat, "X")
    pi = np.asarray(pi, dtype=np.int64)
    ceiling = _Bounds(evaluator, lat).ceiling
    if len(pi) != len(ceiling) or not np.array_equal(np.sort(pi), ceiling):
        raise DomainError("permutation must cover the lattice ceiling exactly once")
    pi = pi.tolist()
    # pi holds each node of B* once, so its first |A*| nodes are A* when all
    # of them lie in A*, and likewise for X
    if not (lat.must_include.issuperset(pi[:len(lat.must_include)])
            and X.issuperset(pi[:len(X)])):
        raise DomainError("permutation must order A*, then X - A*, then B* - X")
    return ModularFunction(base=0.0, per_node=dict(zip(
        pi, evaluator.chain_increments(pi, metric).tolist())))


def maximize_modular_difference(pos: ModularFunction, neg: ModularFunction,
                                lat: Lattice) -> frozenset:
    """Arg max over the lattice of pos(Y) - neg(Y).

    Both functions are additive, so the maximizer is A* plus every free node
    whose per-node difference is strictly positive; exact zeros stay out.
    """
    bounds = _Bounds(None, lat)
    diff = np.zeros(len(bounds.ceiling))
    try:
        diff[bounds.free_at] = [pos.per_node[v] - neg.per_node[v] for v in bounds.free.tolist()]
    except KeyError as missing:
        raise DomainError(f"node {missing.args[0]} outside the bound's domain") from None
    return bounds.maximizer(diff > 0.0)


def _climb(off: np.ndarray, gains_of):
    """Hill-climb over the nodes whose ``off`` is 0.0 (-inf elsewhere): yield the
    first maximum of ``gains_of() + off`` (ties to the smallest id) and its gain
    until that gain is not positive.  The caller adds the node to its coverage
    states before the next round, which first sets the node's ``off`` to -inf."""
    while True:
        net = gains_of() + off
        best = int(net.argmax())
        if net[best] <= 0.0:
            return
        yield best, float(net[best])
        off[best] = -np.inf


def greedy(evaluator: MarginalEvaluator, lat: Lattice) -> SelectionResult:
    """Hill-climb the profit marginal from A* within B*.

    Each round adds the free node with the largest marginal profit
    benefit(v | S) - cost(v | S), ties to the smallest id, and the climb
    stops as soon as that marginal is not positive.  The marginals come from
    one coverage state per side (``MarginalEvaluator.coverage_state``),
    updated as S grows; a round is one vectorised argmax over all nodes.
    """
    seeds = set(lat.must_include)
    free = lat.free_nodes
    trajectory = []
    if free:  # a lattice with nothing to choose needs no coverage states
        benefit = evaluator.coverage_state("benefit", seeds)
        cost = evaluator.coverage_state("cost", seeds)
        off = np.full(evaluator.node_count, -np.inf)
        off[np.fromiter(free, dtype=np.int64, count=len(free))] = 0.0
        for v, gain in _climb(off, lambda: benefit.gains - cost.gains):
            seeds.add(v)
            benefit.add(v)
            cost.add(v)
            trajectory.append({"added": v, "marginal": gain,
                               "profit": benefit.value - cost.value})
    result = frozenset(seeds)
    return SelectionResult("greedy", {}, result, evaluator.profit(result), trajectory)


def modmod(evaluator: MarginalEvaluator, lat: Lattice, gamma_bound_variant: int = 3,
           seed: int = 0) -> SelectionResult:
    """Modular-modular iteration from A* to a profit fixpoint.

    Round t bounds the profit from below by h(Y; benefit) - m(Y; cost), both
    tight at the incumbent X_t, and moves to the exact maximizer of that
    modular difference.  Tightness at X_t forces the true profit never to
    drop; the loop ends when the incumbent repeats.  ``gamma_bound_variant``
    picks the cost upper bound (3 or 4), matching the two flavors reported
    by the selection harness.  The chain order is ``make_permutation``'s,
    so the iteration draws nothing; ``seed`` is only recorded in ``params``.
    """
    if gamma_bound_variant not in (3, 4):
        raise DomainError(f"gamma bound variant must be 3 or 4, got {gamma_bound_variant}")
    incumbent = frozenset(lat.must_include)
    trajectory = [{"seeds": sorted(incumbent), "profit": evaluator.profit(incumbent)}]
    # what the bounds take from the lattice alone, computed once per run
    bounds = _Bounds(evaluator, lat)
    inside = bounds.must
    rank = bounds.rank()
    cost_fixed = bounds.fixed("cost", gamma_bound_variant)
    cost = evaluator.coverage_state("cost", incumbent)  # moved along with the incumbent
    for _ in range(100 * max(1, len(bounds.free))):
        benefit_floor = bounds.lower("benefit", bounds.chain(rank, inside))
        cost_ceiling = bounds.upper(cost, inside, gamma_bound_variant, cost_fixed)
        nxt = bounds.must | (benefit_floor - cost_ceiling > 0.0)  # their difference's maximizer
        if np.array_equal(nxt, inside):
            return SelectionResult(
                f"modmod{gamma_bound_variant - 2}",
                {"gamma_bound_variant": gamma_bound_variant, "seed": int(seed)},
                incumbent, trajectory[-1]["profit"], trajectory)
        cost.remove(bounds.ceiling[inside & ~nxt])
        cost.add(bounds.ceiling[nxt & ~inside])
        inside, incumbent = nxt, bounds.maximizer(nxt)
        trajectory.append({"seeds": bounds.ceiling[nxt].tolist(),
                           "profit": evaluator.profit(incumbent)})
    raise InternalError("modular-modular iteration did not converge; "
                        "the evaluator is inconsistent")


def mu_bound(evaluator: MarginalEvaluator, X, lat: Lattice) -> float:
    """Cap on the maximum achievable profit, anchored at a lattice set X.

    One modular lower bound on the cost, tight at X along the singleton
    permutation, is paired with each of the benefit upper bounds 3 and 4,
    also tight at X; each difference is maximized over the lattice in closed
    form, and the smaller maximum is returned.  No seed set anywhere in the
    lattice, and hence none at all, can beat it under the evaluator's
    metrics.  Certification (``profitmax.certify``) calls it once per
    certificate.  Bar the cost floor's chain increments, it reads coverage
    states: at the empty set, at each bound's anchor, and at X for f(X).
    """
    X = _require_lattice_member(X, lat, "X")
    bounds = _Bounds(evaluator, lat)
    inside = bounds.mask(X)
    cost_floor = bounds.lower("cost", bounds.chain(bounds.rank(), inside))
    state = evaluator.coverage_state("benefit", X)  # f(X) and both bounds' per-X half
    caps = []
    for variant in (3, 4):
        upper = bounds.upper(state, inside, variant, bounds.fixed("benefit", variant))
        best = bounds.maximizer(upper - cost_floor > 0.0)
        # each bound as ModularFunction.evaluate gives it: summed over best as it iterates
        at = np.searchsorted(bounds.ceiling, np.fromiter(best, dtype=np.int64, count=len(best)))
        caps.append((state.value - sum(upper[inside].tolist()) + sum(upper[at].tolist()))
                    - (0.0 + sum(cost_floor[at].tolist())))
    return min(caps)


def baseline(kind: str, g: WeightedGraph, k: int, evaluator: MarginalEvaluator,
             seed: int) -> SelectionResult:
    """Reference selectors that ignore the cost side of the objective.

    random averages its reported profit over a fixed number of fresh draws;
    highdegree takes the top out-degrees; benefitmax runs coverage greedy on
    the benefit estimates for k rounds.  Each builds its seed sets first and
    scores them all with one ``value_many`` query, which RR estimates answer
    with one bit-parallel coverage pass per 64 seed sets.
    """
    k = int(k)
    if not (1 <= k <= g.node_count):
        raise DomainError(f"k must lie in 1..{g.node_count}, got {k}")
    return _baselines(kind, g, evaluator, [k], seed)[0]


def _baselines(kind: str, g: WeightedGraph, evaluator: MarginalEvaluator, sizes,
               seed) -> list:
    """The ``kind`` baseline's selection for each k in ``sizes``."""
    if kind not in BASELINES:
        raise DomainError(f"unknown baseline {kind!r}; expected one of {BASELINES}")
    if kind == "random":
        return _random(g, evaluator, sizes, seed)
    if kind == "highdegree":
        return _highdegree(g, evaluator, sizes)
    return _benefitmax(evaluator, g.node_count, sizes)


def _random(g: WeightedGraph, evaluator: MarginalEvaluator, sizes, seed) -> list:
    """The random selection for each k in sizes.

    Each k draws from its own generator, derived from (seed, k), so a swept
    k draws what a lone call for it does.  Draws stay the arrays ``choice``
    returns; only the first at each k becomes a frozenset, its seeds.
    """
    draws = []
    for k in sizes:
        rng = make_rng(derive_seed(int(seed), "baseline", "random", k))
        draws += [rng.choice(g.node_count, size=k, replace=False)
                  for _ in range(RANDOM_BASELINE_DRAWS)]
    profits = evaluator.value_many(draws, "profit").tolist()
    results = []
    for i, k in enumerate(sizes):
        lo = i * RANDOM_BASELINE_DRAWS
        part = profits[lo:lo + RANDOM_BASELINE_DRAWS]
        # Python's sequential sum; np.mean would round differently
        results.append(SelectionResult(
            "random", {"k": k, "draws": RANDOM_BASELINE_DRAWS, "seed": int(seed)},
            frozenset(draws[lo].tolist()), sum(part) / len(part),
            [{"draw": j, "profit": p} for j, p in enumerate(part)]))
    return results


def _highdegree(g: WeightedGraph, evaluator: MarginalEvaluator, sizes) -> list:
    """The highdegree selection for each k in sizes, ties to the smallest id.

    Each k takes a prefix of one order by descending out-degree.
    """
    order = np.lexsort((np.arange(g.node_count), -g.out_degree)).tolist()
    chosen = [frozenset(order[:k]) for k in sizes]
    profits = evaluator.value_many(chosen, "profit").tolist()
    return [SelectionResult("highdegree", {"k": k}, seeds, profit)
            for k, seeds, profit in zip(sizes, chosen, profits)]


def _benefitmax(evaluator: MarginalEvaluator, node_count: int, sizes) -> list:
    """The benefitmax selection for each k in sizes.

    Greedy on the benefit marginal alone (ties to the smallest id) picks the
    same nodes whatever k is, so each k takes a prefix of one run.  Once no
    free node has a positive gain, no later pick changes any gain (coverage
    only shrinks them, and they never go below zero), so the remaining picks
    are the free nodes in id order, each with marginal 0.0.
    """
    rounds = max(sizes)
    state = evaluator.coverage_state("benefit")
    off = np.zeros(node_count)
    picks = []
    for v, gain in _climb(off, lambda: state.gains):
        picks.append({"added": v, "marginal": gain})
        if len(picks) == rounds:
            break
        state.add(v)
    # a climb that stopped has set every pick's off to -inf; one cut short
    # at ``rounds`` needs no fill
    picks += [{"added": v, "marginal": 0.0}
              for v in np.flatnonzero(off == 0.0)[:rounds - len(picks)].tolist()]
    chosen = [frozenset(p["added"] for p in picks[:k]) for k in sizes]
    profits = evaluator.value_many(chosen, "profit").tolist()
    return [SelectionResult("benefitmax", {"k": k}, seeds, profit, [dict(p) for p in picks[:k]])
            for k, seeds, profit in zip(sizes, chosen, profits)]


def sweep_sizes(node_count: int) -> list:
    """Deduplicated k values ceil(n / 2^i) for i = 0..10, largest first."""
    if node_count < 1:
        raise DomainError("k sweep needs at least one node")
    return list(dict.fromkeys(-(-node_count // (1 << i)) for i in range(11)))


def k_sweep(kind: str, g: WeightedGraph, evaluator: MarginalEvaluator,
            seed: int = 0) -> SelectionResult:
    """Run a baseline across the k schedule and keep its best profit.

    Ties keep the first (largest) k.  Neither the greedy picks nor the
    out-degree order depend on k, so every benefitmax and every highdegree
    selection is a prefix of one run or one sort.  Every seed set of the
    sweep (for random, every draw at every k) is scored by one
    ``value_many`` query, a bit-parallel coverage count on RR estimates.
    """
    sizes = sweep_sizes(g.node_count)
    results = _baselines(kind, g, evaluator, sizes, seed)
    best = max(results, key=lambda result: result.estimated_profit)
    best.params = dict(best.params, swept=[{"k": k, "profit": result.estimated_profit}
                                           for k, result in zip(sizes, results)])
    return best
