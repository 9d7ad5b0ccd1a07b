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
one ``ModularBounds``: the lattice as arrays aligned with its sorted ceiling.
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
ALGORITHMS = ("greedy", "modmod1", "modmod2") + BASELINES
RANDOM_BASELINE_DRAWS = 10


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


class ModularBounds:
    """Modular upper and lower bounds of a submodular metric f on the lattice
    [A*, B*], as float64 arrays aligned with the sorted ceiling B*.

    A bound tight at X is f(X) plus the per-node values ``upper`` or
    ``lower`` returns, summed over Y, minus theirs summed over X.  The four
    upper bounds bound f from above on the lattice and agree with f at X.
    One column of each does not depend on X: ``fixed`` computes it over all
    of B* from a coverage state at the variant's anchor, and ``upper``
    overwrites the other column from the metric's coverage state at X:

        variant  inside X        outside X       fixed
        1        f(v | V - v)    f(v | X)        inside
        2        f(v | X - v)    f(v | empty)    outside
        3        f(v | B* - v)   f(v | X)        inside
        4        f(v | X - v)    f(v | A*)       outside (zero on A*)

    Variants 3 and 4 sharpen 1 and 2 by exploiting that only lattice sets
    matter; they require A* <= X <= B*.  The lower bound takes the
    increments of f along a chain through A*, then X - A*, then B* - X; the
    telescoping sum makes it exact at X, and submodularity a lower bound
    everywhere on the lattice.

    ``must`` masks A*.  Building asks the evaluator nothing.
    """

    def __init__(self, evaluator: MarginalEvaluator, lat: Lattice):
        self.evaluator, self.lat = evaluator, lat
        self.ceiling = np.sort(np.fromiter(lat.may_include, np.int64, len(lat.may_include)))
        self.must = self.mask(lat.must_include)

    def mask(self, nodes) -> np.ndarray:
        """Which ceiling entries lie in ``nodes``, a subset of the ceiling."""
        if not self.lat.may_include.issuperset(nodes):
            raise DomainError("nodes must lie inside the lattice ceiling B*")
        mask = np.zeros(len(self.ceiling), dtype=bool)
        mask[np.searchsorted(self.ceiling, np.fromiter(nodes, np.int64, len(nodes)))] = True
        return mask

    def rank(self) -> np.ndarray:
        """Positions by descending profit singleton f(v | empty), ties by id."""
        ceiling = self.ceiling
        benefit, cost = (self.evaluator.coverage_state(kind) for kind in KINDS)
        return np.lexsort((ceiling, -(benefit.gains - cost.gains)[ceiling]))

    def chain(self, rank: np.ndarray, inside: np.ndarray) -> np.ndarray:
        """``rank`` stably split into A*, X - A* and B* - X (``inside`` masks X).
        Any order that respects the blocks gives a valid lower bound; ranking
        promising nodes early makes it tighter away from X."""
        return rank[np.argsort((2 - inside - self.must)[rank], kind="stable")]

    def lower(self, metric: str, chain: np.ndarray) -> np.ndarray:
        """The lower bound's per-node values: the increments along ``chain``."""
        per_node = np.empty(len(self.ceiling))
        per_node[chain] = self.evaluator.chain_increments(self.ceiling[chain], metric)
        return per_node

    def fixed(self, metric: str, variant: int) -> np.ndarray:
        """The X-independent half of upper bound ``variant``, read from the
        metric's coverage state at the variant's anchor (zero on A* for 4)."""
        _check_variant(variant)
        evaluator, lat = self.evaluator, self.lat
        anchor = (range(evaluator.node_count), (), lat.may_include, lat.must_include)[variant - 1]
        state = evaluator.coverage_state(metric, anchor)
        return state.inside(self.ceiling) if variant in (1, 3) else state.gains[self.ceiling]

    def upper(self, state, inside: np.ndarray, variant: int, fixed: np.ndarray) -> np.ndarray:
        """Upper bound ``variant``'s per-node values at X (mask ``inside``):
        ``fixed`` plus the per-X half, read from ``state``, the metric's
        coverage state at X."""
        _check_variant(variant)
        if variant in (3, 4) and (self.must & ~inside).any():
            raise DomainError("X must lie inside the lattice [A*, B*]")
        per_node = fixed.copy()
        if variant in (1, 3):
            per_node[~inside] = state.gains[self.ceiling[~inside]]
        else:
            per_node[inside] = state.inside(self.ceiling[inside])
        return per_node

    def maximizer(self, keep: np.ndarray) -> frozenset:
        """A* and the ceiling entries ``keep`` marks."""
        return frozenset(self.ceiling[self.must | keep].tolist())


def _check_variant(variant: int) -> None:
    if variant not in (1, 2, 3, 4):
        raise DomainError(f"unknown modular upper bound variant {variant}")


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
    stops as soon as that marginal is not positive.  The marginals and each
    trajectory entry's profit come from one coverage state per side
    (``MarginalEvaluator.coverage_state``), updated as S grows; a round is
    one vectorised argmax over all nodes.  The estimate is the last entry's
    profit, or A*'s when no node enters.
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
    profit = trajectory[-1]["profit"] if trajectory else evaluator.profit(result)
    return SelectionResult("greedy", {}, result, profit, trajectory)


def modmod(evaluator: MarginalEvaluator, lat: Lattice, gamma_bound_variant: int = 3,
           seed: int = 0) -> SelectionResult:
    """Modular-modular iteration from A* to a profit fixpoint.

    Round t bounds the profit from below by h(Y; benefit) - m(Y; cost), both
    tight at the incumbent X_t, and moves to the exact maximizer of that
    modular difference.  Tightness at X_t forces the true profit never to
    drop; the loop ends when the incumbent repeats.  ``gamma_bound_variant``
    picks the cost upper bound (3 or 4), matching the two flavors reported
    by the selection harness.  The benefit floor's chain is
    ``ModularBounds.chain`` of the profit singleton ranking, so the iteration
    draws nothing; ``seed`` is only recorded in ``params``.
    Each trajectory entry's profit is read from the two sides' coverage
    states at the incumbent.
    """
    if gamma_bound_variant not in (3, 4):
        raise DomainError(f"gamma bound variant must be 3 or 4, got {gamma_bound_variant}")
    incumbent = frozenset(lat.must_include)
    # both sides' states at the incumbent, moved along with it: the cost
    # ceiling's per-X half and each trajectory entry's profit
    benefit, cost = (evaluator.coverage_state(kind, incumbent) for kind in KINDS)
    trajectory = [{"seeds": sorted(incumbent), "profit": benefit.value - cost.value}]
    # what the bounds take from the lattice alone, computed once per run
    bounds = ModularBounds(evaluator, lat)
    inside = bounds.must
    rank = bounds.rank()
    cost_fixed = bounds.fixed("cost", gamma_bound_variant)
    for _ in range(100 * max(1, len(lat.free_nodes))):
        benefit_floor = bounds.lower("benefit", bounds.chain(rank, inside))
        cost_ceiling = bounds.upper(cost, inside, gamma_bound_variant, cost_fixed)
        nxt = bounds.must | (benefit_floor - cost_ceiling > 0.0)  # their difference's maximizer
        if np.array_equal(nxt, inside):
            return SelectionResult(
                f"modmod{gamma_bound_variant - 2}",
                {"gamma_bound_variant": gamma_bound_variant, "seed": int(seed)},
                incumbent, trajectory[-1]["profit"], trajectory)
        for state in (benefit, cost):
            state.remove(bounds.ceiling[inside & ~nxt])
            state.add(bounds.ceiling[nxt & ~inside])
        inside, incumbent = nxt, bounds.maximizer(nxt)
        trajectory.append({"seeds": bounds.ceiling[nxt].tolist(),
                           "profit": benefit.value - cost.value})
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
    X = frozenset(X)
    if not lat.contains(X):
        raise DomainError("X must lie inside the lattice [A*, B*]")
    bounds = ModularBounds(evaluator, lat)
    inside = bounds.mask(X)
    cost_floor = bounds.lower("cost", bounds.chain(bounds.rank(), inside))
    state = evaluator.coverage_state("benefit", X)  # f(X) and both bounds' per-X half
    caps = []
    for variant in (3, 4):
        upper = bounds.upper(state, inside, variant, bounds.fixed("benefit", variant))
        best = bounds.must | (upper - cost_floor > 0.0)  # the difference's maximizer
        # each bound at best: its base plus its per-node values summed over best
        caps.append(float(state.value - upper[inside].sum() + upper[best].sum()
                          - cost_floor[best].sum()))
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


def select(name: str, g: WeightedGraph, evaluator: MarginalEvaluator, lat: Lattice,
           seed: int = 0) -> SelectionResult:
    """The selection of ``name``, one of ``ALGORITHMS``: greedy and modmod1/2
    (modmod at cost bound variant 3 or 4) search ``lat``; a baseline sweeps k
    over the whole graph.  modmod records ``derive_seed(seed, name)``, and a
    baseline draws from ``derive_seed(seed, "baseline", name)``."""
    if name not in ALGORITHMS:
        raise DomainError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    if name == "greedy":
        return greedy(evaluator, lat)
    if name in ("modmod1", "modmod2"):
        return modmod(evaluator, lat, gamma_bound_variant=3 if name == "modmod1" else 4,
                      seed=derive_seed(seed, name))
    return k_sweep(name, g, evaluator, seed=derive_seed(seed, "baseline", name))
