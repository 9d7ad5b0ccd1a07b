"""Seed selection inside the pruned lattice.

Two heuristics search the lattice [A*, B*]:

* greedy hill climbing on the profit marginal, stopping when no candidate
  improves;
* modular-modular iteration, which replaces the benefit by a modular lower
  bound and the cost by a modular upper bound, both tight at the incumbent,
  and jumps to the exact maximizer of their difference.

The modular bound constructors are shared with certification, which pairs
them the other way around (benefit upper bound, cost lower bound) to cap the
maximum achievable profit.  Three reference baselines mirror the usual
influence-maximization toolkit: random seeds, top degree, and top coverage of
the benefit collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InternalError
from .evaluation import MarginalEvaluator
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

        def convert_step(step):
            out = dict(step)
            if "added" in out:
                out["added"] = conv(out["added"])
            if "seeds" in out:
                out["seeds"] = sorted(conv(v) for v in out["seeds"])
            return out

        return {
            "algorithm": self.algorithm,
            "params": self.params,
            "seeds": sorted(conv(v) for v in self.seeds),
            "estimated_profit": self.estimated_profit,
            "trajectory": [convert_step(s) for s in self.trajectory],
        }


def _require_lattice_member(X, lat: Lattice, what: str) -> frozenset:
    X = frozenset(X)
    if not lat.contains(X):
        raise DomainError(f"{what} must lie inside the lattice [A*, B*]")
    return X


def _ceiling(lat: Lattice) -> np.ndarray:
    """The lattice ceiling B* as a sorted int64 array."""
    return np.sort(np.fromiter(lat.may_include, dtype=np.int64, count=len(lat.may_include)))


def _member_mask(ceiling: np.ndarray, nodes) -> np.ndarray:
    """Which entries of ``ceiling`` lie in ``nodes``, a subset of it."""
    mask = np.zeros(len(ceiling), dtype=bool)
    mask[np.searchsorted(ceiling, np.fromiter(nodes, dtype=np.int64, count=len(nodes)))] = True
    return mask


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

    ``modmod`` computes the fixed half once per run and adds the per-X half
    each round.
    """
    if variant not in (1, 2, 3, 4):
        raise DomainError(f"unknown modular upper bound variant {variant}")
    X = frozenset(X)
    if variant in (3, 4):
        X = _require_lattice_member(X, lat, "X")
    elif not X <= lat.may_include:
        raise DomainError("X must lie inside the lattice ceiling")
    ceiling = _ceiling(lat)
    fixed = _upper_fixed(evaluator, metric, variant, lat, ceiling)
    return _upper_at(evaluator, metric, X, evaluator.value(X, metric), variant, ceiling, fixed)


def _upper_fixed(evaluator: MarginalEvaluator, metric: str, variant: int,
                 lat: Lattice, ceiling: np.ndarray) -> np.ndarray:
    """The X-independent half of ``modular_upper``, aligned with ``ceiling``.

    Variant 4 leaves A* at zero: the per-X half covers it.
    """
    if variant == 1:
        return evaluator.marginal_vs_rest(ceiling, range(evaluator.node_count), metric)
    if variant == 2:
        return evaluator.marginal_many(ceiling, (), metric)
    if variant == 3:
        return evaluator.marginal_vs_rest(ceiling, lat.may_include, metric)
    fixed = np.zeros(len(ceiling))
    free = ~_member_mask(ceiling, lat.must_include)
    fixed[free] = evaluator.marginal_many(ceiling[free], lat.must_include, metric)
    return fixed


def _upper_at(evaluator: MarginalEvaluator, metric: str, X: frozenset, value: float,
              variant: int, ceiling: np.ndarray, fixed: np.ndarray) -> ModularFunction:
    """``modular_upper`` at X from its fixed half and ``value`` = f(X): add the per-X half."""
    inside = _member_mask(ceiling, X)
    per_node = fixed.copy()
    if variant in (1, 3):
        per_node[~inside] = evaluator.marginal_many(ceiling[~inside], X, metric)
    else:
        per_node[inside] = evaluator.marginal_vs_rest(ceiling[inside], X, metric)
    # Python's sequential sum over the sorted inside nodes; np.sum would round differently
    base = value - sum(per_node[inside].tolist())
    return ModularFunction(base=base, per_node=dict(zip(ceiling.tolist(), per_node.tolist())))


def make_permutation(lat: Lattice, X, evaluator: MarginalEvaluator,
                     policy: str = "marginal", seed: int = 0) -> list:
    """Ordering of B* in blocks A*, X - A*, B* - X.

    Within each block, the ``marginal`` policy sorts by descending singleton
    profit (ties by id, for reproducibility), so promising nodes sit early in
    the chain and collect the larger increments; the ``random`` policy
    shuffles with the given seed.  Any ordering that respects the blocks
    yields valid bounds, only their tightness away from X differs.
    """
    X = _require_lattice_member(X, lat, "X")
    ceiling = _ceiling(lat)
    return _order(lat, X, ceiling, _singletons(evaluator, ceiling, policy), seed)


def _singletons(evaluator: MarginalEvaluator, ceiling: np.ndarray, policy: str):
    """What a permutation policy orders by, aligned with ``ceiling``.

    The ``marginal`` policy orders by the profit singletons f(v | empty);
    the ``random`` policy needs nothing (None).
    """
    if policy == "random":
        return None
    if policy != "marginal":
        raise DomainError(f"unknown permutation policy {policy!r}")
    return evaluator.marginal_many(ceiling, (), "profit")


def _order(lat: Lattice, X: frozenset, ceiling: np.ndarray, singleton, seed) -> list:
    """``make_permutation`` from the singletons ``_singletons`` gave."""
    if singleton is None:
        rng = make_rng(derive_seed(int(seed), "permutation"))
        out = []
        for block in (sorted(lat.must_include), sorted(X - lat.must_include),
                      sorted(lat.may_include - X)):
            rng.shuffle(block)
            out.extend(int(v) for v in block)
        return out
    block = 2 - _member_mask(ceiling, X) - _member_mask(ceiling, lat.must_include)
    # lexsort's last key sorts first: block, then descending singleton, then id
    return ceiling[np.lexsort((ceiling, -singleton, block))].tolist()


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
    ceiling = _ceiling(lat)
    if len(pi) != len(ceiling) or not np.array_equal(np.sort(pi), ceiling):
        raise DomainError("permutation must cover the lattice ceiling exactly once")
    pi = pi.tolist()
    # pi holds each node of B* once, so its first |A*| nodes are A* when all
    # of them lie in A*, and likewise for X
    if not (lat.must_include.issuperset(pi[:len(lat.must_include)])
            and X.issuperset(pi[:len(X)])):
        raise DomainError("permutation must order A*, then X - A*, then B* - X")
    return _chain_bound(evaluator, metric, pi)


def _chain_bound(evaluator: MarginalEvaluator, metric: str, pi: list) -> ModularFunction:
    """``modular_lower`` along a permutation ``pi`` known to be valid."""
    incs = evaluator.chain_increments(pi, metric)
    return ModularFunction(base=0.0, per_node=dict(zip(pi, incs.tolist())))


def maximize_modular_difference(pos: ModularFunction, neg: ModularFunction,
                                lat: Lattice) -> frozenset:
    """Arg max over the lattice of pos(Y) - neg(Y).

    Both functions are additive, so the maximizer is A* plus every free node
    whose per-node difference is strictly positive; exact zeros stay out.
    """
    chosen = set(lat.must_include)
    for v in lat.free_nodes:
        if pos.per_node[v] - neg.per_node[v] > 0.0:
            chosen.add(v)
    return frozenset(chosen)


def greedy(evaluator: MarginalEvaluator, lat: Lattice) -> SelectionResult:
    """Hill-climb the profit marginal from A* within B*.

    Each round adds the free node with the largest marginal profit
    benefit(v | S) - cost(v | S), ties to the smallest id, and the climb
    stops as soon as that marginal is not positive.  The marginals of all
    nodes come from one coverage state per side
    (``MarginalEvaluator.coverage_state``), updated as S grows; on RR
    estimates a round is one vectorised argmax over the free nodes.
    """
    seeds = set(lat.must_include)
    free = np.array(sorted(lat.free_nodes), dtype=np.int64)
    trajectory = []
    if free.size:  # a lattice with nothing to choose needs no coverage states
        benefit = evaluator.coverage_state("benefit", seeds)
        cost = evaluator.coverage_state("cost", seeds)
        while free.size:
            gains = benefit.gains[free] - cost.gains[free]
            best = int(np.argmax(gains))  # the first maximum: ties go to the smallest id
            if gains[best] <= 0.0:
                break
            v = int(free[best])
            seeds.add(v)
            benefit.add(v)
            cost.add(v)
            free = np.delete(free, best)
            trajectory.append({"added": v, "marginal": float(gains[best]),
                               "profit": benefit.value - cost.value})
    result = frozenset(seeds)
    return SelectionResult(algorithm="greedy", params={}, seeds=result,
                           estimated_profit=evaluator.profit(result),
                           trajectory=trajectory)


def modmod(evaluator: MarginalEvaluator, lat: Lattice, gamma_bound_variant: int = 3,
           pi_policy: str = "marginal", seed: int = 0) -> SelectionResult:
    """Modular-modular iteration from A* to a profit fixpoint.

    Round t bounds the profit from below by h(Y; benefit) - m(Y; cost), both
    tight at the incumbent X_t, and moves to the exact maximizer of that
    modular difference.  Tightness at X_t forces the true profit never to
    drop; the loop ends when the incumbent repeats.  ``gamma_bound_variant``
    picks the cost upper bound (3 or 4), matching the two flavors reported
    by the selection harness.
    """
    if gamma_bound_variant not in (3, 4):
        raise DomainError(f"gamma bound variant must be 3 or 4, got {gamma_bound_variant}")
    incumbent = frozenset(lat.must_include)
    trajectory = [{"seeds": sorted(incumbent), "profit": evaluator.profit(incumbent)}]
    # what the bounds take from the lattice alone, computed once per run
    ceiling = _ceiling(lat)
    singleton = _singletons(evaluator, ceiling, pi_policy)
    cost_fixed = _upper_fixed(evaluator, "cost", gamma_bound_variant, lat, ceiling)
    for round_no in range(100 * max(1, len(lat.free_nodes))):
        pi = _order(lat, incumbent, ceiling, singleton,
                    seed=derive_seed(int(seed), "pi", round_no))
        benefit_floor = _chain_bound(evaluator, "benefit", pi)
        cost_ceiling = _upper_at(evaluator, "cost", incumbent,
                                 evaluator.value(incumbent, "cost"), gamma_bound_variant,
                                 ceiling, cost_fixed)
        nxt = maximize_modular_difference(benefit_floor, cost_ceiling, lat)
        if nxt == incumbent:
            name = "modmod1" if gamma_bound_variant == 3 else "modmod2"
            return SelectionResult(
                algorithm=name,
                params={"gamma_bound_variant": gamma_bound_variant,
                        "pi_policy": pi_policy, "seed": int(seed)},
                seeds=incumbent,
                estimated_profit=trajectory[-1]["profit"],
                trajectory=trajectory)
        incumbent = nxt
        trajectory.append({"seeds": sorted(incumbent),
                           "profit": evaluator.profit(incumbent)})
    raise InternalError("modular-modular iteration did not converge; "
                        "the evaluator is inconsistent")


def baseline(kind: str, g: WeightedGraph, k: int, evaluator: MarginalEvaluator,
             seed: int) -> SelectionResult:
    """Reference selectors that ignore the cost side of the objective.

    random averages its reported profit over a fixed number of fresh draws;
    highdegree takes the top out-degrees; benefitmax runs coverage greedy on
    the benefit estimates for k rounds.  Each builds its seed sets first and
    scores them all with one ``value_many`` query, which RR estimates answer
    with one bit-parallel coverage pass per 64 seed sets.
    """
    if kind not in BASELINES:
        raise DomainError(f"unknown baseline {kind!r}; expected one of {BASELINES}")
    k = int(k)
    if not (1 <= k <= g.node_count):
        raise DomainError(f"k must lie in 1..{g.node_count}, got {k}")
    if kind == "random":
        return _random(g, evaluator, [k], seed)[0]
    if kind == "highdegree":
        return _highdegree(g, evaluator, [k])[0]
    return _benefitmax(evaluator, g.node_count, [k])[0]


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
            algorithm="random",
            params={"k": k, "draws": RANDOM_BASELINE_DRAWS, "seed": int(seed)},
            seeds=frozenset(draws[lo].tolist()), estimated_profit=sum(part) / len(part),
            trajectory=[{"draw": j, "profit": p} for j, p in enumerate(part)]))
    return results


def _highdegree(g: WeightedGraph, evaluator: MarginalEvaluator, sizes) -> list:
    """The highdegree selection for each k in sizes, ties to the smallest id.

    Each k takes a prefix of one order by descending out-degree.
    """
    order = np.lexsort((np.arange(g.node_count), -g.out_degree)).tolist()
    chosen = [frozenset(order[:k]) for k in sizes]
    profits = evaluator.value_many(chosen, "profit").tolist()
    return [SelectionResult(algorithm="highdegree", params={"k": k}, seeds=seeds,
                            estimated_profit=profit, trajectory=[])
            for k, seeds, profit in zip(sizes, chosen, profits)]


def _benefitmax(evaluator: MarginalEvaluator, node_count: int, sizes) -> list:
    """The benefitmax selection for each k in sizes.

    Greedy on the benefit marginal alone (ties to the smallest id) picks the
    same nodes whatever k is, so each k takes a prefix of one run.  Once no
    free node has a nonzero gain, no later pick changes any gain (coverage
    only shrinks them, and they never go below zero), so the remaining picks
    are the free nodes in id order, each with marginal 0.0.
    """
    state = evaluator.coverage_state("benefit")
    free = np.arange(node_count, dtype=np.int64)
    picks = []
    for _ in range(max(sizes)):
        gains = state.gains[free]
        if not gains.any():
            picks += [{"added": v, "marginal": 0.0}
                      for v in free[:max(sizes) - len(picks)].tolist()]
            break
        best = int(np.argmax(gains))
        picks.append({"added": int(free[best]), "marginal": float(gains[best])})
        state.add(picks[-1]["added"])
        free = np.delete(free, best)
    chosen = [frozenset(p["added"] for p in picks[:k]) for k in sizes]
    profits = evaluator.value_many(chosen, "profit").tolist()
    return [SelectionResult(algorithm="benefitmax", params={"k": k}, seeds=seeds,
                            estimated_profit=profit,
                            trajectory=[dict(p) for p in picks[:k]])
            for k, seeds, profit in zip(sizes, chosen, profits)]


def sweep_sizes(node_count: int) -> list:
    """Deduplicated k values ceil(n / 2^i) for i = 0..10, largest first."""
    if node_count < 1:
        raise DomainError("k sweep needs at least one node")
    sizes = []
    for i in range(11):
        k = -(-node_count // (1 << i))
        if k not in sizes:
            sizes.append(k)
    return sizes


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
    if kind not in BASELINES:
        raise DomainError(f"unknown baseline {kind!r}; expected one of {BASELINES}")
    if kind == "random":
        results = _random(g, evaluator, sizes, seed)
    elif kind == "highdegree":
        results = _highdegree(g, evaluator, sizes)
    else:
        results = _benefitmax(evaluator, g.node_count, sizes)
    best = None
    swept = []
    for k, result in zip(sizes, results):
        swept.append({"k": k, "profit": result.estimated_profit})
        if best is None or result.estimated_profit > best.estimated_profit:
            best = result
    best.params = dict(best.params, swept=swept)
    return best
