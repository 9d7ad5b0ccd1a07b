"""Common query interface for benefit/cost/profit evaluators.

Pruning, seed selection and certification are written against this interface
so they run unchanged on the exact oracle (small graphs) and on the
reverse-reachable sampling estimator (any scale).  Subclasses must implement
``value``; the batched helpers and the coverage state, the one incremental
query, have generic fallbacks that subclasses may override with faster paths.

The batched queries (``marginal_many``, ``marginal_vs_rest`` and
``chain_increments``) return float64 arrays aligned with the nodes asked
for: entry i answers for the i-th node.  ``value_many`` returns one aligned
with the seed sets asked for, entry i equal to ``value`` of the i-th.
``marginal`` and ``value`` return Python floats.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

METRICS = ("benefit", "cost", "profit")
KINDS = ("benefit", "cost")


class CoverageState:
    """One side's value and marginals for a seed set S that nodes enter and leave.

    ``add(nodes)`` and ``remove(nodes)`` take one node or several; a node
    already on that side of S is left as it is.  ``value`` is f(S),
    ``gains[v]`` is f(v | S) (zero on S itself) and ``inside(nodes)`` is
    f(v | S - v), a float64 array aligned with ``nodes``.  This generic
    version asks ``value``, ``marginal_many`` and ``marginal_vs_rest`` on
    every read; an evaluator with incremental structure returns its own
    object with these members.
    """

    def __init__(self, evaluator, metric: str, seeds=()):
        self.evaluator, self.metric = evaluator, metric
        self.seeds = set(_ids(seeds))

    def add(self, nodes) -> None:
        self.seeds.update(_ids(nodes))

    def remove(self, nodes) -> None:
        self.seeds.difference_update(_ids(nodes))

    @property
    def value(self) -> float:
        return self.evaluator.value(frozenset(self.seeds), self.metric)

    @property
    def gains(self) -> np.ndarray:
        ev, base = self.evaluator, frozenset(self.seeds)
        rest = [v for v in range(ev.node_count) if v not in base]
        gains = np.zeros(ev.node_count)
        gains[rest] = ev.marginal_many(rest, base, self.metric)
        return gains

    def inside(self, nodes) -> np.ndarray:
        return self.evaluator.marginal_vs_rest(nodes, frozenset(self.seeds), self.metric)


def _ids(nodes) -> list:
    """One node id, or each of several, as a list of ints."""
    return [int(nodes)] if np.isscalar(nodes) else [int(v) for v in nodes]


class MarginalEvaluator:
    """Set-function queries over one graph's benefit and cost metrics."""

    node_count: int

    # -- required primitive ----------------------------------------------

    def value(self, seeds, metric: str) -> float:
        raise NotImplementedError

    # -- derived queries ---------------------------------------------------

    def benefit(self, seeds) -> float:
        return self.value(seeds, "benefit")

    def cost(self, seeds) -> float:
        return self.value(seeds, "cost")

    def profit(self, seeds) -> float:
        return self.value(seeds, "benefit") - self.value(seeds, "cost")

    def value_many(self, seed_sets, metric: str) -> np.ndarray:
        """f(S) for each S in ``seed_sets``, as a float64 array in their order."""
        self._check_metric(metric)
        return np.array([self.value(s, metric) for s in seed_sets], dtype=np.float64)

    def marginal(self, v, base, metric: str) -> float:
        """f(base + v) - f(base)."""
        self._check_metric(metric)
        if v in base:
            raise DomainError(f"node {v} already in the base set")
        if metric == "profit":
            return (self.marginal(v, base, "benefit")
                    - self.marginal(v, base, "cost"))
        base = frozenset(base)
        return self.value(base | {v}, metric) - self.value(base, metric)

    def marginal_many(self, nodes, base, metric: str) -> np.ndarray:
        """f(v | base) for each v in ``nodes``, as a float64 array in their order."""
        base = frozenset(base)
        return np.array([self.marginal(v, base, metric) for v in nodes], dtype=np.float64)

    def marginal_vs_rest(self, nodes, whole, metric: str) -> np.ndarray:
        """f(v | whole - v) for each v in ``nodes``, as a float64 array in their order.

        This is the smallest marginal v can have inside ``whole`` under
        submodularity, so it doubles as a floor in pruning.
        """
        self._check_metric(metric)
        whole = frozenset(whole)
        return np.array([self.marginal(v, whole - {v}, metric) for v in nodes],
                        dtype=np.float64)

    def chain_increments(self, order, metric: str) -> np.ndarray:
        """f(first i items) - f(first i-1 items) for each position i of ``order``.

        The increments come as a float64 array aligned with ``order``.
        """
        self._check_metric(metric)
        incs = []
        prefix = frozenset()
        prev = self.value(prefix, metric)
        for v in order:
            prefix = prefix | {v}
            cur = self.value(prefix, metric)
            incs.append(cur - prev)
            prev = cur
        return np.array(incs, dtype=np.float64)

    def coverage_state(self, metric: str, seeds=()) -> CoverageState:
        """f(S), f(v | S) and f(v | S - v) for a benefit or cost side, kept
        as nodes enter and leave S."""
        self._check_kind(metric)
        return CoverageState(self, metric, seeds)

    @staticmethod
    def _check_kind(metric):
        if metric not in KINDS:
            raise DomainError(f"coverage states track one side; expected one of {KINDS}")

    @staticmethod
    def _check_metric(metric):
        if metric not in METRICS:
            raise DomainError(f"unknown metric {metric!r}; expected one of {METRICS}")
