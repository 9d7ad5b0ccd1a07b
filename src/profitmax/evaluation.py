"""Common query interface for benefit/cost/profit evaluators.

Pruning, seed selection and certification are written against this interface
so they run unchanged on the exact oracle (small graphs) and on the
reverse-reachable sampling estimator (any scale).  Subclasses must implement
``value``; the batched helpers, the coverage state and the lattice state
have generic fallbacks that subclasses may override with faster paths.

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
    """One side's value and every node's marginal for a growing seed set S.

    ``value`` is f(S), ``gains[v]`` is f(v | S) (zero on S itself) and
    ``add(v)`` puts v into S.  This generic version recomputes both with
    ``marginal_many`` after each addition; an evaluator with incremental
    structure returns its own object with these three members.
    """

    def __init__(self, evaluator, metric: str, base=()):
        self.evaluator, self.metric = evaluator, metric
        self.seeds = {int(v) for v in base}
        self._refresh()

    def add(self, v) -> None:
        self.seeds.add(int(v))
        self._refresh()

    def _refresh(self):
        ev, base = self.evaluator, frozenset(self.seeds)
        rest = [v for v in range(ev.node_count) if v not in base]
        self.value = ev.value(base, self.metric)
        self.gains = np.zeros(ev.node_count)
        self.gains[rest] = ev.marginal_many(rest, base, self.metric)


class LatticeState:
    """One side's pruning anchors for a lattice [A, B] that tightens.

    ``ceiling(nodes)`` is f(v | A) and ``floor(nodes)`` is f(v | B - v),
    for v in B, as float64 arrays aligned with ``nodes``;
    ``tighten(added, removed)`` puts ``added`` into A and takes ``removed``
    out of B.  This generic version asks ``marginal_many`` and
    ``marginal_vs_rest`` on every query; an evaluator with incremental
    structure returns its own object with these three members.
    """

    def __init__(self, evaluator, metric: str, must, may):
        self.evaluator, self.metric = evaluator, metric
        self.must, self.may = frozenset(must), frozenset(may)

    def floor(self, nodes) -> np.ndarray:
        return self.evaluator.marginal_vs_rest(nodes, self.may, self.metric)

    def ceiling(self, nodes) -> np.ndarray:
        return self.evaluator.marginal_many(nodes, self.must, self.metric)

    def tighten(self, added, removed) -> None:
        self.must |= frozenset(added)
        self.may -= frozenset(removed)


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

    def coverage_state(self, metric: str, base=()) -> CoverageState:
        """Incremental f(S) and marginals f(v | S) for a benefit or cost side."""
        self._check_kind(metric)
        return CoverageState(self, metric, base)

    def lattice_state(self, metric: str, must, may) -> LatticeState:
        """Incremental f(v | A) and f(v | B - v) for a benefit or cost side."""
        self._check_kind(metric)
        return LatticeState(self, metric, must, may)

    @staticmethod
    def _check_kind(metric):
        if metric not in KINDS:
            raise DomainError(f"coverage and lattice states track one side; "
                              f"expected one of {KINDS}")

    @staticmethod
    def _check_metric(metric):
        if metric not in METRICS:
            raise DomainError(f"unknown metric {metric!r}; expected one of {METRICS}")
