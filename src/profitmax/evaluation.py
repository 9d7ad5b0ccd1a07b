"""Common query interface for benefit/cost/profit evaluators.

Pruning, seed selection and certification are written against this interface
so they run unchanged on the exact oracle (small graphs) and on the
reverse-reachable sampling estimator (any scale).  A subclass supplies one
primitive, ``coverage_state``: f(S), f(v | S) and f(v | S - v) for one side,
kept as nodes enter and leave S.  Every query derives from it: ``value`` and
the marginals read a coverage state at their base set, profit as benefit
minus cost, and ``value_many`` and ``chain_increments`` loop over ``value``;
a subclass may override those three with faster paths.

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


def _outside(v: int, node_count) -> DomainError:
    return DomainError(f"node {v} outside 0..{node_count - 1}")


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


class MarginalEvaluator:
    """Set-function queries over one graph's benefit and cost metrics.

    A subclass supplies ``coverage_state``; every query reads it at its base set.
    """

    node_count: int

    # -- required primitive ------------------------------------------------

    def coverage_state(self, metric: str, seeds=()):
        """f(S), f(v | S) and f(v | S - v) for a benefit or cost side, kept
        as nodes enter and leave S.

        ``add(nodes)`` and ``remove(nodes)`` take one node or several; a node
        already on that side of S is left as it is.  ``value`` is f(S),
        ``gains[v]`` is f(v | S) (zero on S itself) and ``inside(nodes)`` is
        f(v | S - v) for v in S and f(v | S) off it, a float64 array aligned
        with ``nodes``.
        """
        raise NotImplementedError

    # -- derived queries ---------------------------------------------------

    def value(self, seeds, metric: str) -> float:
        return self._read(metric, seeds, lambda state: state.value)

    def benefit(self, seeds) -> float:
        return self.value(seeds, "benefit")

    def cost(self, seeds) -> float:
        return self.value(seeds, "cost")

    def profit(self, seeds) -> float:
        seeds = _node_array(seeds, self.node_count)  # one pass of an iterator serves both sides
        return self.value(seeds, "benefit") - self.value(seeds, "cost")

    def value_many(self, seed_sets, metric: str) -> np.ndarray:
        """f(S) for each S in ``seed_sets``, as a float64 array in their order."""
        self._check_metric(metric)
        return np.array([self.value(s, metric) for s in seed_sets], dtype=np.float64)

    def marginal(self, v, base, metric: str) -> float:
        """f(base + v) - f(base)."""
        self._check_metric(metric)
        base = _node_array(base, self.node_count)  # the check below must not consume it
        if v in base:
            raise DomainError(f"node {v} already in the base set")
        return float(self.marginal_many([v], base, metric)[0])

    def marginal_many(self, nodes, base, metric: str) -> np.ndarray:
        """f(v | base) for each v in ``nodes``, as a float64 array in their
        order: 0.0 for the nodes of ``base``."""
        nodes = _node_array(nodes, self.node_count)
        return self._read(metric, base, lambda state: state.gains[nodes])

    def marginal_vs_rest(self, nodes, whole, metric: str) -> np.ndarray:
        """f(v | whole - v) for each v in ``nodes``, as a float64 array in their order.

        This is the smallest marginal v can have inside ``whole`` under
        submodularity, so it doubles as a floor in pruning.
        """
        nodes = _node_array(nodes, self.node_count)
        return self._read(metric, whole, lambda state: state.inside(nodes))

    def _read(self, metric, seeds, read):
        """``read`` of the metric's coverage state at ``seeds``; benefit minus cost for profit."""
        self._check_metric(metric)
        if metric == "profit":
            seeds = _node_array(seeds, self.node_count)  # one pass of an iterator serves both sides
            return self._read("benefit", seeds, read) - self._read("cost", seeds, read)
        return read(self.coverage_state(metric, seeds))

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

    @staticmethod
    def _check_kind(metric):
        if metric not in KINDS:
            raise DomainError(f"coverage states track one side; expected one of {KINDS}")

    @staticmethod
    def _check_metric(metric):
        if metric not in METRICS:
            raise DomainError(f"unknown metric {metric!r}; expected one of {METRICS}")
