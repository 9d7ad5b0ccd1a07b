"""Iterative search-space pruning.

The search space for profit-maximal seed sets shrinks from the full power set
to a lattice [A*, B*]: A* collects nodes whose worst-case marginal profit is
strictly positive (they belong in every optimum), B* drops nodes whose
best-case marginal profit is strictly negative (they belong in none).  Both
margins tighten as A grows and B shrinks, so the step repeats to a fixpoint.

For every node v still undecided (v in B minus A):

    lower margin  =  benefit(v | B - v) - cost(v | A)      > 0  ->  grow A
    upper margin  =  benefit(v | A) - cost(v | B - v)      < 0  ->  shrink B

Any seed set S can then be projected into the lattice as (S intersect B*)
union A*, which never lowers its profit and strictly raises it when S lay
outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InternalError
from .evaluation import KINDS, MarginalEvaluator


@dataclass(frozen=True)
class PruneStep:
    """Snapshot after one pruning iteration, with the margins that drove it."""

    must_include: frozenset
    may_include: frozenset
    lower_margin: dict = field(default_factory=dict)
    upper_margin: dict = field(default_factory=dict)


@dataclass
class Lattice:
    """The pruned search space: all sets S with A* <= S <= B*."""

    must_include: frozenset
    may_include: frozenset
    iterations: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not self.must_include <= self.may_include:
            raise DomainError("lattice requires must_include to be a subset of may_include")

    @property
    def free_nodes(self) -> frozenset:
        return self.may_include - self.must_include

    def contains(self, seeds) -> bool:
        seeds = frozenset(seeds)
        return self.must_include <= seeds <= self.may_include

    def project(self, seeds) -> frozenset:
        return frozenset(seeds) & self.may_include | self.must_include

    def reduction(self, node_count: int) -> float:
        """Fraction of the node set removed from consideration."""
        if node_count == 0:
            return 0.0
        return 1.0 - len(self.free_nodes) / node_count

    def to_json_dict(self, g=None) -> dict:
        conv = (lambda v: g.external_id(v)) if g is not None else int

        def ids(nodes):
            return sorted(conv(v) for v in nodes)

        return {
            "must_include": ids(self.must_include),
            "may_include": ids(self.may_include),
            "iterations": [
                {
                    "must_include": ids(step.must_include),
                    "may_include": ids(step.may_include),
                    "lower_margin": {str(conv(v)): x for v, x in sorted(step.lower_margin.items())},
                    "upper_margin": {str(conv(v)): x for v, x in sorted(step.upper_margin.items())},
                }
                for step in self.iterations
            ],
        }


def trivial_lattice(node_count: int) -> Lattice:
    """The unpruned lattice: empty floor, full ceiling."""
    universe = frozenset(range(node_count))
    return Lattice(frozenset(), universe,
                   iterations=[PruneStep(frozenset(), universe)])


def iterative_prune(evaluator: MarginalEvaluator) -> Lattice:
    """Shrink the search space to a fixpoint lattice.

    Per side (benefit, cost) the evaluator keeps two coverage states: one
    at A, which nodes only enter, whose gains are the ceilings f(v | A), and
    one at B, which nodes only leave, whose ``inside`` gives the floors
    f(v | B - v).  The evaluator must answer consistently across calls
    (exact oracle, or estimates on frozen collections).  An inconsistent
    evaluator breaks the nesting guarantee A <= A' <= B' <= B and is
    reported as an InternalError rather than silently clamped: it means the
    sample size is too small to prune with.
    """
    must = frozenset()
    may = frozenset(range(evaluator.node_count))
    steps = [PruneStep(must, may)]
    at_a = {kind: evaluator.coverage_state(kind) for kind in KINDS}
    at_b = {kind: evaluator.coverage_state(kind, may) for kind in KINDS}
    # each non-final iteration moves at least one node, so n + 1
    # passes suffice for any consistent evaluator
    for _ in range(len(may) + 1):
        undecided = sorted(may - must)
        at = np.array(undecided, dtype=np.int64)
        benefit_floor = at_b["benefit"].inside(at)
        cost_floor = at_b["cost"].inside(at)
        benefit_ceiling = at_a["benefit"].gains[at]
        cost_ceiling = at_a["cost"].gains[at]
        lower, upper = benefit_floor - cost_ceiling, benefit_ceiling - cost_floor
        grow, shrink = at[lower > 0.0], at[upper < 0.0]
        next_must = must.union(grow.tolist())
        next_may = may.difference(shrink.tolist())
        if not (must <= next_must <= next_may <= may):
            raise InternalError(
                "pruning nesting violated; the evaluator is inconsistent "
                "(estimates too noisy or not frozen)")
        steps.append(PruneStep(next_must, next_may, dict(zip(undecided, lower.tolist())),
                               dict(zip(undecided, upper.tolist()))))
        if next_must == must and next_may == may:
            return Lattice(next_must, next_may, iterations=steps)
        for kind in KINDS:
            at_a[kind].add(grow)
            at_b[kind].remove(shrink)
        must, may = next_must, next_may
    raise InternalError("pruning did not converge within the iteration bound; "
                        "the evaluator is inconsistent")
