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

from .errors import DomainError, InternalError
from .evaluation import MarginalEvaluator
from .graph import _check_int_ids


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

    @classmethod
    def from_json_dict(cls, d: dict, g=None) -> "Lattice":
        conv = (lambda v: g.internal_id(v)) if g is not None else int

        def nodes(doc, key):
            return frozenset(conv(v) for v in _check_int_ids(doc[key], key))

        def margin(step, key):
            if not isinstance(step[key], dict):
                raise TypeError(f"{key} is not a JSON object")
            return {conv(int(v)): x for v, x in step[key].items()}

        steps = [
            PruneStep(
                must_include=nodes(step, "must_include"),
                may_include=nodes(step, "may_include"),
                lower_margin=margin(step, "lower_margin"),
                upper_margin=margin(step, "upper_margin"),
            )
            for step in d.get("iterations", [])
        ]
        return cls(nodes(d, "must_include"), nodes(d, "may_include"), iterations=steps)


def trivial_lattice(node_count: int) -> Lattice:
    """The unpruned lattice: empty floor, full ceiling."""
    universe = frozenset(range(node_count))
    return Lattice(frozenset(), universe,
                   iterations=[PruneStep(frozenset(), universe)])


def iterative_prune(evaluator: MarginalEvaluator, nodes=None) -> Lattice:
    """Shrink the search space to a fixpoint lattice.

    The evaluator supplies one lattice state per side (benefit, cost) that
    answers the floors f(v | B - v) and the ceilings f(v | A), and is
    tightened as A grows and B shrinks.  It must answer consistently across
    calls (exact oracle, or estimates on frozen collections).  An
    inconsistent evaluator breaks the nesting guarantee A <= A' <= B' <= B
    and is reported as an InternalError rather than silently clamped: it
    means the sample size is too small to prune with.
    """
    if nodes is None:
        nodes = range(evaluator.node_count)
    must = frozenset()
    may = frozenset(int(v) for v in nodes)
    steps = [PruneStep(must, may)]
    benefit = evaluator.lattice_state("benefit", must, may)
    cost = evaluator.lattice_state("cost", must, may)
    # each non-final iteration moves at least one node, so |nodes| + 1
    # passes suffice for any consistent evaluator
    for _ in range(len(may) + 1):
        undecided = sorted(may - must)
        benefit_floor = benefit.floor(undecided)
        cost_floor = cost.floor(undecided)
        benefit_ceiling = benefit.ceiling(undecided)
        cost_ceiling = cost.ceiling(undecided)
        lower = dict(zip(undecided, (benefit_floor - cost_ceiling).tolist()))
        upper = dict(zip(undecided, (benefit_ceiling - cost_floor).tolist()))
        next_must = must | {v for v in undecided if lower[v] > 0.0}
        next_may = may - {v for v in undecided if upper[v] < 0.0}
        if not (must <= next_must <= next_may <= may):
            raise InternalError(
                "pruning nesting violated; the evaluator is inconsistent "
                "(estimates too noisy or not frozen)")
        steps.append(PruneStep(next_must, next_may, lower, upper))
        if next_must == must and next_may == may:
            return Lattice(next_must, next_may, iterations=steps)
        for state in (benefit, cost):
            state.tighten(next_must - must, may - next_may)
        must, may = next_must, next_may
    raise InternalError("pruning did not converge within the iteration bound; "
                        "the evaluator is inconsistent")

