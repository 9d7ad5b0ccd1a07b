import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitmax import (DomainError, ExactEvaluator, InternalError, Lattice, ProfitEstimator,
                       exhaustive_optimum, iterative_prune, normalize_weights,
                       trivial_lattice)
from profitmax.evaluation import MarginalEvaluator
from profitmax.prune import PruneStep

from conftest import (DEMO_LOWER_MARGINS, DEMO_UPPER_MARGINS, brute_optimum,
                      brute_profit, edgeless_graph, make_demo_graph,
                      random_graph, random_subset)


@pytest.fixture(scope="module")
def demo_lattice(demo_graph):
    return iterative_prune(ExactEvaluator(demo_graph))


class TestDemoTrace:
    def test_final_sets(self, demo_lattice):
        assert demo_lattice.must_include == {2}
        assert demo_lattice.may_include == {0, 1, 2}

    def test_margin_trace(self, demo_lattice):
        computed = demo_lattice.iterations[1:]
        assert len(computed) == len(DEMO_LOWER_MARGINS)
        for step, lower, upper in zip(computed, DEMO_LOWER_MARGINS, DEMO_UPPER_MARGINS):
            assert set(step.lower_margin) == set(lower)
            for v, expected in lower.items():
                assert step.lower_margin[v] == pytest.approx(expected, abs=1e-9)
            for v, expected in upper.items():
                assert step.upper_margin[v] == pytest.approx(expected, abs=1e-9)

    def test_trace_is_nested_and_converged(self, demo_lattice):
        steps = demo_lattice.iterations
        assert steps[0].must_include == frozenset()
        assert steps[0].may_include == frozenset(range(4))
        for before, after in zip(steps, steps[1:]):
            assert before.must_include <= after.must_include
            assert after.must_include <= after.may_include
            assert after.may_include <= before.may_include
        assert steps[-1].must_include == steps[-2].must_include
        assert steps[-1].may_include == steps[-2].may_include


class TestEdgeCases:
    def test_edgeless_signs(self):
        g = edgeless_graph([2.0, -1.0, 0.0, 3.0])
        lat = iterative_prune(ExactEvaluator(g))
        assert lat.must_include == {0, 3}
        assert lat.may_include == {0, 2, 3}
        # settles in one computing iteration plus the convergence check
        assert len(lat.iterations) == 3

    def test_all_zero_weights(self):
        g = edgeless_graph([0.0, 0.0, 0.0])
        lat = iterative_prune(ExactEvaluator(g))
        assert lat.must_include == frozenset()
        assert lat.may_include == {0, 1, 2}

    def test_all_positive_prunes_everything(self):
        g = edgeless_graph([1.0, 2.0, 0.5])
        lat = iterative_prune(ExactEvaluator(g))
        assert lat.must_include == lat.may_include == {0, 1, 2}
        assert lat.reduction(3) == 1.0

    def test_trivial_lattice(self):
        lat = trivial_lattice(5)
        assert lat.must_include == frozenset()
        assert lat.may_include == frozenset(range(5))
        assert lat.reduction(5) == 0.0

    def test_reduction_metric(self, demo_lattice):
        assert demo_lattice.reduction(4) == pytest.approx(0.5)


class TestProject:
    def test_demo_projection(self, demo_lattice):
        assert demo_lattice.project({1, 3}) == {1, 2}

    def test_inside_lattice_unchanged(self, demo_lattice):
        assert demo_lattice.project({1, 2}) == {1, 2}
        assert demo_lattice.project({0, 1, 2}) == {0, 1, 2}

    def test_empty_maps_to_floor(self, demo_lattice):
        assert demo_lattice.project(set()) == demo_lattice.must_include

    def test_idempotent(self, demo_lattice):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_subset(rng, 4)
            once = demo_lattice.project(s)
            assert demo_lattice.project(once) == once
            assert demo_lattice.contains(once)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_projection_algebra(self, data):
        universe = frozenset(range(8))
        may = frozenset(data.draw(st.sets(st.sampled_from(range(8)))))
        must = frozenset(data.draw(st.sets(st.sampled_from(sorted(may))))) if may else frozenset()
        lat = Lattice(must, may)
        s = frozenset(data.draw(st.sets(st.sampled_from(range(8)))))
        projected = lat.project(s)
        assert lat.contains(projected)
        assert lat.project(projected) == projected
        assert projected == s & may | must
        assert (projected == s) == lat.contains(s)


class TestTheoremProperties:
    def test_projection_chain_never_loses_profit(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            g = random_graph(rng, max_nodes=6, max_edges=9)
            lat = iterative_prune(ExactEvaluator(g))
            s = random_subset(rng, g.node_count)
            steps = lat.iterations
            current = s & steps[0].may_include | steps[0].must_include
            value = brute_profit(g, current)
            for step in steps[1:]:
                nxt = s & step.may_include | step.must_include
                nxt_value = brute_profit(g, nxt)
                assert nxt_value >= value - 1e-9
                if nxt != current:
                    assert nxt_value > value
                current, value = nxt, nxt_value

    def test_outside_sets_strictly_improve(self):
        rng = np.random.default_rng(103)
        checked = 0
        for _ in range(40):
            g = random_graph(rng, max_nodes=6, max_edges=9)
            lat = iterative_prune(ExactEvaluator(g))
            for _ in range(4):
                s = random_subset(rng, g.node_count)
                if lat.contains(s):
                    continue
                checked += 1
                assert brute_profit(g, lat.project(s)) > brute_profit(g, s)
        assert checked >= 20

    def test_every_optimum_inside_lattice(self):
        rng = np.random.default_rng(107)
        for _ in range(25):
            g = random_graph(rng, max_nodes=5, max_edges=8)
            lat = iterative_prune(ExactEvaluator(g))
            best, _, optima = brute_optimum(g)
            assert lat.contains(best)
            for s in optima:
                assert lat.contains(s)
            opt_set, _ = exhaustive_optimum(g)
            assert lat.contains(opt_set)

    def test_normalized_lattice_nested_inside_raw(self):
        rng = np.random.default_rng(109)
        for _ in range(30):
            g = random_graph(rng, max_nodes=6, max_edges=9)
            lat = iterative_prune(ExactEvaluator(g))
            lat_norm = iterative_prune(ExactEvaluator(normalize_weights(g)))
            assert lat.must_include <= lat_norm.must_include
            assert lat_norm.must_include <= lat_norm.may_include
            assert lat_norm.may_include <= lat.may_include


class TestEstimatedPruning:
    def test_demo_with_sampling_matches_exact(self, demo_graph):
        est = ProfitEstimator.build(demo_graph, 30_000, 30_000, seed=71)
        lat = iterative_prune(est)
        assert lat.must_include == {2}
        assert lat.may_include == {0, 1, 2}

    def test_frozen_estimates_always_nest(self, demo_graph):
        for seed in range(5):
            est = ProfitEstimator.build(demo_graph, 400, 400, seed=seed)
            lat = iterative_prune(est)
            for before, after in zip(lat.iterations, lat.iterations[1:]):
                assert before.must_include <= after.must_include <= \
                    after.may_include <= before.may_include


class _FlakyState:
    """A coverage state whose every read is fresh noise."""

    def __init__(self, rng, n):
        self.rng, self.n = rng, n

    def add(self, nodes):
        pass

    remove = add

    @property
    def gains(self):
        return self.rng.normal(size=self.n)

    def inside(self, nodes):
        return self.rng.normal(size=len(nodes))


class _FlakyEvaluator(MarginalEvaluator):
    """Answers from noisy coverage states; the pruning loop must notice."""

    def __init__(self, n):
        self.node_count = n
        self._rng = np.random.default_rng(0)

    def coverage_state(self, metric, seeds=()):
        return _FlakyState(self._rng, self.node_count)


class TestInconsistentEvaluator:
    def test_noise_triggers_internal_error(self):
        with pytest.raises(InternalError):
            for _ in range(50):
                iterative_prune(_FlakyEvaluator(6))


class TestLatticeSerialization:
    def test_json_round_trip_with_external_ids(self, demo_graph, demo_lattice):
        # the document prune --out writes: external ids, sorted, and the
        # margins of each step keyed by the external id as text
        doc = json.loads(json.dumps(demo_lattice.to_json_dict(demo_graph)))
        ids = sorted(demo_graph.external_id(v) for v in demo_lattice.may_include)
        assert doc["must_include"] == [demo_graph.external_id(v)
                                       for v in sorted(demo_lattice.must_include)]
        assert doc["may_include"] == ids
        assert len(doc["iterations"]) == len(demo_lattice.iterations)
        # the first pass weighs every node
        step = doc["iterations"][1]
        every = [str(demo_graph.external_id(v)) for v in range(demo_graph.node_count)]
        assert list(step["lower_margin"]) == list(step["upper_margin"]) == every
        assert step["lower_margin"][str(demo_graph.external_id(0))] == pytest.approx(-1.98,
                                                                                      abs=1e-9)

    def test_floor_inside_ceiling_enforced(self):
        with pytest.raises(DomainError):
            Lattice(frozenset({1}), frozenset({2}))


def reference_prune_steps(ev):
    """The pruning loop with all four anchors queried from scratch each iteration."""
    must, may = frozenset(), frozenset(range(ev.node_count))
    steps = [PruneStep(must, may)]
    while True:
        undecided = sorted(may - must)
        lower = dict(zip(undecided, (ev.marginal_vs_rest(undecided, may, "benefit")
                                     - ev.marginal_many(undecided, must, "cost")).tolist()))
        upper = dict(zip(undecided, (ev.marginal_many(undecided, must, "benefit")
                                     - ev.marginal_vs_rest(undecided, may, "cost")).tolist()))
        next_must = must | {v for v in undecided if lower[v] > 0.0}
        next_may = may - {v for v in undecided if upper[v] < 0.0}
        steps.append(PruneStep(next_must, next_may, lower, upper))
        if next_must == must and next_may == may:
            return steps
        must, may = next_must, next_may


class TestPruneStates:
    """Pruning on incremental coverage states gives the from-scratch steps."""

    @pytest.mark.parametrize("exact", [False, True],
                             ids=["estimator-all-nodes", "exact-all-nodes"])
    def test_steps_match_from_scratch_loop(self, exact):
        rng = np.random.default_rng(17)
        for trial in range(8):
            g = random_graph(rng, max_nodes=7 if exact else 12, max_edges=12 if exact else 30)
            ev = ExactEvaluator(g) if exact else ProfitEstimator.build(g, 500, 500, seed=trial)
            lat = iterative_prune(ev)
            assert lat.iterations == reference_prune_steps(ev)

    def test_exact_evaluator_asks_no_marginal_query(self, monkeypatch):
        # the oracle's own coverage states give every margin
        ev = ExactEvaluator(make_demo_graph())

        def refused(*args):
            raise AssertionError("a marginal query was asked")

        for name in ("marginal", "marginal_many", "marginal_vs_rest"):
            monkeypatch.setattr(ev, name, refused)
        lat = iterative_prune(ev)
        assert (lat.must_include, lat.may_include) == ({2}, {0, 1, 2})
        assert len(lat.iterations) > 2  # pruning moved nodes before it settled
