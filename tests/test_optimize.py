import itertools

import numpy as np
import pytest

from profitmax import (DomainError, ExactEvaluator, Lattice, ModularBounds,
                       ProfitEstimator, SelectionResult, baseline, certify, greedy,
                       iterative_prune, k_sweep, modmod, mu_bound, sweep_sizes,
                       trivial_lattice)
from profitmax.graph import WeightedGraph
from profitmax.evaluation import KINDS
from profitmax.optimize import BASELINES, RANDOM_BASELINE_DRAWS, _benefitmax, _random
from profitmax.rng import derive_seed, make_rng
from profitmax.rrsets import RRCollection, RRCoverage

from conftest import (DEMO_OPTIMUM, DEMO_OPTIMUM_PROFIT, Modular, edgeless_graph,
                      lower_bound, make_demo_graph, maximizer, random_graph,
                      upper_bound)


@pytest.fixture(scope="module")
def demo_setup(demo_graph):
    ev = ExactEvaluator(demo_graph)
    return ev, iterative_prune(ev)


def lattice_subsets(lat: Lattice):
    free = sorted(lat.free_nodes)
    for r in range(len(free) + 1):
        for extra in itertools.combinations(free, r):
            yield frozenset(lat.must_include) | frozenset(extra)


class TestModularBounds:
    def test_mask_outside_ceiling_rejected(self, demo_setup):
        ev, lat = demo_setup
        bounds = ModularBounds(ev, lat)
        assert 3 not in lat.may_include
        assert bounds.mask({1, 2}).tolist() == [v in {1, 2} for v in bounds.ceiling.tolist()]
        for nodes in ({3}, {1, 3}, {-1}, {4}):
            with pytest.raises(DomainError, match=r"inside the lattice ceiling B\*"):
                bounds.mask(nodes)

    @pytest.mark.parametrize("variant", [0, 5])
    def test_unknown_variant_rejected(self, demo_setup, variant):
        ev, lat = demo_setup
        bounds = ModularBounds(ev, lat)
        X = frozenset({1, 2})
        fixed = bounds.fixed("benefit", 2)
        with pytest.raises(DomainError, match=f"unknown modular upper bound variant {variant}"):
            bounds.fixed("benefit", variant)
        with pytest.raises(DomainError, match=f"unknown modular upper bound variant {variant}"):
            bounds.upper(ev.coverage_state("benefit", X), bounds.mask(X), variant, fixed)

    @pytest.mark.parametrize("variant", [3, 4])
    def test_x_missing_floor_rejected(self, variant):
        ev = ExactEvaluator(make_demo_graph())
        lat = Lattice(frozenset({1}), frozenset({0, 1, 2}))
        bounds = ModularBounds(ev, lat)
        X = frozenset({0, 2})
        fixed = bounds.fixed("benefit", variant)
        with pytest.raises(DomainError, match=r"X must lie inside the lattice \[A\*, B\*\]"):
            bounds.upper(ev.coverage_state("benefit", X), bounds.mask(X), variant, fixed)
        # variants 1 and 2 hold for any X inside the ceiling
        for loose in (1, 2):
            bounds.upper(ev.coverage_state("benefit", X), bounds.mask(X), loose,
                         bounds.fixed("benefit", loose))


class TestModularUpper:
    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    @pytest.mark.parametrize("metric", ["benefit", "cost"])
    def test_tight_at_x(self, demo_setup, variant, metric):
        ev, lat = demo_setup
        for X in ({2}, {1, 2}, {0, 1, 2}):
            bound = upper_bound(ev, metric, X, variant, lat)
            assert bound.at(X) == pytest.approx(ev.value(X, metric), abs=1e-9)

    def test_variant4_demo_value(self, demo_setup):
        ev, lat = demo_setup
        bound = upper_bound(ev, "benefit", {2}, 4, lat)
        value = bound.at({1, 2})
        assert value == pytest.approx(3.6 + 2.28, abs=1e-9)
        assert value == pytest.approx(ev.benefit({1, 2}), abs=1e-9)

    def test_sandwich_on_demo(self, demo_setup):
        ev, lat = demo_setup
        for metric in ("benefit", "cost"):
            for X in ({2}, {1, 2}):
                bounds = {v: upper_bound(ev, metric, X, v, lat) for v in (1, 2, 3, 4)}
                for Y in lattice_subsets(lat):
                    f = ev.value(Y, metric)
                    assert bounds[1].at(Y) >= bounds[3].at(Y) - 1e-9
                    assert bounds[3].at(Y) >= f - 1e-9
                    assert bounds[2].at(Y) >= bounds[4].at(Y) - 1e-9
                    assert bounds[4].at(Y) >= f - 1e-9

    def test_modular_metric_makes_bounds_exact(self):
        g = edgeless_graph([2.0, -1.0, 3.0])
        ev = ExactEvaluator(g)
        lat = trivial_lattice(3)
        for variant in (1, 2, 3, 4):
            bound = upper_bound(ev, "benefit", {0}, variant, lat)
            for Y in lattice_subsets(lat):
                assert bound.at(Y) == pytest.approx(ev.benefit(Y), abs=1e-12)

    def test_x_outside_lattice_rejected(self, demo_setup):
        ev, lat = demo_setup
        for variant in (1, 2, 3, 4):
            with pytest.raises(DomainError):
                upper_bound(ev, "benefit", {3}, variant, lat)
        with pytest.raises(DomainError):
            upper_bound(ev, "benefit", {0}, 3, lat)  # misses A*

    def test_unknown_variant(self, demo_setup):
        ev, lat = demo_setup
        with pytest.raises(DomainError):
            upper_bound(ev, "benefit", {2}, 5, lat)


class TestModularLower:
    @staticmethod
    def along(ev, metric, order, lat) -> Modular:
        """The lower bound along the chain of nodes ``order``."""
        bounds = ModularBounds(ev, lat)
        per_node = bounds.lower(metric, np.searchsorted(bounds.ceiling, order))
        return Modular(0.0, dict(zip(bounds.ceiling.tolist(), per_node.tolist())))

    def test_demo_cost_chain(self, demo_setup):
        ev, lat = demo_setup
        bound = self.along(ev, "cost", [2, 1, 0], lat)
        assert bound.per_node[2] == pytest.approx(2.5, abs=1e-9)
        assert bound.per_node[1] == pytest.approx(1.7, abs=1e-9)
        assert bound.per_node[0] == pytest.approx(2.12, abs=1e-9)

    def test_lower_bound_and_tightness(self, demo_setup):
        ev, lat = demo_setup
        for X in ({2}, {1, 2}, {0, 1, 2}):
            for metric in ("benefit", "cost"):
                bound = lower_bound(ev, metric, X, lat)
                assert bound.at(X) == pytest.approx(ev.value(X, metric), abs=1e-9)
                for Y in lattice_subsets(lat):
                    assert bound.at(Y) <= ev.value(Y, metric) + 1e-9

    def test_modular_metric_exact(self):
        g = edgeless_graph([2.0, 1.0, 3.0])
        ev = ExactEvaluator(g)
        lat = trivial_lattice(3)
        bound = self.along(ev, "benefit", [1, 0, 2], lat)
        for Y in lattice_subsets(lat):
            assert bound.at(Y) == pytest.approx(ev.benefit(Y), abs=1e-12)


class TestMaximizeModularDifference:
    """``ModularBounds.maximizer`` of a difference of two modular functions."""

    def test_all_negative_returns_floor(self, demo_setup):
        _, lat = demo_setup
        pos = Modular(0.0, {v: 0.0 for v in lat.may_include})
        neg = Modular(0.0, {v: 1.0 for v in lat.may_include})
        assert maximizer(pos, neg, lat) == lat.must_include

    def test_all_positive_returns_ceiling(self, demo_setup):
        _, lat = demo_setup
        pos = Modular(0.0, {v: 2.0 for v in lat.may_include})
        neg = Modular(0.0, {v: 1.0 for v in lat.may_include})
        assert maximizer(pos, neg, lat) == lat.may_include

    def test_zero_differences_excluded(self, demo_setup):
        _, lat = demo_setup
        pos = Modular(0.0, {v: 1.0 for v in lat.may_include})
        neg = Modular(0.0, {v: 1.0 for v in lat.may_include})
        assert maximizer(pos, neg, lat) == lat.must_include

    def test_floor_nodes_need_no_entry(self):
        # only the free nodes are read; A* joins the maximizer whatever keep says
        lat = Lattice(frozenset({0}), frozenset({0, 1, 2}))
        bounds = ModularBounds(None, lat)
        assert bounds.maximizer(np.array([False, True, False])) == {0, 1}
        assert bounds.maximizer(np.array([True, False, True])) == {0, 2}

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(211)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            floor = frozenset(int(v) for v in rng.choice(n, size=rng.integers(0, 2)))
            lat = Lattice(floor, frozenset(range(n)))
            pos = Modular(float(rng.normal()), {v: float(rng.normal()) for v in range(n)})
            neg = Modular(float(rng.normal()), {v: float(rng.normal()) for v in range(n)})
            best = max(lattice_subsets(lat), key=lambda Y: pos.at(Y) - neg.at(Y))
            best_value = pos.at(best) - neg.at(best)
            chosen = maximizer(pos, neg, lat)
            value = pos.at(chosen) - neg.at(chosen)
            assert value == pytest.approx(best_value, abs=1e-12)


class TestGreedy:
    def test_demo_trace(self, demo_setup):
        ev, lat = demo_setup
        result = greedy(ev, lat)
        assert result.seeds == DEMO_OPTIMUM
        assert result.estimated_profit == pytest.approx(DEMO_OPTIMUM_PROFIT, abs=1e-9)
        assert [t["added"] for t in result.trajectory] == [1]
        assert result.trajectory[0]["marginal"] == pytest.approx(0.58, abs=1e-9)
        # at {2}: node 0 offers -0.1156; after adding 1 it offers -0.172
        assert ev.marginal(0, frozenset({2}), "profit") == pytest.approx(-0.1156, abs=1e-9)
        assert ev.marginal(0, frozenset({1, 2}), "profit") == pytest.approx(-0.172, abs=1e-9)

    def test_termination_marginals_nonpositive(self, demo_setup):
        ev, lat = demo_setup
        result = greedy(ev, lat)
        for v in lat.may_include - result.seeds:
            assert ev.marginal(v, result.seeds, "profit") <= 0.0

    def test_edgeless_trivial_lattice(self):
        g = edgeless_graph([2.0, -1.0, 3.0])
        result = greedy(ExactEvaluator(g), trivial_lattice(3))
        assert result.seeds == {0, 2}
        assert result.estimated_profit == pytest.approx(5.0)

    def test_floor_equals_ceiling_returns_floor(self):
        g = edgeless_graph([1.0, 1.0])
        lat = Lattice(frozenset({0, 1}), frozenset({0, 1}))
        result = greedy(ExactEvaluator(g), lat)
        assert result.seeds == {0, 1}
        assert result.trajectory == []

    def test_no_free_nodes_builds_no_coverage_state(self, demo_graph, monkeypatch):
        est = ProfitEstimator.build(demo_graph, 500, 500, seed=5)
        lat = Lattice(frozenset({0, 2}), frozenset({0, 2}))

        def refuse(*args, **kwargs):
            raise AssertionError("coverage state built for a lattice with no free nodes")

        monkeypatch.setattr(est, "coverage_state", refuse)
        result = greedy(est, lat)
        assert result.seeds == {0, 2}
        assert result.trajectory == []
        assert result.estimated_profit == est.profit({0, 2})

    @staticmethod
    def reference_greedy(ev, lat):
        """Greedy written out: argmax of the profit marginals, smallest id on ties."""
        seeds = set(lat.must_include)
        free = set(lat.free_nodes)
        added = []
        while free:
            nodes = sorted(free)
            gains = dict(zip(nodes, ev.marginal_many(nodes, frozenset(seeds), "profit")))
            best = min(gains, key=lambda v: (-gains[v], v))
            if gains[best] <= 0.0:
                break
            seeds.add(best)
            free.discard(best)
            added.append((best, gains[best]))
        return frozenset(seeds), added

    def check_against_reference(self, ev, lat):
        result = greedy(ev, lat)
        seeds, added = self.reference_greedy(ev, lat)
        assert result.seeds == seeds
        assert [(t["added"], t["marginal"]) for t in result.trajectory] == added
        assert result.estimated_profit == ev.profit(seeds)

    def test_matches_reference_greedy(self):
        rng = np.random.default_rng(223)
        for _ in range(40):
            g = random_graph(rng, max_nodes=7, max_edges=11)
            ev = ExactEvaluator(g)
            self.check_against_reference(ev, iterative_prune(ev))

    def test_matches_reference_greedy_on_estimates(self, demo_graph):
        rng = np.random.default_rng(224)
        for i in range(10):
            g = random_graph(rng, max_nodes=12, max_edges=30)
            est = ProfitEstimator.build(g, 2000, 2000, seed=i)
            self.check_against_reference(est, trivial_lattice(g.node_count))
            self.check_against_reference(est, iterative_prune(est))
        est = ProfitEstimator.build(demo_graph, 2000, 2000, seed=77)
        self.check_against_reference(est, iterative_prune(est))

    def test_tie_breaks_to_smallest_id(self):
        g = edgeless_graph([3.0, 3.0, 3.0])
        result = greedy(ExactEvaluator(g), trivial_lattice(3))
        assert [t["added"] for t in result.trajectory] == [0, 1, 2]

    def test_lattice_containment(self, demo_setup):
        ev, lat = demo_setup
        result = greedy(ev, lat)
        assert lat.must_include <= result.seeds <= lat.may_include


class TestModMod:
    @pytest.mark.parametrize("variant", [3, 4])
    def test_demo_converges_to_optimum(self, demo_setup, variant):
        ev, lat = demo_setup
        result = modmod(ev, lat, gamma_bound_variant=variant)
        assert result.seeds == DEMO_OPTIMUM
        assert result.estimated_profit == pytest.approx(DEMO_OPTIMUM_PROFIT, abs=1e-9)

    def test_trajectory_profit_nondecreasing(self, demo_setup):
        ev, lat = demo_setup
        for variant in (3, 4):
            result = modmod(ev, lat, gamma_bound_variant=variant)
            profits = [t["profit"] for t in result.trajectory]
            assert all(b >= a - 1e-12 for a, b in zip(profits, profits[1:]))

    def test_floor_equals_ceiling(self):
        g = edgeless_graph([1.0, 1.0])
        lat = Lattice(frozenset({0, 1}), frozenset({0, 1}))
        result = modmod(ExactEvaluator(g), lat)
        assert result.seeds == {0, 1}
        assert len(result.trajectory) == 1

    def test_edgeless_single_step(self):
        g = edgeless_graph([2.0, -1.0, 3.0, 0.0])
        result = modmod(ExactEvaluator(g), trivial_lattice(4))
        assert result.seeds == {0, 2}
        assert len(result.trajectory) == 2

    def test_sampled_estimates_reach_demo_optimum(self, demo_graph):
        est = ProfitEstimator.build(demo_graph, 30_000, 30_000, seed=83)
        lat = iterative_prune(est)
        for variant in (3, 4):
            assert modmod(est, lat, gamma_bound_variant=variant).seeds == DEMO_OPTIMUM

    def test_bad_variant(self, demo_setup):
        ev, lat = demo_setup
        with pytest.raises(DomainError):
            modmod(ev, lat, gamma_bound_variant=1)

    @pytest.mark.parametrize("variant", [3, 4])
    def test_one_profit_query_per_trajectory_entry(self, monkeypatch, variant):
        # each trajectory entry's profit is read from the coverage states at
        # the incumbent, and the converged incumbent is the last entry, so
        # no profit is queried, yet each is the one profit() gives
        g = random_graph(np.random.default_rng(5), max_nodes=12, max_edges=30)
        est = ProfitEstimator.build(g, 2000, 2000, seed=0)
        calls = []
        profit = est.profit
        monkeypatch.setattr(est, "profit", lambda seeds: calls.append(seeds) or profit(seeds))
        result = modmod(est, trivial_lattice(g.node_count), gamma_bound_variant=variant)
        assert len(result.trajectory) >= 2
        assert calls == []
        for step in result.trajectory:
            assert repr(step["profit"]) == repr(profit(step["seeds"]))
        assert result.estimated_profit == profit(result.seeds)

    @staticmethod
    def counted_modmod(ev, monkeypatch, variant):
        """modmod's trajectory length, its marginal and chain queries and its value queries."""
        calls, values = [], []
        for name in ("marginal", "marginal_many", "marginal_vs_rest", "chain_increments"):
            def counted(*args, _query=getattr(ev, name), _name=name):
                calls.append((_name, args[-1]))
                return _query(*args)
            monkeypatch.setattr(ev, name, counted)
        value = ev.value
        monkeypatch.setattr(ev, "value",
                            lambda seeds, metric: values.append(metric) or value(seeds, metric))
        result = modmod(ev, trivial_lattice(ev.node_count), gamma_bound_variant=variant)
        return len(result.trajectory), calls, values

    @pytest.mark.parametrize("variant, anchor, per_x", [
        (3, "marginal_vs_rest", "marginal_many"),
        (4, "marginal_many", "marginal_vs_rest"),
    ])
    def test_lattice_anchors_computed_once(self, monkeypatch, variant, anchor, per_x):
        g = random_graph(np.random.default_rng(5), max_nodes=12, max_edges=30)
        est = ProfitEstimator.build(g, 2000, 2000, seed=0)
        rounds, calls, values = self.counted_modmod(est, monkeypatch, variant)
        assert rounds >= 2  # each move, then the round that repeats
        # the singletons, the anchor half and the per-X cost half all come
        # from coverage states, so no batched marginal query is asked
        assert calls == rounds * [("chain_increments", "benefit")]
        # each trajectory entry's profit comes from the states at the
        # incumbent, so no value query is asked at all
        assert values == []

    @pytest.mark.parametrize("variant", [3, 4])
    def test_exact_evaluator_asks_no_marginal_query(self, monkeypatch, variant):
        # the oracle's own coverage states give the singletons, both halves of
        # the cost ceiling and every profit; only the benefit floor's chain
        # increments go through value
        g = random_graph(np.random.default_rng(13), max_nodes=7, max_edges=12)
        rounds, calls, _ = self.counted_modmod(ExactEvaluator(g), monkeypatch, variant)
        assert rounds >= 2
        assert calls == rounds * [("chain_increments", "benefit")]


class TestBaselines:
    def test_highdegree_picks_max_out_degree(self, demo_graph):
        ev = ExactEvaluator(demo_graph)
        result = baseline("highdegree", demo_graph, 1, ev, seed=0)
        assert result.seeds == {0}

    def test_benefitmax_picks_best_coverage(self, demo_graph):
        ev = ExactEvaluator(demo_graph)
        result = baseline("benefitmax", demo_graph, 1, ev, seed=0)
        assert result.seeds == {2}  # largest singleton benefit 3.6

    def test_random_reproducible(self, demo_graph):
        ev = ExactEvaluator(demo_graph)
        a = baseline("random", demo_graph, 2, ev, seed=5)
        b = baseline("random", demo_graph, 2, ev, seed=5)
        assert a.seeds == b.seeds
        assert a.estimated_profit == b.estimated_profit
        assert len(a.trajectory) == 10

    def test_random_profit_is_mean_over_draws(self, demo_graph):
        ev = ExactEvaluator(demo_graph)
        result = baseline("random", demo_graph, 2, ev, seed=5)
        mean = sum(t["profit"] for t in result.trajectory) / 10
        assert result.estimated_profit == mean

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_domain(self, demo_graph, k):
        ev = ExactEvaluator(demo_graph)
        with pytest.raises(DomainError):
            baseline("random", demo_graph, k, ev, seed=0)

    def test_unknown_kind(self, demo_graph):
        with pytest.raises(DomainError):
            baseline("pagerank", demo_graph, 1, ExactEvaluator(demo_graph), seed=0)


class TestKSweep:
    def test_sweep_sizes(self):
        assert sweep_sizes(4) == [4, 2, 1]
        assert sweep_sizes(1) == [1]
        assert sweep_sizes(1000)[:4] == [1000, 500, 250, 125]

    def test_monotone_baseline_keeps_largest_k(self):
        # zero cost makes benefitmax profit nondecreasing in k
        g = edgeless_graph([1.0, 2.0, 3.0])
        result = k_sweep("benefitmax", g, ExactEvaluator(g), seed=0)
        assert result.params["k"] == 3
        assert result.seeds == {0, 1, 2}

    def test_returns_best_profit_entry(self, demo_graph):
        ev = ExactEvaluator(demo_graph)
        result = k_sweep("highdegree", demo_graph, ev, seed=0)
        swept = result.params["swept"]
        assert result.estimated_profit == max(e["profit"] for e in swept)
        assert {e["k"] for e in swept} == {4, 2, 1}

    @pytest.mark.parametrize("kind", BASELINES)
    def test_one_batched_profit_query(self, monkeypatch, kind):
        g = random_graph(np.random.default_rng(5), max_nodes=12, max_edges=30)
        est = ProfitEstimator.build(g, 2000, 2000, seed=0)
        calls = []
        for name in ("value", "profit", "value_many"):
            def counted(*args, _query=getattr(est, name), _name=name):
                calls.append((_name, args[-1]))
                return _query(*args)
            monkeypatch.setattr(est, name, counted)
        k_sweep(kind, g, est, seed=0)
        assert calls == [("value_many", "profit")]


class TestDirectionalSmallGraphs:
    def test_heuristics_vs_swept_baselines_logged(self):
        # directional check, logged rather than asserted hard: on exact small
        # instances the heuristics should usually match or beat every
        # baseline at its best swept k
        rng = np.random.default_rng(5150)
        runs = 60
        wins = {"greedy": 0, "modmod1": 0, "modmod2": 0}
        for i in range(runs):
            g = random_graph(rng, max_nodes=7, max_edges=11)
            ev = ExactEvaluator(g)
            lat = iterative_prune(ev)
            results = {
                "greedy": greedy(ev, lat),
                "modmod1": modmod(ev, lat, gamma_bound_variant=3),
                "modmod2": modmod(ev, lat, gamma_bound_variant=4),
            }
            best_base = max(
                k_sweep(kind, g, ev, seed=i).estimated_profit
                for kind in ("random", "highdegree", "benefitmax"))
            for name, r in results.items():
                if r.estimated_profit >= best_base - 1e-9:
                    wins[name] += 1
        fractions = {name: count / runs for name, count in wins.items()}
        print(f"heuristic win fractions vs best baseline: {fractions}")
        assert max(fractions.values()) >= 0.95
        assert all(f >= 0.5 for f in fractions.values())


class TestSelectionResultJson:
    def test_external_ids_in_output(self, demo_setup, tmp_path):
        ev, lat = demo_setup
        result = greedy(ev, lat)
        doc = result.to_json_dict()
        assert doc["seeds"] == [1, 2]
        assert doc["algorithm"] == "greedy"
        assert doc["estimated_profit"] == pytest.approx(1.68, abs=1e-9)


def reference_benefitmax_picks(evaluator, node_count, k):
    """Benefit-greedy picks over k full argmax rounds, with no early stop."""
    state = evaluator.coverage_state("benefit")
    free, picks = list(range(node_count)), []
    for _ in range(k):
        gains = state.gains[free]
        best = int(np.argmax(gains))
        picks.append({"added": free.pop(best), "marginal": float(gains[best])})
        state.add(picks[-1]["added"])
    return picks


def reference_greedy_loop(evaluator, lat):
    """Greedy's climb written out as its own loop: argmax over the ascending
    free ids, ties to the first, stopping once the best gain is not positive."""
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
    return frozenset(seeds), trajectory


# Copies of the modular bounds, modmod's loop, mu_bound and the benefitmax
# climb as they were written before their rounds ran on arrays aligned with
# the ceiling: a (base, per_node dict) record per bound and round, a Python loop over
# the free nodes, an f(X) cost query for a base modmod never reads, and a
# climb that gathers over the free ids and deletes each pick from them.  The
# tests below pin the array code to them, repr for repr.


def reference_ceiling(lat):
    return np.sort(np.fromiter(lat.may_include, dtype=np.int64, count=len(lat.may_include)))


def reference_member_mask(ceiling, nodes):
    mask = np.zeros(len(ceiling), dtype=bool)
    mask[np.searchsorted(ceiling, np.fromiter(nodes, dtype=np.int64, count=len(nodes)))] = True
    return mask


def reference_upper_fixed(evaluator, metric, variant, lat, ceiling):
    """The X-independent half of upper bounds 1-4, from the batched queries."""
    if variant == 1:
        return evaluator.marginal_vs_rest(ceiling, range(evaluator.node_count), metric)
    if variant == 2:
        return evaluator.marginal_many(ceiling, (), metric)
    if variant == 3:
        return evaluator.marginal_vs_rest(ceiling, lat.may_include, metric)
    fixed = np.zeros(len(ceiling))
    free = ~reference_member_mask(ceiling, lat.must_include)
    fixed[free] = evaluator.marginal_many(ceiling[free], lat.must_include, metric)
    return fixed


def reference_upper_at(evaluator, metric, X, value, variant, ceiling, fixed):
    inside = reference_member_mask(ceiling, X)
    per_node = fixed.copy()
    if variant in (1, 3):
        per_node[~inside] = evaluator.marginal_many(ceiling[~inside], X, metric)
    else:
        per_node[inside] = evaluator.marginal_vs_rest(ceiling[inside], X, metric)
    base = float(value - per_node[inside].sum())
    return Modular(base=base, per_node=dict(zip(ceiling.tolist(), per_node.tolist())))


def reference_order(lat, X, ceiling, singleton):
    block = 2 - reference_member_mask(ceiling, X) - reference_member_mask(ceiling, lat.must_include)
    return ceiling[np.lexsort((ceiling, -singleton, block))].tolist()


def reference_chain_bound(evaluator, metric, pi):
    incs = evaluator.chain_increments(pi, metric)
    return Modular(base=0.0, per_node=dict(zip(pi, incs.tolist())))


def reference_maximize(pos, neg, lat):
    chosen = set(lat.must_include)
    for v in lat.free_nodes:
        if pos.per_node[v] - neg.per_node[v] > 0.0:
            chosen.add(v)
    return frozenset(chosen)


def reference_modmod_loop(evaluator, lat, gamma_bound_variant):
    incumbent = frozenset(lat.must_include)
    trajectory = [{"seeds": sorted(incumbent), "profit": evaluator.profit(incumbent)}]
    ceiling = reference_ceiling(lat)
    singleton = evaluator.marginal_many(ceiling, (), "profit")
    cost_fixed = reference_upper_fixed(evaluator, "cost", gamma_bound_variant, lat, ceiling)
    for _ in range(100 * max(1, len(lat.free_nodes))):
        pi = reference_order(lat, incumbent, ceiling, singleton)
        benefit_floor = reference_chain_bound(evaluator, "benefit", pi)
        cost_ceiling = reference_upper_at(evaluator, "cost", incumbent,
                                          evaluator.value(incumbent, "cost"),
                                          gamma_bound_variant, ceiling, cost_fixed)
        nxt = reference_maximize(benefit_floor, cost_ceiling, lat)
        if nxt == incumbent:
            return incumbent, trajectory
        incumbent = nxt
        trajectory.append({"seeds": sorted(incumbent), "profit": evaluator.profit(incumbent)})
    raise AssertionError("reference modmod did not converge")


def reference_mu_bound(evaluator, X, lat):
    X = frozenset(X)
    ceiling = reference_ceiling(lat)
    pi = reference_order(lat, X, ceiling, evaluator.marginal_many(ceiling, (), "profit"))
    cost_floor = reference_chain_bound(evaluator, "cost", pi)
    benefit = evaluator.value(X, "benefit")
    caps = []
    for variant in (3, 4):
        fixed = reference_upper_fixed(evaluator, "benefit", variant, lat, ceiling)
        benefit_ceiling = reference_upper_at(evaluator, "benefit", X, benefit, variant,
                                             ceiling, fixed)
        best = reference_maximize(benefit_ceiling, cost_floor, lat)
        caps.append(benefit_ceiling.at(best) - cost_floor.at(best))
    return min(caps)


def reference_climb(free, gains_of):
    while free.size:
        gains = gains_of(free)
        best = int(np.argmax(gains))
        if gains[best] <= 0.0:
            return
        yield int(free[best]), float(gains[best])
        free = np.delete(free, best)


def reference_benefitmax(evaluator, node_count, sizes):
    rounds = max(sizes)
    state = evaluator.coverage_state("benefit")
    picks = []
    for v, gain in reference_climb(np.arange(node_count, dtype=np.int64),
                                   lambda nodes: state.gains[nodes]):
        picks.append({"added": v, "marginal": gain})
        if len(picks) == rounds:
            break
        state.add(v)
    free = np.ones(node_count, dtype=bool)
    free[[p["added"] for p in picks]] = False
    picks += [{"added": v, "marginal": 0.0}
              for v in np.flatnonzero(free)[:rounds - len(picks)].tolist()]
    chosen = [frozenset(p["added"] for p in picks[:k]) for k in sizes]
    profits = evaluator.value_many(chosen, "profit").tolist()
    return [SelectionResult(algorithm="benefitmax", params={"k": k}, seeds=seeds,
                            estimated_profit=profit,
                            trajectory=[dict(p) for p in picks[:k]])
            for k, seeds, profit in zip(sizes, chosen, profits)]


def estimator_cases():
    """Random RR estimators, up to 60 nodes so that seed sets hash-collide."""
    rng = np.random.default_rng(41)
    for seed in range(12):
        g = random_graph(rng, max_nodes=14 if seed % 2 else 60, max_edges=40 if seed % 2 else 150)
        yield g, ProfitEstimator.build(g, 300, 300, seed=seed)


def exact_tie_cases():
    """Exact evaluators on edgeless graphs whose net weights tie often."""
    rng = np.random.default_rng(43)
    for _ in range(12):
        weights = rng.choice([-1.0, 0.0, 1.0, 2.0], size=int(rng.integers(1, 25))).tolist()
        g = edgeless_graph(weights)
        yield g, ExactEvaluator(g)


def check_bound_arrays(ev, lat, X, monkeypatch):
    """``ModularBounds`` at X against the reference copies."""
    ceiling = reference_ceiling(lat)
    bounds = ModularBounds(ev, lat)
    pi = bounds.ceiling[bounds.chain(bounds.rank(), bounds.mask(X))].tolist()
    assert repr(pi) == repr(reference_order(lat, X, ceiling,
                                            ev.marginal_many(ceiling, (), "profit")))
    for metric in ("benefit", "cost"):
        floor = lower_bound(ev, metric, X, lat)
        want = reference_chain_bound(ev, metric, pi)  # keyed in chain order
        assert repr(floor) == repr(want._replace(per_node=dict(sorted(want.per_node.items()))))
        for variant in (3, 4):
            metrics = []
            with monkeypatch.context() as patch:
                for name in ("value", "marginal_many", "marginal_vs_rest"):
                    def counted(*args, _query=getattr(ev, name)):
                        metrics.append(args[-1])
                        return _query(*args)
                    patch.setattr(ev, name, counted)
                upper = upper_bound(ev, metric, X, variant, lat)
            assert "profit" not in metrics
            fixed = reference_upper_fixed(ev, metric, variant, lat, ceiling)
            assert repr(upper) == repr(reference_upper_at(
                ev, metric, X, ev.value(X, metric), variant, ceiling, fixed))
            assert maximizer(upper, floor, lat) == reference_maximize(upper, floor, lat)


class TestBoundsMatchReferenceLoops:
    @staticmethod
    def check(ev, lat, monkeypatch):
        anchors = [lat.must_include, lat.may_include]
        for variant in (3, 4):
            result = modmod(ev, lat, gamma_bound_variant=variant)
            seeds, trajectory = reference_modmod_loop(ev, lat, variant)
            assert result.seeds == seeds
            assert repr(result.trajectory) == repr(trajectory)
            assert repr(result.estimated_profit) == repr(trajectory[-1]["profit"])
            anchors.append(result.seeds)
        anchors.append(greedy(ev, lat).seeds)
        for X in anchors:
            assert repr(mu_bound(ev, X, lat)) == repr(reference_mu_bound(ev, X, lat))
            check_bound_arrays(ev, lat, X, monkeypatch)

    def test_random_estimators(self, monkeypatch):
        for g, est in estimator_cases():
            self.check(est, trivial_lattice(g.node_count), monkeypatch)
            self.check(est, iterative_prune(est), monkeypatch)

    def test_exact_edgeless_graphs_with_ties(self, monkeypatch):
        for g, ev in exact_tie_cases():
            self.check(ev, trivial_lattice(g.node_count), monkeypatch)
            self.check(ev, iterative_prune(ev), monkeypatch)

    @pytest.mark.parametrize("cases", [estimator_cases, exact_tie_cases])
    def test_fixed_halves(self, cases):
        # each variant's anchor state gives what the batched queries give
        for g, ev in cases():
            for lat in (trivial_lattice(g.node_count), iterative_prune(ev)):
                bounds = ModularBounds(ev, lat)
                for metric in KINDS:
                    for variant in (1, 2, 3, 4):
                        got = bounds.fixed(metric, variant)
                        want = reference_upper_fixed(ev, metric, variant, lat, bounds.ceiling)
                        assert got.dtype == want.dtype == np.float64
                        assert repr(got.tolist()) == repr(want.tolist()), (metric, variant)

    @pytest.mark.parametrize("cases", [estimator_cases, exact_tie_cases])
    def test_benefitmax_sweeps(self, cases):
        for g, ev in cases():
            sizes = sweep_sizes(g.node_count)
            assert repr(_benefitmax(ev, g.node_count, sizes)) == repr(
                reference_benefitmax(ev, g.node_count, sizes))
            assert repr(k_sweep("benefitmax", g, ev).params["swept"]) == repr(
                [{"k": r.params["k"], "profit": r.estimated_profit}
                 for r in reference_benefitmax(ev, g.node_count, sizes)])


class TestGreedyMatchesLoop:
    @staticmethod
    def check(ev, lat):
        result = greedy(ev, lat)
        seeds, trajectory = reference_greedy_loop(ev, lat)
        assert result.seeds == seeds
        assert repr(result.trajectory) == repr(trajectory)

    def test_random_estimators(self):
        rng = np.random.default_rng(41)
        for seed in range(12):
            g = random_graph(rng, max_nodes=14, max_edges=40)
            est = ProfitEstimator.build(g, 300, 300, seed=seed)
            self.check(est, trivial_lattice(g.node_count))
            self.check(est, iterative_prune(est))

    def test_edgeless_graphs_with_ties(self):
        rng = np.random.default_rng(43)
        for seed in range(12):
            weights = rng.choice([-1.0, 0.0, 1.0, 2.0], size=int(rng.integers(1, 25))).tolist()
            g = edgeless_graph(weights)
            lat = trivial_lattice(g.node_count)
            self.check(ExactEvaluator(g), lat)
            self.check(ProfitEstimator.build(g, 60, 60, seed=seed), lat)


class TestOneReadPath:
    """Pruning, selection and certification read RR estimates through
    coverage states alone: with the batched marginal queries raising, each
    returns what it returns without them."""

    @staticmethod
    def runs(g, est) -> dict:
        lat = iterative_prune(est)
        X = greedy(est, lat).seeds
        out = {"prune": (lat, lat.iterations), "greedy": greedy(est, lat),
               "modmod3": modmod(est, lat, 3), "modmod4": modmod(est, lat, 4),
               "mu_bound": mu_bound(est, X, lat),
               "certify": certify(X, g, lat, 1000, delta=0.01, seed=5)}
        for metric in KINDS:
            out[f"lower {metric}"] = lower_bound(est, metric, X, lat)
            for variant in (1, 2, 3, 4):
                out[f"upper {metric} {variant}"] = upper_bound(est, metric, X, variant, lat)
        return out

    def test_batched_marginal_queries_unused(self, monkeypatch):
        g = random_graph(np.random.default_rng(3), max_nodes=12, max_edges=30)
        est = ProfitEstimator.build(g, 2000, 2000, seed=4)
        want = self.runs(g, est)
        assert len(want["prune"][1]) > 2  # pruning moved nodes before it settled
        assert want["prune"][0].free_nodes  # and left selection something to choose

        def refused(*args, **kwargs):
            raise AssertionError("a batched marginal query was asked")

        for name in ("marginal_many", "marginal_vs_rest"):
            monkeypatch.setattr(ProfitEstimator, name, refused)
        got = self.runs(g, est)
        assert got.keys() == want.keys()
        for key in want:
            assert repr(got[key]) == repr(want[key]), key


def saturating_estimator():
    """Ten nodes whose four benefit sets are all covered by picks 1, 3 and 7."""
    g = WeightedGraph(10, [], benefit=[4.0] + [0.0] * 9, cost=[0.0] * 10)
    sets = [[3, 1], [1], [5, 3], [7]]
    return g, ProfitEstimator(RRCollection("benefit", 10, 4.0, 0, sets), None, g)


class TestSweptBaselinePrefixes:
    @pytest.mark.parametrize("case", ["saturating", "zero-benefit", "random"])
    def test_benefitmax_matches_loop_without_stop(self, case):
        if case == "saturating":
            cases = [saturating_estimator()]
        elif case == "zero-benefit":
            g = WeightedGraph(6, [(0, 1, 0.5), (2, 1, 0.5)], benefit=[0.0] * 6,
                              cost=[1.0] * 6)
            cases = [(g, ProfitEstimator.build(g, 100, 100, seed=0))]
        else:
            rng = np.random.default_rng(29)
            cases = []
            for seed in range(6):
                g = random_graph(rng, max_nodes=12, max_edges=30)
                cases.append((g, ProfitEstimator.build(g, 200, 200, seed=seed)))
        for g, est in cases:
            n = g.node_count
            picks = reference_benefitmax_picks(est, n, n)
            swept = k_sweep("benefitmax", g, est, seed=0).params["swept"]
            assert [entry["k"] for entry in swept] == sweep_sizes(n)
            for entry in swept:
                result = baseline("benefitmax", g, entry["k"], est, seed=0)
                assert result.trajectory == picks[:entry["k"]]
                assert result.seeds == {p["added"] for p in picks[:entry["k"]]}
                assert entry["profit"] == result.estimated_profit == est.profit(result.seeds)

    def test_benefitmax_stops_updating_once_saturated(self, monkeypatch):
        g, est = saturating_estimator()
        added = []
        original = RRCoverage.add

        def counted(self, nodes):
            added.append(nodes)
            return original(self, nodes)
        monkeypatch.setattr(RRCoverage, "add", counted)
        result = baseline("benefitmax", g, 10, est, seed=0)
        assert added == [1, 3, 7]
        assert [p["added"] for p in result.trajectory] == [1, 3, 7, 0, 2, 4, 5, 6, 8, 9]
        assert [p["marginal"] for p in result.trajectory] == [2.0, 1.0, 1.0] + [0.0] * 7

    def test_highdegree_prefixes_of_degree_order(self):
        rng = np.random.default_rng(31)
        for seed in range(6):
            g = random_graph(rng, max_nodes=12, max_edges=20)  # out-degrees tie often
            est = ProfitEstimator.build(g, 200, 200, seed=seed)
            n = g.node_count
            order = sorted(range(n), key=lambda v: (-int(g.out_degree[v]), v))
            swept = k_sweep("highdegree", g, est, seed=0).params["swept"]
            assert [entry["k"] for entry in swept] == sweep_sizes(n)
            for entry in swept:
                seeds = frozenset(order[:entry["k"]])
                result = baseline("highdegree", g, entry["k"], est, seed=0)
                assert result.seeds == seeds
                assert entry["profit"] == result.estimated_profit == est.profit(seeds)

    def test_random_matches_lone_calls_and_rebuilt_draws(self):
        rng = np.random.default_rng(37)
        for seed in range(6):
            g = random_graph(rng, max_nodes=12, max_edges=30)
            est = ProfitEstimator.build(g, 200, 200, seed=seed)
            n = g.node_count
            best = k_sweep("random", g, est, seed=seed)
            swept = _random(g, est, sweep_sizes(n), seed)
            assert best.params["swept"] == [{"k": r.params["k"], "profit": r.estimated_profit}
                                            for r in swept]
            for entry in swept:
                k = entry.params["k"]
                lone = baseline("random", g, k, est, seed=seed)
                picked = (entry.seeds, entry.trajectory, entry.estimated_profit)
                assert picked == (lone.seeds, lone.trajectory, lone.estimated_profit)
                if k == best.params["k"]:
                    assert picked == (best.seeds, best.trajectory, best.estimated_profit)
                draw_rng = make_rng(derive_seed(seed, "baseline", "random", k))
                draws = [draw_rng.choice(n, size=k, replace=False)
                         for _ in range(RANDOM_BASELINE_DRAWS)]
                assert entry.seeds == frozenset(draws[0].tolist())
                assert [t["profit"] for t in entry.trajectory] == [est.profit(d) for d in draws]
