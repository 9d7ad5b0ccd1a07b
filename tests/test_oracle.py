import math
import re

import numpy as np
import pytest

from profitmax import (CapacityError, DomainError, ExactEvaluator, WeightedGraph,
                       exhaustive_optimum, simulate_spread)
from profitmax import rrsets

from conftest import (DEMO_OPTIMUM, DEMO_OPTIMUM_PROFIT, brute_evaluate,
                      brute_optimum, edgeless_graph, live_edge_worlds,
                      make_demo_graph, random_graph, random_subset)


class TestSimulate:
    def test_deterministic_path(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], benefit=[1, 1, 1])
        assert simulate_spread(g, {0}, 50, rng=1).all()

    def test_no_propagation(self):
        g = WeightedGraph(3, [(0, 1, 0.0), (1, 2, 0.0)], benefit=[1, 1, 1])
        active = simulate_spread(g, {0, 2}, 50, rng=1)
        assert (active == [True, False, True]).all()

    def test_seeds_always_contained(self, demo_graph):
        rng = np.random.default_rng(5)
        for _ in range(200):
            seeds = random_subset(rng, 4)
            active = simulate_spread(demo_graph, seeds, 20, rng=rng)
            assert active[:, sorted(seeds)].all()

    def test_out_of_range_seed(self, demo_graph):
        with pytest.raises(DomainError):
            simulate_spread(demo_graph, {9}, 10, rng=1)

    @pytest.mark.parametrize("runs", [0, -3])
    def test_runs_must_be_positive(self, demo_graph, runs):
        with pytest.raises(DomainError, match="runs must be at least 1"):
            simulate_spread(demo_graph, {0}, runs, rng=1)

    @pytest.mark.parametrize("runs", [2.7, True, "5"])
    def test_non_integer_runs_rejected(self, demo_graph, runs):
        # int() would run 2 cascades for 2.7 and 1 for True
        with pytest.raises(DomainError, match=f"^runs must be an integer count, "
                           f"got {re.escape(repr(runs))}$"):
            simulate_spread(demo_graph, {0}, runs, rng=1)

    def test_empty_seed_set_activates_nothing(self, demo_graph):
        active = simulate_spread(demo_graph, set(), 30, rng=1)
        assert active.shape == (30, 4) and not active.any()
        assert simulate_spread(WeightedGraph(0, []), set(), 5, rng=1).shape == (5, 0)

    def test_monte_carlo_matches_exact(self, demo_graph):
        # One million cascades from {v1, v3}: the frequency of v4 activating
        # and the sample means of the weighted sums must match the oracle.
        runs = 1_000_000
        rng = np.random.default_rng(20240601)
        active = simulate_spread(demo_graph, (0, 2), runs, rng)
        hits_v4 = int(np.count_nonzero(active[:, 3]))
        per_node = np.count_nonzero(active, axis=0)
        beta_sum = float(per_node @ demo_graph.benefit)
        gamma_sum = float(per_node @ demo_graph.cost)
        assert hits_v4 / runs == pytest.approx(0.6052, abs=2e-3)
        exact = ExactEvaluator(demo_graph)
        assert beta_sum / runs == pytest.approx(exact.benefit({0, 2}), rel=5e-3)
        assert gamma_sum / runs == pytest.approx(exact.cost({0, 2}), rel=5e-3)

    def test_activation_rates_hold_across_batches(self, demo_graph, monkeypatch):
        # a 64-byte visited budget makes a batch 16 runs on the 4-node demo
        # graph; node v activates with probability p_v = f_v({v1, v3}),
        # the exact benefit of the seeds under unit weight on v alone
        monkeypatch.setattr(rrsets, "VISITED_BUDGET", 64)
        runs = 20_000
        counts = np.count_nonzero(simulate_spread(demo_graph, (0, 2), runs, rng=7), axis=0)
        units, zeros = np.eye(demo_graph.node_count), np.zeros(demo_graph.node_count)
        for v in range(demo_graph.node_count):
            p = ExactEvaluator(demo_graph.with_weights(units[v], zeros)).benefit({0, 2})
            spread = 5 * math.sqrt(max(runs * p * (1 - p), 0.0))
            assert abs(counts[v] - runs * p) <= spread + 1e-6 * runs, v


class TestExactEvaluate:
    def test_demo_values(self, demo_graph):
        ev = ExactEvaluator(demo_graph)
        assert ev.benefit({1, 2}) == pytest.approx(5.88, abs=1e-9)
        assert ev.cost({1, 2}) == pytest.approx(4.20, abs=1e-9)
        assert ev.profit({1, 2}) == pytest.approx(1.68, abs=1e-9)
        assert ev.profit({1, 3}) == pytest.approx(-2.0, abs=1e-9)
        assert ev.profit({1, 2, 3}) == pytest.approx(0.0, abs=1e-9)

    def test_empty_seeds(self, demo_graph):
        ev = ExactEvaluator(demo_graph)
        assert ev.benefit(set()) == ev.cost(set()) == ev.profit(set()) == 0.0

    def test_profit_is_benefit_minus_cost(self, demo_graph):
        ev = ExactEvaluator(demo_graph)
        assert ev.profit({0, 3}) == ev.benefit({0, 3}) - ev.cost({0, 3})
        assert ev.value({0, 3}, "profit") == ev.profit({0, 3})

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = random_graph(rng, max_nodes=6, max_edges=9)
            seeds = random_subset(rng, g.node_count)
            expected_b, expected_c = brute_evaluate(g, seeds)
            ev = ExactEvaluator(g)
            assert ev.benefit(seeds) == pytest.approx(expected_b, abs=1e-9)
            assert ev.cost(seeds) == pytest.approx(expected_c, abs=1e-9)

    def test_matches_brute_force_with_deterministic_edges(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            g = random_graph(rng, max_nodes=5, max_edges=8)
            src, dst, prob = g.edge_arrays()
            prob = prob.copy()
            # snap a few probabilities to the extremes
            for k in range(len(prob)):
                draw = rng.random()
                if draw < 0.3:
                    prob[k] = 0.0
                elif draw < 0.6:
                    prob[k] = 1.0
            g = WeightedGraph(g.node_count, zip(src, dst, prob),
                              benefit=g.benefit, cost=g.cost)
            seeds = random_subset(rng, g.node_count)
            expected_b, expected_c = brute_evaluate(g, seeds)
            ev = ExactEvaluator(g)
            assert ev.benefit(seeds) == pytest.approx(expected_b, abs=1e-9)
            assert ev.cost(seeds) == pytest.approx(expected_c, abs=1e-9)

    def test_isolated_nodes_contribute_when_seeded(self):
        g = WeightedGraph(3, [(0, 1, 0.5)], benefit=[1, 1, 7], cost=[0, 0, 2])
        ev = ExactEvaluator(g)
        assert ev.profit({2}) == pytest.approx(5.0)
        assert ev.profit(set()) == 0.0

    def test_edge_cap_error(self):
        edges = [(0, i + 1, 0.5) for i in range(21)]
        g = WeightedGraph(22, edges, benefit=[1.0] * 22)
        with pytest.raises(CapacityError, match="20"):
            ExactEvaluator(g)

    def test_cap_is_configurable(self, demo_graph):
        with pytest.raises(CapacityError):
            ExactEvaluator(demo_graph, edge_cap=3)

    def test_more_active_nodes_than_mask_bits(self):
        # 33 disjoint edges touch 66 nodes: more than an int64 mask holds,
        # refused before the 2^33-world tables are allocated
        g = WeightedGraph(66, [(2 * i, 2 * i + 1, 0.5) for i in range(33)])
        with pytest.raises(CapacityError, match="66 nodes"):
            ExactEvaluator(g, edge_cap=33)

    def test_cost_charged_for_activated_sinks(self):
        # a sink's cost is charged whenever it activates, even with nothing
        # downstream to push to
        g = WeightedGraph(2, [(0, 1, 0.25)], benefit=[0, 0], cost=[0, 4])
        assert ExactEvaluator(g).cost({0}) == pytest.approx(1.0)


def _table_graphs():
    rng = np.random.default_rng(71)
    graphs = [pytest.param(random_graph(rng, max_nodes=6, max_edges=9), id=f"random-{i}")
              for i in range(8)]
    return graphs + [
        # listed root-first: each relaxation round grows a reach set by one hop
        pytest.param(WeightedGraph(7, [(i, i + 1, 0.5) for i in range(6)]), id="path"),
        pytest.param(WeightedGraph(2, [(0, 1, 0.3), (1, 0, 0.6)]), id="2-cycle"),
        # edges that are never or always live, and node 3 on no edge
        pytest.param(WeightedGraph(5, [(0, 1, 0.0), (1, 2, 1.0), (2, 0, 0.5), (4, 0, 1.0)]),
                     id="p0-p1-isolated"),
        pytest.param(edgeless_graph([1.0, -2.0]), id="edgeless"),
    ]


class TestExactTables:
    @pytest.mark.parametrize("g", _table_graphs())
    def test_tables_match_per_world_reference(self, g):
        ev = ExactEvaluator(g)
        active = np.flatnonzero(ev._column >= 0)
        assert ev._reach.shape == (len(active), 1 << g.edge_count)
        for w, p, reach in live_edge_worlds(g):
            assert ev._prob[w] == p
            for u in active.tolist():
                mask = sum(1 << int(ev._column[v]) for v in reach[u])
                assert ev._reach[ev._column[u], w] == mask


class TestExactMarginal:
    def test_composite_demo_value(self, demo_graph):
        ev = ExactEvaluator(demo_graph)
        value = ev.marginal(0, {1, 2, 3}, "benefit") - ev.marginal(0, set(), "cost")
        assert value == pytest.approx(-1.98, abs=1e-9)

    def test_profit_marginal_demo(self, demo_graph):
        # benefit marginal 2.28 minus cost marginal 1.70
        ev = ExactEvaluator(demo_graph)
        assert ev.marginal(1, {2}, "benefit") == pytest.approx(2.28, abs=1e-9)
        assert ev.marginal(1, {2}, "cost") == pytest.approx(1.70, abs=1e-9)
        assert ev.marginal(1, {2}, "profit") == pytest.approx(0.58, abs=1e-9)

    def test_edgeless_profit_marginal_is_net_weight(self):
        g = edgeless_graph([2.0, -1.0, 3.0])
        ev = ExactEvaluator(g)
        for base in (set(), {0}, {0, 1}):
            v = max(set(range(3)) - base)
            assert ev.marginal(v, base, "profit") == pytest.approx(g.net_weight[v])

    def test_rejects_member_node(self, demo_graph):
        with pytest.raises(DomainError):
            ExactEvaluator(demo_graph).marginal(1, {1}, "benefit")

    def test_rejects_unknown_metric(self, demo_graph):
        with pytest.raises(DomainError):
            ExactEvaluator(demo_graph).marginal(1, set(), "spread")


class TestSubmodularity:
    def test_benefit_and_cost_marginals_shrink(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            g = random_graph(rng, max_nodes=6, max_edges=9)
            ev = ExactEvaluator(g)
            small = random_subset(rng, g.node_count)
            big = small | random_subset(rng, g.node_count)
            outside = [v for v in range(g.node_count) if v not in big]
            for v in outside:
                for metric in ("benefit", "cost"):
                    assert (ev.marginal(v, small, metric)
                            >= ev.marginal(v, big, metric) - 1e-9)

    def test_profit_non_monotone_on_demo(self, demo_graph):
        # adding v4 alone is worse than seeding nothing
        ev = ExactEvaluator(demo_graph)
        assert ev.profit({3}) == pytest.approx(-3.0, abs=1e-9)
        assert ev.profit(set()) == 0.0


class TestExhaustiveOptimum:
    def test_demo_optimum(self, demo_graph):
        seeds, value = exhaustive_optimum(demo_graph)
        assert seeds == DEMO_OPTIMUM
        assert value == pytest.approx(DEMO_OPTIMUM_PROFIT, abs=1e-9)

    def test_edgeless_positive_nodes(self):
        seeds, value = exhaustive_optimum(edgeless_graph([2.0, -1.0, 3.0]))
        assert seeds == {0, 2}
        assert value == pytest.approx(5.0)

    def test_all_zero_ties_break_to_empty(self):
        seeds, value = exhaustive_optimum(edgeless_graph([0.0, 0.0, 0.0]))
        assert seeds == frozenset()
        assert value == 0.0

    def test_node_cap(self):
        g = edgeless_graph([1.0] * 17)
        with pytest.raises(CapacityError, match="16"):
            exhaustive_optimum(g)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            g = random_graph(rng, max_nodes=5, max_edges=7)
            seeds, value = exhaustive_optimum(g)
            expected_set, expected_value, _ = brute_optimum(g)
            assert value == pytest.approx(expected_value, abs=1e-9)
            assert seeds == expected_set


class TestEvaluatorReuse:
    def test_repeated_queries_are_consistent(self, demo_graph):
        ev = ExactEvaluator(demo_graph)
        first = ev.profit({1, 2})
        assert ev.profit({1, 2}) == first
        assert ev.value({1, 2}, "benefit") - ev.value({1, 2}, "cost") == first

    def test_chain_increments_telescope(self, demo_graph):
        ev = ExactEvaluator(demo_graph)
        order = [2, 1, 0, 3]
        incs = ev.chain_increments(order, "cost")
        assert sum(incs) == pytest.approx(ev.cost(set(order)), abs=1e-12)
        assert incs[0] == pytest.approx(2.5, abs=1e-9)
        assert incs[1] == pytest.approx(1.7, abs=1e-9)
