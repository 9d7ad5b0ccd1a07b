import importlib
import itertools
import math

import numpy as np
import pytest

from profitmax import (DomainError, ExactEvaluator, ProfitEstimator, WeightedGraph,
                       certify, chernoff_a, epsilon_mu, exhaustive_optimum, generate,
                       greedy, iterative_prune, mu_bound, trivial_lattice)

from profitmax.rng import derive_seed

from conftest import (brute_optimum, brute_profit, edgeless_graph, lower_bound,
                      make_demo_graph, random_graph, random_subset, upper_bound,
                      variant_cap)


@pytest.fixture(scope="module")
def demo_setup(demo_graph):
    ev = ExactEvaluator(demo_graph)
    return ev, iterative_prune(ev)


class TestMuBound:
    def test_demo_values(self, demo_setup):
        ev, lat = demo_setup
        mu3 = variant_cap(ev, {1, 2}, lat, 3)
        mu4 = variant_cap(ev, {1, 2}, lat, 4)
        assert mu3 == pytest.approx(1.8624, abs=1e-9)
        assert mu4 == pytest.approx(2.2704, abs=1e-9)
        assert mu_bound(ev, {1, 2}, lat) == min(mu3, mu4)
        assert min(mu3, mu4) >= 1.68 - 1e-9

    def test_benefit_of_x_asked_once(self, monkeypatch, demo_graph, demo_setup):
        # both benefit ceilings are tight at X through the same f(X), read
        # from the benefit coverage state at X, so no value query is asked
        _, lat = demo_setup
        est = ProfitEstimator.build(demo_graph, 2000, 2000, seed=3)
        X = frozenset({1, 2})
        expected = min(variant_cap(est, X, lat, 3), variant_cap(est, X, lat, 4))
        metrics = []

        def value(S, metric):
            metrics.append(metric)
            return ProfitEstimator.value(est, S, metric)

        monkeypatch.setattr(est, "value", value)
        assert mu_bound(est, X, lat) == expected
        assert metrics == []

    def test_edgeless_equals_true_optimum(self):
        g = edgeless_graph([2.0, -1.0, 3.0, 0.5])
        ev = ExactEvaluator(g)
        lat = trivial_lattice(4)
        for X in (frozenset(), {0}, {0, 2, 3}):
            for variant in (3, 4):
                assert variant_cap(ev, X, lat, variant) == pytest.approx(5.5, abs=1e-9)
            assert mu_bound(ev, X, lat) == pytest.approx(5.5, abs=1e-9)

    def test_dominates_brute_force_optimum(self):
        rng = np.random.default_rng(311)
        for _ in range(25):
            g = random_graph(rng, max_nodes=5, max_edges=8)
            ev = ExactEvaluator(g)
            lat = iterative_prune(ev)
            _, best, _ = brute_optimum(g)
            free = sorted(lat.free_nodes)
            candidates = [lat.must_include, lat.may_include]
            if free:
                extra = {v for v in free if rng.random() < 0.5}
                candidates.append(lat.must_include | extra)
            for X in candidates:
                for variant in (3, 4):
                    assert variant_cap(ev, X, lat, variant) >= best - 1e-9
                assert mu_bound(ev, X, lat) >= best - 1e-9

    def test_x_outside_lattice_rejected(self, demo_setup):
        ev, lat = demo_setup
        with pytest.raises(DomainError):
            mu_bound(ev, {3}, lat)

    def test_matches_lattice_enumeration(self, demo_setup):
        # brute-force each variant's modular difference over the whole lattice
        ev, lat = demo_setup
        X = frozenset({1, 2})
        h = lower_bound(ev, "cost", X, lat)
        free = sorted(lat.free_nodes)
        lattice_sets = [lat.must_include | frozenset(extra)
                        for r in range(len(free) + 1)
                        for extra in itertools.combinations(free, r)]
        caps = []
        for variant in (3, 4):
            m = upper_bound(ev, "benefit", X, variant, lat)
            caps.append(max(m.at(Y) - h.at(Y) for Y in lattice_sets))
        assert mu_bound(ev, X, lat) == pytest.approx(min(caps), abs=1e-12)


class TestCapPremise:
    """The certificate's cap mu~ = min(mu_bound(validation, X, lattice), Upsilon_b)
    must cover the validation estimate's best profit over all seed sets.
    Pruning proves that only for the function it pruned on, so a lattice
    pruned on a small selection sample can leave the validation optimum
    outside; the cap is therefore taken over every seed set, whatever
    lattice the caller passes."""

    def test_holds_with_the_selection_lattice(self):
        # the CLI's path: prune and greedy on a theta = 50 selection sample,
        # then certify with that lattice at theta = 4000
        rng = np.random.default_rng(11)
        failed = []
        for i in range(60):
            g = random_graph(rng, 7, 12)
            sample = ProfitEstimator.build(g, 50, 50, seed=i)
            lat = iterative_prune(sample)
            X = greedy(sample, lat).seeds
            cert = certify(X, g, lat, 4000, delta=0.05, seed=10_000 + i)
            # the validation estimator certify draws
            val = ProfitEstimator.build(g, 4000, 4000,
                                        seed=derive_seed(10_000 + i, "validation"))
            assert cert.phi_estimate == val.profit(X)
            best = max(val.profit(frozenset(S)) for r in range(g.node_count + 1)
                       for S in itertools.combinations(range(g.node_count), r))
            if cert.mu_estimate < best - 1e-9:
                failed.append(i)
        assert failed == []


class TestEpsilonMu:
    A = chernoff_a(1e-6)

    def test_regression_value(self):
        # frozen from an independent evaluation of the formula
        value = epsilon_mu(50.0, 10_000, 10_000, 100.0, 100.0, 1e-6)
        assert value == pytest.approx(11.029898640216334, rel=1e-12)

    def test_matches_direct_formula(self):
        mu, tb, tg, ub, uc, delta = 3.7, 2000, 1500, 12.0, 9.0, 1e-4
        a = chernoff_a(delta)
        rb, rc = ub / tb, uc / tg
        expected = (rc * math.sqrt(a * ((rb * tb - mu) / rc + 0.25 * a))
                    + 0.5 * a * (rb - rc) + rb * math.sqrt(a * (tb + 0.25 * a)))
        assert epsilon_mu(mu, tb, tg, ub, uc, delta) == pytest.approx(expected, rel=1e-12)

    def test_benefit_ceiling_collapses_first_radical(self):
        tb = tg = 5000
        ub, uc, delta = 40.0, 25.0, 1e-5
        a = chernoff_a(delta)
        rb, rc = ub / tb, uc / tg
        expected = 0.5 * a * rb + rb * math.sqrt(a * (tb + 0.25 * a))
        assert epsilon_mu(ub, tb, tg, ub, uc, delta) == pytest.approx(expected, rel=1e-12)

    def test_monotone_nonincreasing_in_mu(self):
        grid = np.linspace(-20.0, 100.0, 60)
        values = [epsilon_mu(float(mu), 10_000, 10_000, 100.0, 100.0, 1e-6)
                  for mu in grid]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            epsilon_mu(1e9, 100, 100, 10.0, 10.0, 1e-3)

    def test_zero_cost_limit(self):
        tb = tg = 1000
        a = chernoff_a(1e-3)
        rb = 10.0 / tb
        expected = 0.5 * a * rb + rb * math.sqrt(a * (tb + 0.25 * a))
        assert epsilon_mu(5.0, tb, tg, 10.0, 0.0, 1e-3) == pytest.approx(
            0.5 * a * rb * 0 + expected - 0.5 * a * 0, rel=1e-12)

    def test_zero_cost_ceiling_rejects_excess_mu(self):
        with pytest.raises(DomainError):
            epsilon_mu(11.0, 1000, 1000, 10.0, 0.0, 1e-3)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_rejected(self, mu):
        # a NaN cap came back as a NaN inflation, and -inf as an infinite one
        with pytest.raises(DomainError, match="mu_tilde must be finite"):
            epsilon_mu(mu, 1000, 1000, 10.0, 10.0, 1e-3)

    @pytest.mark.parametrize("totals", [(math.nan, 1.0), (1.0, math.inf)])
    def test_non_finite_totals_rejected(self, totals):
        with pytest.raises(DomainError, match="totals must be finite"):
            epsilon_mu(1.0, 1000, 1000, *totals, 1e-3)


class TestCertify:
    def test_demo_regression(self, demo_graph, demo_setup):
        _, lat = demo_setup
        cert = certify({1, 2}, demo_graph, lat, 200_000, delta=1e-3, seed=2024)
        assert cert.guarantee == pytest.approx(0.7176934501881519, rel=1e-9)
        # deterministic pipeline: components are regression values too
        assert cert.mu_estimate == pytest.approx(1.98536, abs=1e-6)
        assert cert.epsilon_mu == pytest.approx(0.1642876, abs=1e-6)

    def test_demo_soundness(self, demo_graph, demo_setup):
        _, lat = demo_setup
        cert = certify({1, 2}, demo_graph, lat, 200_000, delta=1e-3, seed=2024)
        # the true values sit inside the bounds on this run
        assert cert.beta_lower <= 5.88 <= cert.beta_upper
        assert cert.gamma_lower <= 4.20 <= cert.gamma_upper
        # the certified cap covers the true optimum, so the ratio is sound
        assert cert.mu_estimate + cert.epsilon_mu >= 1.68
        assert cert.beta_lower - cert.gamma_upper <= 1.68
        assert cert.guarantee <= 1.0 + 1e-9
        assert cert.phi_estimate == pytest.approx(1.68, rel=0.05)

    def test_bound_ordering_by_construction(self, demo_graph, demo_setup):
        _, lat = demo_setup
        cert = certify({1, 2}, demo_graph, lat, 5000, delta=0.05, seed=31)
        est_b = cert.phi_estimate  # phi = beta_est - gamma_est
        assert cert.beta_lower <= cert.beta_upper
        assert cert.gamma_lower <= cert.gamma_upper
        assert cert.guarantee == pytest.approx(
            (cert.beta_lower - cert.gamma_upper)
            / (cert.mu_estimate + cert.epsilon_mu))
        assert est_b == cert.phi_estimate

    def test_one_cap_per_certificate(self, monkeypatch, demo_graph, demo_setup):
        # mu is one mu_bound call: one permutation (its profit singletons, read
        # from coverage states) and one cost chain on the validation estimator
        # serve both benefit ceilings
        _, lat = demo_setup
        certify_module = importlib.import_module("profitmax.certify")
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, kwargs.get("metric", args[-1])))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("marginal_many", "chain_increments"):
            monkeypatch.setattr(ProfitEstimator, name,
                                counted(name, ProfitEstimator.__dict__[name]))
        monkeypatch.setattr(certify_module, "mu_bound",
                            counted("mu_bound", certify_module.mu_bound))
        certify({1, 2}, demo_graph, lat, 1000, delta=0.01, seed=5)
        assert [name for name, _ in calls].count("mu_bound") == 1
        assert [c for c in calls if c[0] == "marginal_many"] == []
        assert [c for c in calls if c[0] == "chain_increments"] == [("chain_increments", "cost")]

    @pytest.mark.parametrize("case", range(4))
    def test_phi_estimate_comes_from_the_coverage_counts(self, monkeypatch, case):
        # certify asks no profit query; phi is the same float a validation
        # estimator built on its own gives for profit(S)
        rng = np.random.default_rng(70 + case)
        g = make_demo_graph() if case == 0 else random_graph(rng)
        seeds = {1, 2} if case == 0 else random_subset(rng, g.node_count)
        validation = ProfitEstimator.build(g, 3000, 2000, seed=derive_seed(5, "validation"))
        expected = validation.profit(seeds)

        def refused(self, seeds):
            raise AssertionError("certify queried ProfitEstimator.profit")

        monkeypatch.setattr(ProfitEstimator, "profit", refused)
        cert = certify(seeds, g, trivial_lattice(g.node_count), (3000, 2000), delta=0.01, seed=5)
        assert cert.phi_estimate.hex() == expected.hex()

    def test_single_node_degenerate(self):
        g = WeightedGraph(1, [], benefit=[1.0], cost=[0.0])
        theta = 10_000
        cert = certify({0}, g, trivial_lattice(1), theta, delta=1e-3, seed=7)
        a = chernoff_a(1e-3)
        beta_l = (math.sqrt(theta + 0.25 * a) - 0.5 * math.sqrt(a)) ** 2 / theta
        eps = 0.5 * a / theta + math.sqrt(a * (theta + 0.25 * a)) / theta
        assert cert.mu_estimate == pytest.approx(1.0, abs=1e-12)
        assert cert.gamma_upper == 0.0
        assert cert.guarantee == pytest.approx(beta_l / (1.0 + eps), rel=1e-12)

    def test_delta_domain(self, demo_graph, demo_setup):
        _, lat = demo_setup
        with pytest.raises(DomainError):
            certify({1, 2}, demo_graph, lat, 100, delta=0.0, seed=1)

    def test_theta_pair(self, demo_graph, demo_setup):
        _, lat = demo_setup
        cert = certify({1, 2}, demo_graph, lat, (4000, 2000), delta=0.01, seed=3)
        assert cert.theta_beta == 4000
        assert cert.theta_gamma == 2000

    @pytest.mark.parametrize("thetas", [(100, 100, 100), (100,), (), "abc", "100", 100.0,
                                        True, (100, "abc"), [100, None], (100, False)])
    def test_malformed_validation_thetas(self, demo_graph, demo_setup, thetas):
        # one count or a pair of counts; anything else is refused before sampling
        _, lat = demo_setup
        with pytest.raises(DomainError, match="one count or a pair of counts"):
            certify({1, 2}, demo_graph, lat, thetas, delta=0.1, seed=1)

    def test_numpy_counts_accepted(self, demo_graph, demo_setup):
        _, lat = demo_setup
        cert = certify({1, 2}, demo_graph, lat, [np.int64(400), np.int32(300)], delta=0.1, seed=1)
        assert (cert.theta_beta, cert.theta_gamma) == (400, 300)
        assert type(cert.theta_beta) is int

    def test_json_round_trip_fields(self, demo_graph, demo_setup):
        _, lat = demo_setup
        cert = certify({1, 2}, demo_graph, lat, 1000, delta=0.01, seed=5)
        doc = cert.to_json_dict()
        for key in ("phi_estimate", "beta_lower", "beta_upper", "gamma_lower",
                    "gamma_upper", "mu_estimate", "epsilon_mu", "guarantee",
                    "delta", "theta_beta", "theta_gamma", "upsilon_b",
                    "upsilon_c", "seed"):
            assert key in doc
        line = cert.summary_line()
        assert line.startswith("guarantee=")
        for token in ("beta_l=", "gamma_u=", "mu=", "eps="):
            assert token in line

    @pytest.mark.parametrize("path", ["exact-optimum", "cli"])
    def test_statistical_soundness(self, path):
        # over repeated runs at delta = 0.05, the certified profit floor and
        # optimum cap should each fail only on the delta-sized tail; the
        # certified set is the exact optimum in its exactly pruned lattice,
        # or, on the CLI's path, greedy's in the lattice pruned on a
        # theta = 50 selection sample
        rng = np.random.default_rng(401)
        delta = 0.05
        floor_ok = cap_ok = ratio_ok = runs = 0
        for i in range(60):
            g = random_graph(rng, max_nodes=5, max_edges=7)
            if path == "cli":
                sample = ProfitEstimator.build(g, 50, 50, seed=derive_seed(9000 + i, "selection"))
                lat = iterative_prune(sample)
                seeds = greedy(sample, lat).seeds
            else:
                lat = iterative_prune(ExactEvaluator(g))
                seeds, _ = exhaustive_optimum(g)
            cert = certify(seeds, g, lat, 4000, delta=delta, seed=9000 + i)
            exact = brute_profit(g, seeds)
            _, best, _ = brute_optimum(g)
            runs += 1
            floor_holds = cert.beta_lower - cert.gamma_upper <= exact + 1e-9
            cap_holds = best <= cert.mu_estimate + cert.epsilon_mu + 1e-9
            floor_ok += floor_holds
            cap_ok += cap_holds
            if floor_holds and cap_holds and cert.beta_lower - cert.gamma_upper > 0:
                # when both events hold the reported ratio cannot beat the truth
                assert cert.guarantee <= 1.0 + 1e-9
                ratio_ok += 1
        assert floor_ok >= 0.9 * runs
        assert cap_ok >= 0.9 * runs
        assert ratio_ok >= 1


class TestValidationEstimator:
    @pytest.mark.parametrize("case", range(8))
    def test_prebuilt_pair_gives_the_old_form_certificate(self, case):
        # certifying on the pair the old form draws gives its certificate
        # field for field; case 0 has zero total cost, so the estimator holds
        # no cost collection, yet records and certifies with theta_gamma
        rng = np.random.default_rng(500 + case)
        g = random_graph(rng)
        if case == 0:
            g = g.with_weights(g.benefit, np.zeros(g.node_count))
        seeds = random_subset(rng, g.node_count)
        thetas = tuple(int(t) for t in rng.integers(50, 3000, size=2))
        delta, seed = float(rng.choice([1e-6, 1e-3, 0.05])), int(rng.integers(0, 1 << 30))
        validation = ProfitEstimator.build(g, *thetas, seed=derive_seed(seed, "validation"))
        assert validation.thetas == thetas
        assert (validation.cost_rr is None) == (case == 0)
        new = certify(seeds, validation, delta=delta, seed=seed)
        old = certify(seeds, g, trivial_lattice(g.node_count), thetas, delta=delta, seed=seed)
        assert {k: repr(v) for k, v in new.to_json_dict().items()} == \
            {k: repr(v) for k, v in old.to_json_dict().items()}

    def test_exact_evaluator_refused(self, demo_graph):
        with pytest.raises(DomainError, match="got ExactEvaluator"):
            certify({1, 2}, ExactEvaluator(demo_graph), delta=0.1, seed=1)

    def test_weightless_side_without_theta_refused(self):
        # built from collections, a side without weight has no count to certify with
        g = WeightedGraph(3, [(0, 1, 0.5)], benefit=[1.0, 2.0, 0.5], cost=[0.0] * 3)
        validation = ProfitEstimator(generate(g, "benefit", 200, seed=1), None, g)
        assert validation.thetas == (200, None)
        with pytest.raises(DomainError, match="records both thetas"):
            certify({0}, validation, delta=0.1, seed=1)
