import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitmax import (CapacityError, DomainError, ExactEvaluator,
                       ProfitEstimator, RRCollection, WeightedGraph, chernoff_a,
                       confidence_bounds, generate, normalize_weights,
                       sampling_error_limit, theta_for_relative_error)
from profitmax import oracle, rrsets
from profitmax.evaluation import KINDS, METRICS, MarginalEvaluator
from profitmax.rng import derive_seed
from profitmax.rrsets import RRCoverage

from conftest import brute_evaluate, make_demo_graph, random_graph, random_subset


def collection_from_sets(sets, node_count, kind="benefit", total=1.0):
    return RRCollection(kind=kind, node_count=node_count, total_weight=total,
                        seed=0, sets=sets)


def counting_estimator(sets, node_count) -> ProfitEstimator:
    """Estimator over the sets as its benefit side with rho = 1 and no cost.

    Its benefit values and marginals are plain coverage counts, and its
    ``coverage_counts(S)[0]`` is Lambda(S).
    """
    theta = len(sets)
    g = WeightedGraph(node_count, [], benefit=[theta] + [0] * (node_count - 1))
    return ProfitEstimator(collection_from_sets(sets, node_count, total=theta), None, g)


def estimates(est, seeds):
    return est.benefit(seeds), est.cost(seeds), est.profit(seeds)


def wic_graph(n, m, seed) -> WeightedGraph:
    """Random directed graph with weighted-cascade probabilities 1 / in-degree."""
    rng = np.random.default_rng(seed)
    pairs = {(int(u), int(v)) for u, v in rng.integers(0, n, size=(m, 2)) if u != v}
    edges = sorted(pairs)
    in_deg = np.bincount([v for _, v in edges], minlength=n)
    return WeightedGraph(n, [(u, v, 1.0 / in_deg[v]) for u, v in edges],
                         benefit=rng.uniform(0.0, 2.0, size=n),
                         cost=rng.uniform(0.0, 2.0, size=n))


def mixed_graph(n, m, seed) -> WeightedGraph:
    """Random directed graph whose rows mix probabilities, some of them 0 or 1."""
    rng = np.random.default_rng(seed)
    pairs = {(int(u), int(v)) for u, v in rng.integers(0, n, size=(m, 2)) if u != v}
    prob = rng.choice([0.0, 1.0, 0.5], size=len(pairs), p=[0.05, 0.02, 0.93])
    prob[prob == 0.5] = rng.uniform(0.0, 0.3, size=np.count_nonzero(prob == 0.5))
    return WeightedGraph(n, [(u, v, float(p)) for (u, v), p in zip(sorted(pairs), prob)],
                         benefit=rng.uniform(0.0, 2.0, size=n),
                         cost=rng.uniform(0.0, 2.0, size=n))


def reference_reach(starts, rng, csr):
    """``rrsets._reach`` as it was before the per-node coin ceiling.

    It flips one coin per edge of each new member and gathers every edge's
    position and probability; ``np.unique`` stands in for ``rrsets._distinct``.
    A batch ends sorting its (set, node) keys, so each set lists its members
    ascending.
    """
    ptr, nbr, prob = csr
    n = len(ptr) - 1
    degrees = np.diff(ptr)
    batch = max(1, rrsets.VISITED_BUDGET // max(n, 1))
    visited = np.zeros(min(batch, len(starts)) * n, dtype=bool)
    sizes, members = [], []
    for lo in range(0, len(starts), batch):
        part = starts[lo:lo + batch]
        frontier = (np.arange(len(part), dtype=np.int64)[:, None] * n + part).ravel()
        visited[frontier] = True
        levels = [frontier]
        while frontier.size:
            sets, nodes = np.divmod(frontier, n)
            degree = degrees[nodes]
            ends = np.cumsum(degree)
            pos = np.repeat(ptr[nodes] + degree - ends, degree) + np.arange(ends[-1])
            live = np.flatnonzero(rng.random(len(pos)) < prob[pos])
            keys = sets[np.searchsorted(ends, live, side="right")] * n + nbr[pos[live]]
            frontier = np.unique(keys[~visited[keys]])
            visited[frontier] = True
            levels.append(frontier)
        keys = np.sort(np.concatenate(levels))
        visited[keys] = False
        sizes.append(np.bincount(keys // n, minlength=len(part)))
        members.append((keys % n).astype(np.int32))
    return np.concatenate(sizes), np.concatenate(members)


def reference_spans(ptr, rows):
    """``rrsets._spans`` as it was before chunking: all positions in one array."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.repeat(starts + lens - ends, lens) + np.arange(ends[-1] if len(ends) else 0)


class OneShotPasses:
    """A collection's coverage passes as they were before chunking: one
    ``reference_spans`` and one ``bincount``, or one ``reduceat`` over every
    member, per pass."""

    def __init__(self, coll):
        self.coll = coll

    def covered(self, seeds):
        c = self.coll
        mask = np.zeros(c.theta, dtype=bool)
        mask[c.set_ids[reference_spans(c.node_ptr, seeds)]] = True
        return mask

    def hits(self, nodes):
        c = self.coll
        return np.bincount(c.set_ids[reference_spans(c.node_ptr, nodes)], minlength=c.theta)

    def members_of(self, sets):
        c = self.coll
        return np.bincount(c.members[reference_spans(c.set_ptr, sets)], minlength=c.node_count)

    def counts_vs_rest(self, whole):
        """Per node v, how many of its sets whole - v leaves uncovered."""
        whole = np.unique(whole)
        hits = self.hits(whole)
        counts = self.members_of(np.flatnonzero(hits == 0))
        counts[whole] = self.members_of(np.flatnonzero(hits == 1))[whole]
        return counts

    def chain_counts(self, order):
        c = self.coll
        first = np.full(c.node_count, len(order), dtype=np.int64)
        first[order[::-1]] = np.arange(len(order) - 1, -1, -1)
        reached = np.minimum.reduceat(first[c.members], c.set_ptr[:-1])
        return np.bincount(reached, minlength=len(order) + 1)[:len(order)]

    def cover_counts(self, seed_sets):
        c = self.coll
        counts = np.zeros(len(seed_sets), dtype=np.int64)
        for lo in range(0, len(seed_sets), 64):
            part = seed_sets[lo:lo + 64]
            word = np.zeros(c.node_count, dtype=np.uint64)
            for b, seeds in enumerate(part):
                word[seeds] |= np.uint64(1 << b)
            cover = np.bitwise_or.reduceat(word[c.members], c.set_ptr[:-1])
            counts[lo:lo + len(part)] = np.unpackbits(
                cover.astype("<u8", copy=False).view(np.uint8), bitorder="little",
            ).reshape(-1, 64).sum(axis=0)[:len(part)]
        return counts

    def coverage(self, base):
        """(covered mask, uncovered count per node, covered count) of ``base``."""
        covered = self.covered(base)
        uncovered = np.diff(self.coll.node_ptr) - self.members_of(np.flatnonzero(covered))
        return covered, uncovered, int(np.count_nonzero(covered))


@st.composite
def coverage_cases(draw):
    """(collection, distinct node ids, distinct set ids): theta may be 0,
    sets may hold one member, and either query may select no rows."""
    n = draw(st.integers(1, 8))
    nodes = st.integers(0, n - 1)
    sets = draw(st.lists(st.lists(nodes, min_size=1, max_size=n, unique=True), max_size=12))
    coll = collection_from_sets(sets, node_count=n)
    ids = lambda limit: st.lists(st.integers(0, limit - 1), unique=True, max_size=limit).map(
        lambda v: np.array(v, dtype=np.int64)) if limit else st.just(np.zeros(0, np.int64))
    return coll, draw(ids(n)), draw(ids(len(sets)))


@st.composite
def reach_cases(draw):
    """(graph, starts, coin seed, visited budget): small graphs whose rows mix
    probabilities, with 0 and 1 among them, and nodes without edges."""
    n = draw(st.integers(0, 9))
    prob = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
    edges = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0)), prob),
                          unique_by=lambda e: e[:2], max_size=3 * n)) if n else []
    g = WeightedGraph(n, [e for e in edges if e[0] != e[1]])
    rows, width = draw(st.integers(1, 40)), draw(st.integers(0, min(n, 3)))
    order = np.random.default_rng(draw(st.integers(0, 2**32))).random((rows, n)).argsort(axis=1)
    starts = order[:, :width].astype(np.int64)
    return g, starts, draw(st.integers(0, 2**32)), draw(st.sampled_from([None, 8, 32, 256]))


def store_digest(coll) -> str:
    """sha256 over the bytes of a collection's four CSR arrays."""
    h = hashlib.sha256()
    for arr in (coll.set_ptr, coll.members, coll.node_ptr, coll.set_ids):
        h.update(arr.tobytes())
    return h.hexdigest()


def array_digests(coll) -> dict:
    """sha256 of each of a collection's four CSR arrays, by name."""
    return {name: hashlib.sha256(getattr(coll, name).tobytes()).hexdigest()
            for name in ("set_ptr", "members", "node_ptr", "set_ids")}


def sampled_roots(g, kind, theta, seed) -> np.ndarray:
    """The roots of ``generate(g, kind, theta, seed)``, in set order.

    They are the members of the same draw on an edgeless copy of g with the
    same weights: every set there is its root, and the roots are drawn
    before any coin.
    """
    bare = generate(WeightedGraph(g.node_count, [], benefit=g.benefit, cost=g.cost),
                    kind, theta, seed)
    assert np.array_equal(bare.set_ptr, np.arange(theta + 1))
    return bare.members


def assert_index_matches_loop(coll):
    """The inverted index equals one built by appending set ids node by node."""
    buckets = [[] for _ in range(coll.node_count)]
    for i, members in enumerate(coll.sets):
        for v in members.tolist():
            buckets[v].append(i)
    assert [s.tolist() for s in coll.index] == buckets


class TestGenerate:
    def test_invariants(self, demo_graph):
        coll = generate(demo_graph, "benefit", 500, seed=1)
        assert coll.theta == len(coll.sets) == 500
        for s in coll.sets:
            assert len(s) >= 1
        assert_index_matches_loop(coll)

    def test_star_all_zero_prob_gives_singletons(self):
        g = WeightedGraph(3, [(0, 1, 0.0), (0, 2, 0.0)], benefit=[1, 1, 1])
        coll = generate(g, "benefit", 300, seed=2)
        assert all(len(s) == 1 for s in coll.sets)

    def test_root_distribution_proportional_to_weights(self, demo_graph):
        roots = sampled_roots(demo_graph, "benefit", 100_000, seed=3)
        freq = np.bincount(roots, minlength=4) / len(roots)
        assert np.allclose(freq, np.array([1.5, 2, 3, 2]) / 8.5, atol=6e-3)

    def test_single_edge_joint_distribution(self):
        # root v (w.p. 1/2) and a live edge (w.p. 1/2) put both nodes in R
        g = WeightedGraph(2, [(0, 1, 0.5)], benefit=[1, 1])
        coll = generate(g, "benefit", 40_000, seed=4)
        both = sum(1 for s in coll.sets if len(s) == 2)
        assert both / coll.theta == pytest.approx(0.25, abs=0.01)

    def test_zero_weight_node_never_roots(self):
        gn = normalize_weights(make_demo_graph())
        # normalized cost weights are (0, 0, 0, 3): every cost root is node 3
        assert set(sampled_roots(gn, "cost", 2000, seed=5).tolist()) == {3}

    @pytest.mark.parametrize("weights", [
        np.ones(100),
        np.array([0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 0.5, 0.0, 0.0]),
        np.array([1e-300, 5.0, 1e-300, 1.0]),
        np.array([2.0]),
        np.random.default_rng(9).random(50_000) ** 8,
    ], ids=["uniform", "zeros-start-end-inside", "tiny-beside-heavy", "single", "skewed"])
    def test_root_draw_equals_generator_choice(self, weights):
        p = weights / weights.sum()
        ours, theirs = np.random.default_rng(13), np.random.default_rng(13)
        roots = rrsets._roots(ours, p, 8000)
        assert np.array_equal(roots, theirs.choice(len(p), size=8000, p=p))
        # both generators go on from the same state
        assert ours.random() == theirs.random()

    def test_deterministic_per_seed(self, demo_graph):
        a = generate(demo_graph, "benefit", 1000, seed=42)
        b = generate(demo_graph, "benefit", 1000, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a.sets, b.sets))
        c = generate(demo_graph, "benefit", 1000, seed=43)
        assert any(not np.array_equal(x, y) for x, y in zip(a.sets, c.sets))

    def test_zero_total_weight_rejected(self):
        g = WeightedGraph(2, [(0, 1, 0.5)], benefit=[1, 1])
        with pytest.raises(DomainError, match="no sampleable roots"):
            generate(g, "cost", 10, seed=0)

    @pytest.mark.parametrize("theta", [2.7, True, "5"])
    def test_non_integer_theta_rejected(self, demo_graph, theta):
        # int() would sample 2 sets for 2.7 and 1 for True
        with pytest.raises(DomainError, match=f"^theta must be an integer count, "
                           f"got {re.escape(repr(theta))}$"):
            generate(demo_graph, "benefit", theta, seed=1)

    @pytest.mark.parametrize("theta", [0, -2])
    def test_theta_below_one_rejected(self, demo_graph, theta):
        with pytest.raises(DomainError, match=f"^theta must be at least 1, got {theta}$"):
            generate(demo_graph, "benefit", theta, seed=1)

    def test_numpy_integer_theta_accepted(self, demo_graph):
        coll = generate(demo_graph, "benefit", np.int32(7), seed=1)
        assert coll.theta == 7 and type(coll.theta) is int
        assert store_digest(coll) == store_digest(generate(demo_graph, "benefit", 7, seed=1))

    def test_index_matches_loop_built_index(self, demo_graph):
        coll = generate(demo_graph, "cost", 700, seed=7)
        assert_index_matches_loop(coll)
        assert not any(a.flags.writeable for a in (*coll.sets, *coll.index))

    @pytest.mark.parametrize("sets, message", [
        ([[0, 2]], r"^RR set members must lie in 0\.\.1$"),
        ([[-1]], r"^RR set members must lie in 0\.\.1$"),
        ([[0], []], "^RR set 1 is empty$"),
        ([[1, 0, 0], [1]], "^RR set 0 repeats a node$"),
        ([[2**40]], r"^RR set members must lie in 0\.\.1$"),
        ([[0, 2**31]], r"^RR set members must lie in 0\.\.1$"),
        ([[0, 2**64]], r"^RR set members must lie in 0\.\.1$"),
    ], ids=[f"sets{i}" for i in range(7)])
    def test_malformed_sets_rejected(self, sets, message):
        with pytest.raises(DomainError, match=message):
            collection_from_sets(sets, node_count=2)

    def test_reverse_reachability_semantics(self):
        # sure chain 0 -> 1 -> 2: an RR set rooted at 2 contains everything
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], benefit=[0, 0, 1])
        coll = generate(g, "benefit", 50, seed=6)
        assert all(sorted(s.tolist()) == [0, 1, 2] for s in coll.sets)

    def test_members_listed_ascending(self):
        # sure chain 0 -> 1 -> 2 -> 3, and root 8 with level-1 parents
        # {6, 7} and level-2 parents {4, 5}; 4 reaches 8 along two paths
        edges = [(0, 1), (1, 2), (2, 3), (7, 8), (6, 8), (5, 7), (4, 6), (4, 7)]
        g = WeightedGraph(9, [(u, v, 1.0) for u, v in edges], benefit=[1] * 9)
        expected = {0: [0], 1: [0, 1], 2: [0, 1, 2], 3: [0, 1, 2, 3],
                    4: [4], 5: [5], 6: [4, 6], 7: [4, 5, 7], 8: [4, 5, 6, 7, 8]}
        coll = generate(g, "benefit", 400, seed=8)
        roots = sampled_roots(g, "benefit", 400, seed=8).tolist()
        assert set(roots) == set(expected)
        for root, members in zip(roots, coll.sets):
            assert members.tolist() == expected[root]

    # sha256 of each CSR array of the benefit and the cost collection; 4096
    # bytes split theta = 3000 into batches of 13.  members and set_ids are
    # uint16 (n = 300, theta = 3000)
    @pytest.mark.parametrize("graph, budget, digests", [
        (wic_graph, None, {
            "benefit": {
                "set_ptr": "a9a7b0cfbba573d3953ef387c6807f8b89e9ff1c30f87db61394a2182e5dcc43",
                "members": "38f0ae2213cbf363e94503a3f99d5398a9be1fb3ece8a6373cba0d5ea79fa079",
                "node_ptr": "fc52e4f980b045fa33573e2e7ba2481a69c4d869bbdcef2925f5c453097f1668",
                "set_ids": "407a6bdc66a5e9d2536c329067baea203b68f86d4ea516ebdc88719987171028"},
            "cost": {
                "set_ptr": "9a61c3a694a714f5bdf2a73d4f222ecda8541c4a0d821a812ea77f6580d6a6ca",
                "members": "468fd33fdc2a126caad850be93a1e8c3419f06e256874fe415f1f38c4d22b418",
                "node_ptr": "1d936425ac780fe27ebfee0f7f081bd6595c62c9a2c8a8a4a43a97d975cc2b8d",
                "set_ids": "80b07e976ea72c6ef27385f3a2f978f6ceb033d2d9742eaf648e895bb0a207b4"}}),
        (wic_graph, 4096, {
            "benefit": {
                "set_ptr": "d98eeee1d86510ba8af584c1a545baa942572d5510b52632e195e914aaa85456",
                "members": "60941a9df69690dc69292fceb85538e7f6b3c52680d84b83bb4d6e020ad97e15",
                "node_ptr": "508b3ef782f6185ac60490f96d8dcdc50131516572310a7f9f80c53bf515738f",
                "set_ids": "6e4faae8b2224366cbce29e1276e6c93d4a147873d34a42dfde305eae1bb1946"},
            "cost": {
                "set_ptr": "0eedda878e61fa2fb36598df1144388bac69c5d4f193c3d82c34d40ca70da195",
                "members": "34e3e52c175caac00c684389b9d1d5beb87b0226257b56f5caee94412388a095",
                "node_ptr": "08697a41dec586f6a037285a19f24ac3fc9907980a227e97baf271fb02e2fcf7",
                "set_ids": "fcc2c242941e051c8fd912c941ebf588852c49668fc38a88506418c8042f2dc3"}}),
        (mixed_graph, None, {
            "benefit": {
                "set_ptr": "14e9f0b1a39c38d259362050bc35d7c8eb4c4314b21ef872fc47ff277255ab24",
                "members": "e1a81e98b5a1536d2942c397ab44e7411c16882e3d72d10516b97fd13a654509",
                "node_ptr": "b18cb14686038db24aa5dcb14862beff53fd0a34be74c726bfe0499d19bd949a",
                "set_ids": "b4021214113288b4bca29447b172c4264928ea5306d3e7c1bd5ce7ec6c2204d8"},
            "cost": {
                "set_ptr": "46812f09776692194f1f2341edda8212ac5ec799da58929c2995887e7c0f34db",
                "members": "1cf11ca213c68dc99f394006dca62310ee2d79b234e0865e7b5c38c21dbfcf01",
                "node_ptr": "2e76c3e9a36e82621907fd3e1c3c1c2f8eaaae23ef90b4512bcd1f619f7d7616",
                "set_ids": "4a3375a2d19ea9486c7258d2067d1206d89813279cee6989bec6ad219f8dce81"}}),
    ], ids=["one-batch", "multi-batch", "mixed"])
    def test_sampled_store_is_frozen(self, graph, budget, digests, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(rrsets, "VISITED_BUDGET", budget)
        g = graph(300, 1500, seed=61)
        colls = [generate(g, kind, 3000, seed=derive_seed(62, kind))
                 for kind in ("benefit", "cost")]
        assert {c.kind: array_digests(c) for c in colls} == digests
        if budget is not None:
            assert_index_matches_loop(colls[1])

    @pytest.mark.parametrize("budget", [None, 4096], ids=["one-batch", "multi-batch"])
    def test_int64_keys_store_the_same_bytes(self, budget, monkeypatch):
        # INT32_KEYS = 0 sorts the packed keys of the index build (n * theta =
        # 900k) as int64; members (n = 300) and set ids (theta = 3000) keep
        # their uint16 width, and the bytes pinned above
        if budget is not None:
            monkeypatch.setattr(rrsets, "VISITED_BUDGET", budget)
        g = mixed_graph(300, 1500, seed=61)
        want = [store_digest(generate(g, kind, 3000, seed=derive_seed(63, kind)))
                for kind in ("benefit", "cost")]
        monkeypatch.setattr(rrsets, "INT32_KEYS", 0)
        colls = [generate(g, kind, 3000, seed=derive_seed(63, kind))
                 for kind in ("benefit", "cost")]
        assert [store_digest(c) for c in colls] == want
        assert colls[0].members.dtype == colls[0].set_ids.dtype == np.uint16
        assert_index_matches_loop(colls[0])

    def test_key_width_switches_at_int32_keys(self):
        assert rrsets._key_dtype(2**31 - 1) is np.int32
        assert rrsets._key_dtype(2**31) is np.int64

    @pytest.mark.parametrize("int32_keys", [rrsets.INT32_KEYS, 0], ids=["int32", "int64"])
    def test_repeated_member_rejected_at_both_key_widths(self, int32_keys, monkeypatch):
        monkeypatch.setattr(rrsets, "INT32_KEYS", int32_keys)
        with pytest.raises(DomainError, match="RR set 2 repeats a node"):
            collection_from_sets([[0], [2], [1, 2, 1], [0]], node_count=3)

    def test_generate_peak_memory_per_member(self):
        # uint16 members beside int32 index keys and their scaled members,
        # built in place, peak at 12.29 bytes per member on the first case;
        # an int64 temporary passes 20.  The two smaller cases (5 and 2
        # batches of 1747 and 2621 sets) also hold the 1 MB visited bitmap and
        # the batches' member arrays until they are joined: they peak at 14.92
        # and 26.50 bytes per member.  Each is bounded within 5% of its peak.
        for n, m, theta, bound in ((1000, 4000, 20_000, 12.9), (600, 3000, 8000, 15.7),
                                   (400, 1600, 5000, 27.9)):
            g = wic_graph(n, m, seed=71)
            generate(g, "benefit", 100, seed=0)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                coll = generate(g, "benefit", theta, seed=1)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < bound * len(coll.members), (n, theta, peak / len(coll.members))

    def test_theta_past_int32_set_ids_raises_before_allocating(self, demo_graph):
        # set ids are int32; the bound is checked before a single root is
        # drawn, so the call allocates next to nothing
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"^cost RR sets: theta 2147483648 is "
                               r"past the 2\*\*31 - 1 set ids$"):
                generate(demo_graph, "cost", 2**31, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_member_budget_raises_capacity_error(self, monkeypatch):
        # a 300-node graph holds 3495 sets per batch: the budget is passed
        # after the first batch, at the same count on every run
        monkeypatch.setattr(rrsets, "MEMBER_BUDGET", 1000)
        g = wic_graph(300, 1500, seed=61)
        messages = set()
        for _ in range(2):
            with pytest.raises(CapacityError, match=r"^cost RR sets: 3495 of 8000 reached sets "
                               r"hold \d+ members \(mean size [\d.]+\), past the member "
                               r"budget of 1000$") as exc:
                generate(g, "cost", 8000, seed=4)
            messages.add(str(exc.value))
        assert len(messages) == 1
        monkeypatch.setattr(rrsets, "MEMBER_BUDGET", 10**9)
        assert generate(g, "cost", 8000, seed=4).theta == 8000

    @pytest.mark.parametrize("case", range(9))
    def test_hit_rates_match_the_exact_oracle(self, case):
        # Pr[S meets an RR set] = f(S) / Upsilon exactly, so the coverage
        # count of every small S is Binomial(theta, f(S) / Upsilon).
        g = make_demo_graph() if case == 0 else random_graph(np.random.default_rng(800 + case))
        exact = ExactEvaluator(g)
        theta = 20_000
        for kind in ("benefit", "cost"):
            coll = generate(g, kind, theta, seed=derive_seed(case, kind))
            for size in range(4):
                for seeds in itertools.combinations(range(g.node_count), size):
                    p = exact.value(seeds, kind) / coll.total_weight
                    hits = np.count_nonzero(coll.hits(np.array(seeds, dtype=np.int64)))
                    spread = 5 * math.sqrt(max(theta * p * (1 - p), 0.0))
                    assert abs(hits - theta * p) <= spread + 1e-6 * theta, (kind, seeds)

    @pytest.mark.parametrize("case", range(9))
    def test_hit_rates_hold_across_batches(self, case, monkeypatch):
        # n <= 8 puts every draw above in one batch; a 256-byte visited
        # budget splits it into batches of 32-128 sets
        monkeypatch.setattr(rrsets, "VISITED_BUDGET", 256)
        self.test_hit_rates_match_the_exact_oracle(case)

    @settings(max_examples=150, deadline=None)
    @given(reach_cases())
    def test_reach_matches_reference_kernel(self, case):
        # same members in the same order, and the same coins drawn, on the
        # reverse CSR (RR sets) and the forward CSR (cascades); the members
        # of a graph of at most 9 nodes are uint16, the reference's int32
        g, starts, seed, budget = case
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(rrsets, "VISITED_BUDGET", budget)
            for csr in (g.reverse_csr(), g.forward_csr()):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                sizes, members = rrsets._reach(starts, rng, csr)
                ref_sizes, ref_members = reference_reach(starts, ref_rng, csr)
                assert sizes.tolist() == ref_sizes.tolist()
                assert members.dtype == np.uint16
                assert members.tolist() == ref_members.tolist()
                assert rng.random() == ref_rng.random()


def wide_graph(n) -> WeightedGraph:
    """An n-node graph whose RR sets reach its top ids: a chain of coin-flip
    edges over its last 40 nodes, roots among its last 100 and first 3."""
    edges = [(v, v + 1, 0.5) for v in range(n - 40, n - 1)] + [(0, n - 1, 0.5), (n - 1, 1, 0.5)]
    benefit = np.zeros(n)
    benefit[-100:] = benefit[:3] = 1.0
    return WeightedGraph(n, edges, benefit=benefit)


class Int64Reference:
    """A collection's coverage counts from its ``.sets``, widened to int64."""

    def __init__(self, coll):
        sets = coll.sets
        self.n, self.theta = coll.node_count, coll.theta
        self.members = np.concatenate([s.astype(np.int64) for s in sets])
        self.set_of = np.repeat(np.arange(self.theta, dtype=np.int64), [len(s) for s in sets])

    def hits(self, nodes):
        return np.bincount(self.set_of[np.isin(self.members, nodes)], minlength=self.theta)

    def members_of(self, sets):
        return np.bincount(self.members[np.isin(self.set_of, sets)], minlength=self.n)

    def cover_counts(self, seed_sets):
        return np.array([np.count_nonzero(self.hits(s)) for s in seed_sets], dtype=np.int64)

    def chain_counts(self, order):
        first = np.full(self.n, len(order), dtype=np.int64)
        first[order[::-1]] = np.arange(len(order) - 1, -1, -1)
        reached = np.full(self.theta, len(order), dtype=np.int64)
        np.minimum.at(reached, self.set_of, first[self.members])
        return np.bincount(reached, minlength=len(order) + 1)[:len(order)]


class TestStoreWidths:
    """Collections on either side of each width bound answer every pass as
    an int64 copy of their sets does."""

    THREE = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)], benefit=[1, 1, 1])

    def test_key_dtype_at_each_bound(self):
        assert rrsets._key_dtype(0) is np.uint16
        assert rrsets._key_dtype(2**16 - 1) is np.uint16
        assert rrsets._key_dtype(2**16) is np.int32
        assert rrsets._key_dtype(2**31 - 1) is np.int32
        assert rrsets._key_dtype(2**31) is np.int64

    @pytest.mark.parametrize("make, member_dtype, set_dtype", [
        # n * theta = 2**16 - 1: the index keys are uint16 too
        (lambda: generate(TestStoreWidths.THREE, "benefit", 21845, seed=2),
         np.uint16, np.uint16),
        (lambda: generate(make_demo_graph(), "benefit", 2**16 - 1, seed=3), np.uint16, np.uint16),
        (lambda: generate(make_demo_graph(), "benefit", 2**16, seed=3), np.uint16, np.int32),
        (lambda: generate(wide_graph(2**16 - 1), "benefit", 300, seed=4), np.uint16, np.uint16),
        (lambda: generate(wide_graph(2**16), "benefit", 300, seed=4), np.int32, np.uint16),
    ], ids=["keys-2**16-1", "theta-2**16-1", "theta-2**16", "n-2**16-1", "n-2**16"])
    def test_passes_match_int64_reference(self, make, member_dtype, set_dtype):
        coll = make()
        assert coll.members.dtype == member_dtype and coll.set_ids.dtype == set_dtype
        ref = Int64Reference(coll)
        n = coll.node_count
        rng = np.random.default_rng(coll.theta + n)
        # nodes that sampled sets hold, the last set's among them, and node n - 1
        held = np.unique(ref.members)
        last = coll.sets[-1].astype(np.int64)
        nodes = np.union1d(rng.choice(held, size=min(len(held), 6), replace=False), last)
        nodes = np.union1d(nodes, [n - 1])
        sets = np.union1d(rng.choice(coll.theta, size=50), [coll.theta - 1])
        assert np.array_equal(coll.hits(nodes), ref.hits(nodes))
        assert np.array_equal(coll.members_of(sets), ref.members_of(sets))
        seed_sets = [nodes, last, held[:2], np.zeros(0, np.int64)]
        assert np.array_equal(coll.cover_counts(seed_sets), ref.cover_counts(seed_sets))
        # all nodes but one: 2**16 - 2 ranks fit uint16 on the 2**16 - 1 graph
        for order in (rng.permutation(n)[:max(n - 1, 1)], nodes[::-1]):
            assert np.array_equal(coll.chain_counts(order), ref.chain_counts(order))
        state = RRCoverage(coll, 1.0, np.zeros(0, np.int64))
        on = np.zeros(n, dtype=bool)
        for step in ("add", last[0]), ("add", nodes), ("remove", int(nodes[0])), \
                    ("remove", nodes[1::2]):
            state.gains, state.inside(np.arange(n))  # counted first, then moved
            getattr(state, step[0])(step[1])
            on[step[1]] = step[0] == "add"
            hits = ref.hits(np.flatnonzero(on))
            assert np.array_equal(state.hits, hits)
            assert state.count == np.count_nonzero(hits)
            zero = ref.members_of(np.flatnonzero(hits == 0))
            one = ref.members_of(np.flatnonzero(hits == 1))
            assert np.array_equal(state.gains, zero)
            assert np.array_equal(state.inside(np.arange(n)), np.where(on, one, zero))

    @pytest.mark.parametrize("node_count, int32_keys", [
        (3, rrsets.INT32_KEYS), (2**16, rrsets.INT32_KEYS), (2**16, 0)],
        ids=["uint16", "int32", "int64"])
    def test_repeated_member_rejected_at_each_key_width(self, node_count, int32_keys,
                                                         monkeypatch):
        monkeypatch.setattr(rrsets, "INT32_KEYS", int32_keys)
        with pytest.raises(DomainError, match="RR set 2 repeats a node"):
            collection_from_sets([[0], [2], [1, 2, 1], [0]], node_count=node_count)

    @pytest.mark.parametrize("graph, theta, member_dtype, set_dtype", [
        (make_demo_graph, 500, np.uint16, np.uint16),
        (lambda: wide_graph(2**16), 300, np.int32, np.uint16),
        (make_demo_graph, 2**16, np.uint16, np.int32),
    ], ids=["uint16", "n-2**16", "theta-2**16"])
    def test_store_layout(self, graph, theta, member_dtype, set_dtype):
        # sampled and built from lists: one width rule, four read-only
        # arrays, the same bytes
        sampled = generate(graph(), "benefit", theta, seed=5)
        listed = RRCollection("benefit", sampled.node_count, sampled.total_weight,
                              sampled.seed, sampled.sets)
        for coll in (sampled, listed):
            arrays = (coll.set_ptr, coll.members, coll.node_ptr, coll.set_ids)
            assert [a.dtype for a in arrays] == [np.int64, member_dtype, np.int64, set_dtype]
            assert not any(a.flags.writeable for a in arrays)
            assert store_digest(coll) == store_digest(sampled)


class TestCoverage:
    def test_direct_count(self):
        est = counting_estimator([[1], [2, 4], [3]], node_count=5)
        assert est.coverage_counts({4}) == (1, 0)
        assert est.coverage_counts({1, 3}) == (2, 0)

    def test_all_nodes_cover_everything(self):
        est = counting_estimator([[1], [2, 4], [3]], node_count=5)
        assert est.coverage_counts(set(range(5)))[0] == est.benefit_rr.theta

    def test_empty_set_covers_nothing(self):
        est = counting_estimator([[1], [2]], node_count=3)
        assert est.coverage_counts(set()) == (0, 0)

    def test_out_of_range_node(self):
        est = counting_estimator([[0]], node_count=1)
        with pytest.raises(DomainError):
            est.coverage_counts({5})

    def test_monotone_and_submodular_exhaustively(self):
        rng = np.random.default_rng(17)
        g = random_graph(rng, max_nodes=6, max_edges=10)
        n = g.node_count
        est = counting_estimator(generate(g, "benefit", 60, seed=8).sets, n)
        subsets = [frozenset(s) for r in range(n + 1)
                   for s in itertools.combinations(range(n), r)]
        lam = {s: est.coverage_counts(s)[0] for s in subsets}
        for s in subsets:
            for t in subsets:
                if s <= t:
                    assert lam[s] <= lam[t]
        for s in subsets:
            for t in subsets:
                if s <= t:
                    for v in range(n):
                        if v not in t:
                            gain_s = lam[s | {v}] - lam[s]
                            gain_t = lam[t | {v}] - lam[t]
                            assert gain_s >= gain_t

    def test_members_of_matches_python_count(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            sets = [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                    for _ in range(int(rng.integers(1, 30)))]
            coll = collection_from_sets(sets, node_count=n)
            ids = rng.permutation(len(sets))[:int(rng.integers(0, len(sets) + 1))]
            want = [sum(v in coll.sets[i] for i in ids.tolist()) for v in range(n)]
            got = coll.members_of(ids)
            assert got.dtype == np.int64
            assert got.tolist() == want
        coll = collection_from_sets([[0, 2], [1]], node_count=4)
        got = coll.members_of(np.zeros(0, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == [0, 0, 0, 0]


class TestChunkedPasses:
    """Every coverage pass, its members read a few positions at a time, equals
    the one-shot pass over all of them."""

    @staticmethod
    def assert_same(got, want):
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(case=coverage_cases(), chunk=st.sampled_from([1, 2, 7]), data=st.data())
    def test_passes_match_one_shot(self, case, chunk, data):
        coll, nodes, sets = case
        ref = OneShotPasses(coll)
        n = coll.node_count
        node_lists = st.lists(st.integers(0, n - 1), max_size=2 * n).map(
            lambda v: np.array(v, dtype=np.int64))
        order, seeds = data.draw(node_lists), data.draw(node_lists)
        seed_sets = data.draw(st.lists(node_lists, max_size=4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rrsets, "_CHUNK", chunk)
            self.assert_same(coll.members_of(sets), ref.members_of(sets))
            self.assert_same(coll.hits(nodes), ref.hits(nodes))
            self.assert_same(coll.chain_counts(order), ref.chain_counts(order))
            self.assert_same(coll.cover_counts(seed_sets), ref.cover_counts(seed_sets))
            if coll.theta:
                est = counting_estimator(coll.sets, n)
                rho = est.rho("benefit")
                want = np.array([rho * np.count_nonzero(ref.covered(s)) for s in seed_sets])
                assert np.array_equal(est.value_many(seed_sets, "benefit"), want)
                assert np.array_equal(est.marginal_vs_rest(np.arange(n), seeds, "benefit"),
                                      rho * ref.counts_vs_rest(seeds))

    def test_every_pass_peaks_below_a_member_independent_bound(self):
        # 50k sets of 40 members: 2M members, whose int32 store alone is 8 MB;
        # an int64 position per member would be 16 MB more
        n, theta, size = 1000, 50_000, 40
        members = (np.arange(theta)[:, None] * 7 + np.arange(size) * 25) % n
        coll = RRCollection._from_csr("benefit", n, 1.0, 0, np.arange(theta + 1) * size,
                                      members.astype(np.int32).ravel())
        sets, nodes = np.arange(theta), np.arange(n)
        est = ProfitEstimator(coll, None, WeightedGraph(n, [], benefit=[1.0] + [0.0] * (n - 1)))
        # one state that the passes below move: half the nodes, then a quarter
        # more, then a third of them out again
        state = est.coverage_state("benefit", nodes[::2])
        # a chunk's positions, gathered values and bincount copy, plus per-row
        # and per-node arrays
        bound = 32 * rrsets._CHUNK + 64 * (n + theta)
        assert bound < 4 * len(coll.members)
        passes = {"members_of": lambda: coll.members_of(sets),
                  "hits": lambda: coll.hits(nodes),
                  "chain_counts": lambda: coll.chain_counts(nodes),
                  "cover_counts": lambda: coll.cover_counts([nodes[::2], nodes[1::2]]),
                  "marginal_vs_rest": lambda: est.marginal_vs_rest(nodes, nodes[::2], "benefit"),
                  "coverage_state": lambda: est.coverage_state("benefit", nodes[1::2]),
                  "inside": lambda: state.inside(nodes),  # counts the one-hit sets
                  "add": lambda: state.add(nodes[1::4]),
                  "remove": lambda: state.remove(nodes[::3])}
        for name, run in passes.items():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                run()
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < bound, (name, peak)


class TestMarginalCoverage:
    def test_example_counts(self):
        est = counting_estimator([[1, 2], [2]], node_count=3)
        assert est.marginal(2, {1}, "benefit") == 1.0
        assert est.marginal(2, set(), "benefit") == 2.0

    def test_empty_base_is_index_degree(self):
        est = counting_estimator([[1], [2, 4], [3]], node_count=5)
        for v in range(5):
            assert est.marginal(v, set(), "benefit") == len(est.benefit_rr.index[v])

    def test_identity_with_coverage_difference(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, max_nodes=6, max_edges=10)
        est = counting_estimator(generate(g, "benefit", 200, seed=9).sets, g.node_count)
        for _ in range(30):
            s = random_subset(rng, g.node_count)
            outside = [v for v in range(g.node_count) if v not in s]
            if not outside:
                continue
            v = int(rng.choice(outside))
            assert (est.marginal(v, s, "benefit")
                    == est.coverage_counts(s | {v})[0] - est.coverage_counts(s)[0])

    def test_rejects_member(self):
        est = counting_estimator([[0]], node_count=2)
        with pytest.raises(DomainError):
            est.marginal(0, {0}, "benefit")


class TestConfidenceBounds:
    def test_zero_coverage_lower_bound_is_zero(self):
        lower, upper = confidence_bounds(0, 1000, 50.0, 0.05)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert upper > 0

    @settings(max_examples=100, deadline=None)
    @given(theta=st.integers(1, 10**7),
           frac=st.floats(0.0, 1.0),
           upsilon=st.floats(0.0, 1e6),
           delta=st.floats(1e-9, 0.999))
    def test_bounds_always_bracket_estimate(self, theta, frac, upsilon, delta):
        lam = int(frac * theta)
        lower, upper = confidence_bounds(lam, theta, upsilon, delta)
        estimate_value = lam * upsilon / theta
        assert 0.0 <= lower <= estimate_value + 1e-9
        assert estimate_value <= upper + 1e-9

    def test_chernoff_constants(self):
        assert chernoff_a(2 / math.e) == pytest.approx(4 * (math.e - 2), rel=1e-12)
        assert chernoff_a(2 / math.e) == pytest.approx(2.8731273138, abs=1e-9)
        # ln(2e6) = 14.508657738...
        assert chernoff_a(1e-6) == pytest.approx(41.6852208357, abs=1e-6)

    def test_bounds_bracket_the_estimate(self):
        lam, theta, upsilon = 700, 1000, 8.5
        lower, upper = confidence_bounds(lam, theta, upsilon, 0.01)
        estimate_value = lam * upsilon / theta
        assert lower <= estimate_value <= upper

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 2.0])
    def test_delta_domain(self, delta):
        with pytest.raises(DomainError):
            confidence_bounds(10, 100, 1.0, delta)

    def test_coverage_count_domain(self):
        with pytest.raises(DomainError):
            confidence_bounds(11, 10, 1.0, 0.1)

    @pytest.mark.parametrize("args, message", [
        ((0, 0, 1.0, 0.1), "theta must be at least 1"),
        ((0, -3, 1.0, 0.1), "theta must be at least 1"),
        ((1, 10, math.nan, 0.1), "upsilon must be finite"),
        ((1, 10, math.inf, 0.1), "upsilon must be finite"),
        ((math.nan, 10, 1.0, 0.1), "coverage count nan"),
    ])
    def test_degenerate_input_is_a_domain_error(self, args, message):
        # a zero theta divided by zero and a NaN total came back as NaN bounds
        with pytest.raises(DomainError, match=message):
            confidence_bounds(*args)


class TestEstimator:
    @pytest.mark.parametrize("metric", ["profit", "bogus"])
    def test_rho_is_per_side(self, demo_graph, metric):
        est = ProfitEstimator.build(demo_graph, 10, 10, seed=11)
        with pytest.raises(DomainError, match=f"rho is per side, not of {metric!r}"):
            est.rho(metric)

    def test_zero_coverage_gives_zero(self):
        g = WeightedGraph(2, [(0, 1, 0.5)], benefit=[1, 1], cost=[1, 1])
        est = ProfitEstimator.build(g, 50, 50, seed=11)
        assert estimates(est, set()) == (0.0, 0.0, 0.0)

    def test_single_node_graph_is_exact_for_any_theta(self):
        g = WeightedGraph(1, [], benefit=[5.0], cost=[0.0])
        for theta in (1, 7, 100):
            est = ProfitEstimator.build(g, theta, theta, seed=12)
            b, c, p = estimates(est, {0})
            assert b == pytest.approx(5.0, abs=1e-12)
            assert c == 0.0
            assert p == pytest.approx(5.0, abs=1e-12)

    def test_demo_estimates_close_to_exact(self, demo_graph):
        est = ProfitEstimator.build(demo_graph, 100_000, 100_000, seed=13)
        b, c, p = estimates(est, {1, 2})
        assert b == pytest.approx(5.88, rel=0.03)
        assert c == pytest.approx(4.20, rel=0.03)
        assert p == pytest.approx(1.68, rel=0.10)

    def test_marginals_match_value_differences(self, demo_graph):
        est = ProfitEstimator.build(demo_graph, 5000, 5000, seed=14)
        for metric in ("benefit", "cost", "profit"):
            for base in (frozenset(), frozenset({2}), frozenset({0, 2})):
                for v in range(4):
                    if v in base:
                        continue
                    direct = est.value(base | {v}, metric) - est.value(base, metric)
                    assert est.marginal(v, base, metric) == pytest.approx(direct, abs=1e-9)

    def test_marginal_vs_rest_matches_definition(self, demo_graph):
        est = ProfitEstimator.build(demo_graph, 5000, 5000, seed=15)
        whole = frozenset({0, 1, 2})
        vals = est.marginal_vs_rest([0, 1, 2, 3], whole, "benefit")
        for v in range(4):
            base = whole - {v}
            assert vals[v] == pytest.approx(est.marginal(v, base, "benefit"), abs=1e-9)

    def test_chain_increments_match_prefix_values(self, demo_graph):
        est = ProfitEstimator.build(demo_graph, 3000, 3000, seed=16)
        order = [2, 1, 3, 0]
        incs = est.chain_increments(order, "cost")
        prefix = []
        running = 0.0
        for v, inc in zip(order, incs):
            prefix.append(v)
            running += inc
            assert running == pytest.approx(est.cost(set(prefix)), abs=1e-9)

    def test_unbiased_over_collections(self, demo_graph):
        exact_b, _ = brute_evaluate(demo_graph, {1, 2})
        runs = 200
        theta = 3000
        values = []
        for i in range(runs):
            est = ProfitEstimator.build(demo_graph, theta, 1, seed=1000 + i)
            values.append(est.value({1, 2}, "benefit"))
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / math.sqrt(runs))
        assert abs(mean - exact_b) <= 3 * stderr

    def test_zero_cost_side_is_exactly_zero(self):
        g = WeightedGraph(2, [(0, 1, 0.5)], benefit=[1, 2], cost=[0, 0])
        est = ProfitEstimator.build(g, 100, 100, seed=17)
        assert est.cost_rr is None
        assert est.value({0, 1}, "cost") == 0.0
        assert est.marginal(1, frozenset({0}), "cost") == 0.0

    def test_mismatched_collection_rejected(self, demo_graph):
        benefit = generate(demo_graph, "benefit", 10, seed=18)
        cost = generate(demo_graph, "cost", 10, seed=18)
        with pytest.raises(DomainError):
            ProfitEstimator(cost, benefit, demo_graph)
        other = normalize_weights(demo_graph)
        with pytest.raises(DomainError):
            ProfitEstimator(benefit, generate(other, "cost", 10, seed=1), demo_graph)

    @pytest.mark.parametrize("kind", KINDS)
    def test_side_with_weight_but_no_sets_rejected(self, kind):
        # every estimate on that side would read 0 and greedy would select nothing
        g = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.5)], benefit=[1, 1, 1], cost=[1, 1, 1])
        colls = {k: generate(g, k, 50, seed=1) for k in KINDS}
        colls[kind] = RRCollection(kind, 3, 3.0, 0, [])
        with pytest.raises(DomainError, match=f"^{kind} collection holds no sets "
                                              r"but total weight is 3\.0$"):
            ProfitEstimator(colls["benefit"], colls["cost"], g)

    @pytest.mark.parametrize("empty", ["none", "collection"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_weight_side_may_hold_no_sets(self, kind, empty):
        weights = {k: [0, 0, 0] if k == kind else [1, 2, 3] for k in KINDS}
        g = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.5)], **weights)
        colls = {k: generate(g, k, 50, seed=1) for k in KINDS if k != kind}
        colls[kind] = None if empty == "none" else RRCollection(kind, 3, 0.0, 0, [])
        est = ProfitEstimator(colls["benefit"], colls["cost"], g)
        assert est.value({0, 1, 2}, kind) == 0.0
        other, = set(KINDS) - {kind}
        assert est.value({0, 1, 2}, other) == 6.0  # every set holds a node of V

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("query", [
        lambda est, v: est.value({0, v}, "benefit"),
        lambda est, v: est.marginal(v, set(), "benefit"),
        lambda est, v: est.marginal(0, {v}, "profit"),
        lambda est, v: est.marginal_many([0, v], set(), "cost"),
        lambda est, v: est.marginal_vs_rest([v], {0, 1}, "profit"),
        lambda est, v: est.marginal_vs_rest([0], {1, v}, "benefit"),
        lambda est, v: est.chain_increments([0, v], "benefit"),
        lambda est, v: est.coverage_state("cost").add(v),
        lambda est, v: est.coverage_state("cost", [0]).remove([0, v]),
        lambda est, v: est.coverage_state("benefit", [0]).inside([v]),
        lambda est, v: est.coverage_state("benefit", [0, v]),
        lambda est, v: est.value_many([{0}, {0, v}], "cost"),
    ], ids=["value", "marginal", "marginal-base", "marginal_many", "marginal_vs_rest",
            "marginal_vs_rest-whole", "chain_increments", "coverage_state", "coverage_state-remove",
            "coverage_state-inside", "coverage_state-seeds", "value_many"])
    def test_node_ids_outside_the_graph_rejected(self, demo_graph, query, bad):
        est = ProfitEstimator.build(demo_graph, 200, 200, seed=21)
        with pytest.raises(DomainError, match=f"node {bad} outside 0..3"):
            query(est, bad)

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("query", [
        lambda g, v: ExactEvaluator(g).coverage_state("cost").add(v),
        lambda g, v: ExactEvaluator(g).coverage_state("benefit", [0]).remove([0, v]),
        lambda g, v: ExactEvaluator(g).value({0, v}, "profit"),
        lambda g, v: oracle.simulate_spread(g, {0, v}, 5, rng=1),
    ], ids=["exact-add", "exact-remove", "exact-value", "simulate_spread"])
    def test_oracle_node_ids_outside_the_graph_rejected(self, demo_graph, query, bad):
        # the same check, and the same message, as the estimator's
        with pytest.raises(DomainError, match=f"^node {bad} outside 0..3$"):
            query(demo_graph, bad)


class TestRepeatedSeeds:
    """``hits`` counts a node listed twice twice, but only whether a set's
    count is nonzero reaches an estimate, so a seed list with repeats is
    worth its distinct set, in one chunk or across several."""

    @pytest.mark.parametrize("chunk", [None, 1, 2, 7])
    def test_repeats_count_once(self, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(rrsets, "_CHUNK", chunk)
        g = wic_graph(40, 160, seed=5)
        est = ProfitEstimator.build(g, 300, 400, seed=25)
        coll = est.benefit_rr
        v = np.array([int(np.argmax(np.diff(coll.node_ptr)))])
        assert coll.hits(v).any()
        assert np.array_equal(coll.hits(np.repeat(v, 2)), 2 * coll.hits(v))
        rng = np.random.default_rng(9)
        repeated, distinct = [], []
        for size in (1, 3, 8, 20):
            ids = rng.integers(0, g.node_count, size=size)
            ids = np.concatenate([ids, ids[::2], ids[:1]])  # every list repeats an id
            repeated.append(ids.tolist())
            distinct.append(sorted(set(ids.tolist())))
        for seeds, once in zip(repeated, distinct):
            assert est.coverage_counts(seeds) == est.coverage_counts(once)
            for metric in METRICS:
                assert repr(est.value(seeds, metric)) == repr(est.value(once, metric))
        for metric in METRICS:
            assert (est.value_many(repeated, metric).tolist()
                    == est.value_many(distinct, metric).tolist())


class TestQueryArrays:
    """The estimator's vectorised queries against ones answered by ``value``."""

    NODES = [3, 0, 2]  # unsorted, so alignment with the input order shows
    CALLS = {
        "marginal_many": lambda query, ev, metric: query(ev, TestQueryArrays.NODES, {1}, metric),
        "marginal_vs_rest": lambda query, ev, metric: query(ev, TestQueryArrays.NODES,
                                                            {0, 1, 2}, metric),
        "chain_increments": lambda query, ev, metric: query(ev, TestQueryArrays.NODES, metric),
    }

    @staticmethod
    def check_array(out):
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == (len(TestQueryArrays.NODES),)

    @staticmethod
    def by_values(ev, name, metric):
        """f(v | {1}), f(v | {0, 1, 2} - v) or the chain's increments, each
        from value calls: profit marginals as benefit minus cost per node."""
        if name == "chain_increments":
            return MarginalEvaluator.chain_increments(ev, TestQueryArrays.NODES, metric)
        if metric == "profit":
            return (TestQueryArrays.by_values(ev, name, "benefit")
                    - TestQueryArrays.by_values(ev, name, "cost"))
        base = {1} if name == "marginal_many" else {0, 1, 2}
        return np.array([ev.value(base | {v}, metric) - ev.value(base - {v}, metric)
                         for v in TestQueryArrays.NODES])

    # theta 1088 and 1024 make rho = Upsilon / theta exactly 1/128 on both sides
    # (8.5 / 1088, 8 / 1024), so every value the references subtract is exact
    @pytest.mark.parametrize("thetas", [(1088, 1024), (500, 700)], ids=["dyadic", "any"])
    @pytest.mark.parametrize("metric", ["benefit", "cost", "profit"])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_fast_path_equals_fallback(self, demo_graph, name, metric, thetas):
        est = ProfitEstimator.build(demo_graph, *thetas, seed=24)
        fast = self.CALLS[name](getattr(ProfitEstimator, name), est, metric)
        slow = self.by_values(est, name, metric)
        self.check_array(fast)
        self.check_array(slow)
        if thetas != (1088, 1024):
            # the references difference rounded values: equal to an ulp or so
            assert fast.tolist() == pytest.approx(slow.tolist(), abs=1e-12)
        else:
            assert fast.tobytes() == slow.tobytes()

    @pytest.mark.parametrize("evaluator", [ExactEvaluator, lambda g: ProfitEstimator.build(
        g, 500, 500, seed=28)], ids=["exact", "estimator"])
    def test_base_node_marginal_is_zero(self, demo_graph, evaluator):
        # f(v | S) = 0 for v in S in the batched query; the single one refuses it
        ev = evaluator(demo_graph)
        for metric in METRICS:
            out = ev.marginal_many([1, 0, 2], {1, 2}, metric)
            assert out.tolist() == [0.0, ev.marginal(0, {1, 2}, metric), 0.0]
            with pytest.raises(DomainError, match="node 1 already in the base set"):
                ev.marginal(1, {1, 2}, metric)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "estimator"])
    def test_derived_queries_read_the_coverage_state(self, exact, metric):
        # the marginal queries are the coverage states' floats, profit as
        # benefit minus cost per node; on the oracle, marginal is also
        # f(base + v) - f(base) from two exact values per side
        rng = np.random.default_rng(70)
        for instance in range(8):
            g = random_graph(rng)
            ev = ExactEvaluator(g) if exact else ProfitEstimator.build(g, 300, 400, seed=instance)
            base = random_subset(rng, g.node_count)
            nodes = rng.permutation(g.node_count)
            sides = [ev.coverage_state(kind, base) for kind in KINDS]
            if metric == "profit":
                gains = sides[0].gains[nodes] - sides[1].gains[nodes]
                inside = sides[0].inside(nodes) - sides[1].inside(nodes)
            else:
                side = sides[KINDS.index(metric)]
                gains, inside = side.gains[nodes], side.inside(nodes)
            assert ev.marginal_many(nodes, base, metric).tobytes() == gains.tobytes()
            assert ev.marginal_vs_rest(nodes, base, metric).tobytes() == inside.tobytes()
            for v in set(range(g.node_count)) - base:
                marginal = ev.marginal(v, base, metric)
                assert marginal == ev.marginal_many([v], base, metric)[0]
                if exact:
                    diff = {kind: ev.value(base | {v}, kind) - ev.value(base, kind)
                            for kind in KINDS}
                    diff["profit"] = diff["benefit"] - diff["cost"]
                    assert marginal == diff[metric]

    @pytest.mark.parametrize("evaluator", [ExactEvaluator, lambda g: ProfitEstimator.build(
        g, 500, 500, seed=28)], ids=["exact", "estimator"])
    def test_profit_reads_a_one_pass_base_once(self, demo_graph, evaluator):
        # both sides of a profit query see the whole base, even an iterator
        ev = evaluator(demo_graph)
        assert ev.value(iter([1, 2]), "profit") == ev.value([1, 2], "profit")
        for query in (ev.marginal_many, ev.marginal_vs_rest):
            assert query([0, 3], iter([1, 2]), "profit").tolist() == \
                query([0, 3], [1, 2], "profit").tolist()
        # profit asks value per side; marginal checks v against the base first
        assert ev.profit(iter([1, 2])) == ev.profit([1, 2])
        for metric in METRICS:
            assert ev.marginal(0, iter([1, 2]), metric) == ev.marginal(0, [1, 2], metric)
            with pytest.raises(DomainError, match="already in the base set"):
                ev.marginal(2, iter([1, 2]), metric)

    @pytest.mark.parametrize("metric", ["benefit", "cost", "profit"])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_exact_evaluator_returns_aligned_arrays(self, demo_graph, name, metric):
        ev = ExactEvaluator(demo_graph)
        out = self.CALLS[name](getattr(ExactEvaluator, name), ev, metric)
        self.check_array(out)
        if name == "marginal_many":
            assert out.tolist() == [ev.marginal(v, {1}, metric) for v in self.NODES]


class TestValueMany:
    """``value_many`` against a loop over ``value``, across the 64-set passes."""

    @staticmethod
    def seed_sets(rng, n, count):
        """Empty sets, lists that repeat ids, frozensets and arrays, in turn."""
        sets = []
        for i in range(count):
            ids = rng.integers(0, n, size=int(rng.integers(1, n)))
            sets.append([(), ids.tolist(), frozenset(ids.tolist()), ids][i % 4])
        return sets

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 130])
    @pytest.mark.parametrize("metric", ["benefit", "cost", "profit"])
    def test_equals_loop_over_value(self, metric, count):
        g = wic_graph(40, 160, seed=count)
        est = ProfitEstimator.build(g, 300, 400, seed=25)
        sets = self.seed_sets(np.random.default_rng(count), g.node_count, count)
        out = est.value_many(sets, metric)
        assert out.dtype == np.float64 and out.shape == (count,)
        assert out.tolist() == [est.value(s, metric) for s in sets]

    def test_side_without_samples(self):
        g = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.5)], benefit=[1, 2, 3], cost=[0, 0, 0])
        est = ProfitEstimator.build(g, 100, 100, seed=26)
        assert est.cost_rr is None
        sets = [(), [0], [2, 2], [0, 1, 2]] * 20  # two passes
        assert est.value_many(sets, "cost").tolist() == [0.0] * len(sets)
        for metric in ("benefit", "profit"):
            assert est.value_many(sets, metric).tolist() == [est.value(s, metric) for s in sets]

    @pytest.mark.parametrize("metric", ["benefit", "cost", "profit"])
    def test_exact_evaluator_matches_its_value(self, demo_graph, metric):
        ev = ExactEvaluator(demo_graph)
        sets = [(), {0}, {1, 2}, [3, 3, 1], {0, 1, 2, 3}]
        out = ev.value_many(sets, metric)
        assert out.dtype == np.float64
        assert out.tolist() == [ev.value(s, metric) for s in sets]

    @pytest.mark.parametrize("evaluator", [ExactEvaluator, lambda g: ProfitEstimator.build(
        g, 50, 50, seed=27)], ids=["exact", "estimator"])
    def test_unknown_metric(self, demo_graph, evaluator):
        with pytest.raises(DomainError, match="unknown metric"):
            evaluator(demo_graph).value_many([], "spread")


class TestErrorLimitFormulas:
    def test_normalization_never_increases_error_limit(self):
        rng = np.random.default_rng(37)
        delta = 0.01
        theta = 1000
        for _ in range(30):
            g = random_graph(rng, max_nodes=5, max_edges=8)
            gn = normalize_weights(g)
            tot, totn = g.totals(), gn.totals()
            for _ in range(3):
                seeds = random_subset(rng, g.node_count)
                b, c = brute_evaluate(g, seeds)
                bn, cn = brute_evaluate(gn, seeds)
                raw = (sampling_error_limit(tot.upsilon_b, b, theta, delta)
                       + sampling_error_limit(tot.upsilon_c, c, theta, delta))
                norm = (sampling_error_limit(totn.upsilon_b, bn, theta, delta)
                        + sampling_error_limit(totn.upsilon_c, cn, theta, delta))
                assert norm <= raw + 1e-12

    @pytest.mark.parametrize("upsilon, value", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-1.0, 1.0)])
    def test_error_limit_rejects_non_finite_input(self, upsilon, value):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            sampling_error_limit(upsilon, value, 100, 0.1)

    @pytest.mark.parametrize("args, message", [
        ((math.inf, 1.0, 0.1, 0.1), "finite and positive"),
        ((1.0, math.nan, 0.1, 0.1), "finite and positive"),
        ((1.0, 1.0, math.nan, 0.1), "rel_err must be finite"),
        ((1.0, 1.0, math.inf, 0.1), "rel_err must be finite"),
        # finite input whose count leaves the float range
        ((1e300, 1e-300, 1e-10, 0.1), "past the float range"),
        ((1.0, 1.0, 1e-200, 0.1), "past the float range"),
    ])
    def test_theta_inversion_rejects_degenerate_input(self, args, message):
        with pytest.raises(DomainError, match=message):
            theta_for_relative_error(*args)

    def test_theta_inversion_asks_for_at_least_one_sample(self):
        assert theta_for_relative_error(1.0, 1.0, 1e200, 0.1) == 1

    def test_theta_inversion(self):
        upsilon, value, rel, delta = 8.5, 5.88, 0.01, 1e-6
        theta = theta_for_relative_error(upsilon, value, rel, delta)
        assert sampling_error_limit(upsilon, value, theta, delta) <= rel * value
        assert sampling_error_limit(upsilon, value, theta - 1, delta) > rel * value


@st.composite
def state_replays(draw):
    """(graph, starting seeds, steps, first ``inside`` read): a small graph,
    then add and remove steps, each of one node (an int or a numpy int) or
    of a list or array of them, which may be empty, repeat a node, or name
    nodes already on that side of the seed set."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
    probs = draw(st.lists(st.floats(0.05, 0.95), min_size=len(edges), max_size=len(edges)))
    weights = st.lists(st.floats(0.1, 2.5), min_size=n, max_size=n)
    g = WeightedGraph(n, [(u, v, p) for (u, v), p in zip(edges, probs)],
                      benefit=draw(weights), cost=draw(weights))
    node_lists = st.lists(node, max_size=n)
    nodes = st.one_of(node, node.map(np.int64), node_lists,
                      node_lists.map(lambda v: np.array(v, dtype=np.int64)))
    # a state past half the nodes counts its hits from the nodes off S
    sizes = st.sampled_from([n, n - 1, n // 2, n // 2 + 1])
    seeds = st.one_of(node_lists, sizes.flatmap(
        lambda k: st.permutations(range(n)).map(lambda order: order[:k])))
    steps = draw(st.lists(st.tuples(st.sampled_from(["add", "remove"]), nodes), max_size=8))
    return g, draw(seeds), steps, draw(st.integers(0, len(steps)))


class TestCoverageState:
    """Each evaluator's coverage state, replayed step by step, against queries
    answered from scratch."""

    @staticmethod
    def replay(ev, kind, case, ref=None, by_values=True):
        """Replay ``case`` on ``ev``'s state.  Each read is checked against two
        ``value`` calls per node (unless ``by_values`` is False): bit for bit
        on the exact evaluator, to an ulp or so on the estimator, whose
        ``ref`` passes pin its bits."""
        g, seeds, steps, first_read = case
        n = g.node_count
        everyone = np.arange(n)
        state = ev.coverage_state(kind, seeds)
        S = set(seeds)
        for i, (op, nodes) in enumerate([(None, ())] + steps):
            if op is not None:
                getattr(state, op)(nodes)
                ids = {int(nodes)} if np.isscalar(nodes) else {int(v) for v in nodes}
                S = S | ids if op == "add" else S - ids
            on = np.isin(everyone, list(S))
            gains = state.gains
            assert gains.dtype == np.float64 and gains.shape == (n,)
            assert not gains[on].any()
            # before the first read nothing has asked for f(v | S - v)
            inside = state.inside(everyone) if i >= first_read else None
            if ref is not None:  # the estimator against the one-shot passes
                rho, b = ev.rho(kind), np.array(sorted(S), dtype=np.int64)
                assert np.array_equal(gains, rho * ref.coverage(b)[1])
                assert state.value == rho * ref.coverage(b)[2]
                if inside is not None:
                    assert np.array_equal(inside, rho * ref.counts_vs_rest(b))
            if not by_values:
                continue
            base = frozenset(S)
            value = ev.value(base, kind)
            assert state.value == value
            # f(S + v) - f(S), zero on S, and f(S) - f(S - v) on S
            plus = np.array([ev.value(base | {v}, kind) - value for v in range(n)])
            minus = np.array([value - ev.value(base - {v}, kind) for v in range(n)])
            for got, want in ((gains, plus), (inside, np.where(on, minus, plus))):
                if got is None:
                    continue
                if ref is None:
                    assert got.tobytes() == want.tobytes()
                else:
                    assert got.tolist() == pytest.approx(want.tolist(), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=state_replays(), seed=st.integers(0, 2**32 - 1))
    def test_gains_match_recomputed_marginals(self, case, seed):
        g = case[0]
        exact, est = ExactEvaluator(g), ProfitEstimator.build(g, 200, 200, seed=seed)
        for kind in ("benefit", "cost"):
            self.replay(exact, kind, case)
            coll = est.benefit_rr if kind == "benefit" else est.cost_rr
            for chunk in (None, 1, 2, 7):
                with pytest.MonkeyPatch.context() as mp:
                    if chunk is not None:
                        mp.setattr(rrsets, "_CHUNK", chunk)
                    # value's own chunked passes are pinned elsewhere
                    self.replay(est, kind, case, OneShotPasses(coll), by_values=chunk is None)

    @pytest.mark.parametrize("block", [None, 1], ids=["one-block", "row-blocks"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_state_with_isolated_nodes(self, kind, block, monkeypatch):
        # nodes 0, 4, 5 and 6 lie on no edge; their weights do not add up
        # exactly, so the order they are summed in shows
        if block is not None:  # weigh one mask row at a time
            monkeypatch.setattr(oracle, "_BLOCK_CELLS", block)
        g = WeightedGraph(7, [(1, 2, 0.3), (2, 3, 0.6), (3, 1, 0.45)],
                          benefit=[0.1, 1.3, 0.7, 2.1, 0.2, 0.3, 1e-17],
                          cost=[0.7, 0.4, 1.1, 0.6, 0.1, 0.2, 0.3])
        steps = [("add", [6, 2]), ("remove", 0), ("add", np.array([0, 3, 1])),
                 ("remove", [4, 2]), ("remove", np.int64(1)), ("add", [5, 4, 2])]
        self.replay(ExactEvaluator(g), kind, (g, [0, 4, 5], steps, 0))

    def test_set_left_with_one_node_of_b_counts_for_it(self):
        # node 3 lies in no set; set 3 holds all of 0, 1, 2
        est = counting_estimator([[0, 1], [1, 2], [2], [0, 1, 2]], node_count=4)
        at_a, at_b = est.coverage_state("benefit"), est.coverage_state("benefit", range(4))
        assert at_b.inside([0, 1, 2, 3]).tolist() == [0.0, 0.0, 1.0, 0.0]
        at_b.remove([1])  # sets 0 and 1 drop to one node of B each
        assert at_b.inside([0, 2, 3]).tolist() == [1.0, 2.0, 0.0]
        at_a.add([2])
        at_b.remove(0)
        assert at_b.inside([2, 3]).tolist() == [3.0, 0.0]
        assert at_a.gains[[0, 1, 3]].tolist() == [1.0, 1.0, 0.0]

    def test_side_without_samples_is_zero(self):
        est = counting_estimator([[0, 1], [1]], node_count=3)
        at_a, at_b = est.coverage_state("cost", [0]), est.coverage_state("cost", range(3))
        at_a.add([1])
        at_b.remove([2])
        assert not at_b.inside([0, 1]).any()
        assert not at_a.gains.any()
        assert at_a.value == at_b.value == 0.0

    def test_profit_is_not_a_side(self, demo_graph):
        est = ProfitEstimator.build(demo_graph, 100, 100, seed=22)
        for ev in (est, ExactEvaluator(demo_graph)):
            with pytest.raises(DomainError, match="coverage states track one side"):
                ev.coverage_state("profit")


class TestLatticeState:
    """The coverage states pruning holds at both ends of a lattice [A, B]."""

    def test_profit_is_not_a_side(self, demo_graph):
        est = ProfitEstimator.build(demo_graph, 100, 100, seed=22)
        for ev in (est, ExactEvaluator(demo_graph)):
            for end in ((), range(4)):
                with pytest.raises(DomainError, match="coverage states track one side"):
                    ev.coverage_state("profit", end)
