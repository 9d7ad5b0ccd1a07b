import copy
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from profitmax import (DomainError, ParseError, WeightedGraph, assign_weights,
                       load_edge_list, load_graph_json, load_weights,
                       normalize_weights, save_edge_list, save_graph_json,
                       save_weights)
from profitmax.graph import _edge_graph, _edge_lines, _loadtxt_columns
from profitmax.oracle import ExactEvaluator

from conftest import DEMO_BENEFIT, DEMO_COST, DEMO_EDGES, make_demo_graph, random_graph


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadEdgeList:
    def test_wic_default_fills_reciprocal_in_degree(self, tmp_path):
        g = load_edge_list(write(tmp_path / "g.txt", "0 1\n1 2\n"), default_prob="wic")
        assert g.node_count == 3
        _, _, prob = g.edge_arrays()
        assert prob.tolist() == [1.0, 1.0]

    def test_explicit_probabilities_pass_through(self, tmp_path):
        g = load_edge_list(write(tmp_path / "g.txt", "0 1 0.4\n0 2 0.3\n"),
                           default_prob=0.9)
        _, _, prob = g.edge_arrays()
        assert prob.tolist() == [0.4, 0.3]

    def test_constant_default_applies_to_missing_only(self, tmp_path):
        g = load_edge_list(write(tmp_path / "g.txt", "0 1\n0 2 0.25\n"),
                           default_prob=0.7)
        _, _, prob = g.edge_arrays()
        assert prob.tolist() == [0.7, 0.25]

    def test_wic_counts_all_in_edges(self, tmp_path):
        # node 2 has in-degree 2, so both defaulted edges get 1/2
        g = load_edge_list(write(tmp_path / "g.txt", "0 2\n1 2\n"), default_prob="wic")
        _, _, prob = g.edge_arrays()
        assert prob.tolist() == [0.5, 0.5]

    def test_demo_fixture_file(self, tmp_path):
        text = "# demo graph\n1 2 0.3\n1 4 0.4\n2 4 0.2\n3 4 0.3\n"
        g = load_edge_list(write(tmp_path / "g.txt", text))
        assert g.node_count == 4
        assert g.edge_count == 4

    def test_external_ids_remap(self, tmp_path):
        g = load_edge_list(write(tmp_path / "g.txt", "10 30 0.5\n30 20 0.5\n"))
        assert sorted(g.external_ids) == [10, 20, 30]
        assert g.external_id(g.internal_id(20)) == 20
        with pytest.raises(DomainError):
            g.internal_id(99)

    def test_comments_and_blank_lines(self, tmp_path):
        g = load_edge_list(write(tmp_path / "g.txt", "# c\n\n0 1 0.5\n"))
        assert g.edge_count == 1

    @pytest.mark.parametrize("text,err", [
        ("0\n", ParseError),
        ("0 1 2 3\n", ParseError),
        ("a b\n", ParseError),
        ("0 1 x\n", ParseError),
        ("0 1 1.5\n", DomainError),
        ("0 0 0.5\n", DomainError),
        ("0 1 0.5\n0 1 0.2\n", DomainError),
        ("-1 1 0.5\n", ParseError),
    ])
    def test_rejects_bad_lines(self, tmp_path, text, err):
        with pytest.raises(err):
            load_edge_list(write(tmp_path / "bad.txt", text))

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(ParseError, match="2"):
            load_edge_list(write(tmp_path / "bad.txt", "0 1 0.5\nnope\n"))

    def test_duplicate_edge_names_file_and_line(self, tmp_path):
        path = write(tmp_path / "dup.txt", "10 20\n20 30\n10 20\n")
        with pytest.raises(DomainError, match=r"dup\.txt:3: duplicate edge \(10,20\)$"):
            load_edge_list(path)

    def test_bad_default_prob(self, tmp_path):
        path = write(tmp_path / "g.txt", "0 1\n")
        with pytest.raises(DomainError):
            load_edge_list(path, default_prob=1.5)
        with pytest.raises(DomainError):
            load_edge_list(path, default_prob="nope")

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            load_edge_list(write(tmp_path / "g.txt", "# nothing\n"))

    @pytest.mark.parametrize("text, message", [
        ("0 1 # x\n", "expected 'u v [p]', got '0 1 # x'"),
        ("0 1#x\n", "node ids must be integers"),
        ("0 1 0.5#x\n", "probability must be a float"),
    ])
    def test_hash_after_a_token_is_not_a_comment(self, tmp_path, text, message):
        path = write(tmp_path / "g.txt", "# header\n  # indented\n2 3 0.5\n" + text)
        with pytest.raises(ParseError, match=f"^{re.escape(path)}:4: {re.escape(message)}$"):
            load_edge_list(path)

    def test_whole_line_comments_keep_the_array_parse(self):
        text = b"# Directed graph\r\n# FromNodeId\tToNodeId\r\n0\t1\r\n  # note\r\n1\t2\r\n"
        u, v, p = _loadtxt_columns(text)
        assert u.tolist() == [0, 1] and v.tolist() == [1, 2] and np.isnan(p).all()
        for fallback in (b"0 1 # x\n", b"0 1\n1 2 0.5\n", b"0 1\r1 2\r", b"0\xa01\n"):
            assert _loadtxt_columns(fallback) is None

    @pytest.mark.parametrize("text, lineno, node", [
        ("0 9223372036854775808\n", 1, 2**63),
        ("0 1\n2 3 0.5\n100000000000000000000 1\n", 3, 10**20),
    ], ids=["loadtxt-refuses", "ragged"])
    def test_ids_beyond_int64_rejected(self, tmp_path, text, lineno, node):
        path = write(tmp_path / "g.txt", text)
        with pytest.raises(ParseError,
                           match=f"^{re.escape(path)}:{lineno}: node id {node} does not fit in 64 bits$"):
            load_edge_list(path)

    def test_largest_int64_id_kept(self, tmp_path):
        g = load_edge_list(write(tmp_path / "g.txt", "9223372036854775807 0\n"))
        assert g.external_ids == [0, 2**63 - 1]

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\r\n1 2\r3 4\n\xff\xfe\n")
        with pytest.raises(ParseError, match=r"g\.txt:4: not UTF-8 text \(invalid start byte\)$"):
            load_edge_list(str(path))


# respellings of each part of a line; the per-line reader accepts some of
# them, np.loadtxt refuses or reads others differently
_ID_SPELLINGS = ("+{}".format, "-{}".format, "0{}".format, "{}_0".format, "{}.0".format,
                 lambda x: str(x).translate(str.maketrans("0123456789", "\u0660\u0661\u0662"
                                                          "\u0663\u0664\u0665\u0666\u0667\u0668\u0669")),
                 lambda x: str(x + 2**63))
_PROB_SPELLINGS = (None, "0.5", "1", "0", "1e-1", "-0.0", ".75", "+0.25", "nan", "inf", "1.5",
                   "1_0.5", "x")
# lone surrogates encode as the undecodable bytes 0xa0 and 0xff
_SEPARATORS = ("\t", " \t ", "\xa0", "\x0c", "\udca0")
_ENDINGS = ("\r\n", "\r")
_TRAILERS = (" ", " # x")
_COMMENT_LINES = ("# comment", "   # indented comment", "", "  ")
_JUNK_LINES = ("7", "0 1 2 3", "\udcff")


@st.composite
def edge_files(draw):
    """Edge-list bytes with clean lines, or with parts respelled at random.

    Each part of a line is respelled with chance 1/odds (never in a third of
    the files), always to the one respelling the file drew for that kind of
    part.  Ids drawn from 0..4 make self-loops and repeated edges common, so
    files often hold several faults.
    """
    odds = draw(st.sampled_from([0, 30, 5]))
    respelled = {}

    def pick(plain, options):
        if odds and draw(st.integers(1, odds)) == 1:
            if options not in respelled:
                respelled[options] = draw(st.sampled_from(options))
            return respelled[options]
        return plain

    with_p = draw(st.booleans())
    prob_spellings = _PROB_SPELLINGS + (repr(draw(st.floats())),)
    top_id = draw(st.sampled_from([4, 100]))
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(pick(draw(st.sampled_from(_COMMENT_LINES)), _JUNK_LINES))
            continue
        tokens = [pick(str, _ID_SPELLINGS)(draw(st.integers(0, top_id))) for _ in range(2)]
        p = pick(repr(draw(st.floats(0, 1))) if with_p else None, prob_spellings)
        if p is not None:
            tokens.append(p)
        lines.append(pick("", (" ",)) + pick(" ", _SEPARATORS).join(tokens) + pick("", _TRAILERS))
    text = "".join(line + pick("\n", _ENDINGS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8", "surrogateescape")


def _outcome(load, path):
    """The graph's identity as bytes, or the error's type and message."""
    try:
        g = load(path)
    except (ParseError, DomainError) as exc:
        return type(exc), str(exc)
    return (g.node_count, g.external_ids) + tuple(a.tobytes() for a in g.edge_arrays())


class TestLoaderMatchesPerLineReader:
    @settings(max_examples=200, deadline=None)
    @given(edge_files(), st.sampled_from(["wic", 0.25]))
    @example(b"0 1 nan\n", "wic")  # NaN would read as a missing p
    @example(b"0 1\n# c\r2 3\n", "wic")  # a lone CR ends the comment line
    @example(b"0 1\n2\xa03\n", "wic")  # not UTF-8, though latin-1 whitespace
    @example(b"0 1 # x\n", "wic")
    @example(b"0 1\n1 2\n0 1\n2 2\n", 0.25)
    def test_same_graph_or_same_error(self, tmp_path_factory, data, default_prob):
        path = tmp_path_factory.getbasetemp() / "differential.txt"
        path.write_bytes(data)
        fill = None if default_prob == "wic" else default_prob
        assert (_outcome(lambda p: load_edge_list(p, default_prob), str(path))
                == _outcome(lambda p: _edge_graph(*_edge_lines(p), fill), str(path)))


class TestGraphValidation:
    def test_rejects_negative_weights(self):
        with pytest.raises(DomainError):
            WeightedGraph(2, [(0, 1, 0.5)], benefit=[1, -1], cost=[0, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("side", ["benefit", "cost"])
    def test_rejects_non_finite_weights(self, side, bad):
        weights = {"benefit": list(DEMO_BENEFIT), "cost": list(DEMO_COST)}
        weights[side][1] = bad
        with pytest.raises(DomainError, match=f"{side} weights must be finite"):
            WeightedGraph(4, DEMO_EDGES, **weights)
        with pytest.raises(DomainError, match=f"{side} weights must be finite"):
            make_demo_graph().with_weights(**weights)

    @pytest.mark.parametrize("side", ["benefit", "cost"])
    def test_rejects_weights_whose_total_overflows(self, side):
        # each weight is finite, their sum is not; numpy's overflow warning
        # would be an error here
        weights = {"benefit": list(DEMO_BENEFIT), "cost": list(DEMO_COST)}
        weights[side][:2] = [1e308, 1e308]
        with pytest.raises(DomainError, match=f"^{side} weights must have a finite total$"):
            WeightedGraph(4, DEMO_EDGES, **weights)
        with pytest.raises(DomainError, match=f"^{side} weights must have a finite total$"):
            make_demo_graph().with_weights(**weights)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(DomainError):
            WeightedGraph(2, [(0, 2, 0.5)])

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 1, 0.2), (3, 0, 0.5), (2, 2, 0.5)],
         "duplicate parallel edge (0,1)"),
        ([(0, 1, 0.5), (3, 3, 1.5), (1, 2, 0.5), (1, 2, 0.5)], "self-loop on node 3 is not allowed"),
        ([(0, 1, 0.5), (1, 0, math.nan), (2, 2, 0.5)], "edge (1,0) probability nan outside [0,1]"),
        ([(0, 1, 0.5), (0, 10**20, 0.5), (0, 1, 0.5)],
         "edge (0,100000000000000000000) references a node outside 0..3"),
        ([(1, 2, 0.5), (-1, -1, 2.0)], "edge (-1,-1) references a node outside 0..3"),
    ], ids=["duplicate-before-self-loop", "self-loop-before-probability", "nan-probability",
            "beyond-int64", "range-first"])
    def test_first_faulty_edge_is_reported(self, edges, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            WeightedGraph(4, edges)

    @pytest.mark.parametrize("bad", [2**64, 2**63, -5])
    def test_rejects_external_ids_outside_int64(self, bad):
        with pytest.raises(DomainError, match=rf"^external id {bad} outside 0\.\.2\*\*63-1$"):
            WeightedGraph(2, [(0, 1, 0.5)], external_ids=[0, bad])

    def test_reverse_adjacency_mirrors_forward(self):
        g = make_demo_graph()
        fwd = set()
        ptr, dst, prob = g.forward_csr()
        for u in range(g.node_count):
            for k in range(ptr[u], ptr[u + 1]):
                fwd.add((u, int(dst[k]), float(prob[k])))
        rev = set()
        ptr, src, prob = g.reverse_csr()
        for v in range(g.node_count):
            for k in range(ptr[v], ptr[v + 1]):
                rev.add((int(src[k]), v, float(prob[k])))
        assert fwd == rev == set(DEMO_EDGES)

    def test_arrays_are_frozen(self):
        g = make_demo_graph()
        with pytest.raises(ValueError):
            g.benefit[0] = 7.0

    def test_totals(self):
        t = make_demo_graph().totals()
        assert t.upsilon_b == pytest.approx(8.5)
        assert t.upsilon_c == pytest.approx(8.0)

    @pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_stay_frozen(self, clone):
        g = make_demo_graph()
        h = clone(g)
        assert h == g
        arrays = [getattr(h, name) for name in WeightedGraph.__slots__]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == 13 and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            h.benefit[0] = 99.0

    def test_with_weights_shares_the_edge_structure(self):
        g = make_demo_graph()
        view = g.with_weights([1.0] * 4, [0.0] * 4)
        for mine, theirs in ((g.edge_arrays(), view.edge_arrays()),
                             (g.forward_csr(), view.forward_csr()),
                             (g.reverse_csr(), view.reverse_csr())):
            assert all(a is b for a, b in zip(mine, theirs))
        assert view.benefit.tolist() == [1.0] * 4 and not view.benefit.flags.writeable
        assert g.benefit.tolist() == DEMO_BENEFIT
        with pytest.raises(DomainError):
            g.with_weights([1.0, -1.0, 0.0, 0.0], [0.0] * 4)
        with pytest.raises(DomainError):
            g.with_weights([1.0] * 3, [0.0] * 4)
        with pytest.raises(DomainError):
            g.with_weights(DEMO_BENEFIT, DEMO_COST, normalized=True)

    def test_equal_graphs_are_unhashable(self):
        # __eq__ compares values, so an identity hash would let two equal
        # graphs sit in one set; without a hash they cannot be set members
        g, h = make_demo_graph(), make_demo_graph()
        assert g == h
        with pytest.raises(TypeError):
            {g, h}


class TestAssignWeights:
    def path_graph(self):
        return WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])

    def test_uniform_benefit_degree_cost_rescaled(self):
        g = assign_weights(self.path_graph(), "uniform", "degree", r=1.0)
        assert g.benefit.tolist() == [1.0, 1.0, 1.0]
        assert g.cost.tolist() == [1.5, 1.5, 0.0]

    def test_equal_degrees_r_one_gives_unit_cost(self):
        g = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)])
        g = assign_weights(g, "uniform", "degree", r=1.0)
        assert g.cost.tolist() == [1.0, 1.0, 1.0]

    def test_r_scales_total_cost(self):
        g = assign_weights(self.path_graph(), "uniform", "degree", r=2.5)
        assert g.cost.sum() == pytest.approx(2.5 * g.benefit.sum())

    def test_explicit_file_verbatim(self, tmp_path):
        rows = "\n".join(f"{v} {b} {c}" for v, b, c in
                         zip(range(4), DEMO_BENEFIT, DEMO_COST))
        path = write(tmp_path / "w.txt", rows + "\n")
        g = WeightedGraph(4, DEMO_EDGES)
        g = assign_weights(g, "uniform", "degree", r=1.0, weights_path=path)
        assert g.benefit.tolist() == DEMO_BENEFIT
        assert g.cost.tolist() == DEMO_COST

    def test_unknown_node_in_weights_file(self, tmp_path):
        path = write(tmp_path / "w.txt", "9 1 1\n")
        with pytest.raises(DomainError, match=f"^{re.escape(path)}:1: "):
            assign_weights(self.path_graph(), weights_path=path)

    def test_duplicate_weight_row(self, tmp_path):
        path = write(tmp_path / "w.txt", "0 1 1\n0 2 2\n")
        with pytest.raises(DomainError):
            assign_weights(self.path_graph(), weights_path=path)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_r(self, r):
        with pytest.raises(DomainError):
            assign_weights(self.path_graph(), r=r)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_r(self, r):
        with pytest.raises(DomainError, match="scale factor r must be finite and positive"):
            assign_weights(self.path_graph(), r=r)

    @pytest.mark.parametrize("row", ["1 nan 1", "1 1 nan", "1 inf 1", "1 1 -inf"])
    def test_non_finite_weight_row_names_its_line(self, tmp_path, row):
        path = write(tmp_path / "w.txt", f"0 1 1\n{row}\n")
        with pytest.raises(DomainError,
                           match=f"^{re.escape(path)}:2: weights must be finite and nonnegative$"):
            load_weights(self.path_graph(), path)

    def test_degree_cost_on_edgeless_graph_rejected(self):
        g = WeightedGraph(3, [])
        with pytest.raises(DomainError):
            assign_weights(g, "uniform", "degree", r=1.0)


class TestNormalize:
    def test_demo_values(self):
        g = normalize_weights(make_demo_graph())
        assert g.benefit.tolist() == [0.5, 1.0, 2.0, 0.0]
        assert g.cost.tolist() == [0.0, 0.0, 0.0, 3.0]
        assert g.normalized

    def test_equal_weights_normalize_to_zero(self):
        g = WeightedGraph(2, [(0, 1, 0.5)], benefit=[2, 3], cost=[2, 3])
        gn = normalize_weights(g)
        assert gn.benefit.tolist() == [0.0, 0.0]
        assert gn.cost.tolist() == [0.0, 0.0]

    def test_idempotent(self):
        gn = normalize_weights(make_demo_graph())
        assert normalize_weights(gn) is gn

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)),
                    min_size=1, max_size=6))
    def test_normalization_properties(self, pairs):
        b = [p[0] for p in pairs]
        c = [p[1] for p in pairs]
        g = WeightedGraph(len(pairs), [], benefit=b, cost=c)
        gn = normalize_weights(g)
        assert np.all(np.minimum(gn.benefit, gn.cost) == 0.0)
        assert np.allclose(gn.benefit - gn.cost, g.net_weight)

    def test_profit_invariant_under_normalization(self):
        rng = np.random.default_rng(4821)
        for _ in range(15):
            g = random_graph(rng, max_nodes=5, max_edges=8)
            gn = normalize_weights(g)
            seeds = {int(v) for v in range(g.node_count) if rng.random() < 0.5}
            raw = ExactEvaluator(g).profit(seeds)
            norm = ExactEvaluator(gn).profit(seeds)
            assert norm == pytest.approx(raw, abs=1e-12)

    def test_normalized_flag_validated(self):
        with pytest.raises(DomainError):
            WeightedGraph(1, [], benefit=[1.0], cost=[0.5], normalized=True)


def external_edges(g):
    src, dst, prob = g.edge_arrays()
    return {(g.external_id(int(u)), g.external_id(int(v)), float(p))
            for u, v, p in zip(src, dst, prob)}


class TestRoundTrips:
    def test_edge_list_round_trip(self, tmp_path):
        rng = np.random.default_rng(99)
        g = random_graph(rng)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        g2 = load_edge_list(str(path), default_prob=0.5)
        assert external_edges(g2) == external_edges(g)
        # the file format cannot express isolated nodes
        covered = sorted({x for u, v, _ in external_edges(g) for x in (u, v)})
        assert g2.external_ids == covered

    def test_weights_round_trip(self, tmp_path):
        g = make_demo_graph()
        path = tmp_path / "w.txt"
        save_weights(g, path)
        g2 = load_weights(WeightedGraph(4, DEMO_EDGES), str(path))
        assert g2.benefit.tolist() == g.benefit.tolist()
        assert g2.cost.tolist() == g.cost.tolist()

    def test_graph_json_round_trip(self, tmp_path):
        g = normalize_weights(make_demo_graph())
        path = tmp_path / "g.json"
        save_graph_json(g, path)
        assert load_graph_json(str(path)) == g

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[:len(text) // 2], r"g\.json:1: "),
        (lambda text: text.replace('"benefit"', '"profit"'), "missing key 'benefit'"),
        (lambda text: text.replace("[0, 1, 0.3]", "[0.6, 1.2, 0.3]"),
         r"g\.json: .*edge endpoint 0\.6 is not an integer"),
        (lambda text: text.replace("[0, 1, 0.3]", '[0, 1, "0.5"]'),
         r"g\.json: .*edge probability '0\.5' is not a number"),
        (lambda text: text.replace("[0, 1, 0.3]", "[0, 1, true]"),
         r"g\.json: .*edge probability True is not a number"),
        (lambda text: text.replace("[0, 1, 0.3]", f"[0, 1, {10**400}]"),
         r"g\.json: .*int too large to convert to float"),
        (lambda text: text.replace('"benefit": [1.5,', '"benefit": ["1.5",'),
         r"g\.json: .*benefit weight '1\.5' is not a number"),
        (lambda text: text.replace('"cost": [1.0,', '"cost": [false,'),
         r"g\.json: .*cost weight False is not a number"),
        (lambda text: text.replace('"benefit": [1.5, 2.0, 3.0, 2.0]', '"benefit": null'),
         r"g\.json: .*benefit None is not a list"),
        (lambda text: text.replace('"normalized": false', '"normalized": "no"'),
         r"g\.json: .*normalized 'no' is not a boolean"),
        (lambda text: text.replace("[1, 3, 0.2]", "[1, 3]"),
         r"g\.json: .*edge 2 is not a list \[u, v, p\]"),
        (lambda text: text.replace("[1, 3, 0.2]", "[1, 3, 0.2, 1]"),
         r"g\.json: .*edge 2 is not a list \[u, v, p\]"),
        (lambda text: text.replace("[1, 3, 0.2]", "7"),
         r"g\.json: .*edge 2 is not a list \[u, v, p\]"),
        (lambda text: text.replace("[1, 3, 0.2]", '"ab"'),
         r"g\.json: .*edge 2 is not a list \[u, v, p\]"),
        (lambda text: text.replace("[1, 3, 0.2]", '{"u": 1, "v": 3, "p": 0.2}'),
         r"g\.json: .*edge 2 is not a list \[u, v, p\]"),
    ], ids=["truncated", "missing-key", "float-id", "string-probability", "bool-probability",
            "huge-probability", "string-weight", "bool-weight", "null-benefit",
            "string-normalized", "two-entry-edge", "four-entry-edge", "number-edge",
            "string-edge", "object-edge"])
    def test_malformed_graph_json_is_parse_error(self, tmp_path, damage, message):
        path = tmp_path / "g.json"
        save_graph_json(make_demo_graph(), path)
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            load_graph_json(str(path))

    def test_float_node_count_is_parse_error(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph_json(make_demo_graph(), path)
        text = path.read_text(encoding="utf-8")
        assert '"node_count": 4,' in text
        path.write_text(text.replace('"node_count": 4,', '"node_count": 4.9,'), encoding="utf-8")
        with pytest.raises(ParseError, match=r"g\.json: .*node_count 4\.9 is not an integer"):
            load_graph_json(str(path))

    def test_full_load_save_load(self, tmp_path):
        g = make_demo_graph()
        epath, wpath = tmp_path / "g.txt", tmp_path / "w.txt"
        save_edge_list(g, epath)
        save_weights(g, wpath)
        g2 = load_weights(load_edge_list(str(epath)), str(wpath))
        assert g2 == WeightedGraph(4, DEMO_EDGES, DEMO_BENEFIT, DEMO_COST)


class TestGraphJsonDomainErrors:
    """Invariants the graph constructor checks come back naming the file."""

    @pytest.mark.parametrize("damage, message", [
        (lambda edges: edges.append([1, 1, 0.5]), "self-loop on node 1 is not allowed"),
        (lambda edges: edges.append(list(edges[0])), "duplicate parallel edge"),
        (lambda edges: edges[0].__setitem__(2, 1.5), r"probability 1\.5 outside \[0,1\]"),
        (lambda edges: edges[0].__setitem__(1, 9), r"references a node outside 0\.\.3"),
    ], ids=["self-loop", "duplicate-edge", "probability", "endpoint"])
    def test_error_starts_with_path(self, tmp_path, damage, message):
        path = tmp_path / "g.json"
        save_graph_json(make_demo_graph(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        damage(doc["edges"])
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DomainError, match=rf"^{re.escape(str(path))}: .*{message}"):
            load_graph_json(str(path))

    @pytest.mark.parametrize("bad", [2**64, -5])
    def test_external_id_outside_int64_names_the_path(self, tmp_path, bad):
        path = tmp_path / "g.json"
        save_graph_json(make_demo_graph(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["external_ids"][1] = bad
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DomainError, match=rf"^{re.escape(str(path))}: external id {bad} "):
            load_graph_json(str(path))
