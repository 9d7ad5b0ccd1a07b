"""Directed weighted graph model, file formats and weight policies.

A graph couples directed edges carrying propagation probabilities with two
per-node weights: a benefit (reward collected when the node activates) and a
cost (expense incurred when the node activates and starts pushing to its
neighbors).  Graphs are immutable after construction; weight changes produce
new graph views sharing the edge structure.

File formats (UTF-8 text, whitespace separated; a line whose first
non-blank character is ``#`` is a comment, and a ``#`` after a token is part
of the line, so ``0 1 # x`` is a malformed edge):

    edge list:   u v [p]     one directed edge per line, external node ids,
                             p in [0,1]; missing p filled by a default policy
    weights:     v b c       per-node benefit and cost, external node ids

External ids are nonnegative integers below 2**63; internally nodes are
densely renumbered 0..n-1 in ascending external-id order and the mapping is
retained.
"""

from __future__ import annotations

import copy
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class WeightTotals:
    """Total benefit and cost weight over all nodes."""

    upsilon_b: float
    upsilon_c: float


class WeightedGraph:
    """Immutable directed graph with edge probabilities and node weights.

    Construction validates every invariant once; afterwards the arrays are
    marked read-only and the object is safe to share across threads.
    """

    __slots__ = (
        "_n", "_src", "_dst", "_prob", "_benefit", "_cost", "_normalized",
        "_external_ids", "_id_map", "_fwd_ptr", "_fwd_dst", "_fwd_prob",
        "_rev_ptr", "_rev_src", "_rev_prob", "_out_degree", "_in_degree",
    )

    def __init__(self, node_count, edges, benefit=None, cost=None,
                 external_ids=None, normalized=False):
        edges = list(edges)
        u, v, p = zip(*edges, strict=True) if edges else ((), (), ())
        self._build(node_count, _int_column(u), _int_column(v), np.array(p, dtype=np.float64),
                    benefit, cost, external_ids, normalized)

    @classmethod
    def _from_columns(cls, node_count, src, dst, prob, external_ids) -> "WeightedGraph":
        """The graph of parallel int64 endpoint and float64 probability arrays, zero weights."""
        g = cls.__new__(cls)
        g._build(node_count, src, dst, prob, None, None, external_ids, False)
        return g

    def _build(self, node_count, src, dst, prob, benefit, cost, external_ids, normalized):
        n = int(node_count)
        if n < 0:
            raise DomainError("node_count must be nonnegative")
        self._n = n
        _check_edges(n, src, dst, prob)
        src, dst = src.astype(np.int32), dst.astype(np.int32)
        self._src, self._dst, self._prob = src, dst, prob
        self._set_weights(benefit, cost, normalized)

        if external_ids is None:
            external_ids = list(range(n))
        external_ids = [int(x) for x in external_ids]
        if len(external_ids) != n or len(set(external_ids)) != n:
            raise DomainError("external_ids must be a bijection over the nodes")
        bad = next((x for x in external_ids if not 0 <= x <= _INT64_MAX), None)
        if bad is not None:
            raise DomainError(f"external id {bad} outside 0..2**63-1")
        self._external_ids = external_ids
        self._id_map = {ext: i for i, ext in enumerate(external_ids)}

        self._fwd_ptr, self._fwd_dst, self._fwd_prob = self._csr(src, dst, prob)
        self._rev_ptr, self._rev_src, self._rev_prob = self._csr(dst, src, prob)
        self._out_degree = np.diff(self._fwd_ptr).astype(np.int64)
        self._in_degree = np.diff(self._rev_ptr).astype(np.int64)

        for arr in (self._src, self._dst, self._prob,
                    self._fwd_ptr, self._fwd_dst, self._fwd_prob,
                    self._rev_ptr, self._rev_src, self._rev_prob,
                    self._out_degree, self._in_degree):
            arr.setflags(write=False)

    def _set_weights(self, benefit, cost, normalized):
        self._benefit = self._check_weights(benefit, "benefit")
        self._cost = self._check_weights(cost, "cost")
        self._normalized = bool(normalized)
        if self._normalized:
            overlap = np.minimum(self._benefit, self._cost)
            if np.any(overlap != 0.0):
                raise DomainError("normalized graphs require min(benefit, cost) == 0 per node")
        self._benefit.setflags(write=False)
        self._cost.setflags(write=False)

    def _check_weights(self, w, name):
        if w is None:
            w = np.zeros(self._n, dtype=np.float64)
        else:
            w = np.asarray(w, dtype=np.float64).copy()
        if w.shape != (self._n,):
            raise DomainError(f"{name} weights must have one entry per node")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise DomainError(f"{name} weights must be finite and nonnegative")
        with np.errstate(over="ignore"):
            if not np.isfinite(w.sum()):
                raise DomainError(f"{name} weights must have a finite total")
        return w

    def _csr(self, key, val, prob):
        # sorting key * m + edge index keeps edge insertion order within each
        # bucket, which pins the coin-flip order of every sampler
        m = max(len(key), 1)
        order = np.sort(key * np.int64(m) + np.arange(len(key))) % m
        ptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=self._n), out=ptr[1:])
        return ptr, val[order], prob[order]

    # -- basic accessors -------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._src)

    @property
    def benefit(self) -> np.ndarray:
        return self._benefit

    @property
    def cost(self) -> np.ndarray:
        return self._cost

    @property
    def net_weight(self) -> np.ndarray:
        """Per-node benefit minus cost."""
        return self._benefit - self._cost

    @property
    def normalized(self) -> bool:
        return self._normalized

    @property
    def external_ids(self) -> list:
        return list(self._external_ids)

    @property
    def out_degree(self) -> np.ndarray:
        return self._out_degree

    @property
    def in_degree(self) -> np.ndarray:
        return self._in_degree

    def edge_arrays(self):
        """Edges as parallel arrays (src, dst, prob) in construction order."""
        return self._src, self._dst, self._prob

    def forward_csr(self):
        """(ptr, dst, prob) arrays; out-edges of v are slice ptr[v]:ptr[v+1]."""
        return self._fwd_ptr, self._fwd_dst, self._fwd_prob

    def reverse_csr(self):
        """(ptr, src, prob) arrays; in-edges of v are slice ptr[v]:ptr[v+1]."""
        return self._rev_ptr, self._rev_src, self._rev_prob

    def internal_id(self, external: int) -> int:
        try:
            return self._id_map[int(external)]
        except KeyError:
            raise DomainError(f"unknown external node id {external}") from None

    def external_id(self, internal: int) -> int:
        return self._external_ids[internal]

    def totals(self) -> WeightTotals:
        return WeightTotals(float(self._benefit.sum()), float(self._cost.sum()))

    def with_weights(self, benefit, cost, normalized=False) -> "WeightedGraph":
        """New graph view sharing this edge structure with replaced weights.

        The edge arrays, CSRs and id maps are shared read-only; only the new
        weights are validated.
        """
        view = copy.copy(self)
        view._set_weights(benefit, cost, normalized)
        return view

    def __setstate__(self, state):
        # pickle and copy rebuild the slots; their arrays stay read-only
        for name, value in state[1].items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            setattr(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self._n == other._n
                and self._normalized == other._normalized
                and self._external_ids == other._external_ids
                and np.array_equal(self._src, other._src)
                and np.array_equal(self._dst, other._dst)
                and np.array_equal(self._prob, other._prob)
                and np.array_equal(self._benefit, other._benefit)
                and np.array_equal(self._cost, other._cost))

    def __repr__(self):
        return (f"WeightedGraph(n={self._n}, m={self.edge_count}, "
                f"normalized={self._normalized})")


# -- loading and saving ---------------------------------------------------


def _int_column(values) -> np.ndarray:
    """Integers as int64, or as exact Python ints where one exceeds int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(x) for x in values], dtype=object)


def _check_edges(n, u, v, p) -> None:
    """Raise DomainError for the first edge, in input order, that breaks an invariant.

    The checks of one edge run in the order range, self-loop, probability,
    then repeat of an earlier edge.
    """
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    bad = outside | (u == v) | ~((p >= 0.0) & (p <= 1.0))
    # keys of edges with both ends in range are distinct per (u, v); a key
    # that wraps or collides involves an out-of-range edge, which the range
    # check reports first
    key = u * n + v
    sorted_keys = np.sort(key)
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        order = np.argsort(key, kind="stable")
        bad[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    if not bad.any():
        return
    k = int(np.argmax(bad))
    uk, vk, pk = int(u[k]), int(v[k]), float(p[k])
    if outside[k]:
        raise DomainError(f"edge ({uk},{vk}) references a node outside 0..{n - 1}")
    if uk == vk:
        raise DomainError(f"self-loop on node {uk} is not allowed")
    if not (0.0 <= pk <= 1.0):
        raise DomainError(f"edge ({uk},{vk}) probability {pk} outside [0,1]")
    raise DomainError(f"duplicate parallel edge ({uk},{vk})")


def _read_text(path, data=None) -> str:
    """The UTF-8 text of the file at ``path`` (or of its bytes ``data``).

    Undecodable bytes raise ParseError naming the line they are on.
    """
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        # universal newlines: \n, \r\n and a lone \r each end a line
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def _data_lines(path, data=None):
    """(line number, stripped line) for each line that is neither blank nor a comment."""
    text = io.StringIO(_read_text(path, data), newline=None)
    for lineno, raw in enumerate(text, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


# the Python types json.loads gives each kind of JSON value; a bool is no number
_JSON_TYPES = {"an integer": (int,), "a number": (int, float), "a boolean": (bool,),
               "a list": (list,)}


def _check_values(values, what: str, kind: str = "an integer"):
    """Return ``values`` once each is a JSON value of ``kind`` (a key of
    ``_JSON_TYPES``); raise ValueError naming the first that is not."""
    types = _JSON_TYPES[kind]
    for v in values:
        if type(v) not in types:
            raise ValueError(f"{what} {v!r} is not {kind}")
    return values


def _read_json(path, read):
    """``read(doc)`` for the JSON object at ``path``; malformed input raises ParseError.

    A ``DomainError`` that ``read`` raises keeps its type and gains the path.
    """
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg} (column {exc.colno})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: malformed document: not a JSON object")
    try:
        return read(doc)
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a huge JSON int
        raise ParseError(f"{path}: malformed document: {exc}") from None
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


# bytes on which np.loadtxt and the per-line reader split and parse alike:
# printable ASCII, tab, and line feeds (a carriage return only before one)
_LOADTXT_BYTES = bytes([9, 10, 13]) + bytes(range(32, 127))


def _loadtxt_width(data: bytes):
    """Columns of the first data line when ``np.loadtxt`` can read ``data``, else None.

    None sends the file to the per-line reader: a byte outside
    ``_LOADTXT_BYTES``, a lone carriage return (a line end to the per-line
    reader, an error or a joined line to loadtxt), a ``#`` after the first
    token of a line (loadtxt would drop the rest of the line as a comment;
    the per-line reader rejects it), no data line, or a first data line
    without 2 or 3 columns.
    """
    if data.translate(None, _LOADTXT_BYTES):
        return None
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    hash_at = data.find(b"#")
    while hash_at >= 0:
        line_start = data.rfind(b"\n", 0, hash_at) + 1
        if data[line_start:hash_at].strip():
            return None
        line_end = data.find(b"\n", hash_at)
        hash_at = -1 if line_end < 0 else data.find(b"#", line_end)
    start = 0
    while start < len(data):
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end
        tokens = data[start:end].split()
        if tokens and not tokens[0].startswith(b"#"):
            return len(tokens) if len(tokens) in (2, 3) else None
        start = end + 1
    return None


def _loadtxt_columns(data: bytes):
    """(u, v, p) external-id columns of an edge list parsed by ``np.loadtxt``.

    p is NaN where a line gives no probability.  None when ``loadtxt`` might
    read the file differently from the per-line reader, refuses it, or finds
    a negative id or a NaN probability (which would read as a missing one).
    """
    width = _loadtxt_width(data)
    if width is None:
        return None
    dtype = [("u", np.int64), ("v", np.int64), ("p", np.float64)][:width]
    try:
        # loadtxt iterates a file object line by line and decodes each bytes
        # line on its own; the data is printable ASCII (``_loadtxt_width``),
        # so it is decoded once, up front
        rows = np.loadtxt(io.StringIO(data.decode("ascii")), dtype=dtype, comments="#",
                          ndmin=1)
    except ValueError:  # a malformed token, a ragged row, or an id beyond int64
        return None
    u, v = rows["u"], rows["v"]
    if width == 2:
        p = np.full(len(rows), np.nan)
    else:
        p = rows["p"]
        if np.any(np.isnan(p)):
            return None
    if np.any(u < 0) or np.any(v < 0):
        return None
    return u, v, p


def _edge_lines(path, data=None):
    """(u, v, p) external-id columns of an edge list, read and checked line by line.

    The reference reader: ``load_edge_list`` falls back to it for input that
    ``np.loadtxt`` cannot read, and lets it word every error with the file
    and line of the first bad line.  p is NaN where a line gives none.
    """
    ext_edges = {}  # (u, v) -> p, in file order
    for lineno, line in _data_lines(path, data):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"{path}:{lineno}: expected 'u v [p]', got {line!r}")
        try:
            u_ext, v_ext = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: node ids must be integers") from None
        if u_ext < 0 or v_ext < 0:
            raise ParseError(f"{path}:{lineno}: node ids must be nonnegative")
        for x in (u_ext, v_ext):
            if x > _INT64_MAX:
                raise ParseError(f"{path}:{lineno}: node id {x} does not fit in 64 bits")
        p = math.nan
        if len(parts) == 3:
            try:
                p = float(parts[2])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: probability must be a float") from None
            if not (0.0 <= p <= 1.0):
                raise DomainError(f"{path}:{lineno}: probability {p} outside [0,1]")
        if u_ext == v_ext:
            raise DomainError(f"{path}:{lineno}: self-loop on node {u_ext}")
        if (u_ext, v_ext) in ext_edges:
            raise DomainError(f"{path}:{lineno}: duplicate edge ({u_ext},{v_ext})")
        ext_edges[u_ext, v_ext] = p
    if not ext_edges:
        raise DomainError(f"{path}: no edges found")
    u, v = zip(*ext_edges)
    return (np.array(u, dtype=np.int64), np.array(v, dtype=np.int64),
            np.array(list(ext_edges.values()), dtype=np.float64))


def _edge_graph(u_ext, v_ext, p, fill) -> WeightedGraph:
    """The graph of external-id edge columns, renumbered in ascending id order.

    NaN probabilities take ``fill``: a constant, or None for the reciprocal
    of the target's in-degree.
    """
    ids, inverse = np.unique(np.concatenate([u_ext, v_ext]), return_inverse=True)
    m = len(u_ext)
    u, v = inverse[:m], inverse[m:]
    if fill is None:
        fill = 1.0 / np.bincount(v, minlength=len(ids))[v]
    return WeightedGraph._from_columns(len(ids), u, v, np.where(np.isnan(p), fill, p),
                                       external_ids=ids.tolist())


def load_edge_list(path, default_prob="wic") -> WeightedGraph:
    """Read a ``u v [p]`` edge-list file into a graph with zero weights.

    ``default_prob`` fills edges whose line omits p: either a constant in
    [0,1] or the string ``"wic"``, which assigns the reciprocal of the
    target's in-degree.  The file is parsed by ``np.loadtxt`` and checked
    with array masks; input it cannot read, and every error, go through the
    per-line reader ``_edge_lines``, so both give the same graph and the
    same ``file:line`` message.
    """
    fill = None
    if default_prob != "wic":
        try:
            fill = float(default_prob)
        except (TypeError, ValueError):
            raise DomainError(f"default_prob must be 'wic' or a float, got {default_prob!r}")
        if not (0.0 <= fill <= 1.0):
            raise DomainError(f"default probability {fill} outside [0,1]")

    with open(path, "rb") as fh:
        data = fh.read()
    columns = _loadtxt_columns(data)
    if columns is not None:
        try:
            return _edge_graph(*columns, fill)
        except DomainError:
            pass  # a self-loop, a repeated edge or p outside [0,1]: the per-line reader names the line
    return _edge_graph(*_edge_lines(path, data), fill)


def save_edge_list(g: WeightedGraph, path) -> None:
    """Write the graph's edges with explicit probabilities (external ids)."""
    src, dst, prob = g.edge_arrays()
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, p in zip(src.tolist(), dst.tolist(), prob.tolist()):
            fh.write(f"{g.external_id(u)} {g.external_id(v)} {p!r}\n")


def load_weights(g: WeightedGraph, path) -> WeightedGraph:
    """Apply a ``v b c`` weights file on top of g's current weights."""
    benefit = g.benefit.copy()
    cost = g.cost.copy()
    seen = set()
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'v b c', got {line!r}")
        try:
            ext = int(parts[0])
            b = float(parts[1])
            c = float(parts[2])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: expected integer id and float weights") from None
        try:
            v = g.internal_id(ext)
        except DomainError:
            raise DomainError(f"{path}:{lineno}: unknown external node id {ext}") from None
        if v in seen:
            raise DomainError(f"{path}:{lineno}: duplicate weight row for node {ext}")
        seen.add(v)
        if not (0 <= b < np.inf and 0 <= c < np.inf):
            raise DomainError(f"{path}:{lineno}: weights must be finite and nonnegative")
        benefit[v] = b
        cost[v] = c
    try:
        return g.with_weights(benefit, cost)
    except DomainError as exc:  # every row passed, so a side's total failed
        raise DomainError(f"{path}: {exc}") from None


def save_weights(g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in range(g.node_count):
            fh.write(f"{g.external_id(v)} {float(g.benefit[v])!r} {float(g.cost[v])!r}\n")


_DIST_NAMES = {"uniform", "degree", "degree-proportional"}


def _dist_values(g: WeightedGraph, dist, name) -> np.ndarray:
    if dist not in _DIST_NAMES:
        raise DomainError(f"unknown {name} distribution {dist!r}; expected one of {sorted(_DIST_NAMES)}")
    if dist == "uniform":
        return np.ones(g.node_count, dtype=np.float64)
    return g.out_degree.astype(np.float64)


def assign_weights(g: WeightedGraph, benefit_dist="uniform", cost_dist="degree",
                   r=1.0, weights_path=None) -> WeightedGraph:
    """Assign node weights from distribution policies or an explicit file.

    Benefits take the raw policy values (uniform gives 1 per node,
    degree-proportional gives the out-degree).  Costs take the policy values
    rescaled so that total cost equals ``r`` times total benefit; nodes with
    out-degree 0 therefore get cost 0 under the degree policy.  Rows of an
    explicit ``v b c`` file override both weights verbatim, with no rescaling.
    """
    r = float(r)
    if not 0 < r < np.inf:
        raise DomainError(f"scale factor r must be finite and positive, got {r}")
    benefit = _dist_values(g, benefit_dist, "benefit")
    cost = _dist_values(g, cost_dist, "cost")
    target = r * float(benefit.sum())
    total_cost = float(cost.sum())
    if target > 0 and total_cost == 0:
        raise DomainError(f"cost distribution {cost_dist!r} is identically zero; "
                          "cannot rescale to match r * total benefit")
    cost = cost * (target / total_cost) if total_cost > 0 else cost
    result = g.with_weights(benefit, cost)
    if weights_path is not None:
        result = load_weights(result, weights_path)
    return result


def normalize_weights(g: WeightedGraph) -> WeightedGraph:
    """Fold the overlap out of each node's weight pair.

    Node v keeps only the sign side of its net weight w(v) = b(v) - c(v):
    the normalized pair is (max(0, w), max(0, -w)).  The per-node difference,
    and hence the profit of every seed set, is unchanged, while both weight
    totals shrink by the overlap.  Idempotent.
    """
    if g.normalized:
        return g
    w = g.net_weight
    return g.with_weights(np.maximum(w, 0.0), np.maximum(-w, 0.0), normalized=True)
