"""Weighted reverse-reachable (RR) sampling and coverage-based estimation.

One RR set is drawn by picking a root node with probability proportional to
the node weights (benefit or cost), sampling a live-edge outcome of the
diffusion, and collecting every node that reaches the root in that outcome.
For a collection of theta such sets with total node weight Upsilon, the
number Lambda(S) of sets that S intersects estimates the weighted spread:

    benefit(S) ~ Lambda(S) * Upsilon / theta

Two independent collections, one per weight kind, estimate benefit and cost.
Collections are frozen after generation; every downstream algorithm sees a
fixed, deterministic function of (seed, theta), which is what makes the
pruning and selection loops terminate.

A collection is one CSR store: the members of all sets in one flat array
with per-set offsets, and the inverted index (the sets containing each
node) built from it by one sort of packed (member, set) keys, member *
theta + set.  The keys fill one array, in place, at the narrowest width
that holds n * theta: int32 below 2**31 (``INT32_KEYS``), else int64.  The
remainder, taken in place, is the set ids, so at int32 the sorted keys
become the index without a copy.  The store keeps 4 bytes of member and 4
of set id per member, plus the offsets; building the index peaks at 8
bytes per member beyond the members at int32, 16 at int64.  The index
only finds a node's sets; every per-node count is one pass over the member
lists of the sets involved (``RRCollection.members_of``).  Every coverage
pass reads the member or index positions it needs at most ``_CHUNK``
(2**15) at a time, so its scratch is a chunk's positions, values and
counts (about 1 MB) plus arrays of one entry per node or per set, however
many members it walks; a pass that fits one chunk, as most greedy rounds
do, runs as one array.  Selection, pruning and the modular bounds share one
incremental coverage state (``RRCoverage``) per side over a seed set S:
per set, how many nodes of S it holds, and per node, how many of its sets
hold none, changed only for the sets whose count an entering or leaving
node moves to or from zero (the node-selection scheme of IMM, Tang, Shi
and Xiao, SIGMOD 2015, extended to removals), so a whole greedy run
touches each member of each set once.  The same counts give f(v | S - v)
for v in S from the sets that hold one node of S.  Many seed sets are
counted at once, bit-parallel: each node gets a 64-bit word whose bit b
marks the b-th seed set, and OR-ing the words of each set's members shows
which of the 64 seed sets cover it (``RRCollection.cover_counts``).

Sampling is batch-frontier: the sets of a batch grow together, one BFS level
per numpy pass (see ``generate``), all from one generator derived from
(seed, kind).  Every edge of every new member gets one coin, but a coin is
first compared with the largest edge probability of its member, and only
the coins under that ceiling have their edge located (and, when some node's
edges differ in probability, tested against the edge's own), so the coins,
and every set, are those of one test per edge.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .errors import CapacityError, DomainError
from .evaluation import KINDS, MarginalEvaluator
from .graph import WeightedGraph, _check_fields, _check_rows, _check_values, _read_json
from .rng import derive_seed, make_rng

# bytes of the (set, node) visited bitmap that one batch of sets may use
VISITED_BUDGET = 1 << 20
# members one call of ``_reach`` may sample: a store of 8 bytes per member,
# about 1.1 GB, whose index build peaks at 1.6 GB (int32 keys) or 2.7 GB
MEMBER_BUDGET = 1 << 27
# packed keys are sorted as int32 when their bound lies below this, else as int64
INT32_KEYS = 1 << 31
# positions of the member or index arrays one step of a coverage pass gathers
_CHUNK = 1 << 15


def _spans(ptr, rows):
    """Positions in a CSR data array of the rows ``rows``, concatenated.

    They come in order, in arrays of at most ``_CHUNK`` positions, and in at
    least one array, empty when the rows are: one array in a tuple when it
    holds them all, else a generator.  A position is its running index j
    plus the shift of the row that j falls in.
    """
    starts = ptr[rows]
    lens = ptr[rows + 1]
    lens -= starts
    ends = lens.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    starts += lens
    starts -= ends
    if total <= _CHUNK:
        pos = starts.repeat(lens)
        pos += np.arange(total)
        return (pos,)
    return _chunks(starts, ends, total)


def _chunks(shifts, ends, total):
    """The positions of ``_spans``, ``_CHUNK`` at a time."""
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        # the rows that [lo, hi) meets: the first ends past lo, the last at or past hi
        a, b = ends.searchsorted(lo, side="right"), ends.searchsorted(hi) + 1
        cut = np.minimum(ends[a:b], hi)
        cut[1:] -= ends[a:b - 1]
        cut[0] -= lo
        pos = np.repeat(shifts[a:b], cut)
        pos += np.arange(lo, hi)
        yield pos


def _tally(ptr, rows, data, length) -> np.ndarray:
    """Per value 0..length-1, how often it occurs in ``data`` over the rows ``rows``."""
    chunks = iter(_spans(ptr, rows))
    counts = np.bincount(data[next(chunks)], minlength=length)
    for pos in chunks:
        np.add.at(counts, data[pos], 1)
    return counts


def _distinct(keys) -> np.ndarray:
    """The distinct values of an int array, ascending (``np.unique`` hashes and is slower)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _floor_to(keys, width) -> np.ndarray:
    """keys // width * width, as one new array.

    ``keys - _floor_to(keys, width)`` is ``keys % width``; numpy's integer
    ``%`` is several times slower than ``//``.
    """
    out = keys // width
    out *= width
    return out


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


def _outside(v: int, node_count) -> DomainError:
    return DomainError(f"node {v} outside 0..{node_count - 1}")


def _outside_members(node_count) -> DomainError:
    return DomainError(f"RR set members must lie in 0..{int(node_count) - 1}")


def _key_dtype(bound) -> type:
    """The dtype of packed keys below ``bound``: int32 below ``INT32_KEYS``, else int64."""
    return np.int32 if bound < INT32_KEYS else np.int64


def _rows(ptr, data) -> list:
    """The rows of a CSR pair as views: row i is data[ptr[i]:ptr[i+1]]."""
    return np.split(data, ptr[1:-1]) if len(ptr) > 1 else []


class RRCollection:
    """A frozen batch of RR sets of one weight kind, stored as one CSR pair.

    Set i holds ``members[set_ptr[i]:set_ptr[i+1]]``, root first; the sets
    containing node v are ``set_ids[node_ptr[v]:node_ptr[v+1]]``, ascending.
    ``sets`` and ``index`` show the two sides as lists of read-only views.
    ``total_weight`` is the Upsilon of the kind the collection was sampled
    under.
    """

    def __init__(self, kind: str, node_count: int, total_weight: float, seed: int, sets):
        try:
            rows = [np.asarray(s, dtype=np.int64) for s in sets]
        except OverflowError:  # a member past int64 is out of range too
            raise _outside_members(node_count) from None
        set_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=set_ptr[1:])
        members = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int32)
        self._store(kind, node_count, total_weight, seed, set_ptr, members)

    @classmethod
    def _from_csr(cls, kind, node_count, total_weight, seed, set_ptr, members) -> "RRCollection":
        """A collection over the flat arrays of its sets, taken over without a copy."""
        coll = cls.__new__(cls)
        coll._store(kind, node_count, total_weight, seed, set_ptr, members)
        return coll

    def _store(self, kind, node_count, total_weight, seed, set_ptr, members):
        if kind not in KINDS:
            raise DomainError(f"unknown RR kind {kind!r}; expected one of {KINDS}")
        self.kind, self.node_count = kind, int(node_count)
        self.total_weight, self.seed = total_weight, seed
        self.theta = len(set_ptr) - 1
        empty = np.flatnonzero(set_ptr[1:] == set_ptr[:-1])
        if empty.size:
            raise DomainError(f"RR set {int(empty[0])} is empty")
        if members.size and not (0 <= members.min() and members.max() < self.node_count):
            raise _outside_members(self.node_count)
        members = members.astype(np.int32, copy=False)
        self.set_ptr, self.members = set_ptr, members
        self.node_ptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(members, minlength=self.node_count), out=self.node_ptr[1:])
        # sorted (member, set) keys list each node's set ids ascending
        width = max(self.theta, 1)
        dtype = _key_dtype(self.node_count * width)
        keys = np.repeat(np.arange(self.theta, dtype=dtype), np.diff(set_ptr))
        keys += members * dtype(width)
        keys.sort()
        twice = np.flatnonzero(keys[1:] == keys[:-1])
        if twice.size:
            raise DomainError(f"RR set {int(keys[twice[0]]) % width} repeats a node")
        keys -= _floor_to(keys, width)
        self.set_ids = keys.astype(np.int32, copy=False)
        for arr in (self.set_ptr, self.members, self.node_ptr, self.set_ids):
            arr.setflags(write=False)

    @property
    def sets(self) -> list:
        return _rows(self.set_ptr, self.members)

    @property
    def index(self) -> list:
        return _rows(self.node_ptr, self.set_ids)

    def roots(self) -> np.ndarray:
        return self.members[self.set_ptr[:-1]].astype(np.int64)

    # -- coverage counts; node ids are int64 arrays the caller has checked --

    def covered(self, seeds) -> np.ndarray:
        """Mask over the sets: which ones the seed set intersects."""
        mask = np.zeros(self.theta, dtype=bool)
        for pos in _spans(self.node_ptr, seeds):
            mask[self.set_ids[pos]] = True
        return mask

    def _per_set(self, ufunc, values, out) -> np.ndarray:
        """out[s] = ufunc of out[s] and of ``values`` at the members of set s.

        The members are read ``_CHUNK`` at a time; the part of a set that a
        chunk holds starts at the set's offset, or at the chunk's first
        position for the set it cuts, and the parts fold into ``out``.
        """
        ptr = self.set_ptr
        total = len(self.members)
        for lo in range(0, total, _CHUNK):
            hi = min(lo + _CHUNK, total)
            a, b = ptr.searchsorted(lo, side="right") - 1, ptr.searchsorted(hi)
            starts = ptr[a:b] - lo
            starts[0] = 0
            ufunc(out[a:b], ufunc.reduceat(values[self.members[lo:hi]], starts), out=out[a:b])
        return out

    def cover_counts(self, seed_sets) -> np.ndarray:
        """Per seed set, how many sets it intersects; 64 seed sets per pass.

        Bit b of a node's word marks the b-th seed set of a pass, the OR of
        each set's member words marks the seed sets covering it, and the
        column sums of those bits are the counts, with the bits of
        ``_CHUNK // 8`` sets unpacked at a time.
        """
        counts = np.zeros(len(seed_sets), dtype=np.int64)
        step = max(_CHUNK // 8, 1)
        for lo in range(0, len(seed_sets), 64):
            part = seed_sets[lo:lo + 64]
            word = np.zeros(self.node_count, dtype=np.uint64)
            for b, seeds in enumerate(part):
                word[seeds] |= np.uint64(1 << b)
            cover = self._per_set(np.bitwise_or, word, np.zeros(self.theta, dtype=np.uint64))
            for s in range(0, self.theta, step):
                bits = np.unpackbits(cover[s:s + step].astype("<u8", copy=False).view(np.uint8),
                                     bitorder="little")
                counts[lo:lo + len(part)] += bits.reshape(-1, 64).sum(
                    axis=0, dtype=np.int64)[:len(part)]
        return counts

    def hits(self, nodes) -> np.ndarray:
        """Per set, how many of the (distinct) ``nodes`` it holds."""
        return _tally(self.node_ptr, nodes, self.set_ids, self.theta)

    def members_of(self, sets) -> np.ndarray:
        """Per node, how many of the (distinct) ``sets`` hold it."""
        return _tally(self.set_ptr, sets, self.members, self.node_count)

    def chain_counts(self, order) -> np.ndarray:
        """Per position i, how many sets order[i] reaches first along the prefix chain."""
        rank = _key_dtype(len(order) + 1)
        first = np.full(self.node_count, len(order), dtype=rank)
        first[order[::-1]] = np.arange(len(order) - 1, -1, -1, dtype=rank)
        reached = self._per_set(np.minimum, first, np.full(self.theta, len(order), dtype=rank))
        return np.bincount(reached, minlength=len(order) + 1)[:len(order)]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "node_count": self.node_count,
            "total_weight": self.total_weight,
            "seed": self.seed,
            "theta": self.theta,
            "sets": [s.tolist() for s in self.sets],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RRCollection":
        args = {key: d[key] for key in ("kind", "node_count", "total_weight", "seed", "sets")}
        _check_fields(d, ("node_count", "seed", "theta"))
        _check_fields(d, ("total_weight",), "a number")
        _check_fields(d, ("sets",), "a list")
        _check_rows(args["sets"], "RR set", "a list of node ids")
        if not math.isfinite(d["total_weight"]):
            raise ValueError(f"total_weight {d['total_weight']!r} is not finite")
        _check_values(itertools.chain.from_iterable(args["sets"]), "RR set member")
        c = cls(**args)
        if c.theta != d["theta"]:
            raise DomainError("collection theta does not match its sets")
        return c


def _reach(starts, rng, csr):
    """Grow one reached set per row of ``starts``; return (sizes, members).

    Row i of ``starts`` lists set i's distinct start nodes and ``csr`` is a
    graph's ``(ptr, neighbour, prob)`` arrays: reverse for RR sets, forward
    for cascades.  Sets grow together in batches of ``VISITED_BUDGET // n``,
    one numpy pass per level: one coin per edge of each new member, the live
    ones kept as ``set * n + node`` keys, minus those in the batch's visited
    bitmap, sorted and deduplicated.  One sort of ``set * span + level * n +
    node`` per batch, keys built in place at the width ``_key_dtype`` picks,
    then lists each set's start nodes, then its members level by level,
    ascending within a level.  ``members`` holds the sets one after another
    and ``sizes`` counts each set's members.  When a batch takes the members
    past ``MEMBER_BUDGET``, ``CapacityError``; batches depend on the inputs
    alone, so a call that fails always fails at the same batch.

    A level draws its coins in one call, in edge order, and compares them
    with ``top``, each member's largest edge probability; only the coins
    under it have their edge located, and, when some row mixes
    probabilities (``mixed``), tested against their own edge's.  As
    ``prob <= top``, an edge is live exactly when its coin is below its
    probability, and the draws are those of one test per edge.
    """
    ptr, nbr, prob = csr
    n = len(ptr) - 1
    degrees = np.diff(ptr)
    # reduceat over the nonempty rows only: on an empty row it returns the
    # first element of the next row
    rows = np.flatnonzero(degrees)
    top = np.zeros(n)
    top[rows] = np.maximum.reduceat(prob, ptr[rows])
    mixed = bool(np.any(prob < np.repeat(top, degrees)))
    batch = max(1, VISITED_BUDGET // max(n, 1))
    visited = np.zeros(min(batch, len(starts)) * n, dtype=bool)
    sizes, members = [], []
    count = 0
    for lo in range(0, len(starts), batch):
        part = starts[lo:lo + batch]
        frontier = (np.arange(len(part), dtype=np.int64)[:, None] * n + part).ravel()
        visited[frontier] = True
        levels = [frontier]
        while frontier.size:
            base = _floor_to(frontier, n)
            nodes = frontier - base
            degree = degrees[nodes]
            ends = np.cumsum(degree)
            coins = rng.random(ends[-1])
            cand = np.flatnonzero(coins < np.repeat(top[nodes], degree))
            # the coin at i belongs to the member whose edges span i
            owner = np.searchsorted(ends, cand, side="right")
            pos = cand + (ptr[1:][nodes] - ends)[owner]
            if mixed:
                keep = coins[cand] < prob[pos]
                owner, pos = owner[keep], pos[keep]
            keys = base[owner] + nbr[pos]
            frontier = _distinct(keys[~visited[keys]])
            visited[frontier] = True
            levels.append(frontier)
        lens = [len(f) for f in levels]
        keys = np.concatenate(levels)
        del levels
        visited[keys] = False
        span = n * len(lens)
        # set * span + level * n + node, summed in place from the set * n + node keys
        dtype = _key_dtype(len(part) * span)
        grouped = np.repeat(np.arange(len(lens), dtype=dtype) * dtype(n), lens)
        grouped += keys
        keys //= n
        sizes.append(np.bincount(keys, minlength=len(part)))
        keys *= span - n
        grouped += keys
        del keys
        grouped.sort()
        grouped -= _floor_to(grouped, n)
        members.append(grouped.astype(np.int32, copy=False))
        count += len(grouped)
        if count > MEMBER_BUDGET:
            done = lo + len(part)
            raise CapacityError(f"{done} of {len(starts)} reached sets hold {count} members "
                                f"(mean size {count / done:.1f}), past the member budget "
                                f"of {MEMBER_BUDGET}")
    return np.concatenate(sizes), np.concatenate(members)


def generate(g: WeightedGraph, kind: str, theta: int, seed: int) -> RRCollection:
    """Sample theta RR sets of the given weight kind.

    Each set draws its root proportionally to the node weights of the kind,
    then walks the graph backwards, flipping each incoming edge of each
    member once and keeping every node whose live path reaches the root.
    One generator draws all roots up front, then the coins of ``_reach``, the
    frontier kernel that also runs forward cascades, over the reverse CSR;
    its members become the collection's flat member array as they are.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown RR kind {kind!r}; expected one of {KINDS}")
    theta = int(theta)
    if theta < 1:
        raise DomainError("theta must be at least 1")
    weights = g.benefit if kind == "benefit" else g.cost
    total = float(weights.sum())
    if total <= 0:
        raise DomainError(f"no sampleable roots: total {kind} weight is zero")
    n = g.node_count
    seed = int(seed)
    rng = make_rng(derive_seed(seed, "rr", kind))
    # choice searches the CDF of p with side="right", so zero-weight nodes never root
    roots = rng.choice(n, size=theta, p=weights / total)
    try:
        sizes, members = _reach(roots[:, None], rng, g.reverse_csr())
    except CapacityError as exc:
        raise CapacityError(f"{kind} RR sets: {exc}") from None
    set_ptr = np.zeros(theta + 1, dtype=np.int64)
    np.cumsum(sizes, out=set_ptr[1:])
    return RRCollection._from_csr(kind, n, total, seed, set_ptr, members)


def chernoff_a(delta: float) -> float:
    """The concentration constant a = 4(e-2) ln(2/delta)."""
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0,1), got {delta}")
    return 4.0 * (math.e - 2.0) * math.log(2.0 / delta)


def confidence_bounds(lambda_: float, theta: int, upsilon: float, delta: float):
    """Two-sided bounds on the true weighted spread behind a coverage count.

    With a = 4(e-2) ln(2/delta),

        lower = (sqrt(Lambda + a/4) - sqrt(a)/2)^2 * Upsilon / theta
        upper = (sqrt(Lambda + a/4) + sqrt(a)/2)^2 * Upsilon / theta

    and each one-sided bound holds with probability at least 1 - delta/2,
    provided the sets were generated independently of the queried seed set.
    """
    if not (0 <= lambda_ <= theta):
        raise DomainError(f"coverage count {lambda_} outside [0, theta={theta}]")
    if upsilon < 0:
        raise DomainError("upsilon must be nonnegative")
    a = chernoff_a(delta)
    scale = upsilon / theta
    root = math.sqrt(lambda_ + 0.25 * a)
    half = 0.5 * math.sqrt(a)
    lower = (root - half) ** 2 * scale
    upper = (root + half) ** 2 * scale
    return lower, upper


def sampling_error_limit(upsilon: float, value: float, theta: int, delta: float) -> float:
    """Additive error limit sqrt(a * Upsilon * value / theta) at confidence 1 - delta.

    Evaluating this at the exact benefit and cost shows why weight
    normalization helps: both Upsilon and the metric value shrink, so the
    limit never grows.
    """
    if upsilon < 0 or value < 0:
        raise DomainError("upsilon and value must be nonnegative")
    if theta < 1:
        raise DomainError("theta must be at least 1")
    return math.sqrt(chernoff_a(delta) * upsilon * value / theta)


def theta_for_relative_error(upsilon: float, value: float, rel_err: float,
                             delta: float) -> int:
    """Samples needed so the error limit is at most rel_err * value.

    Inverts the error-limit formula; ``value`` is the smallest metric value
    the estimate must resolve.
    """
    if rel_err <= 0:
        raise DomainError("rel_err must be positive")
    if value <= 0 or upsilon <= 0:
        raise DomainError("upsilon and value must be positive")
    return int(math.ceil(chernoff_a(delta) * upsilon / (rel_err ** 2 * value)))


class RRCoverage:
    """Coverage of one RR collection by a seed set S that nodes enter and leave.

    ``hits[s]`` counts the nodes of S that set s holds; an update moves it by
    the index rows of the nodes that enter or leave.  ``zero[v]`` counts the
    sets of v that hold none, so ``gains`` (rho times it) is f(v | S), zero
    on S, and ``one[v]``, for v in S, the sets whose one node of S is v, so
    ``inside`` is f(v | S - v).  Each is counted from ``hits`` when first
    read (``zero`` from the covered sets or the bare ones, whichever are
    fewer), then moved by the members of the sets whose hits reach or leave
    zero or one.
    """

    def __init__(self, coll: RRCollection, rho: float, seeds):
        self.coll, self.rho = coll, rho
        seeds = _distinct(seeds)
        self.on = np.zeros(coll.node_count, dtype=bool)
        self.on[seeds] = True
        self.hits = coll.hits(seeds)
        self.count = int(np.count_nonzero(self.hits))
        self.zero = self.one = None

    @property
    def gains(self) -> np.ndarray:
        return self.rho * self._zero()

    @property
    def value(self) -> float:
        return self.rho * float(self.count)

    def inside(self, nodes) -> np.ndarray:
        """f(v | S - v) for each of ``nodes``: f(v | S) for those off S."""
        nodes = _node_array(nodes, self.coll.node_count)
        if self.one is None:
            self.one = self.coll.members_of(np.flatnonzero(self.hits == 1))
        counts = self.one[nodes]
        off = ~self.on[nodes]
        if off.any():
            counts[off] = self._zero()[nodes[off]]
        return self.rho * counts

    def _zero(self) -> np.ndarray:
        if self.zero is None:
            coll, covered = self.coll, self.hits > 0
            if 2 * self.count <= coll.theta:
                self.zero = np.diff(coll.node_ptr) - coll.members_of(np.flatnonzero(covered))
            else:
                self.zero = coll.members_of(np.flatnonzero(~covered))
        return self.zero

    def add(self, nodes) -> None:
        """Put one node, or each of several, into S; nodes in S already stay."""
        self._move(nodes, True)

    def remove(self, nodes) -> None:
        """Take one node, or each of several, out of S; nodes off S stay off."""
        self._move(nodes, False)

    def _move(self, nodes, enter: bool) -> None:
        coll = self.coll
        if np.isscalar(nodes):  # one node's sets are distinct already
            nodes = int(nodes)
            if not 0 <= nodes < coll.node_count:
                raise _outside(nodes, coll.node_count)
            if self.on.item(nodes) is enter:
                return
            sets = coll.set_ids[coll.node_ptr[nodes]:coll.node_ptr[nodes + 1]]
            step = 1
        else:
            nodes = _distinct(_node_array(nodes, coll.node_count))
            nodes = nodes[self.on[nodes] != enter]
            if not len(nodes):
                return
            step = coll.hits(nodes)
            sets = np.flatnonzero(step > 0)
            step = step[sets]
        self.on[nodes] = enter
        old = self.hits.take(sets)
        new = old + step if enter else old - step
        self.hits.put(sets, new)
        # the sets S newly covers (old 0) or leaves bare (new 0)
        flipped = sets[(old if enter else new) == 0]
        self.count += len(flipped) if enter else -len(flipped)
        if self.zero is not None:
            moved = coll.members_of(flipped)
            self.zero -= moved if enter else -moved
        if self.one is not None:
            if enter:  # a set leaving one hit drops its old node; the new ones start over
                self.one -= coll.members_of(sets[old == 1])
                self.one[nodes] = 0
            self.one += coll.members_of(sets[new == 1])


class ProfitEstimator(MarginalEvaluator):
    """Benefit and cost estimates from two frozen RR collections.

    A weight kind whose total is zero needs no samples; its collection slot
    is None and every estimate on that side is exactly zero.  Every query is
    a few vectorised passes over the collections' CSR arrays.
    """

    def __init__(self, benefit_rr, cost_rr, graph: WeightedGraph):
        totals = graph.totals()
        self._validate_side(benefit_rr, "benefit", totals.upsilon_b, graph)
        self._validate_side(cost_rr, "cost", totals.upsilon_c, graph)
        self.benefit_rr = benefit_rr
        self.cost_rr = cost_rr
        self.graph = graph
        self.node_count = graph.node_count
        # a side without samples is queried as an empty collection
        self._colls = {kind: coll or RRCollection(kind, self.node_count, 0.0, 0, [])
                       for kind, coll in zip(KINDS, (benefit_rr, cost_rr))}

    @staticmethod
    def _validate_side(coll, kind, upsilon, graph):
        if coll is None:
            if upsilon != 0:
                raise DomainError(f"{kind} collection missing but total weight is {upsilon}")
            return
        if coll.kind != kind:
            raise DomainError(f"collection of kind {coll.kind!r} passed as {kind}")
        if coll.node_count != graph.node_count:
            raise DomainError("collection node count does not match the graph")
        if not math.isclose(coll.total_weight, upsilon, rel_tol=1e-12, abs_tol=1e-12):
            raise DomainError(f"collection {kind} total weight {coll.total_weight} "
                              f"does not match the graph's {upsilon}")

    @classmethod
    def build(cls, g: WeightedGraph, theta_beta: int, theta_gamma: int,
              seed: int) -> "ProfitEstimator":
        """Generate both collections from one master seed."""
        totals = g.totals()
        benefit_rr = (generate(g, "benefit", theta_beta, derive_seed(seed, "benefit"))
                      if totals.upsilon_b > 0 else None)
        cost_rr = (generate(g, "cost", theta_gamma, derive_seed(seed, "cost"))
                   if totals.upsilon_c > 0 else None)
        return cls(benefit_rr, cost_rr, g)

    def rho(self, metric) -> float:
        """Scale factor Upsilon / theta converting counts to weight units."""
        coll = self._colls[metric]
        return coll.total_weight / coll.theta if coll.theta else 0.0

    def _scaled(self, metric, counts):
        """rho * counts(collection) for one metric; benefit minus cost for profit."""
        self._check_metric(metric)
        if metric == "profit":
            return self._scaled("benefit", counts) - self._scaled("cost", counts)
        return self.rho(metric) * counts(self._colls[metric])

    # -- MarginalEvaluator interface --------------------------------------

    def value(self, seeds, metric: str) -> float:
        seeds = _node_array(seeds, self.node_count)
        return self._scaled(metric, lambda c: int(np.count_nonzero(c.covered(seeds))))

    def value_many(self, seed_sets, metric: str) -> np.ndarray:
        seed_sets = [_node_array(s, self.node_count) for s in seed_sets]
        return self._scaled(metric, lambda c: c.cover_counts(seed_sets))

    def marginal(self, v, base, metric: str) -> float:
        v = int(v)
        if v in base:
            raise DomainError(f"node {v} already in the base set")
        return float(self.marginal_many([v], base, metric)[0])

    def marginal_many(self, nodes, base, metric: str) -> np.ndarray:
        nodes, base = _node_array(nodes, self.node_count), _node_array(base, self.node_count)
        return self._scaled(metric, lambda c: RRCoverage(c, 1.0, base).gains[nodes])

    def marginal_vs_rest(self, nodes, whole, metric: str) -> np.ndarray:
        nodes, whole = _node_array(nodes, self.node_count), _node_array(whole, self.node_count)
        return self._scaled(metric, lambda c: RRCoverage(c, 1.0, whole).inside(nodes))

    def chain_increments(self, order, metric: str) -> np.ndarray:
        order = _node_array(order, self.node_count)
        return self._scaled(metric, lambda c: c.chain_counts(order))

    def coverage_state(self, metric: str, seeds=()) -> RRCoverage:
        self._check_kind(metric)
        return RRCoverage(self._colls[metric], self.rho(metric),
                          _node_array(seeds, self.node_count))

    def coverage_counts(self, seeds):
        """(Lambda_beta, Lambda_gamma): how many sets of each side the seed set covers."""
        seeds = _node_array(seeds, self.node_count)
        return tuple(int(np.count_nonzero(self._colls[kind].covered(seeds))) for kind in KINDS)


def save_collection(coll: RRCollection, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coll.to_json_dict(), fh)


def load_collection(path) -> RRCollection:
    return _read_json(path, RRCollection.from_json_dict)
