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
theta + set.  One rule (``_key_dtype``) gives each packed array the
narrowest width that holds its bound: uint16 below 2**16, int32 below
2**31 (``INT32_KEYS``), else int64.  Members take the width of n, set ids
that of theta, and the keys, filled and sorted in place in one array, that
of n * theta; their remainder, taken in place, is the set ids, kept
without a copy when both widths agree.  So with n and theta below 2**16
the store keeps 2 bytes of member and 2 of set id per member, plus the
offsets, and else up to 4 + 4; building the index peaks at 8 bytes per
member beyond the members with int32 keys, 16 with int64.  The index
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
for v in S from the sets that hold one node of S, and Lambda(S) is the
number of sets with a nonzero count (``ProfitEstimator.value`` counts them
in one ``hits`` pass).  Pruning, greedy and the modular bounds take every
marginal and f(X) from these states; the batched ``marginal_many`` and
``marginal_vs_rest`` build one per query.  Many seed sets are counted at
once, bit-parallel: each node gets a 64-bit word whose bit b marks the
b-th seed set, and OR-ing the words of each set's members shows
which of the 64 seed sets cover it (``RRCollection.cover_counts``).

Sampling is batch-frontier: the sets of a batch grow together, one BFS level
per numpy pass (see ``generate``), all from one generator derived from
(seed, kind).  Every edge of every new member gets one coin, but a coin is
first compared with the largest edge probability of its member, and only
the coins under that ceiling have their edge located (and, when some node's
edges differ in probability, tested against the edge's own), so the coins,
and every set, are those of one test per edge.  A level's live (set, node)
keys are sorted in place, and one mask then drops both the keys a set has
already reached (a bitmap over the batch's sets and the nodes) and the
repeats of a key, leaving the next frontier ascending and distinct.  A
batch ends with one sort of all its (set, node) keys, so a sampled set lists
its members ascending: estimates count which sets a seed set meets, not where.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from .errors import CapacityError, DomainError
from .evaluation import KINDS, MarginalEvaluator, _node_array, _outside
from .graph import WeightedGraph
from .rng import derive_seed, make_rng

# bytes of the (set, node) visited bitmap that one batch of sets may use
VISITED_BUDGET = 1 << 20
# members one call of ``_reach`` may sample: a store of at most 8 bytes per
# member, about 1.1 GB, whose index build peaks at 1.6 GB (int32 keys) or 2.7 GB
MEMBER_BUDGET = 1 << 27
# a packed array is uint16 when its bound lies below 2**16, int32 when it
# lies below this, else int64 (``_key_dtype``)
INT32_KEYS = 1 << 31
# positions of the member or index arrays one step of a coverage pass gathers
_CHUNK = 1 << 15


def _chunks(shifts, ends, total):
    """The positions of ``_tally``'s rows, ``_CHUNK`` at a time."""
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
    """Per value 0..length-1, how often it occurs in ``data`` over the rows ``rows``
    (a row asked for twice counts twice), reading at most ``_CHUNK`` positions
    at a time.  A position is its running index j plus the shift of its row."""
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
        return np.bincount(data[pos], minlength=length)
    chunks = _chunks(starts, ends, total)
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


def _is_count(x) -> bool:
    """Whether x is an integer, numpy's included, and not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def _check_count(x, name) -> int:
    """x as an int when it is an integer count of at least 1, else DomainError."""
    if not _is_count(x):
        raise DomainError(f"{name} must be an integer count, got {x!r}")
    if x < 1:
        raise DomainError(f"{name} must be at least 1, got {x}")
    return int(x)


def _outside_members(node_count) -> DomainError:
    return DomainError(f"RR set members must lie in 0..{int(node_count) - 1}")


def _key_dtype(bound) -> type:
    """The dtype of packed values below ``bound``: uint16 below 2**16, int32
    below ``INT32_KEYS``, else int64.

    The bound is strict, so a value plus one still fits.  Arithmetic on such
    an array names its result dtype, as numpy 1.x keeps ``uint16 * int32(w)``
    at uint16 when w fits in 16 bits.
    """
    if bound < 1 << 16:
        return np.uint16
    return np.int32 if bound < INT32_KEYS else np.int64


def _rows(ptr, data) -> list:
    """The rows of a CSR pair as views: row i is data[ptr[i]:ptr[i+1]]."""
    return np.split(data, ptr[1:-1]) if len(ptr) > 1 else []


class RRCollection:
    """A frozen batch of RR sets of one weight kind, stored as one CSR pair.

    Set i holds ``members[set_ptr[i]:set_ptr[i+1]]``, ascending when sampled
    and in the given order when built from lists; the sets containing node v
    are ``set_ids[node_ptr[v]:node_ptr[v+1]]``, ascending.  The offsets are
    int64; ``members`` has the width ``_key_dtype`` gives n, ``set_ids`` the
    one it gives theta (uint16 below 2**16), and all four arrays are
    read-only.
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
        members = members.astype(_key_dtype(self.node_count), copy=False)
        self.set_ptr, self.members = set_ptr, members
        self.node_ptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(members, minlength=self.node_count), out=self.node_ptr[1:])
        # sorted (member, set) keys list each node's set ids ascending
        width = max(self.theta, 1)
        dtype = _key_dtype(self.node_count * width)
        keys = members.astype(dtype)
        keys *= width
        keys += np.repeat(np.arange(self.theta, dtype=dtype), np.diff(set_ptr))
        keys.sort()
        twice = np.flatnonzero(keys[1:] == keys[:-1])
        if twice.size:
            raise DomainError(f"RR set {int(keys[twice[0]]) % width} repeats a node")
        keys -= _floor_to(keys, width)
        self.set_ids = keys.astype(_key_dtype(self.theta), copy=False)
        for arr in (self.set_ptr, self.members, self.node_ptr, self.set_ids):
            arr.setflags(write=False)

    @property
    def sets(self) -> list:
        return _rows(self.set_ptr, self.members)

    @property
    def index(self) -> list:
        return _rows(self.node_ptr, self.set_ids)

    # -- coverage counts; node ids are int64 arrays the caller has checked --

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
            ufunc(out[a:b], ufunc.reduceat(values.take(self.members[lo:hi]), starts), out=out[a:b])
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
        """Per set, how many of ``nodes`` it holds; a node listed twice counts twice."""
        return _tally(self.node_ptr, nodes, self.set_ids, self.theta)

    def members_of(self, sets) -> np.ndarray:
        """Per node, how many of the (distinct) ``sets`` hold it."""
        return _tally(self.set_ptr, sets, self.members, self.node_count)

    def chain_counts(self, order) -> np.ndarray:
        """Per position i, how many sets order[i] reaches first along the prefix chain."""
        rank = _key_dtype(len(order) + 1)
        first = np.full(self.node_count, len(order), dtype=rank)
        first[order[::-1]] = np.arange(len(order), dtype=rank)[::-1]
        reached = self._per_set(np.minimum, first, np.full(self.theta, len(order), dtype=rank))
        return np.bincount(reached, minlength=len(order) + 1)[:len(order)]


def _reach(starts, rng, csr):
    """Grow one reached set per row of ``starts``; return (sizes, members).

    Row i of ``starts`` lists set i's distinct start nodes and ``csr`` is a
    graph's ``(ptr, neighbour, prob)`` arrays: reverse for RR sets, forward
    for cascades.  Sets grow together in batches of ``VISITED_BUDGET // n``,
    one numpy pass per level: one coin per edge of each new member, the live
    ones kept as ``set * n + node`` keys and sorted in place, then one mask
    keeps the keys that the batch's bitmap ``fresh`` marks as not yet
    reached and that differ from the key before them, so the next frontier
    is the new keys, ascending and distinct.  One in-place sort of the
    batch's keys, as int32, then lists each set's members ascending.
    ``members`` holds the sets one after another, at the width
    ``_key_dtype`` gives n, and ``sizes`` counts each set's members.  When
    a batch takes the members past ``MEMBER_BUDGET``, ``CapacityError``;
    batches depend on the inputs alone, so a call that fails always fails
    at the same batch.

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
    row_ends = ptr[1:]
    # reduceat over the nonempty rows only: on an empty row it returns the
    # first element of the next row
    rows = degrees.nonzero()[0]
    top = np.zeros(n)
    top[rows] = np.maximum.reduceat(prob, ptr[rows])
    mixed = bool((prob < top.repeat(degrees)).any())
    batch = max(1, VISITED_BUDGET // max(n, 1))
    # the batch's (set, node) bitmap, True where not yet reached
    fresh = np.ones(min(batch, len(starts)) * n, dtype=bool)
    sizes, members = [], []
    count = 0
    for lo in range(0, len(starts), batch):
        part = starts[lo:lo + batch]
        frontier = (np.arange(len(part), dtype=np.int64)[:, None] * n + part).ravel()
        fresh[frontier] = False
        levels = [frontier]
        while frontier.size:
            base = _floor_to(frontier, n)
            nodes = frontier - base
            degree = degrees[nodes]
            ends = degree.cumsum()
            coins = rng.random(ends[-1])
            cand = (coins < top[nodes].repeat(degree)).nonzero()[0]
            # the coin at i belongs to the member whose edges span i
            owner = ends.searchsorted(cand, side="right")
            pos = (row_ends[nodes] - ends)[owner]
            pos += cand
            if mixed:
                live = coins[cand] < prob[pos]
                owner, pos = owner[live], pos[live]
            keys = base[owner]
            keys += nbr[pos]
            # one sort, then one mask drops both reached and repeated keys
            keys.sort()
            keep = fresh[keys]
            keep[1:] &= keys[1:] != keys[:-1]
            frontier = keys[keep]
            fresh[frontier] = False
            levels.append(frontier)
        # set * n + node < len(part) * n <= max(VISITED_BUDGET, n): int32 keys
        keys = np.concatenate(levels, dtype=np.int32)
        del levels
        fresh[keys] = True
        keys.sort()
        sizes.append(np.bincount(keys // n, minlength=len(part)))
        keys -= _floor_to(keys, n)
        members.append(keys.astype(_key_dtype(n), copy=False))
        del keys
        count += len(members[-1])
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
    theta = _check_count(theta, "theta")
    if theta >= 1 << 31:  # set ids are at most int32, and every set holds its root
        raise CapacityError(f"{kind} RR sets: theta {theta} is past the 2**31 - 1 set ids")
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
    if theta < 1:
        raise DomainError("theta must be at least 1")
    if not (0 <= lambda_ <= theta):
        raise DomainError(f"coverage count {lambda_} outside [0, theta={theta}]")
    if not 0 <= upsilon < math.inf:
        raise DomainError(f"upsilon must be finite and nonnegative, got {upsilon}")
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
    if not (0 <= upsilon < math.inf and 0 <= value < math.inf):
        raise DomainError(f"upsilon and value must be finite and nonnegative, "
                          f"got {upsilon} and {value}")
    if theta < 1:
        raise DomainError("theta must be at least 1")
    return math.sqrt(chernoff_a(delta) * upsilon * value / theta)


def theta_for_relative_error(upsilon: float, value: float, rel_err: float,
                             delta: float) -> int:
    """Samples needed so the error limit is at most rel_err * value.

    Inverts the error-limit formula; ``value`` is the smallest metric value
    the estimate must resolve.
    """
    if not 0 < rel_err < math.inf:
        raise DomainError(f"rel_err must be finite and positive, got {rel_err}")
    if not (0 < upsilon < math.inf and 0 < value < math.inf):
        raise DomainError(f"upsilon and value must be finite and positive, "
                          f"got {upsilon} and {value}")
    # float products overflow to inf and underflow to 0 rather than raise
    scale = rel_err * rel_err * value
    count = chernoff_a(delta) * upsilon / scale if scale > 0 else math.inf
    if not math.isfinite(count):
        raise DomainError("the sample count is past the float range")
    return max(1, int(math.ceil(count)))


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
    is None or an empty collection, and every estimate on that side is
    exactly zero; a side with weight needs a set.  ``thetas`` holds each
    side's set count; ``build`` records the count asked for, and otherwise a
    side without sets has None.  It overrides only ``value``, ``value_many``
    and ``chain_increments``, as count passes over the CSR arrays.
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
        self.thetas = tuple(self._colls[kind].theta or None for kind in KINDS)

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
        if not coll.theta and upsilon != 0:
            raise DomainError(f"{kind} collection holds no sets but total weight is {upsilon}")

    @classmethod
    def build(cls, g: WeightedGraph, theta_beta: int, theta_gamma: int,
              seed: int) -> "ProfitEstimator":
        """Generate both collections from one master seed; a side without
        weight draws none but keeps its theta, which a certificate needs."""
        totals = g.totals()
        thetas = _check_count(theta_beta, "theta"), _check_count(theta_gamma, "theta")
        benefit_rr = (generate(g, "benefit", thetas[0], derive_seed(seed, "benefit"))
                      if totals.upsilon_b > 0 else None)
        cost_rr = (generate(g, "cost", thetas[1], derive_seed(seed, "cost"))
                   if totals.upsilon_c > 0 else None)
        est = cls(benefit_rr, cost_rr, g)
        est.thetas = thetas
        return est

    def rho(self, metric) -> float:
        """Scale factor Upsilon / theta converting counts to weight units."""
        if metric not in KINDS:
            raise DomainError(f"rho is per side, not of {metric!r}; expected one of {KINDS}")
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
        return self._scaled(metric, lambda c: int(np.count_nonzero(c.hits(seeds))))

    def value_many(self, seed_sets, metric: str) -> np.ndarray:
        seed_sets = [_node_array(s, self.node_count) for s in seed_sets]
        return self._scaled(metric, lambda c: c.cover_counts(seed_sets))

    # the base class's functions, bound here: bench/spans.py wraps them through
    # ProfitEstimator.__dict__ (pinned in tests/test_public_api.py) until ROADMAP item 7
    marginal = MarginalEvaluator.marginal
    marginal_many = MarginalEvaluator.marginal_many
    marginal_vs_rest = MarginalEvaluator.marginal_vs_rest

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
        return tuple(int(np.count_nonzero(self._colls[kind].hits(seeds))) for kind in KINDS)
