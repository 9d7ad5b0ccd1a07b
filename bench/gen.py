"""Seeded random directed edge lists for the benchmark workloads.

Each node may post (have out-edges) with probability ``active_share``; the
others only receive.  Edges are drawn uniformly from posting sources to any
target, distinct and self-loop free, so which edges exist depends only on
(n, m, active_share, seed).  The file holds ``u v`` lines only: edge
probabilities are left to the loader's default policy (``wic``, one over
the target's in-degree).
"""

from __future__ import annotations

import numpy as np


def edge_keys(n: int, m: int, seed: int, active_share: float = 1.0) -> np.ndarray:
    """m distinct keys u*n + v with u != v and u a posting node, in draw order."""
    rng = np.random.default_rng(seed)
    active = np.flatnonzero(rng.random(n) < active_share)
    if not (0 < m <= len(active) * (n - 1)):
        raise ValueError(f"cannot place {m} distinct edges from {len(active)} of {n} nodes")
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        size = 2 * (m - len(keys)) + 64
        draw = active[rng.integers(0, len(active), size=size)] * n + rng.integers(0, n, size=size)
        draw = draw[draw // n != draw % n]
        pool = np.concatenate([keys, draw])
        # keep the first occurrence of each key so earlier draws stay put
        _, first = np.unique(pool, return_index=True)
        keys = pool[np.sort(first)]
    return keys[:m]


def write_edge_list(path, n: int, m: int, seed: int, active_share: float = 1.0) -> None:
    keys = edge_keys(n, m, seed, active_share)
    np.savetxt(path, np.column_stack([keys // n, keys % n]), fmt="%d %d")
