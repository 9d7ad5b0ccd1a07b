"""A fixed computation that gauges how fast the machine runs at the moment.

On a shared machine the same pipeline run can take 1.0 s one minute and
1.6 s a few minutes later.  Timing this computation right before and right
after every operation and scaling the operation's times by it cancels that
drift: times are reported as seconds at the speed where this computation
takes ``NOMINAL_S``.  The computation does what the pipeline does most: a
Python breadth-first search over randomly live edges, and many small numpy
arrays built and indexed.  It never changes with the library under test.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.05
NODES = 2000
DEGREE = 5
LIVE = 0.2  # chance that an edge is live


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._adj = rng.integers(0, NODES, size=(NODES, DEGREE)).tolist()
        self._coins = rng.random(1 << 16).tolist()
        self._expected = self._run()

    def _run(self) -> int:
        coins, live, mask = self._coins, LIVE, len(self._coins) - 1
        flip = 0
        sets = []
        for root in range(len(self._adj)):
            seen, queue, head = {root}, [root], 0
            while head < len(queue):
                for u in self._adj[queue[head]]:
                    if u not in seen and coins[flip & mask] < live:
                        seen.add(u)
                        queue.append(u)
                    flip += 1
                head += 1
            sets.append(np.array(queue, dtype=np.int32))
        covered = np.zeros(len(sets), dtype=bool)
        total = 0
        for v in range(0, len(sets), 4):
            idx = np.arange(v % 50, len(sets), 50)
            total += int(np.count_nonzero(~covered[idx]))
            covered[idx[:3]] = True
        return total + sum(len(s) for s in sets)

    def seconds(self) -> float:
        """Time one run of the computation."""
        start = time.perf_counter()
        result = self._run()
        elapsed = time.perf_counter() - start
        if result != self._expected:
            raise RuntimeError("reference computation gave a different result")
        return elapsed
