"""Seeding helpers.

Every stochastic operation in the package takes an explicit seed (an int or a
ready ``numpy.random.Generator``).  Derived streams are produced by hashing the
master seed together with string labels, so any sub-computation can be
reproduced in isolation and the derivation is independent of execution order
or worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DomainError


def derive_seed(master: int, *labels) -> int:
    """Derive a child seed from a master seed and a label path."""
    payload = repr((int(master),) + tuple(labels)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_rng(seed) -> np.random.Generator:
    """Turn an int seed into a Generator; pass Generators through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        raise DomainError("an explicit seed is required for stochastic operations")
    return np.random.default_rng(int(seed))

