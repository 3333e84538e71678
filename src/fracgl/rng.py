"""Reproducible random number generation.

All Monte Carlo entry points take an integer seed and derive independent
Philox (counter-based) streams from it, keyed by (seed, purpose, index):
the same seed never produces correlated streams in different roles, and the
index tells apart the streams of one role (one per lattice size in
`hydro-limit`).  Results are bit-reproducible for a fixed configuration.
Independent keyed streams can be filled at the same time without changing a
draw (Salmon et al., Parallel random numbers: as easy as 1, 2, 3, SC 2011);
`simulate.chain_noise_ahead` fills a chain's first block on a worker thread.
"""

from __future__ import annotations

import hashlib

import numpy as np
import numpy.random  # noqa: F401  (lazy in numpy 2: load it on import, not on a first draw)

__all__ = ["make_rng"]


def _derive_key(seed: int, purpose: str, index: int = 0) -> int:
    digest = hashlib.blake2b(
        f"{seed}:{purpose}:{index}".encode(), digest_size=16
    ).digest()
    return int.from_bytes(digest, "little")


def make_rng(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Philox generator for the given (seed, purpose, index) triple."""
    return np.random.Generator(np.random.Philox(key=_derive_key(seed, purpose, index)))
