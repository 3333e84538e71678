"""Reproducible random number generation.

All Monte Carlo entry points take an integer seed and derive independent
Philox (counter-based) streams from it, keyed by (seed, purpose, index):
the same seed never produces correlated streams in different roles, and the
index tells apart the streams of one role (one per lattice size in
`hydro-limit`).  Results are bit-reproducible for a fixed configuration.

Independent keyed streams can be filled at the same time without changing a
draw (Salmon et al., Parallel random numbers: as easy as 1, 2, 3, SC 2011).
Inside `drawn_ahead(shape, keys)` one worker thread fills the first
standard_normal(shape) block of each keyed stream, in order, while the
caller goes on; `make_rng` of such a key hands out a generator whose first
draw is that block and whose later draws continue the stream where the
block ends.  The numbers are those of a fresh stream, bit for bit.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager

import numpy as np
import numpy.random  # noqa: F401  (lazy in numpy 2: load it on import, not on a first draw)

__all__ = ["make_rng", "drawn_ahead"]

_AHEAD = {}  # (seed, purpose, index) -> _Block, while a draw-ahead scope is open


def _derive_key(seed: int, purpose: str, index: int = 0) -> int:
    digest = hashlib.blake2b(
        f"{seed}:{purpose}:{index}".encode(), digest_size=16
    ).digest()
    return int.from_bytes(digest, "little")


def _philox(key: tuple) -> np.random.Philox:
    return np.random.Philox(key=_derive_key(*key))


def _position(bit_generator) -> tuple:
    """Where a Philox stream stands: its counter and buffer."""
    state = bit_generator.state
    return tuple(state["state"]["counter"]), state["buffer_pos"], state["has_uint32"]


class _Block:
    """The first standard_normal(shape) block of one keyed stream, filled by
    the worker thread on a generator of its own."""

    def __init__(self, key: tuple, shape: tuple):
        self.key, self.shape = key, shape
        self.done = threading.Event()
        self.generator = self.values = self.error = None

    def fill(self) -> None:
        try:
            self.generator = np.random.Generator(_philox(self.key))
            self.values = self.generator.standard_normal(self.shape)
        except BaseException as exc:  # raised in the caller, at its first draw
            self.error = exc
        finally:
            self.done.set()


class _DrawnAhead(np.random.Generator):
    """A fresh stream whose first draw, if it is standard_normal of the
    block's shape, is the drawn-ahead block; any other first draw discards
    the block."""

    def __init__(self, block: _Block):
        super().__init__(_philox(block.key))
        self._block, self._start = block, _position(self.bit_generator)

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        block, self._block = self._block, None
        if (block is not None and size is not None and out is None
                and np.dtype(dtype) == np.float64
                and ((size,) if np.ndim(size) == 0 else tuple(size)) == block.shape
                and _position(self.bit_generator) == self._start):
            block.done.wait()
            if block.error is not None:
                raise block.error
            self.bit_generator.state = block.generator.bit_generator.state
            return block.values
        return super().standard_normal(size, dtype, out)


@contextmanager
def drawn_ahead(shape: tuple, keys):
    """Scope in which one worker thread fills the first
    standard_normal(shape) block of each (seed, purpose, index) in `keys`, in
    order, for `make_rng` to hand out.  On exit it joins the thread and drops
    the blocks nobody claimed."""
    blocks = {key: _Block(key, shape) for key in keys}

    def fill_in_order():
        for block in blocks.values():
            block.fill()

    worker = threading.Thread(target=fill_in_order)
    _AHEAD.update(blocks)
    worker.start()
    try:
        yield
    finally:
        worker.join()
        for key, block in blocks.items():
            if _AHEAD.get(key) is block:
                del _AHEAD[key]


def make_rng(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Philox generator for the given (seed, purpose, index) triple; inside
    a `drawn_ahead` scope of the triple, the first block comes drawn."""
    block = _AHEAD.pop((seed, purpose, index), None)
    if block is not None:
        return _DrawnAhead(block)
    return np.random.Generator(_philox((seed, purpose, index)))
