"""The chain streams drawn ahead: `simulate.chain_noise_ahead` fills each
chain's first block of `make_rng(seed, "euler-ensemble", index)` on a worker
thread, and the `euler_ensemble` of that (seed, index) claims it."""

import threading
import time

import numpy as np
import pytest

from fracgl import euler_ensemble, sample_ness, simulate
from fracgl.rng import make_rng

SEED = 11


def slow_fill(monkeypatch, seconds=0.1):
    """Make the worker's fill slower, so that it still runs when the scope's
    body claims or leaves its blocks."""
    def slow_make_rng(*key):
        time.sleep(seconds)
        return make_rng(*key)

    monkeypatch.setattr(simulate, "make_rng", slow_make_rng)


def chain(profile, replicas=300, index=0):
    phi0 = sample_ness(profile, replicas, seed=3)
    return euler_ensemble(profile, phi0, 0.02, 1e-3, seed=SEED, index=index,
                          martingale_g=np.ones(profile.params.n_sites))


def test_drawn_block_and_rest_of_stream_match_a_fresh_stream(profile16, monkeypatch):
    plain = [chain(profile16, index=i) for i in (0, 1)]
    slow_fill(monkeypatch)
    shape = (300, profile16.params.n_sites)
    with simulate.chain_noise_ahead(profile16.params, 300, SEED, indices=(0, 1, 2)):
        # claimed while the fill still runs: the claim waits for its block
        ahead = [chain(profile16, index=i) for i in (0, 1)]
        last = simulate._AHEAD[(SEED, 2)]
        assert last.done.wait(timeout=30)
        filler, block = last.rng, last.z
    for a, b in zip(plain, ahead):
        for key in a:
            assert np.array_equal(a[key], b[key]), key
    # the block is the stream's first draw, and its generator stands where it ends
    fresh = make_rng(SEED, "euler-ensemble", 2)
    assert np.array_equal(block, fresh.standard_normal(shape))
    assert np.array_equal(filler.standard_normal((300, 2)), fresh.standard_normal((300, 2)))
    assert np.array_equal(filler.uniform(size=5), fresh.uniform(size=5))


def test_unclaimed_block_is_dropped_and_its_thread_joined(profile16, monkeypatch):
    plain = chain(profile16)
    slow_fill(monkeypatch)
    before = threading.active_count()
    with simulate.chain_noise_ahead(profile16.params, 300, SEED):
        assert (SEED, 0) in simulate._AHEAD
    assert not simulate._AHEAD
    assert threading.active_count() == before
    # outside the scope the chain draws its stream afresh, the same numbers
    monkeypatch.undo()
    again = chain(profile16)
    for key in plain:
        assert np.array_equal(plain[key], again[key]), key


def test_error_in_the_fill_is_raised_at_the_first_draw(profile16):
    # a negative replica count fails in the worker's standard_normal; the
    # euler_ensemble that claims the block raises it
    with simulate.chain_noise_ahead(profile16.params, -1, SEED):
        with pytest.raises(ValueError, match="negative"):
            chain(profile16)
    assert not simulate._AHEAD


def test_block_for_another_replica_count_raises(profile16):
    with simulate.chain_noise_ahead(profile16.params, 299, SEED):
        with pytest.raises(ValueError, match="drawn ahead"):
            chain(profile16)
    assert not simulate._AHEAD
