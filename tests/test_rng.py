import threading
import time

import numpy as np
import pytest

from fracgl import rng
from fracgl.rng import drawn_ahead, make_rng

KEY = (11, "euler-ensemble", 0)


def test_drawn_block_and_rest_of_stream_match_a_fresh_stream():
    with drawn_ahead((300, 7), [KEY, KEY[:2] + (1,)]):
        first = make_rng(*KEY)
        block = first.standard_normal((300, 7))
        rest = first.standard_normal((300, 2)), first.uniform(size=5)
        second = make_rng(*KEY[:2], 1).standard_normal((300, 7))
    fresh = make_rng(*KEY)
    assert isinstance(first, np.random.Generator)
    assert np.array_equal(block, fresh.standard_normal((300, 7)))
    assert np.array_equal(rest[0], fresh.standard_normal((300, 2)))
    assert np.array_equal(rest[1], fresh.uniform(size=5))
    assert np.array_equal(second, make_rng(*KEY[:2], 1).standard_normal((300, 7)))


def test_unclaimed_block_is_dropped_and_its_thread_joined(monkeypatch):
    fill = rng._Block.fill

    def slow_fill(block):  # still running when the scope's body ends
        time.sleep(0.1)
        fill(block)

    monkeypatch.setattr(rng._Block, "fill", slow_fill)
    before = threading.active_count()
    with drawn_ahead((50, 3), [KEY]):
        assert KEY in rng._AHEAD
    assert KEY not in rng._AHEAD
    assert threading.active_count() == before
    # outside the scope the key gives a plain stream again
    assert type(make_rng(*KEY)) is np.random.Generator


def test_error_in_the_fill_is_raised_at_the_first_draw():
    with drawn_ahead((-1, 3), [KEY]):
        gen = make_rng(*KEY)
        with pytest.raises(ValueError, match="negative"):
            gen.standard_normal((-1, 3))
    assert KEY not in rng._AHEAD


@pytest.mark.parametrize("first_draw", [
    lambda gen: gen.standard_normal((40, 3)),
    lambda gen: gen.standard_normal(),
    lambda gen: gen.standard_normal((40, 4), dtype=np.float32),
    lambda gen: gen.uniform(size=4),
], ids=["other-shape", "scalar", "float32", "uniform"])
def test_other_first_draw_discards_the_block(first_draw):
    with drawn_ahead((40, 4), [KEY]):
        gen = make_rng(*KEY)
        got = first_draw(gen), gen.standard_normal((40, 4))
    fresh = make_rng(*KEY)
    want = first_draw(fresh), fresh.standard_normal((40, 4))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
