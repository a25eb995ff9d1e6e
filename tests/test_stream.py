"""catbundle.stream.Stream against numpy's default_rng: the same values, dtype
and shape on every call catbundle makes, and the same generator state after
it, on int, [seed, crc32] and longer entropies, with other streams' draws
between its own; array draws at the edges of their paths and chunks, and
from fresh streams that share the jump tables; and bad seeds and ranges."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catbundle import stream
from catbundle.stream import Stream

# below, at and above the 32-bit paths; 2**31 + 1 and 3 * 2**61 + 1 reject
# about half and a quarter of their 32- and 64-bit draws
RANGES = [1, 2, 7, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**61 + 1, 2**63]

entropies = st.one_of(
    st.integers(0, 2**70),
    st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**32 - 1)).map(list),
    st.lists(st.integers(0, 2**40), max_size=6),  # past the four-word pool
)
shapes = st.one_of(st.integers(1, 60), st.tuples(st.integers(1, 700), st.integers(1, 3)))
highs = st.one_of(st.sampled_from(RANGES), st.integers(1, 2**63))
calls = st.one_of(
    st.tuples(st.just("random"), st.none() | shapes),
    st.tuples(st.just("uniform"), st.floats(-4, 0), st.floats(0.5, 4), st.none() | st.integers(1, 3)),
    st.tuples(st.just("integers"), highs, st.none() | st.integers(1, 20_000)),
    st.tuples(st.just("integers"), st.just(1), st.just(4), st.none()),
    st.tuples(st.just("bytes"), st.integers(1, 40)),
    st.tuples(st.just("other"), st.integers(0, 2**32 - 1), st.integers(1, 9_000)),
)


def _draw(rng, call):
    name, *args = call
    if name == "random":
        return rng.random(args[0])
    if name == "uniform":
        return rng.uniform(args[0], args[1], size=args[2])
    if name == "integers":
        return rng.integers(*args[:-1], size=args[-1])
    return rng.bytes(args[0])


def _assert_same(want, got):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got, want)
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(entropies, st.lists(calls, max_size=10))
@example(0, [("integers", 2**32 + 1, 20_000), ("integers", 3 * 2**61 + 1, 20_000), ("random", (700, 3))])
@example([3, 2**32 - 1], [("integers", 7, None), ("other", 5, 9_000), ("integers", 2**31 + 1, 9_999),
                          ("bytes", 9), ("other", 6, 40), ("integers", 2**63, 5), ("random", None)])
def test_stream_draws_as_default_rng(entropy, sequence):
    ref, ours = np.random.default_rng(entropy), Stream(entropy)
    assert ours.bit_generator.state == ref.bit_generator.state
    for call in sequence:
        if call[0] == "other":  # another stream's draw, on the same jump tables
            _assert_same(np.random.default_rng(call[1]).random(call[2]),
                         Stream(call[1]).random(call[2]))
        else:
            _assert_same(_draw(ref, call), _draw(ours, call))
        # the state includes the kept 32-bit word (has_uint32, uinteger)
        assert ours.bit_generator.state == ref.bit_generator.state, call


@pytest.mark.parametrize("n", [stream.SMALL, stream.SMALL + 1, stream.CHUNK - 1,
                               stream.CHUNK, 2 * stream.CHUNK + 3])
def test_array_draws_cross_chunks_and_both_paths(n):
    ref, ours = np.random.default_rng([7, 11]), Stream([7, 11])
    ours.random()  # one scalar step first: the table path starts mid-stream
    ref.random()
    assert np.array_equal(ours._raw64(n), ref.bit_generator.random_raw(n))
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("grown", [False, True])
def test_fresh_streams_draw_as_default_rng_on_the_shared_tables(grown, monkeypatch):
    # from empty tables, each size grows them as far as it needs, or from
    # tables already grown to a chunk, each fresh stream uses part of them
    monkeypatch.setattr(stream, "_JUMPS", None)
    if grown:
        stream._jumps(stream.CHUNK)
    for entropy in range(20):
        for n in (33, 100, 1000, stream.CHUNK + 1, 9_000):
            key = [entropy, 2**31 + n]
            assert np.array_equal(Stream(key).random(n), np.random.default_rng(key).random(n))
    assert len(stream._JUMPS[0][0]) == stream.CHUNK


def test_bad_seeds_and_ranges_raise_as_numpy_does():
    for entropy, exc in ((-1, ValueError), (1.5, TypeError), ([1, -2], ValueError)):
        with pytest.raises(exc):
            np.random.default_rng(entropy)
        with pytest.raises(exc):
            Stream(entropy)
    for args in ((0,), (3, 3), (2**63 + 1,)):
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(*args)
        with pytest.raises(ValueError):
            Stream(0).integers(*args)
