"""catbundle.stream.Stream against a pure-Python reference of its keyed
counter generator: SplitMix64's published outputs, the key fold, and every
draw catbundle makes, value for value and state for state; blocked draws
against per-call draws on both routes (Python ints and uint64 arrays);
`integers` in range past 2**64; a fixed-seed uniformity check and a
cross-key independence check; and bad seeds and ranges."""
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catbundle import stream
from catbundle.stream import Stream

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def ref_mix(z: int) -> int:
    """SplitMix64's finalizer, written from its definition."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def ref_words(entropy) -> list[int]:
    if isinstance(entropy, int):
        return [(entropy >> (64 * i)) & MASK for i in range(max(1, -(-entropy.bit_length() // 64)))]
    return [w for part in entropy for w in ref_words(part)]


class RefStream:
    """The generator as the stream's docstring defines it: the key folds each
    word w as key <- mix(key ^ mix(w)) from φ, and output k is
    mix(key + k·φ mod 2**64)."""

    def __init__(self, entropy):
        self.key, self.counter = GAMMA, 0
        for w in ref_words(entropy):
            self.key = ref_mix(self.key ^ ref_mix(w))

    def out(self) -> int:
        self.counter += 1
        return ref_mix((self.key + (self.counter - 1) * GAMMA) % 2**64)

    def random(self) -> float:
        return (self.out() >> 11) / 2**53

    def integers(self, n: int) -> int:
        w = 1 if n <= 2**63 else -(-(n.bit_length() + 64) // 64)
        x = 0
        for _ in range(w):
            x = x << 64 | self.out()
        return x * n // 2**(64 * w)


def test_mixer_gives_splitmix64s_published_outputs():
    # splitmix64.c from state s returns mix(s + φ), mix(s + 2φ), ...: output
    # k of a stream keyed s, for k >= 1
    assert stream._mix(GAMMA) == ref_mix(GAMMA) == 0xE220A8397B1DCDAF  # state 0
    s = Stream(0)
    s._key = 1234567
    assert s._ints(6)[1:] == [6457827717110365317, 3203168211198807973, 9817491932198370423,
                              4593380528125082431, 16408922859458223821]
    z = np.random.default_rng(0).integers(0, 2**63, size=200, dtype=np.uint64).tolist()
    assert [stream._mix(v) for v in z] == [ref_mix(v) for v in z]


entropies = st.one_of(
    st.integers(0, 2**70),
    st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)).map(list),
    st.lists(st.integers(0, 2**130), max_size=5),
)
calls = st.one_of(
    st.tuples(st.just("random"), st.none() | st.integers(0, 60) | st.tuples(st.integers(1, 700), st.integers(1, 3))),
    st.tuples(st.just("integers"), st.sampled_from([1, 3, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64, 2**70]),
              st.none() | st.integers(0, 40)),
)


@settings(max_examples=150, deadline=None)
@given(entropies, st.lists(calls, max_size=10))
@example([1, 2, 3], [("random", (700, 3)), ("integers", 2**70, 40), ("random", None), ("integers", 3, None)])
def test_stream_draws_as_the_reference(entropy, sequence):
    ref, ours = RefStream(entropy), Stream(entropy)
    assert ours.bit_generator.state == (ref.key, 0)
    for name, *args in sequence:
        if name == "random":
            got = ours.random(args[0])
            want = [ref.random() for _ in range(int(np.prod(args[0])))] if args[0] is not None else ref.random()
            assert np.shape(got) == (() if args[0] is None else np.empty(args[0]).shape)
            assert np.ravel(got).tolist() == np.ravel(want).tolist()
        else:
            n, size = args
            got = ours.integers(n, size=size)
            want = ref.integers(n) if size is None else [ref.integers(n) for _ in range(size)]
            if size is None:
                assert type(got) is (np.int64 if n <= 2**63 else int) and got == want
            else:
                assert got.dtype == (np.int64 if n <= 2**63 else object) and got.tolist() == want
        assert ours.bit_generator.state == (ref.key, ref.counter)


SIZES = [0, 1, stream.SMALL, stream.SMALL + 1, 4096, 9000]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("draw", [
    lambda rng, size: rng.random(size),
    lambda rng, size: rng.uniform(-np.pi, np.pi, size=size),
    lambda rng, size: rng.integers(7, size=size),
    lambda rng, size: rng.integers(-5, 2**32 - 5, size=size),
    lambda rng, size: rng.integers(2**63 - 1, size=size),
    lambda rng, size: rng.integers(2**70, size=size),
], ids=["random", "uniform", "integers-7", "integers-2**32", "integers-2**63-1", "integers-2**70"])
def test_blocked_draws_equal_per_call_draws_bitwise(draw, n):
    blocked, per_call = Stream([5, 2**32 - 1]), Stream([5, 2**32 - 1])
    blocked.random(), per_call.random()  # the block starts mid-stream
    block = draw(blocked, n)
    singles = [draw(per_call, None) for _ in range(n)]
    assert block.shape == (n,) and (block.dtype == np.asarray(singles).dtype or n == 0)
    assert block.tolist() == [v.item() if isinstance(v, np.generic) else v for v in singles]
    assert blocked.bit_generator.state == per_call.bit_generator.state


@pytest.mark.parametrize("n", [1, 3, 2**32 + 1, 2**63 - 1, 2**70])
def test_integers_stay_in_range(n):
    rng = Stream(11)
    draws = rng.integers(n, size=9000).tolist() + rng.integers(n, size=5).tolist()
    draws += [int(rng.integers(n)) for _ in range(50)]
    assert all(0 <= d < n for d in draws)
    shifted = rng.integers(-n, 0, size=100).tolist()
    assert all(-n <= d < 0 for d in shifted)


def test_fixed_seed_draws_look_uniform():
    # chi-square over 256 bins on 2**18 uniforms, each of the 53 bits used
    # set about half the time, and integers(3) about a third each: limits at
    # about 5 standard deviations
    u = Stream(2024).random(2**18)
    counts = np.bincount((u * 256).astype(int), minlength=256)
    expected = len(u) / 256
    assert ((counts - expected) ** 2 / expected).sum() < 255 + 5 * np.sqrt(2 * 255)
    bits = (u * 2**53).astype(np.uint64)
    ones = np.array([((bits >> np.uint64(b)) & np.uint64(1)).sum() for b in range(53)])
    assert np.all(np.abs(ones - len(u) / 2) < 5 * np.sqrt(len(u) / 4))
    thirds = np.bincount(Stream(2024).integers(3, size=30_000), minlength=3)
    assert np.all(np.abs(thirds - 10_000) < 5 * np.sqrt(30_000 * 2 / 9))


def test_streams_of_nearby_keys_look_independent():
    # the keys a suite run makes: seed, crc32(suite), crc32(law), at nearby
    # seeds and laws; pairwise correlations of their uniforms, and of each
    # with its neighbour shifted by one draw, within 5/sqrt(n)
    n, suite = 20_000, zlib.crc32(b"crossed-module")
    keys = [[seed, suite, zlib.crc32(law)] for seed in (0, 1, 2) for law in (b"peiffer", b"peiffes")]
    keys += [[0], [1], [0, 0], [2**64], [1, 0]]
    draws = np.array([Stream(k).random(n + 1) for k in keys])
    assert len({Stream(k).bit_generator.state for k in keys}) == len(keys)
    r = np.corrcoef(np.vstack([draws[:, :-1], draws[:, 1:]]))
    assert np.all(np.abs(r[~np.eye(len(r), dtype=bool)]) < 5 / np.sqrt(n))


def test_bad_seeds_and_ranges_raise():
    for entropy, exc in ((-1, ValueError), (1.5, TypeError), ([1, -2], ValueError)):
        with pytest.raises(exc):
            Stream(entropy)
    for args in ((0,), (3, 3), (5, 2)):
        with pytest.raises(ValueError):
            Stream(0).integers(*args)
