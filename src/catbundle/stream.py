"""Seeded random streams, keyed and counter-based on native uint64 arithmetic,
without numpy's random package, `secrets` or `hashlib` (3-15 ms of a start).

`Stream(entropy)` folds `entropy` (a non-negative int, or a sequence of them,
each read as 64-bit words, least significant first) into a 64-bit key with
its own mixer. Output k is mix(key + k·φ mod 2**64), φ = 0x9E3779B97F4A7C15,
where `mix` is SplitMix64's finalizer (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014), used counter-based as in
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011. A
stream keeps only (key, counter), its `bit_generator.state`, so output k is
the same however the draws before it were split: a small draw mixes Python
ints, a larger one an arange of counters in place on a uint64 array (which
wraps mod 2**64 silently, where numpy's uint64 scalars warn).

`random` and `uniform` take the top 53 bits of an output. `integers` draws
from range(n) by multiply-shift in exact integer arithmetic, x·n >> 64 for an
output x: each value's chance is within 2**-64 of 1/n, a bias of at most
n·2**-64 in total variation. Past n = 2**63 a draw reads w = ⌈(bits(n) +
64)/64⌉ outputs as one 64w-bit x, first output highest, and x·n >> 64w is
biased by at most 2**-64.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

SMALL = 8  # draws of up to this many outputs mix Python ints

_M32, _M64 = 2**32 - 1, 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15  # 2**64/φ, rounded to odd: the counter's step
_C1, _C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # the finalizer's multipliers
_U64 = {v: np.uint64(v) for v in (_GAMMA, _C1, _C2, _M32, 11, 27, 30, 31, 32)}
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53


def _mix(z: int) -> int:
    """SplitMix64's finalizer on an int in [0, 2**64): a bijection."""
    z = (z ^ z >> 30) * _C1 & _M64
    z = (z ^ z >> 27) * _C2 & _M64
    return z ^ z >> 31


def _words(entropy) -> list[int]:
    """`entropy` as 64-bit words, each int's least significant first."""
    if isinstance(entropy, (int, np.integer)):
        n = int(entropy)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words = [n & _M64]
        while n > _M64:
            n >>= 64
            words.append(n & _M64)
        return words
    return [w for part in entropy for w in _words(part)]  # TypeError on a float


def _count(size) -> int:
    return math.prod(size) if isinstance(size, (tuple, list)) else int(size)


class Stream:
    """Seeded draws with numpy Generator's calls `random`, `uniform`, `integers`."""

    def __init__(self, entropy):
        key = _GAMMA
        for word in _words(entropy):
            key = _mix(key ^ _mix(word))
        self._key, self._counter = key, 0

    @property
    def bit_generator(self) -> "Stream":
        return self  # the stream is its own bit generator

    @property
    def state(self) -> tuple[int, int]:
        return self._key, self._counter

    def _outputs(self, n: int) -> np.ndarray:
        """The next n outputs as uint64, mixed in place on their counters."""
        x = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        u, t = _U64, np.empty_like(x)
        x *= u[_GAMMA]
        x += np.uint64(self._key)
        for shift, mult in ((30, _C1), (27, _C2), (31, None)):
            np.right_shift(x, u[shift], out=t)
            x ^= t
            if mult:
                x *= u[mult]
        return x

    def _ints(self, n: int) -> list[int]:
        """The next n outputs as Python ints."""
        if n > SMALL:
            return self._outputs(n).tolist()
        k, key = self._counter, self._key
        self._counter = k + n
        return [_mix((key + i * _GAMMA) & _M64) for i in range(k, k + n)]

    def random(self, size=None):
        """Uniform doubles in [0, 1): a float, or an array of shape `size`."""
        if size is None:
            return (self._ints(1)[0] >> 11) * _TO_DOUBLE
        n = _count(size)
        if n > SMALL:
            return (self._outputs(n) >> _U64[11]).reshape(size) * _TO_DOUBLE
        return np.array([(x >> 11) * _TO_DOUBLE for x in self._ints(n)]).reshape(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        """low + (high - low)·u on `random` draws u."""
        low, high = float(low), float(high)
        return low + (high - low) * self.random(size)

    def integers(self, low, high=None, size=None):
        """Draws from range(low, high), or range(low): int64 where the range
        fits it (an np.int64 alone), else Python ints (in an object array)."""
        if high is None:
            low, high = 0, low
        low, n = int(low), int(high) - int(low)
        if n < 1:
            raise ValueError(f"integers needs low < high, got {low}, {high}")
        count = 1 if size is None else _count(size)
        if count > SMALL and n <= 2**32:  # x·n >> 64 = (x1·n + (x0·n >> 32)) >> 32, below 2**64
            x, m, s32 = self._outputs(count), np.uint64(n), _U64[32]
            draws = ((x >> s32) * m + ((x & _U64[_M32]) * m >> s32)) >> s32
        else:
            w = 1 if n <= 2**63 else (n.bit_length() + 127) // 64
            xs = self._ints(count * w)
            if w > 1:
                xs = [sum(o << 64 * (w - 1 - i) for i, o in enumerate(xs[j:j + w]))
                      for j in range(0, count * w, w)]
            draws = [x * n >> 64 * w for x in xs]
        int64 = -2**63 <= low and low + n <= 2**63
        if size is None:
            return np.int64(low + draws[0]) if int64 else low + draws[0]
        return (np.asarray(draws, dtype=np.int64 if int64 else object) + low).reshape(size)


# each law's stream, by law id
Streams = Callable[[str], Stream]


def seed_zero(law: str) -> Stream:
    """Law `law`'s stream where a caller names none: Stream(0) for all."""
    return Stream(0)
