"""Seeded random streams: bitwise the draws of numpy's `default_rng`, for the
calls catbundle makes, without importing numpy's random package (10-15 ms of
a CLI start, most of it `secrets` and `hashlib`).

`Stream(entropy)` hashes `entropy` (a non-negative int, or a sequence of
them) into a four-word pool as numpy's SeedSequence does, and seeds a PCG64
generator from it: a 128-bit LCG, s -> M·s + inc mod 2**128, whose output is
the XSL-RR of each new state (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number Generation",
HMC-CS-2014-0905). On it, as numpy's Generator does:

- `random` and `uniform` take the top 53 bits of a 64-bit output;
- `integers` rejects by Lemire's method ("Fast Random Integer Generation in
  an Interval", ACM TOMACS 29(1), 2019), on 32-bit words for ranges up to
  2**32 and on 64-bit outputs above; a 32-bit word is half of a 64-bit
  output, the low half first, the high half kept for the next word
  (`has_uint32`, `uinteger`);
- `bytes` packs 32-bit words, little-endian;
- `bit_generator.state` reads all of that state.

A scalar or small draw steps on Python ints. A larger one computes its k next
states at once, s_i = A_i·s + inc·S_i mod 2**128 with A_i = M**i and
S_i = 1 + M + ... + M**(i-1), in 32-bit limbs on uint64 arrays, CHUNK states
at a time. A_i and S_i do not depend on the stream: one table of them serves
every stream of a process, built by doubling; each stream keeps its own
C_i = inc·S_i.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

CHUNK = 4096  # states per array step; the jump tables hold at most this many
SMALL = 32  # draws of up to this many outputs step on Python ints

_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit LCG multiplier
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_L32, _S32, _S11, _S58 = np.uint64(_M32), np.uint64(32), np.uint64(11), np.uint64(58)
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53


def _entropy_words(entropy) -> list[int]:
    """`entropy` as 32-bit words, least significant first, as SeedSequence
    reads an int or a (nested) sequence of ints."""
    if isinstance(entropy, (int, np.integer)):
        n = int(entropy)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words = [n & _M32]
        while n > _M32:
            n >>= 32
            words.append(n & _M32)
        return words
    return [w for part in entropy for w in _entropy_words(part)]  # TypeError on a float


def _seed(entropy) -> tuple[int, int]:
    """PCG64's (state, inc) for SeedSequence(entropy): its pool hash, then
    four 64-bit words of its generate_state for the seed and the stream."""
    words = _entropy_words(entropy)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    seed = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
    inc = (out[5] << 96 | out[4] << 64 | out[7] << 32 | out[6]) << 1 & _M128 | 1
    return ((inc + seed) * _MULT + inc) & _M128, inc


def _mul64(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """x·k as (low, high) 64-bit words, for uint64 words x and an int
    k < 2**64: the high word from the 32-bit limbs' products."""
    x0, x1 = x & _L32, x >> _S32
    k0, k1 = np.uint64(k & _M32), np.uint64(k >> 32)
    p00, p01, p10 = x0 * k0, x0 * k1, x1 * k0
    mid = (p00 >> _S32) + (p01 & _L32) + (p10 & _L32)
    return x * np.uint64(k), x1 * k1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


def _mul128(lo: np.ndarray, hi: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi)·k mod 2**128, for 128-bit values as uint64 words and an int k."""
    k_lo, k_hi = k & _M64, k >> 64
    low, carry = _mul64(lo, k_lo)
    return low, carry + hi * np.uint64(k_lo) + lo * np.uint64(k_hi)


def _add128(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    lo = x[0] + y[0]
    return lo, x[1] + y[1] + (lo < x[0])


def _count(size) -> int:
    return math.prod(size) if isinstance(size, (tuple, list)) else int(size)


def _last(words: tuple) -> int:
    """The last of some 128-bit values, held as (lo, hi) word arrays."""
    return int(words[1][-1]) << 64 | int(words[0][-1])


def _word_pair(value: int) -> tuple[np.ndarray, np.ndarray]:
    """One 128-bit value as (lo, hi) word arrays."""
    return np.array([value & _M64], np.uint64), np.array([value >> 64], np.uint64)


_JUMPS = None  # (A_i, S_i) for i = 1..2**j, shared by every stream


def _jumps(n: int) -> tuple:
    """(A_i, S_i) for i = 1..at least n <= CHUNK, as (lo, hi) word arrays:
    doubled as draws need them, by A_{L+i} = A_i·A_L and
    S_{L+i} = A_i·S_L + S_i."""
    global _JUMPS
    a, s = _JUMPS or (_word_pair(_MULT), _word_pair(1))
    while len(a[0]) < n:
        a, s = ([np.concatenate(p) for p in zip(a, _mul128(*a, _last(a)))],
                [np.concatenate(p) for p in zip(s, _add128(_mul128(*a, _last(s)), s))])
    _JUMPS = a, s
    return _JUMPS


class Stream:
    """A seeded stream of draws, bitwise those of numpy's
    `default_rng(entropy)` for `random`, `uniform`, `integers` (int64),
    `bytes` and `bit_generator.state`."""

    def __init__(self, entropy):
        self._words = _entropy_words(entropy)  # checked here, hashed on first use
        self._has32, self._u32 = 0, 0
        self._c = None  # inc·S_i for array draws, made on first use

    def __getattr__(self, name: str):  # `_s`, `_inc`: a stream that never draws is never hashed
        if name not in ("_s", "_inc"):
            raise AttributeError(name)
        self._s, self._inc = _seed(self._words)
        return getattr(self, name)

    # -- the generator state, in numpy's PCG64 layout --

    @property
    def bit_generator(self) -> "Stream":
        return self  # the stream is its own bit generator

    @property
    def state(self) -> dict:
        return {"bit_generator": "PCG64", "state": {"state": self._s, "inc": self._inc},
                "has_uint32": self._has32, "uinteger": self._u32}

    # -- raw outputs --

    def _next64(self) -> int:
        s = self._s = (self._s * _MULT + self._inc) & _M128
        hi = s >> 64
        x, r = (hi ^ s) & _M64, hi >> 58
        return (x >> r | x << (64 - r)) & _M64

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        v = self._next64()
        self._has32, self._u32 = 1, v >> 32
        return v & _M32

    def _raw64(self, n: int) -> np.ndarray:
        """The next n 64-bit outputs, as uint64."""
        if n <= SMALL:
            return np.array([self._next64() for _ in range(n)], dtype=np.uint64)
        out = np.empty(n, dtype=np.uint64)
        for start in range(0, n, CHUNK):
            k = min(CHUNK, n - start)
            a, sums = _jumps(k)
            if self._c is None or len(self._c[0]) < k:
                m = 1 << (k - 1).bit_length()  # C_i = inc·S_i for i up to a power of two >= k
                self._c = _mul128(sums[0][:m], sums[1][:m], self._inc)
            c = self._c
            lo, hi = _add128(_mul128(a[0][:k], a[1][:k], self._s), (c[0][:k], c[1][:k]))
            self._s = _last((lo, hi))
            x, r = lo ^ hi, hi >> _S58
            out[start:start + k] = x >> r | x << (-r & np.uint64(63))
        return out

    def _words32(self, n: int) -> np.ndarray:
        """The next n 32-bit words, as uint64: the kept high half first, then
        both halves of each 64-bit output. The last high half drawn stays
        `uinteger`, kept for the next word (`has_uint32`) when n is odd."""
        kept = []
        if n and self._has32:
            kept, n, self._has32 = [self._u32], n - 1, 0
        words = self._raw64((n + 1) // 2).astype("<u8").view("<u4").astype(np.uint64)
        if n:
            self._has32, self._u32 = n % 2, int(words[-1])
            words = words[:n]
        return np.concatenate([np.array(kept, dtype=np.uint64), words]) if kept else words

    def _bounded(self, top: int, n: int) -> np.ndarray:
        """n draws from range(top + 1), as uint64, by Lemire's rejection."""
        if top == 0:
            return np.zeros(n, dtype=np.uint64)
        if top == _M32:
            return self._words32(n)
        excl, out = top + 1, []
        threshold = np.uint64(((2**32 if top < _M32 else 2**64) - excl) % excl)
        while n:
            if top < _M32:
                m = self._words32(n) * np.uint64(excl)
                low, high = m & _L32, m >> _S32
            else:
                low, high = _mul64(self._raw64(n), excl)
            out.append(high[low >= threshold] if threshold else high)
            n -= len(out[-1])
        return out[0] if len(out) == 1 else np.concatenate(out)

    def _bounded_one(self, top: int) -> int:
        """One draw of `_bounded`, on Python ints."""
        if top == 0:
            return 0
        if top == _M32:
            return self._next32()
        draw, bits = (self._next32, 32) if top < _M32 else (self._next64, 64)
        excl = top + 1
        threshold = (2**bits - excl) % excl
        while True:
            m = draw() * excl
            if m & (2**bits - 1) >= threshold:
                return m >> bits

    # -- draws --

    def random(self, size=None):
        """Uniform doubles in [0, 1): a float, or an array of shape `size`."""
        if size is None:
            return (self._next64() >> 11) * _TO_DOUBLE
        n = _count(size)
        if n > SMALL:
            return (self._raw64(n) >> _S11).reshape(size) * _TO_DOUBLE
        return np.array([(self._next64() >> 11) * _TO_DOUBLE for _ in range(n)]).reshape(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        """low + (high - low)·u on `random` draws u."""
        low, high = float(low), float(high)
        return low + (high - low) * self.random(size)

    def integers(self, low, high=None, size=None):
        """int64 draws from range(low, high), or range(low) without `high`."""
        if high is None:
            low, high = 0, low
        low, top = int(low), int(high) - 1 - int(low)
        if top < 0 or low < -2**63 or low + top >= 2**63:
            raise ValueError(f"integers needs -2**63 <= low < high <= 2**63, got {low}, {high}")
        if size is None:
            return np.int64(low + self._bounded_one(top))
        n = _count(size)
        if n == 0:
            return np.empty(size, dtype=np.int64)
        draws = self._bounded(top, n).reshape(size)
        return (draws + np.uint64(low % 2**64)).view(np.int64)

    def bytes(self, length: int) -> bytes:
        """`length` random bytes, from little-endian 32-bit words."""
        return self._words32((length - 1) // 4 + 1).astype("<u4").tobytes()[:length]


# each law's stream, by law id
Streams = Callable[[str], Stream]


def seed_zero(law: str) -> Stream:
    """Law `law`'s stream where a caller names none: Stream(0) for all."""
    return Stream(0)
