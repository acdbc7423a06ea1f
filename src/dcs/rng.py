"""Deterministic random streams for the instance generators.

All randomized generators draw from splitmix64 streams.  The k-th output
of a stream seeded with s is mix64(s + (k+1)*GOLDEN), a closed form that
lets `bernoulli_block` mix a block of outputs at once with numpy; its
draws equal the scalar `bernoulli` draws one for one.

Stream discipline: a generator with master seed s derives one sub-stream
per role via ``substream(s, i)``; frame edge draws use the frame index as
the role, auxiliary draws (subset choices, overlays) use documented role
indices past the frame range.  This keeps every frame independently
reproducible and lets frames be generated in any order or in parallel
without changing the output.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective mixer."""
    z &= MASK64
    z = (z ^ (z >> 30)) * _MIX1 & MASK64
    z = (z ^ (z >> 27)) * _MIX2 & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Scalar splitmix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (MASK64 + 1) - (MASK64 + 1) % bound
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def bernoulli(self, p: float) -> bool:
        """Coin with success probability p, via a 53-bit threshold compare."""
        return (self.next_u64() >> 11) < _threshold(p)

    def sample_without_replacement(self, n: int, m: int) -> list[int]:
        """m distinct values from range(n), ascending, by partial Fisher-Yates."""
        if not 0 <= m <= n:
            raise ValueError(f"cannot sample {m} from range({n})")
        pool = list(range(n))
        for i in range(m):
            j = i + self.next_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:m])


def substream(seed: int, role: int) -> SplitMix64:
    """Independent stream for one role of a generator run."""
    return SplitMix64(mix64(seed) ^ mix64(role + 1))


def _threshold(p: float) -> int:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return min(int(p * (1 << 53)), 1 << 53)


# Outputs mixed at once: a chunk and its scratch copy stay in cache
_CHUNK = 1 << 14


def bernoulli_block(stream: SplitMix64, count: int, p: float) -> np.ndarray:
    """count Bernoulli(p) draws from stream's current position (vectorized).

    Equal to count scalar `bernoulli` draws, and advances the stream by count
    as they do, so interleaved scalar use stays consistent.
    """
    threshold = np.uint64(_threshold(p))
    base_state = stream._state
    hits = np.empty(max(count, 0), dtype=bool)  # a negative count gives no draws
    # (j + 1) * GOLDEN mod 2^64: output j of a chunk is mixed from its start state plus this
    steps = np.arange(1, min(count, _CHUNK) + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    buf, tmp = np.empty_like(steps), np.empty_like(steps)
    for i in range(0, count, _CHUNK):
        z, t = buf[:count - i], tmp[:count - i]
        np.add(steps[:len(z)], np.uint64((base_state + i * GOLDEN) & MASK64), out=z)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= np.uint64(mult)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
        z >>= np.uint64(11)
        np.less(z, threshold, out=hits[i:i + len(z)])
    stream._state = (base_state + count * GOLDEN) & MASK64
    return hits
