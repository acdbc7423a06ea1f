"""Random stream discipline: scalar/vector agreement and reproducibility."""

import numpy as np
import pytest

from dcs.rng import SplitMix64, bernoulli_block, mix64, substream


def test_reference_vectors():
    # first outputs for seed 0 match the canonical splitmix64 sequence
    s = SplitMix64(0)
    assert [s.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    assert mix64(0) == 0
    assert mix64(1) == 0x5692161D100B05E5


def test_scalar_and_vector_streams_agree():
    for seed in (0, 1, 424242, 2**63 + 17):
        outputs = SplitMix64(seed)
        top = [outputs.next_u64() >> 11 for _ in range(100)]
        # the last two put the threshold at output 57's top 53 bits, so it misses, then hits
        for p in (0.3, 0.5, 2**-53, 1 - 2**-53, top[57] / 2**53, (top[57] + 1) / 2**53):
            want = [x < int(p * 2**53) for x in top]
            assert bernoulli_block(SplitMix64(seed), 100, p).tolist() == want
            block, scalar = SplitMix64(seed), SplitMix64(seed)
            for s in (block, scalar):
                for _ in range(40):
                    s.next_u64()
            tail = bernoulli_block(block, 60, p)
            assert tail.tolist() == [scalar.bernoulli(p) for _ in range(60)] == want[40:]
            assert block.next_u64() == scalar.next_u64()


def test_bernoulli_block_matches_scalar_draws():
    a, b = SplitMix64(99), SplitMix64(99)
    block = bernoulli_block(a, 200, 0.3)
    singles = [b.bernoulli(0.3) for _ in range(200)]
    assert list(block) == singles
    # the block advances the stream exactly as the scalar draws did
    assert a.next_u64() == b.next_u64()


def test_substreams_differ_and_are_reproducible():
    streams = [substream(7, role) for role in range(4)]
    firsts = [s.next_u64() for s in streams]
    assert len(set(firsts)) == len(firsts)
    assert substream(7, 2).next_u64() == firsts[2]


def test_next_below_range_and_determinism():
    s = SplitMix64(5)
    values = [s.next_below(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in values)
    replay = SplitMix64(5)
    assert values == [replay.next_below(10) for _ in range(200)]
    with pytest.raises(ValueError):
        s.next_below(0)


def test_sample_without_replacement():
    s = SplitMix64(11)
    picked = s.sample_without_replacement(30, 12)
    assert picked == sorted(picked)
    assert len(set(picked)) == 12
    assert all(0 <= v < 30 for v in picked)
    assert SplitMix64(11).sample_without_replacement(30, 12) == picked
    assert SplitMix64(3).sample_without_replacement(5, 5) == [0, 1, 2, 3, 4]


def test_bernoulli_extremes():
    s = SplitMix64(1)
    assert all(s.bernoulli(1.0) for _ in range(50))
    assert not any(s.bernoulli(0.0) for _ in range(50))
    assert bernoulli_block(SplitMix64(1), 64, 1.0).all()
    assert not bernoulli_block(SplitMix64(1), 64, 0.0).any()


def test_bernoulli_block_dtype_and_wraparound():
    # the state passes 2**64 on the first step
    block, scalar = SplitMix64(2**64 - 1), SplitMix64(2**64 - 1)
    draws = bernoulli_block(block, 8, 0.5)
    assert draws.dtype == np.bool_
    assert draws.tolist() == [scalar.bernoulli(0.5) for _ in range(8)]
    assert bernoulli_block(SplitMix64(2**64 - 1), 8, 0.5).tolist() == draws.tolist()
    assert block.next_u64() == scalar.next_u64()


def test_sample_without_replacement_refuses_more_than_the_range():
    with pytest.raises(ValueError, match=r"^cannot sample 4 from range\(3\)$"):
        SplitMix64(0).sample_without_replacement(3, 4)
