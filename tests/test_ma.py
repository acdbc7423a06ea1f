"""Min-over-frames density solvers: traces, guarantees, reports."""

import hashlib
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from dcs import (
    MA,
    PlantedParams,
    TemporalGraph,
    best_with_all,
    composite_ma,
    exact_best,
    gen_gap_instance,
    gen_padded_sequence,
    gen_planted_2frame,
    greedy_cover,
    parse,
    partition_search,
    score,
    serialize,
    subset_search,
)
from dcs.cli import EXIT_OK, run
from dcs.ma import partition_blocks
from helpers import random_nonedgeless, random_temporal

TINY = parse("3 2\n0 0 1\n1 0 1\n1 1 2\n")
FORK = TemporalGraph(3, [[(0, 1)], [(0, 2), (1, 2)]])


def test_greedy_cover_tie_break_trace():
    # gain ties at 1 resolve to the smallest pair (0, 1), then (0, 2) covers
    # the remaining frame
    rep = greedy_cover(FORK)
    assert rep.solution.members == (0, 1, 2)
    assert rep.score.value == Fraction(1, 3)
    assert rep.frames_covered_per_iteration == (1, 1)


def test_greedy_cover_single_pick_covers_both_frames():
    rep = greedy_cover(TINY)
    assert rep.solution.members == (0, 1)
    assert rep.score.value == Fraction(1, 2)
    assert rep.frames_covered_per_iteration == (2,)


def test_greedy_cover_single_frame_single_edge():
    g = TemporalGraph(4, [[(1, 3)]])
    rep = greedy_cover(g)
    assert rep.solution.members == (1, 3)
    assert rep.score.value == Fraction(1, 2)


def test_greedy_cover_edgeless_frame_flag():
    g = TemporalGraph(3, [[(0, 1)], []])
    rep = greedy_cover(g)
    assert rep.zero_score
    assert rep.solution.members == (0, 1, 2)
    assert rep.score.value == 0


def test_greedy_cover_iteration_bounds():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_nonedgeless(rng, n, rng.randint(2, 4))
        rep = greedy_cover(g)
        iters = len(rep.frames_covered_per_iteration)
        assert iters <= g.T
        opt_set, opt = exact_best(g, MA)
        k = len(opt_set)
        assert iters <= math.ceil(2 * k * math.log(g.T) / opt.value)


def test_best_with_all_picks_stronger_candidate():
    rep = best_with_all(TINY)
    assert rep.solution.members == (0, 1)
    assert rep.score.value == Fraction(1, 2)


def test_best_with_all_prefers_v_on_dense_frame():
    k4 = TemporalGraph(4, [[(u, v) for u in range(4) for v in range(u + 1, 4)]])
    rep = best_with_all(k4)
    assert rep.solution.members == (0, 1, 2, 3)
    assert rep.score.value == Fraction(3, 2)


def test_best_with_all_tie_keeps_v_without_trace():
    rep = best_with_all(TemporalGraph(2, [[(0, 1)]]))
    assert rep.solution.members == (0, 1)
    assert rep.frames_covered_per_iteration is None
    assert rep.candidate_scores == {
        "all-vertices": Fraction(1, 2), "greedy-cover": Fraction(1, 2)
    }


def test_best_with_all_carries_greedy_trace():
    rep = best_with_all(TINY)
    assert rep.solution == greedy_cover(TINY).solution
    assert rep.frames_covered_per_iteration == (2,)


def test_best_with_all_edgeless():
    g = TemporalGraph(3, [[], [(0, 1)]])
    rep = best_with_all(g)
    assert rep.solution.members == (0, 1, 2)
    assert rep.score.value == 0 and rep.zero_score


def test_subset_search_small_bound():
    rep = subset_search(TINY)
    assert rep.solution.members == (0, 1)
    assert rep.score.value == Fraction(1, 2)


def test_subset_search_bound_arithmetic():
    # T = n gives floor(log_n T) = 1, floored to 2
    g = TemporalGraph(3, [[(0, 1)], [(0, 1)], [(0, 1)]])
    rep = subset_search(g)
    assert rep.score.value == Fraction(1, 2)


def test_subset_search_exact_when_optimum_is_a_pair():
    rng = random.Random(43)
    for _ in range(20):
        g = random_nonedgeless(rng, rng.randint(2, 8), rng.randint(1, 3))
        opt_set, opt = exact_best(g, MA)
        if len(opt_set) <= 2:
            assert subset_search(g).score.value == opt.value


def test_partition_search_blocks_and_result():
    assert partition_blocks(3, 2) == [(0, 1), (2,)]
    rep = partition_search(TINY)
    assert rep.solution.members == (0, 1)
    assert rep.score.value == Fraction(1, 2)


def test_partition_block_sizes_near_equal():
    blocks = partition_blocks(100, 2)
    assert len(blocks) == 2
    assert sorted(len(b) for b in blocks) == [50, 50]
    sizes = [len(b) for b in partition_blocks(10, 50)]
    assert max(sizes) - min(sizes) <= 1


def test_partition_search_exhaustive_when_blocks_are_singletons():
    # huge T relative to n: r caps at n, every union is enumerated
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(2, 6)
        g = random_nonedgeless(rng, n, 60)
        assert len(partition_blocks(n, g.T)) == n
        assert partition_search(g).score.value == exact_best(g, MA)[1].value


def test_composite_examples():
    rep = composite_ma(TINY)
    assert rep.solution.members == (0, 1) and rep.score.value == Fraction(1, 2)
    rep = composite_ma(gen_gap_instance(4))
    assert rep.solution.members == (0, 1, 2, 3)
    assert rep.score.value == Fraction(1, 4)
    rep = composite_ma(TemporalGraph(3, [[(0, 1)], []]))
    assert rep.score.value == 0 and rep.zero_score


def test_composite_candidate_scores_include_baseline():
    rep = composite_ma(TINY)
    assert rep.candidate_scores["all-vertices"] == Fraction(1, 3)
    assert rep.candidate_scores["greedy-cover"] == Fraction(1, 2)
    assert list(rep.candidate_scores) == [
        "greedy-cover", "subset-search", "partition-search", "all-vertices"
    ]
    scores = rep.candidate_scores
    assert scores["partition-search"] >= scores["all-vertices"]
    assert rep.score.value == max(scores.values())


def test_reports_reverify_scores():
    rng = random.Random(53)
    for _ in range(10):
        g = random_nonedgeless(rng, rng.randint(2, 8), rng.randint(1, 4))
        for solver in (greedy_cover, best_with_all, subset_search,
                       partition_search, composite_ma):
            rep = solver(g)
            assert rep.score.value == score(g, rep.solution, MA).value


def test_composite_ratio_bound_small_corpus():
    # full 500-instance runs live in the acceptance suite
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(2, 10)
        g = random_nonedgeless(rng, n, rng.randint(1, 4))
        opt = exact_best(g, MA)[1].value
        got = composite_ma(g).score.value
        assert got**3 * n**2 >= opt**3


def test_best_with_all_sqrt_bound_small_corpus():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(2, 10)
        g = random_nonedgeless(rng, n, rng.randint(2, 4))
        opt = exact_best(g, MA)[1].value
        got = best_with_all(g).score.value
        assert got**2 * 2 * n * Fraction(math.log(g.T)) >= opt**2


# SHA-256 of each solver's `dcs solve` result without wall_time, pinned so
# that any change to a solution, score, trace or candidate score fails here
SOLVE_DIGESTS = {
    "n130-T24": (lambda: random_temporal(random.Random(1), 130, 24, 0.01), {
        "greedy-ma": "9fc18486cc17c72f611479e97d36382951204505a18301a7a5b2af7c03cbf46c",
        "best-with-all": "11d89054b1835c2bbc23e86e245246752e1f4a1d408548dc0ea85f1cf0931560",
        "composite-ma": "16942fef2649b911fdc89d0520a3200f575c86d3d1b6ab1806387e20150b2dd9",
    }),
    "n340-T16": (lambda: random_temporal(random.Random(2), 340, 16, 0.01), {
        "greedy-ma": "49f609f32048de43865bf191e650e0c8feb95e13e4bface23c19c633774a3f9f",
        "best-with-all": "06fe29f7e4a1fb92d08c42e4bc51f27d0c231cb57d3eb953151ad5cba1517be3",
        "composite-ma": "aacffeb28b02a4b263c472a705cc061f737bf5968df5cbc10f04ed2ba79a2cdc",
    }),
    # a planted pair padded to T = 70: greedy, partition and V all differ
    "padded-T70": (lambda: gen_padded_sequence(
        gen_planted_2frame(PlantedParams(64, Fraction(1, 20), True, 5)),
        68, Fraction(1, 4), 5, ambient_n=64), {
        "greedy-ma": "3c172e9e6f3183cdfa77c140373f1c77202b53b32d6789c147b457521ca1516b",
        "best-with-all": "a4809fbbb06f869721f0d10f756d0afb00b1896b9a6178f2da89b1b46a0a5b84",
        "composite-ma": "ba1e7779637b0ef6ff39dbdc067960077e25c080cc95037751ab905d64cbb157",
    }),
}


@pytest.mark.parametrize("name", sorted(SOLVE_DIGESTS))
def test_ma_solve_reports_are_pinned(tmp_path, name):
    build, digests = SOLVE_DIGESTS[name]
    path = tmp_path / "g.dcs"
    path.write_text(serialize(build()))
    for alg, digest in digests.items():
        out = io.StringIO()
        assert run(["solve", "--alg", alg, "--in", str(path)], stdout=out,
                   stderr=io.StringIO()) == EXIT_OK
        result = json.loads(out.getvalue())["result"]
        del result["wall_time"]
        assert hashlib.sha256(json.dumps(result).encode()).hexdigest() == digest, alg


def test_greedy_cover_scratch_is_bounded_at_n4096():
    g = gen_planted_2frame(PlantedParams(4096, Fraction(1, 20), True, 3))
    tracemalloc.start()
    try:
        rep = greedy_cover(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.zero_score and sum(rep.frames_covered_per_iteration) == g.T
    # edge arrays, union-edge frame masks and one block of pair masks: about
    # 13 MiB; scanning all 8.4M pairs at once would take 64 MiB of masks alone
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"
