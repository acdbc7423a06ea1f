"""Min-over-frames density solvers: traces, guarantees, reports."""

import math
import random
from fractions import Fraction

from dcs import (
    MA,
    TemporalGraph,
    best_with_all,
    composite_ma,
    exact_best,
    gen_gap_instance,
    greedy_cover,
    parse,
    partition_search,
    score,
    subset_search,
)
from dcs.ma import partition_blocks
from helpers import random_nonedgeless

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
