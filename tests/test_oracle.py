"""Brute-force oracles: golden examples, naive cross-checks, determinism."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dcs import (
    AA,
    AM,
    BudgetExceeded,
    EdgeSolution,
    InfeasibleFrame,
    KMA,
    MA,
    MM,
    MinRepInstance,
    OracleBudget,
    SetCoverInstance,
    TemporalGraph,
    Uncoverable,
    check_spanning,
    ekvc_to_setcover,
    exact_best,
    exact_mcss,
    exact_minrep,
    exact_mis,
    exact_setcover,
    gen_gap_instance,
    parse,
    reduce_setcover_to_mcss,
    score,
)
from dcs import oracle
from helpers import naive_best, naive_stats, random_connected, random_temporal

TINY = parse("3 2\n0 0 1\n1 0 1\n1 1 2\n")


def test_exact_best_examples():
    s, sc = exact_best(gen_gap_instance(3), MA)
    assert s.members == (0, 1, 2) and sc.value == Fraction(1, 3)
    s, sc = exact_best(TINY, MA)
    assert s.members == (0, 1) and sc.value == Fraction(1, 2)
    s, sc = exact_best(TINY, AM)
    assert s.members == (0, 1) and sc.value == 2


def test_exact_best_matches_naive_enumeration():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_temporal(rng, n, rng.randint(1, 3))
        for kind, name, k in (
            (MM, "mm", None),
            (MA, "ma", None),
            (AM, "am", None),
            (AA, "aa", None),
            (KMA(1), "kma", 1),
        ):
            got_set, got = exact_best(g, kind)
            want_set, want = naive_best(g, name, k)
            assert got_set == want_set
            assert got.value == want
            assert score(g, got_set, kind).value == want


def test_exact_best_same_across_chunk_sizes(monkeypatch):
    # a small chunk splits the masks into many ranges, the empty mask alone
    # at the start of the first
    rng = random.Random(41)
    cases = []
    for _ in range(20):
        g = random_temporal(rng, rng.randint(1, 9), rng.randint(1, 3))
        for kind in [MM, MA, AM, AA] + [KMA(k) for k in range(1, g.T + 1)]:
            cases.append((g, kind, exact_best(g, kind)))
    monkeypatch.setattr(oracle, "_CHUNK", 4)
    for g, kind, want in cases:
        assert exact_best(g, kind) == want


def test_subset_tables_match_a_per_mask_recount_at_every_chunk_length():
    rng = random.Random(43)
    for n in range(1, 11):
        g = random_temporal(rng, n, rng.randint(1, 3))
        nbrs = np.array([oracle._neighbour_masks(e, n) for e in g.edge_arrays],
                        dtype=np.uint32)
        want = {False: [], True: []}  # edge counts, then min degrees
        for t in range(g.T):
            stats = [naive_stats(g, t, oracle._members(mask, n)) if mask else (0, 0)
                     for mask in range(1 << n)]
            want[False].append([count for count, _ in stats])
            want[True].append([min_deg for _, min_deg in stats])
        for bits in range(n + 1):
            length = 1 << bits
            for min_degree, tables_of in ((False, oracle._edge_count_tables),
                                          (True, oracle._min_degree_tables)):
                # the tables buffer is reused from chunk to chunk
                chunks = [(lo, tables.copy()) for lo, tables in tables_of(nbrs, length)]
                assert [lo for lo, _ in chunks] == list(range(0, 1 << n, length))
                got = np.concatenate([tables for _, tables in chunks], axis=1)
                assert got.tolist() == want[min_degree], (n, length, min_degree)


def test_chunk_length_bounds_frames_times_masks():
    assert oracle._chunk_length(16, 1) == oracle._chunk_length(16, 16) == 1 << 16
    assert oracle._chunk_length(16, 17) == 1 << 15
    assert oracle._chunk_length(16, 200) == 1 << 12
    assert oracle._chunk_length(3, 1) == 8
    assert oracle._chunk_length(20, 2**21) == 1


def test_exact_best_scratch_is_bounded_as_frames_grow():
    g = TemporalGraph(16, [[(0, 1)]] * 200)
    for kind in (MA, AM, KMA(100)):
        tracemalloc.start()
        try:
            s, sc = exact_best(g, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.members == (0, 1)
        # 2^16 int64 values (0.5 MiB), then 4096-mask chunks: 200 x 4096
        # table cells of about 10 bytes each, some 8 MiB.  A whole-range
        # chunk held 51 MiB (MA) and 76 MiB (KMA) of per-frame tables here.
        assert peak < 12 * 2**20, f"{kind}: peak {peak / 2**20:.1f} MiB"


def test_exact_best_pinned_across_two_chunks():
    # n = 17: the masks span two default-length chunks, the second with a high member
    g = random_temporal(random.Random(17), 17, 3)
    assert oracle._chunk_length(g.n, g.T) == 1 << 16
    want = {
        MM: ((4, 8), Fraction(1)),
        MA: ((3, 4, 8, 13, 15), Fraction(4, 5)),
        AM: ((2, 3, 5, 8, 9, 10, 15, 16), Fraction(8)),
        AA: (tuple(range(17)), Fraction(244, 17)),
        KMA(2): ((0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 13, 14, 15, 16), Fraction(47, 15)),
    }
    for kind, (members, value) in want.items():
        s, sc = exact_best(g, kind)
        assert (s.members, sc.value) == (members, value), kind


def test_subset_oracles_read_the_edge_arrays_only():
    g = random_temporal(random.Random(5), 9, 3)
    path = TemporalGraph(9, [[(0, 1), (1, 2), (4, 7)]])
    for kind in (MM, MA, AM, AA, KMA(2)):
        exact_best(g, kind)
    assert exact_mis(path) == 7
    assert "frames" not in vars(g) and "frames" not in vars(path)


def test_exact_best_tie_break_smallest_then_lexicographic():
    # two disjoint edges tie at MA = 1/2; {0,1} beats {2,3}
    g = TemporalGraph(4, [[(0, 1), (2, 3)]])
    s, sc = exact_best(g, MA)
    assert s.members == (0, 1) and sc.value == Fraction(1, 2)
    # all-isolated graph: everything scores 0; smallest then lexicographic
    g0 = TemporalGraph(3, [[]])
    s, sc = exact_best(g0, MA)
    assert s.members == (0,) and sc.value == 0


def test_exact_best_relabel_invariance():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(2, 8)
        g = random_temporal(rng, n, rng.randint(1, 3))
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = TemporalGraph(
            n, [[(perm[u], perm[v]) for u, v in fr] for fr in g.frames]
        )
        for kind in (MM, MA, AM, AA):
            assert exact_best(g, kind)[1].value == exact_best(relabeled, kind)[1].value


def test_kma_optimum_dominates_ma_optimum():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(2, 7)
        g = random_temporal(rng, n, rng.randint(2, 4))
        ma_opt = exact_best(g, MA)[1].value
        for k in range(1, g.T + 1):
            assert exact_best(g, KMA(k))[1].value >= ma_opt


def test_exact_best_budget():
    g = random_temporal(random.Random(1), 5, 2)
    with pytest.raises(BudgetExceeded):
        exact_best(g, MA, OracleBudget(max_vertices=4))


def test_exact_best_refuses_oversized_tables_before_allocating():
    # within the vertex budget, but 2^30 masks would need 16 GiB of tables
    g = TemporalGraph(30, [[(0, 1)]])
    with pytest.raises(BudgetExceeded, match="bytes"):
        exact_best(g, MA, OracleBudget(max_vertices=40))


def test_exact_mcss_examples():
    tri = TemporalGraph(3, [[(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 2)]])
    assert exact_mcss(tri).edges == ((0, 1), (1, 2))
    tree = TemporalGraph(4, [[(0, 1), (1, 2), (2, 3)]])
    assert exact_mcss(tree).edges == ((0, 1), (1, 2), (2, 3))
    g, _ = reduce_setcover_to_mcss(SetCoverInstance(1, [{0}]))
    assert len(exact_mcss(g)) == 3  # m + cover + 1 with m = 1, cover = 1


def test_exact_mcss_minimality_witness():
    rng = random.Random(37)
    for _ in range(10):
        g = random_connected(rng, rng.randint(3, 6), rng.randint(1, 3), max_union=12)
        best = exact_mcss(g)
        assert check_spanning(g, best)
        for drop in best.edges:
            reduced = EdgeSolution(e for e in best.edges if e != drop)
            assert not check_spanning(g, reduced)


def test_exact_mcss_errors():
    disconnected = TemporalGraph(3, [[(0, 1)]])
    with pytest.raises(InfeasibleFrame):
        exact_mcss(disconnected)
    big = random_connected(random.Random(3), 8, 2, extra=0.9)
    with pytest.raises(BudgetExceeded):
        exact_mcss(big, OracleBudget(max_union_edges=5))


def test_exact_minrep_examples():
    mr = MinRepInstance((("a1", "a2"),), (("b1",),), (("a1", "b1"),))
    assert exact_minrep(mr) == 2
    empty = MinRepInstance((("a1",),), (("b1",),), ())
    assert exact_minrep(empty) == 0
    disjoint = MinRepInstance(
        (("a1",), ("a2",)),
        (("b1",), ("b2",)),
        (("a1", "b1"), ("a2", "b2")),
    )
    assert exact_minrep(disjoint) == 4


def test_exact_minrep_budget():
    parts = tuple((f"a{i}",) for i in range(11))
    bparts = tuple((f"b{i}",) for i in range(11))
    mr = MinRepInstance(parts, bparts, (("a0", "b0"),))
    with pytest.raises(BudgetExceeded):
        exact_minrep(mr, OracleBudget(max_vertices=20))


def test_exact_mis_examples():
    path = TemporalGraph(3, [[(0, 1), (1, 2)]])
    assert exact_mis(path) == 2
    triangle = TemporalGraph(3, [[(0, 1), (0, 2), (1, 2)]])
    assert exact_mis(triangle) == 1
    empty = TemporalGraph(4, [[]])
    assert exact_mis(empty) == 4


def test_exact_mis_budget_and_frame_count():
    with pytest.raises(BudgetExceeded):
        exact_mis(TemporalGraph(6, [[]]), OracleBudget(max_vertices=5))
    with pytest.raises(ValueError):
        exact_mis(TemporalGraph(2, [[], []]))


def test_exact_setcover_examples():
    assert exact_setcover(SetCoverInstance(1, [{0}])) == 1
    # each element belongs to exactly one set: all m sets are forced
    forced = SetCoverInstance(3, [{0}, {1}, {2}])
    assert exact_setcover(forced) == 3
    triangle = ekvc_to_setcover(3, [(0, 1), (1, 2), (0, 2)])
    assert exact_setcover(triangle) == 2


def test_exact_setcover_uncoverable():
    with pytest.raises(Uncoverable):
        exact_setcover(SetCoverInstance(2, [{0}]))


def test_exact_mcss_first_feasible_in_lexicographic_order():
    cycle = TemporalGraph(3, [[(0, 1), (0, 2), (1, 2)]])
    # any two cycle edges span; (size, lexicographic) order picks the first
    assert exact_mcss(cycle).edges == ((0, 1), (0, 2))


def test_exact_mcss_pruning_preserves_plain_enumeration_order():
    from itertools import combinations

    from dcs.mcss import component_count

    def reference(g):
        union = g.union_edges
        for k in range(g.n - 1, len(union) + 1):
            for combo in combinations(union, k):
                chosen = set(combo)
                if all(
                    component_count(g.n, [e for e in fr if e in chosen]) == 1
                    for fr in g.frames
                ):
                    return tuple(sorted(combo))
        return None

    rng = random.Random(12345)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_connected(rng, n, rng.randint(1, 3),
                             extra=rng.random() * 0.7, max_union=10)
        assert exact_mcss(g).edges == reference(g)
