"""Greedy common-spanning-subgraph selection and its potential function."""

import hashlib
import math
import random
from itertools import combinations

import pytest

from dcs import (
    EdgeNotInUnion,
    EdgeSolution,
    InfeasibleFrame,
    SetCoverInstance,
    TemporalGraph,
    check_spanning,
    exact_mcss,
    exact_setcover,
    mcss_greedy,
    mcss_greedy_run,
    potential,
    random_set_cover,
    reduce_setcover_to_mcss,
)
from helpers import naive_mcss_greedy, random_connected, random_wide_connected

TRI_PATH = TemporalGraph(3, [[(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 2)]])


def test_one_vertex_needs_no_edges():
    g = TemporalGraph(1, [[], []])
    assert exact_mcss(g).edges == ()
    run = mcss_greedy_run(g)
    assert run.picks == run.gains == run.potentials == ()
    assert run.solution.edges == () and run.phase_boundary == 0


def test_greedy_examples():
    assert mcss_greedy(TRI_PATH).edges == ((0, 1), (1, 2))
    tree = TemporalGraph(4, [[(0, 2), (1, 2), (2, 3)]])
    assert mcss_greedy(tree).edges == ((0, 2), (1, 2), (2, 3))
    base = [(0, 1), (1, 2), (1, 3)]
    repeated = TemporalGraph(4, [base, base, base])
    got = mcss_greedy(repeated)
    assert len(got) == 3 and check_spanning(repeated, got)


def test_greedy_first_picks_merge_in_both_frames():
    run = mcss_greedy_run(TRI_PATH)
    assert run.gains == (2, 2)
    assert run.picks == ((0, 1), (1, 2))


def test_check_spanning():
    solution = mcss_greedy(TRI_PATH)
    assert check_spanning(TRI_PATH, solution)
    assert not check_spanning(TRI_PATH, EdgeSolution(()))
    assert check_spanning(TRI_PATH, EdgeSolution(TRI_PATH.union_edges))


def test_check_spanning_rejects_foreign_edges():
    with pytest.raises(EdgeNotInUnion):
        check_spanning(TRI_PATH, EdgeSolution([(0, 1), (1, 2), (0, 2), (2, 3)]))
    with pytest.raises(EdgeNotInUnion):
        potential(TRI_PATH, EdgeSolution([(2, 3)]))


def test_potential_values():
    assert potential(TRI_PATH, EdgeSolution(())) == 4  # nT - T
    feasible = mcss_greedy(TRI_PATH)
    assert potential(TRI_PATH, feasible) == 0
    assert potential(TRI_PATH, EdgeSolution([(0, 1)])) == 2  # one merge per frame


def test_potential_strictly_decreasing_along_trace():
    rng = random.Random(101)
    for _ in range(15):
        g = random_connected(rng, rng.randint(2, 7), rng.randint(1, 4))
        run = mcss_greedy_run(g)
        seq = (g.n * g.T - g.T,) + run.potentials
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert run.potentials[-1] == 0 if run.potentials else seq[0] == 0
        assert run.gains == tuple(a - b for a, b in zip(seq, seq[1:]))


def test_greedy_feasible_and_at_least_spanning_tree_size():
    rng = random.Random(103)
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 8), rng.randint(1, 4))
        got = mcss_greedy(g)
        assert check_spanning(g, got)
        assert len(got) >= g.n - 1


def test_greedy_versus_exact_bound():
    rng = random.Random(107)
    for _ in range(15):
        g = random_connected(rng, rng.randint(3, 6), rng.randint(1, 4), max_union=12)
        greedy_size = len(mcss_greedy(g))
        exact_size = len(exact_mcss(g))
        assert greedy_size <= (math.log(g.T) + 1) * exact_size + 1


def test_setcover_family_forces_the_spine():
    rng = random.Random(109)
    for seed in range(8):
        sc = random_set_cover(rng.randint(1, 4), rng.randint(2, 4), 0.5, seed)
        g, _ = reduce_setcover_to_mcss(sc)
        m = len(sc.sets)
        got = mcss_greedy(g)
        assert check_spanning(g, got)
        assert len(got) >= m + 1
        assert len(exact_mcss(g)) == m + exact_setcover(sc) + 1


def test_infeasible_frame():
    with pytest.raises(InfeasibleFrame):
        mcss_greedy(TemporalGraph(3, [[(0, 1)]]))


def test_mcss_paths_read_the_edge_arrays_only():
    g = random_connected(random.Random(113), 6, 3, max_union=10)
    run = mcss_greedy_run(g)
    assert check_spanning(g, run.solution) and potential(g, run.solution) == 0
    assert len(exact_mcss(g)) <= len(run.solution)
    split = TemporalGraph(3, [[(0, 1), (1, 2)], [(0, 1)]])
    with pytest.raises(InfeasibleFrame):
        mcss_greedy(split)
    assert "frames" not in vars(g) and "frames" not in vars(split)


def test_greedy_matches_naive_on_wide_unions():
    # each frame its own spanning tree plus Bernoulli(0.03) pairs: most
    # union edges stop merging long before the last pick
    rng = random.Random(127)
    for _ in range(3):
        g = random_wide_connected(rng, 60, 8, 0.03)
        run = mcss_greedy_run(g)
        got = (run.picks, run.gains, run.potentials, run.phase_boundary)
        assert got == naive_mcss_greedy(g)


@pytest.mark.slow
def test_greedy_on_connected_n200_t16():
    # each frame: a random spanning tree plus Bernoulli(0.05) extra pairs
    rng = random.Random(1)
    frames = []
    for _ in range(16):
        order = list(range(200))
        rng.shuffle(order)
        tree = {tuple(sorted((order[rng.randrange(i)], order[i]))) for i in range(1, 200)}
        frames.append(tree | {e for e in combinations(range(200), 2) if rng.random() < 0.05})
    g = TemporalGraph(200, frames)
    run = mcss_greedy_run(g)
    assert len(g.union_edges) == 12427 and len(run.picks) == 1144
    digest = hashlib.sha256(repr((run.picks, run.gains)).encode()).hexdigest()
    assert digest == "c2343da4f2af6ead8e2a820538ccfb8c8efbfaee736d46e6807bad969688681b"
