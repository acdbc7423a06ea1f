"""Core peeling and the threshold-vector solvers."""

import random
from fractions import Fraction

import numpy as np
import pytest

from dcs import (
    AM,
    BudgetExceeded,
    MM,
    TemporalGraph,
    VertexSet,
    core,
    exact_am,
    exact_best,
    fpt_approx_am,
    parse,
    score,
    threshold_grid,
)
from dcs import am
from helpers import naive_core, random_temporal

TINY = parse("3 2\n0 0 1\n1 0 1\n1 1 2\n")
K4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
PATH4 = [(0, 1), (1, 2), (2, 3)]
K4_PATH = TemporalGraph(4, [K4, PATH4])


def test_core_examples():
    assert core(K4_PATH, (2, 1)).members == (0, 1, 2, 3)
    assert core(K4_PATH, (3, 2)).members == ()
    assert core(K4_PATH, (0, 0)).members == (0, 1, 2, 3)


def test_core_vector_validation():
    with pytest.raises(ValueError):
        core(K4_PATH, (1,))
    with pytest.raises(ValueError):
        core(K4_PATH, (4, 0))
    with pytest.raises(ValueError):
        core(K4_PATH, (-1, 0))


@pytest.mark.parametrize("bad", [1.9, "2", 2.0, None])
def test_core_rejects_non_integer_thresholds(bad):
    with pytest.raises(ValueError, match=f"threshold must be an integer, got {bad!r}"):
        core(K4_PATH, (bad, 0))


def test_core_accepts_integer_like_thresholds():
    assert core(K4_PATH, (np.int64(3), True)) == core(K4_PATH, (3, 1))


def test_core_order_independent():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(2, 12)
        g = random_temporal(rng, n, rng.randint(1, 4))
        kv = tuple(rng.randint(0, max(0, min(n - 1, 3))) for _ in range(g.T))
        want = frozenset(core(g, kv))
        for _ in range(20):
            assert naive_core(g, kv, rng) == want


def test_core_monotone_in_thresholds():
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(2, 10)
        g = random_temporal(rng, n, rng.randint(1, 3))
        kv = tuple(rng.randint(0, min(n - 1, 2)) for _ in range(g.T))
        bumped = tuple(k + rng.randint(0, 1) for k in kv)
        if max(bumped) > n - 1:
            continue
        assert set(core(g, bumped)).issubset(set(core(g, kv)))


def test_nonempty_core_value_lower_bound():
    rng = random.Random(73)
    for _ in range(25):
        n = rng.randint(2, 10)
        g = random_temporal(rng, n, rng.randint(1, 3))
        kv = tuple(rng.randint(0, min(n - 1, 2)) for _ in range(g.T))
        got = core(g, kv)
        if got.members:
            assert score(g, got, AM).value >= sum(kv)


def test_exact_am_examples():
    solution, value = exact_am(TINY)
    assert solution.members == (0, 1) and value == 2
    solution, value = exact_am(K4_PATH)
    assert solution.members == (0, 1, 2, 3) and value == 4


def test_exact_am_single_frame_equals_mm_optimum():
    rng = random.Random(79)
    for _ in range(10):
        g = random_temporal(rng, rng.randint(2, 9), 1)
        _, value = exact_am(g)
        assert value == exact_best(g, MM)[1].value


def test_exact_am_matches_oracle():
    rng = random.Random(83)
    for _ in range(40):
        n = rng.randint(2, 10)
        g = random_temporal(rng, n, rng.randint(1, 3))
        solution, value = exact_am(g)
        assert value == exact_best(g, AM)[1].value
        assert score(g, solution, AM).value >= value


def test_exact_am_budget():
    g = random_temporal(random.Random(5), 8, 3, density=0.8)
    with pytest.raises(BudgetExceeded):
        exact_am(g, max_vectors=3)


def test_exact_am_budget_boundary_pins_peel_count():
    # The search peels exactly 65 threshold vectors on this instance.
    g = random_temporal(random.Random(11), 10, 3, density=0.5)
    solution, value = exact_am(g, max_vectors=65)
    assert solution.members == (0, 1, 3, 4, 6, 9) and value == 8
    with pytest.raises(BudgetExceeded):
        exact_am(g, max_vectors=64)


def test_fpt_approx_am_runs_under_the_peel_cap(monkeypatch):
    # eps <= 1/(n-1) puts every integer on the grid, so fpt_approx_am peels
    # the same 65 vectors as exact_am on this instance
    g = random_temporal(random.Random(11), 10, 3, density=0.5)
    monkeypatch.setattr(am, "_MAX_VECTORS", 65)
    solution, value = fpt_approx_am(g, Fraction(1, 100))
    assert solution.members == (0, 1, 3, 4, 6, 9) and value == 8
    monkeypatch.setattr(am, "_MAX_VECTORS", 64)
    with pytest.raises(BudgetExceeded, match="exceeded cap 64"):
        fpt_approx_am(g, Fraction(1, 100))


def test_exact_am_frontier_stops_an_inner_frame_loop():
    # Three copies of the path 0-1-2-3: each frame has a 1-core and no
    # 2-core, so every frame's degeneracy bound is 1.  (0, 2, 0) is
    # recorded empty under prefix (0,), so below prefix (1,) the frame-1
    # loop stops at k = 2 without peeling (1, 2, 0); likewise (0, 0, 2)
    # stops the frame-2 loops below (0, 1) and (1, 1) at k = 2.  The
    # last-frame node below (1, 0) is cut by its parent's frame-2 bound,
    # as 1 + 0 + 1 does not beat the sum 2 of (0, 1, 1), so (1, 0, 0) and
    # (1, 0, 1) are not peeled there; the search peels 15 vectors (18
    # without the frontier).
    path = [(0, 1), (1, 2), (2, 3)]
    g = TemporalGraph(4, [path, path, path])
    solution, value = exact_am(g, max_vectors=15)
    assert solution.members == (0, 1, 2, 3) and value == 3
    with pytest.raises(BudgetExceeded, match="exceeded cap 14$"):
        exact_am(g, max_vectors=14)


def test_exact_am_at_n100_t6_under_the_default_cap():
    g = random_temporal(random.Random(1), 100, 6, density=0.1)
    assert exact_am(g)[1] == 27


@pytest.mark.slow
def test_exact_am_at_n100_t8_under_the_default_cap():
    g = random_temporal(random.Random(1), 100, 8, density=0.1)
    assert exact_am(g)[1] == 35


def test_am_solvers_are_invariant_past_the_oracle():
    # Relations any exact search must keep, at sizes the oracle cannot
    # check: a vertex relabelling maps the core, a frame permutation keeps
    # the value, and an extra isolated vertex keeps core and value.  The
    # last needs a positive value: the all-zero vector's core is V.
    rng = random.Random(67)
    for _ in range(6):
        n, t_count = rng.randint(30, 80), rng.randint(3, 5)
        g = random_temporal(rng, n, t_count, density=rng.uniform(0.05, 0.15))
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = TemporalGraph(n, [[(perm[u], perm[v]) for u, v in fr] for fr in g.frames])
        order = list(range(t_count))
        rng.shuffle(order)
        permuted = TemporalGraph(n, [g.frames[t] for t in order])
        padded = TemporalGraph(n + 1, g.frames)
        for solve in (exact_am, lambda h: fpt_approx_am(h, Fraction(1, 2))):
            solution, value = solve(g)
            assert value > 0
            assert solve(relabelled) == (VertexSet(perm[v] for v in solution), value)
            assert solve(permuted)[1] == value
            assert solve(padded) == (solution, value)


@pytest.mark.parametrize("bad", [100.5, "7", None, 1.0])
def test_exact_am_rejects_non_integer_caps(bad):
    with pytest.raises(ValueError, match=f"max_vectors must be an integer, got {bad!r}"):
        exact_am(TINY, max_vectors=bad)


@pytest.mark.parametrize("bad", [0, -3, False])
def test_exact_am_rejects_caps_below_one(bad):
    with pytest.raises(ValueError, match=f"max_vectors must be at least 1, got {int(bad)}"):
        exact_am(TINY, max_vectors=bad)


def test_exact_am_cap_message_names_the_integer_cap():
    with pytest.raises(BudgetExceeded, match="exceeded cap 1$"):
        exact_am(K4_PATH, max_vectors=True)
    assert exact_am(K4_PATH, max_vectors=np.int64(100)) == exact_am(K4_PATH)


def test_fpt_examples():
    solution, value = fpt_approx_am(TINY, 1)
    assert value == 2 and solution.members == (0, 1)
    # huge eps collapses the grid to {0, 1}
    assert threshold_grid(10**6, 2) == (0, 1)
    _, value = fpt_approx_am(TINY, 10**6)
    assert value == 2  # vector (1, 1) is still on the grid


def test_fpt_exact_when_degrees_at_most_one():
    g = TemporalGraph(4, [[(0, 1), (2, 3)], [(0, 2)]])
    assert fpt_approx_am(g, Fraction(1, 10))[1] == exact_am(g)[1]


def test_fpt_soundness():
    rng = random.Random(89)
    for _ in range(25):
        n = rng.randint(2, 9)
        g = random_temporal(rng, n, rng.randint(1, 3))
        _, exact_value = exact_am(g)
        for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            _, approx = fpt_approx_am(g, eps)
            assert approx * (1 + eps) >= exact_value
            assert approx <= exact_value


def test_threshold_grid_values():
    assert threshold_grid(1, 10) == (0, 1, 2, 4, 8)
    assert threshold_grid(Fraction(1, 2), 10) == (0, 1, 2, 3, 5, 7)
    # eps below 1/limit: no integer can be skipped
    assert threshold_grid(Fraction(1, 100), 12) == tuple(range(13))
    assert threshold_grid(Fraction(1, 10), 0) == (0,)
    with pytest.raises(ValueError):
        threshold_grid(0, 5)


def test_threshold_grid_matches_direct_powers():
    for eps in (Fraction(1, 10), Fraction(3, 10), Fraction(2)):
        limit = 25
        base = 1 + eps
        want = {0}
        power = Fraction(1)
        while power.numerator // power.denominator <= limit:
            want.add(power.numerator // power.denominator)
            power *= base
        assert threshold_grid(eps, limit) == tuple(sorted(want))
