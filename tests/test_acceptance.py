"""Acceptance suite: one test per exit criterion, each printing a verdict.

Every criterion is oracle-anchored and exact (rational arithmetic
throughout; square roots and cube roots compared by cross-powering).
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from dcs import (
    AM,
    MA,
    PlantedParams,
    best_with_all,
    check_feasible,
    check_spanning,
    composite_ma,
    core,
    exact_am,
    exact_best,
    exact_mcss,
    exact_minrep,
    exact_mis,
    exact_setcover,
    fpt_approx_am,
    gap_report,
    gen_gap_instance,
    gen_planted_2frame,
    harmonic_solution,
    mcss_greedy,
    planted_subset,
    random_graph,
    random_minrep,
    random_set_cover,
    reduce_minrep_to_ma,
    reduce_mis_to_am,
    reduce_setcover_to_mcss,
    sample_recursive_planted,
    score,
    serialize,
    RecursiveParams,
    TemporalGraph,
)
from dcs.cli import run as cli_run
from dcs.lp import harmonic_number
from helpers import random_connected, random_nonedgeless, random_temporal

import io


def _verdict(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {detail} ({time.perf_counter() - t0:.1f}s)")
    assert ok, f"criterion {num} failed: {detail}"


def _am_corpus(count: int):
    rng = random.Random(20240601)
    for _ in range(count):
        n = rng.randint(2, 12)
        t_count = rng.randint(1, 3)
        yield random_temporal(rng, n, t_count, density=rng.random())


def test_criterion_1_exact_am_matches_oracle():
    t0 = time.perf_counter()
    checked = 0
    for g in _am_corpus(500):
        assert exact_am(g)[1] == exact_best(g, AM)[1].value
        checked += 1
    _verdict(1, checked == 500, f"exact AM == oracle on {checked} instances", t0)


def test_criterion_2_fpt_soundness():
    t0 = time.perf_counter()
    epsilons = (Fraction(1, 10), Fraction(1, 2), Fraction(1))
    checked = 0
    for g in _am_corpus(500):
        exact_value = exact_am(g)[1]
        for eps in epsilons:
            approx = fpt_approx_am(g, eps)[1]
            assert approx * (1 + eps) >= exact_value
            assert approx <= exact_value
        checked += 1
    _verdict(2, checked == 500,
             f"(1+eps)-soundness at eps in {{1/10, 1/2, 1}} on {checked} instances", t0)


def test_criterion_3_ma_approximation_ratios():
    t0 = time.perf_counter()
    rng = random.Random(20240603)
    checked = 0
    for _ in range(500):
        n = rng.randint(2, 12)
        t_count = rng.choice([2, 3, 4])
        g = random_nonedgeless(rng, n, t_count, density=rng.random())
        opt = exact_best(g, MA)[1].value
        comp = composite_ma(g).score.value
        assert comp**3 * n**2 >= opt**3
        both = best_with_all(g).score.value
        # sqrt(2 n ln T) bound, cross-squared; ln T enters as the exact
        # rational value of its binary64 representation
        assert both**2 * 2 * n * Fraction(math.log(t_count)) >= opt**2
        checked += 1
    _verdict(3, checked == 500,
             f"n^(2/3) and sqrt(2 n ln T) ratios on {checked} instances", t0)


def test_criterion_4_integrality_gap_family():
    t0 = time.perf_counter()
    for n in range(3, 11):
        opt = exact_best(gen_gap_instance(n), MA)[1].value
        assert opt == Fraction(1, n)
        g, f = harmonic_solution(n)
        feasible, value, violations = check_feasible(g, f)
        assert feasible and not violations
        assert value == 1 / (1 + harmonic_number(n - 1))
        report = gap_report(n)
        assert report.ratio == Fraction(n) / (1 + harmonic_number(n - 1))
    assert gap_report(4).ratio == Fraction(24, 17)
    _verdict(4, True, "gap family exact at n in 3..10 (ratio 24/17 at n=4)", t0)


def test_criterion_5_reduction_identities():
    t0 = time.perf_counter()
    rng = random.Random(20240605)
    for trial in range(100):
        parts = rng.randint(1, 3)
        part_size = rng.randint(1, 12 // (2 * parts))
        mr = random_minrep(parts, part_size, rng.random(), seed=trial)
        g, _ = reduce_minrep_to_ma(mr)
        assert exact_best(g, MA)[1].value == Fraction(1, exact_minrep(mr) + 2)
    for trial in range(100):
        n = rng.randint(2, 8)
        base = random_graph(n, rng.random() * 0.9, seed=10_000 + trial)
        adj = base.adjacency(0)
        if all(len(adj[v]) == n - 1 for v in range(n)):
            frame = [e for e in base.frames[0] if e != (0, 1)]
            base = TemporalGraph(n, [frame])
        red = reduce_mis_to_am(base)
        assert exact_best(red, AM)[1].value == exact_mis(base)
    for trial in range(100):
        m = rng.randint(1, 8)
        sc = random_set_cover(rng.randint(1, 6), m, rng.random(), seed=20_000 + trial)
        g, _ = reduce_setcover_to_mcss(sc)
        assert len(exact_mcss(g)) == m + exact_setcover(sc) + 1
    _verdict(5, True, "MinRep, independent-set, and set-cover identities, 100 each", t0)


def test_criterion_6_mcss_greedy_bound():
    t0 = time.perf_counter()
    rng = random.Random(20240606)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        t_count = rng.randint(1, 4)
        g = random_connected(rng, n, t_count, extra=rng.random() * 0.6, max_union=16)
        assert len(g.union_edges) <= 16
        greedy = mcss_greedy(g)
        assert check_spanning(g, greedy)
        assert len(greedy) <= (math.log(t_count) + 1) * len(exact_mcss(g)) + 1
        checked += 1
    _verdict(6, checked == 200,
             f"greedy feasible and within (ln T + 1) * OPT + 1 on {checked} instances", t0)


def _randomized_peel(g: TemporalGraph, thresholds, rng: random.Random) -> frozenset:
    """Independent peeling with a random victim order (incremental degrees)."""
    adjs = [g.adjacency(t) for t in range(g.T)]
    alive = set(range(g.n))
    deg = [{v: len(adjs[t][v]) for v in alive} for t in range(g.T)]
    violating = {
        v for v in alive
        if any(deg[t][v] < thresholds[t] for t in range(g.T))
    }
    while violating:
        v = rng.choice(sorted(violating))
        violating.remove(v)
        alive.remove(v)
        for t in range(g.T):
            for w in adjs[t][v]:
                if w in alive:
                    deg[t][w] -= 1
                    if deg[t][w] < thresholds[t]:
                        violating.add(w)
    return frozenset(alive)


def _maximal_core_by_subset_filtering(g: TemporalGraph, thresholds) -> frozenset:
    """Union of all subsets meeting the degree thresholds (n <= 12 only)."""
    n = g.n
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1).astype(
        np.float64
    )
    ok = np.ones(1 << n, dtype=bool)
    for t in range(g.T):
        mat = np.zeros((n, n))
        for u, v in g.frames[t]:
            mat[u, v] = mat[v, u] = 1.0
        deg = bits @ mat
        ok &= np.where(bits > 0, deg >= thresholds[t], True).all(axis=1)
    union_mask = int(np.bitwise_or.reduce(masks[ok])) if ok.any() else 0
    return frozenset(v for v in range(n) if union_mask >> v & 1)


def test_criterion_7_core_peeling():
    t0 = time.perf_counter()
    rng = random.Random(20240607)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 30)
        t_count = rng.randint(1, 4)
        g = random_temporal(rng, n, t_count, density=rng.random() * 0.5)
        thresholds = tuple(
            min(n - 1, max(0, rng.randint(0, max(1, g.max_degree(t)))))
            for t in range(t_count)
        )
        want = frozenset(core(g, thresholds))
        for _ in range(20):
            assert _randomized_peel(g, thresholds, rng) == want
        if n <= 12:
            assert _maximal_core_by_subset_filtering(g, thresholds) == want
        checked += 1
    _verdict(7, checked == 200,
             f"order-independence x20 and subset-filter agreement on {checked} pairs", t0)


def test_criterion_8_planted_smoke_test():
    t0 = time.perf_counter()
    n, eps = 4096, Fraction(1, 20)
    witness_extra = 1
    while witness_extra**8 < n**3:  # ceil(n^(3/8))
        witness_extra += 1
    wins = 0
    for pair in range(10):
        planted = PlantedParams(n=n, eps=eps, planted=True, seed=1000 + 2 * pair)
        unplanted = PlantedParams(n=n, eps=eps, planted=False, seed=1001 + 2 * pair)
        g_p = gen_planted_2frame(planted)
        g_u = gen_planted_2frame(unplanted)
        fresh = list(range(n, g_p.n))
        wit_p = fresh + list(planted_subset(planted)[:witness_extra])
        wit_u = fresh + list(planted_subset(unplanted)[:witness_extra])
        if score(g_p, wit_p, MA).value > score(g_u, wit_u, MA).value:
            wins += 1
    _verdict(8, wins >= 9, f"planted witness beats unplanted in {wins}/10 seed pairs", t0)


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    p = PlantedParams(n=64, eps=Fraction(1, 10), planted=True, seed=123)
    assert serialize(gen_planted_2frame(p)) == serialize(gen_planted_2frame(p))
    rp = RecursiveParams((50, 7), (Fraction(1, 2), Fraction(1, 2)), seed=123)
    assert serialize(sample_recursive_planted(rp)) == serialize(
        sample_recursive_planted(rp)
    )
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        blobs = {}
        for threads in ("1", "8"):
            for name, argv in {
                "planted": ["gen", "planted", "--n", "64", "--eps", "1/10",
                            "--planted", "--seed", "5"],
                "recursive": ["gen", "recursive", "--nvec", "40,6",
                              "--pvec", "1/2,1/2", "--seed", "5"],
                "minrep": ["gen", "minrep", "--seed", "5"],
                "setcover": ["gen", "setcover-mcss", "--seed", "5"],
                "gap": ["gen", "gap", "--n", "9"],
                "mis": ["gen", "mis", "--n", "7", "--seed", "5"],
            }.items():
                path = os.path.join(tmp, f"{name}-{threads}.dcs")
                code = cli_run(["--threads", threads] + argv + ["--out", path],
                               stdout=io.StringIO(), stderr=io.StringIO())
                assert code == 0
                blobs.setdefault(name, []).append(Path(path).read_bytes())
        for name, (a, b) in blobs.items():
            assert a == b, f"{name} differs across thread counts"
    _verdict(9, True, "seeded generators byte-identical across runs and threads 1/8", t0)
