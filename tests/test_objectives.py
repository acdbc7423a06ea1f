"""Objective scoring against hand-derived values and cross formulations."""

import random
from fractions import Fraction

import numpy as np
import pytest

from dcs import (
    AA,
    AM,
    DcsError,
    EmptySolution,
    KMA,
    KOrderOutOfRange,
    MA,
    MM,
    ObjectiveKind,
    VertexOutOfRange,
    parse,
    score,
)
from helpers import random_temporal

TINY = parse("3 2\n0 0 1\n1 0 1\n1 1 2\n")


def test_score_examples():
    assert score(TINY, [0, 1], MA).value == Fraction(1, 2)
    assert score(TINY, [0, 1, 2], AM).value == 1
    assert score(TINY, [0, 1, 2], AA).value == 2
    assert score(TINY, [0, 1, 2], KMA(1)).value == Fraction(2, 3)


def test_singleton_scores_zero_under_every_kind():
    for kind in (MM, MA, AM, AA, KMA(1), KMA(2)):
        assert score(TINY, [1], kind).value == 0


def test_per_frame_entries():
    s = score(TINY, [0, 1, 2], MA)
    assert s.per_frame == (Fraction(1, 3), Fraction(2, 3))
    s = score(TINY, [0, 1, 2], AA)
    assert s.per_frame == (Fraction(2, 3), Fraction(4, 3))
    assert sum(s.per_frame) == s.value


def test_frame_densities_examples():
    # the per-frame densities |E_t[S]| / |S| are the MA score's entries
    assert score(TINY, [0, 1, 2], MA).per_frame == (Fraction(1, 3), Fraction(2, 3))
    assert score(TINY, [0, 1], MA).per_frame == (Fraction(1, 2), Fraction(1, 2))
    assert score(TINY, [2], MA).per_frame == (Fraction(0), Fraction(0))


def test_empty_solution_rejected():
    for kind in (MM, MA, AM, AA, KMA(1)):
        with pytest.raises(EmptySolution):
            score(TINY, [], kind)


def test_vertex_out_of_range_is_an_instance_error():
    with pytest.raises(VertexOutOfRange, match=r"vertex 3 outside graph range \[0, 3\)") as info:
        score(TINY, [0, 3], MA)
    assert isinstance(info.value, DcsError) and isinstance(info.value, ValueError)


def test_kma_order_validation():
    with pytest.raises(KOrderOutOfRange):
        score(TINY, [0, 1], KMA(3))
    with pytest.raises(ValueError):
        KMA(0)
    with pytest.raises(ValueError):
        ObjectiveKind("ma", k=2)


@pytest.mark.parametrize("bad", [1.5, "1", 1.0])
def test_kma_order_must_be_an_integer(bad):
    with pytest.raises(ValueError, match=f"KMA order k must be an integer, got {bad!r}"):
        ObjectiveKind("kma", bad)


def test_kma_order_accepts_integer_like_values():
    for k in (True, np.int64(1), np.int32(1)):
        kind = KMA(k)
        assert type(kind.k) is int and kind == KMA(1) and repr(kind) == "KMA(1)"
        assert score(TINY, [0, 1], kind) == score(TINY, [0, 1], KMA(1))


def test_kma_of_t_equals_ma():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_temporal(rng, n, rng.randint(1, 4))
        members = rng.sample(range(n), rng.randint(1, n))
        assert score(g, members, KMA(g.T)).value == score(g, members, MA).value


def test_kma_monotone_in_order():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 8)
        g = random_temporal(rng, n, rng.randint(2, 4))
        members = rng.sample(range(n), rng.randint(1, n))
        values = [score(g, members, KMA(k)).value for k in range(1, g.T + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_kma_aggregate_is_the_kth_entry_of_each_sorted_column():
    # small values give many ties; the oracle's tables are int16 and uint8
    rng = np.random.default_rng(7)
    for t_count in (1, 2, 3, 4, 5, 8, 13):
        for dtype in (np.int16, np.uint8):
            table = rng.integers(0, 4, size=(t_count, 40)).astype(dtype)
            for k in range(1, t_count + 1):
                want = [sorted(column)[t_count - k] for column in table.T.tolist()]
                assert KMA(k).aggregate(table).tolist() == want


def test_kma_aggregate_of_a_list_is_its_kth_largest():
    # score aggregates a plain list of per-frame ints
    rng = random.Random(7)
    for t_count in range(1, 14):
        values = [rng.randrange(4) for _ in range(t_count)]
        for k in range(1, t_count + 1):
            assert KMA(k).aggregate(values) == sorted(values)[t_count - k]


def test_degree_sum_formulation_is_twice_ma():
    # min over frames of (sum of induced degrees)/|S| equals 2 * MA score
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_temporal(rng, n, rng.randint(1, 3))
        members = sorted(rng.sample(range(n), rng.randint(1, n)))
        inside = set(members)
        per_frame = []
        for t in range(g.T):
            total = sum(len(g.adjacency(t)[v] & inside) for v in members)
            per_frame.append(Fraction(total, len(members)))
        assert min(per_frame) == 2 * score(g, members, MA).value


def test_aa_is_twice_the_density_sum():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 9)
        g = random_temporal(rng, n, rng.randint(1, 4))
        members = rng.sample(range(n), rng.randint(1, n))
        assert score(g, members, AA).value == 2 * sum(score(g, members, MA).per_frame)


def test_am_at_least_t_times_mm():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(2, 9)
        g = random_temporal(rng, n, rng.randint(1, 4))
        members = rng.sample(range(n), rng.randint(1, n))
        assert score(g, members, AM).value >= g.T * score(g, members, MM).value


def test_am_can_exceed_t_times_mm():
    # one frame contributes 0, the other 1: AM = 1 > T*MM = 0
    g = parse("3 2\n1 0 1\n1 1 2\n0 0 1\n")
    assert score(g, [0, 1, 2], AM).value == 1
    assert score(g, [0, 1, 2], MM).value == 0


def test_unknown_objective_name_is_refused():
    with pytest.raises(ValueError, match="^unknown objective 'xx'$"):
        ObjectiveKind("xx")
