"""Instance generators: constructions, reduction identities, determinism."""

import math
import random
from fractions import Fraction

import pytest

from dcs import (
    AM,
    CompleteGraph,
    MA,
    MinRepInstance,
    NotSingleFrame,
    NotUniform,
    PlantedParams,
    RecursiveParams,
    SetCoverInstance,
    TemporalGraph,
    Uncoverable,
    ekvc_to_setcover,
    exact_best,
    exact_mcss,
    exact_minrep,
    exact_mis,
    exact_setcover,
    gen_gap_instance,
    gen_padded_sequence,
    gen_planted_2frame,
    parse,
    planted_subset,
    random_graph,
    random_minrep,
    random_set_cover,
    reduce_minrep_to_ma,
    reduce_mis_to_am,
    reduce_setcover_to_mcss,
    sample_recursive_planted,
    serialize,
)
from dcs.generators import _ceil_root
from helpers import naive_minrep_edges, naive_set_cover_sets


def test_gap_instance_construction():
    assert gen_gap_instance(3).frames == (((0, 1),), ((0, 2), (1, 2)))
    assert gen_gap_instance(4).frames[2] == ((0, 3), (1, 3), (2, 3))
    g2 = gen_gap_instance(2)
    assert g2.T == 1 and g2.frames == (((0, 1),),)


def test_minrep_reduction_shape_and_identity():
    mr = MinRepInstance((("a1", "a2"),), (("b1",),), (("a1", "b1"),))
    g, names = reduce_minrep_to_ma(mr)
    assert g.n == 5 and g.T == 2
    assert g.frames[0] == ((3, 4),)              # the fresh (u, v) edge
    assert g.frames[1] == ((0, 2),)              # a1-b1
    assert names == {0: "a1", 1: "a2", 2: "b1", 3: "u", 4: "v"}
    assert exact_best(g, MA)[1].value == Fraction(1, exact_minrep(mr) + 2)


def test_minrep_rejects_repeated_edges():
    with pytest.raises(ValueError, match=r"edge \('a', 'b'\) is repeated"):
        MinRepInstance((("a",),), (("b",),), (("a", "b"), ("a", "b")))
    # the same pair of labels in the other order does not cross, so it is
    # rejected as such, and distinct edges sharing an endpoint are fine
    with pytest.raises(ValueError, match="does not cross"):
        MinRepInstance((("a",),), (("b",),), (("a", "b"), ("b", "a")))
    assert len(MinRepInstance((("a",),), (("b", "c"),), (("a", "b"), ("a", "c"))).edges) == 2


def test_minrep_reduction_frame_counts():
    mr = random_minrep(parts=2, part_size=2, edge_prob=0.9, seed=11)
    g, _ = reduce_minrep_to_ma(mr)
    assert g.T == len(mr.superedges()) + 1
    assert len(g.frames[0]) == 1


def test_minrep_reduction_identity_random():
    for seed in range(12):
        mr = random_minrep(parts=2, part_size=2, edge_prob=0.4, seed=seed)
        g, _ = reduce_minrep_to_ma(mr)
        assert exact_best(g, MA)[1].value == Fraction(1, exact_minrep(mr) + 2)


def test_mis_reduction_examples():
    path = TemporalGraph(3, [[(0, 1), (1, 2)]])
    red = reduce_mis_to_am(path)
    assert red.T == 3
    assert red.frames[1] == ()                  # middle vertex has no non-neighbor
    assert exact_best(red, AM)[1].value == exact_mis(path) == 2

    empty = TemporalGraph(4, [[]])
    red = reduce_mis_to_am(empty)
    assert all(len(fr) == 3 for fr in red.frames)  # 4-vertex stars
    assert exact_best(red, AM)[1].value == 4

    star = TemporalGraph(4, [[(0, 1), (0, 2), (0, 3)]])
    assert exact_best(reduce_mis_to_am(star), AM)[1].value == exact_mis(star) == 3


def test_mis_reduction_rejects_complete_graph():
    k3 = TemporalGraph(3, [[(0, 1), (0, 2), (1, 2)]])
    with pytest.raises(CompleteGraph):
        reduce_mis_to_am(k3)


def test_mis_reduction_and_oracle_need_one_frame():
    two_frames = TemporalGraph(3, [[(0, 1)], [(1, 2)]])
    for call in (reduce_mis_to_am, exact_mis):
        with pytest.raises(NotSingleFrame, match="input must be a single-frame graph"):
            call(two_frames)


def test_planted_sizes():
    g = gen_planted_2frame(PlantedParams(n=16, eps=Fraction(1, 10), planted=False, seed=0))
    assert g.n == 18 and len(g.frames[0]) == 1
    g = gen_planted_2frame(PlantedParams(n=256, eps=Fraction(1, 10), planted=True, seed=0))
    assert g.n == 260 and len(g.frames[0]) == 6
    assert all(u >= 256 for u, v in g.frames[0])


def test_planted_determinism_and_overlay():
    p = PlantedParams(n=64, eps=Fraction(1, 10), planted=True, seed=5)
    assert serialize(gen_planted_2frame(p)) == serialize(gen_planted_2frame(p))
    unplanted = PlantedParams(n=64, eps=Fraction(1, 10), planted=False, seed=5)
    planted_edges = set(gen_planted_2frame(p).frames[1])
    base_edges = set(gen_planted_2frame(unplanted).frames[1])
    assert base_edges <= planted_edges  # overlay only adds edges
    sub = planted_subset(p)
    assert len(sub) == 8 and sub == planted_subset(unplanted)


def test_planted_params_validation():
    with pytest.raises(ValueError):
        PlantedParams(n=8, eps=Fraction(1, 10), planted=True, seed=0)
    with pytest.raises(ValueError):
        PlantedParams(n=16, eps=Fraction(1, 4), planted=True, seed=0)


def test_ceil_root():
    assert _ceil_root(16, 4) == 2
    assert _ceil_root(17, 4) == 3
    assert _ceil_root(256, 2) == 16
    assert _ceil_root(1, 4) == 1


def test_recursive_complete_case():
    g = sample_recursive_planted(RecursiveParams((5,), (Fraction(1),), seed=3))
    assert len(g.frames[0]) == 10


def test_recursive_expected_edge_count():
    # C(100, 2) * 100**-0.5 = 495; sigma = sqrt(4950 * p * (1-p)) ~ 21
    p = 100**-0.5
    sigma = math.sqrt(4950 * p * (1 - p))
    for seed in (1, 2, 3, 4, 5):
        g = sample_recursive_planted(RecursiveParams((100,), (Fraction(1, 2),), seed=seed))
        assert abs(len(g.frames[0]) - 495) <= 4 * sigma


def test_recursive_planted_layer_is_denser():
    # induced edges on the chosen 10-subset vs. an unplanted instance's same
    # positions, totalled over 50 seeds
    from dcs.generators import _recursive_edges
    from dcs.rng import substream

    planted_total = 0
    plain_total = 0
    for seed in range(50):
        params = RecursiveParams((100, 10), (Fraction(1, 2), Fraction(1, 2)), seed=seed)
        g = sample_recursive_planted(params)
        pick = substream(seed, 1).sample_without_replacement(100, 10)
        inside = set(pick)
        planted_total += sum(
            1 for u, v in g.frames[0] if u in inside and v in inside
        )
        plain = sample_recursive_planted(
            RecursiveParams((100,), (Fraction(1, 2),), seed=seed)
        )
        plain_total += sum(
            1 for u, v in plain.frames[0] if u in inside and v in inside
        )
    assert planted_total > plain_total


def test_recursive_params_validation():
    with pytest.raises(ValueError):
        RecursiveParams((10, 10), (Fraction(1, 2), Fraction(1, 2)), seed=0)
    with pytest.raises(ValueError):
        RecursiveParams((10, 5), (Fraction(1, 2),), seed=0)
    with pytest.raises(ValueError):
        RecursiveParams((10,), (Fraction(0),), seed=0)


def test_padding():
    base = parse("3 2\n0 0 1\n1 0 1\n1 1 2\n")
    assert gen_padded_sequence(base, 0, Fraction(1, 20), seed=1) == base
    padded = gen_padded_sequence(base, 5, Fraction(1, 20), seed=1)
    assert padded.T == 7 and padded.frames[:2] == base.frames
    again = gen_padded_sequence(base, 5, Fraction(1, 20), seed=1)
    assert serialize(padded) == serialize(again)


def test_padding_respects_ambient_range():
    base = gen_planted_2frame(PlantedParams(n=16, eps=Fraction(1, 10), planted=False, seed=2))
    padded = gen_padded_sequence(base, 20, Fraction(0), seed=9, ambient_n=16)
    # eps' = 0 pads with complete ambient graphs; fresh vertices stay isolated
    for frame in padded.frames[2:]:
        assert len(frame) == 16 * 15 // 2
        assert all(v < 16 for e in frame for v in e)


def test_padding_default_count():
    base = parse("2 1\n0 0 1\n")
    padded = gen_padded_sequence(base, None, Fraction(1, 2), seed=0)
    assert padded.T == 1 + min(2 * 2, 10_000)


def test_setcover_reduction_shape():
    sc = SetCoverInstance(1, [{0}])
    g, names = reduce_setcover_to_mcss(sc)
    assert g.n == 3 and g.T == 2
    assert names == {0: "s1", 1: "x", 2: "y"}
    assert len(exact_mcss(g)) == 3

    both = SetCoverInstance(1, [{0}, {0}])
    g2, _ = reduce_setcover_to_mcss(both)
    attach = [e for e in g2.frames[1] if 2 in e or g2.n - 2 in e]
    assert sum(1 for e in g2.frames[1] if g2.n - 2 in e) == 2  # two (s_j, x) edges

    sc3 = random_set_cover(3, 4, 0.5, seed=5)
    g3, _ = reduce_setcover_to_mcss(sc3)
    assert len(g3.frames[0]) == len(sc3.sets) + 1


def test_setcover_reduction_identity_random():
    for seed in range(10):
        sc = random_set_cover(3, 3, 0.5, seed=seed)
        g, _ = reduce_setcover_to_mcss(sc)
        assert len(exact_mcss(g)) == len(sc.sets) + exact_setcover(sc) + 1


def test_setcover_reduction_uncoverable():
    with pytest.raises(Uncoverable):
        reduce_setcover_to_mcss(SetCoverInstance(2, [{0}]))


def test_ekvc_conversion():
    sc = ekvc_to_setcover(3, [(0, 1), (1, 2), (0, 2)])
    assert sc.n_elems == 3
    assert sorted(sorted(s) for s in sc.sets) == [[0, 1], [0, 2], [1, 2]]
    single = ekvc_to_setcover(4, [(0, 1, 2, 3)])
    assert exact_setcover(single) == 1
    with_isolated = ekvc_to_setcover(3, [(0, 1)])
    assert with_isolated.sets[2] == frozenset()
    with pytest.raises(NotUniform):
        ekvc_to_setcover(4, [(0, 1), (0, 1, 2)])


def test_every_seeded_generator_is_deterministic():
    p = PlantedParams(n=32, eps=Fraction(1, 8), planted=True, seed=77)
    assert serialize(gen_planted_2frame(p)) == serialize(gen_planted_2frame(p))
    rp = RecursiveParams((40, 6), (Fraction(1, 2), Fraction(2, 3)), seed=77)
    assert serialize(sample_recursive_planted(rp)) == serialize(
        sample_recursive_planted(rp)
    )
    mr1, mr2 = random_minrep(2, 2, 0.5, 77), random_minrep(2, 2, 0.5, 77)
    assert mr1 == mr2
    assert random_set_cover(4, 3, 0.5, 77) == random_set_cover(4, 3, 0.5, 77)
    assert serialize(random_graph(9, 0.4, 77)) == serialize(random_graph(9, 0.4, 77))
    base = random_graph(9, 0.4, 77)
    assert serialize(gen_padded_sequence(base, 3, Fraction(1, 10), 77)) == serialize(
        gen_padded_sequence(base, 3, Fraction(1, 10), 77)
    )


def test_random_minrep_always_has_a_superedge():
    for seed in range(6):
        mr = random_minrep(2, 1, 0.01, seed)
        assert mr.superedges()


@pytest.mark.parametrize("size", [(1, 1), (1, 3), (2, 2), (3, 2), (2, 5)])
def test_random_minrep_matches_scalar_coins(size):
    parts, part_size = size
    for seed in range(40):
        for p in (0.0, 0.05, 0.5, 0.9, 1.0):
            mr = random_minrep(parts, part_size, p, seed)
            assert list(mr.edges) == naive_minrep_edges(parts, part_size, p, seed)


@pytest.mark.parametrize("size", [(0, 1), (1, 1), (3, 3), (5, 2), (2, 6)])
def test_random_set_cover_matches_scalar_coins(size):
    n_elems, num_sets = size
    for seed in range(40):
        for p in (0.0, 0.2, 0.5, 1.0):
            sc = random_set_cover(n_elems, num_sets, p, seed)
            assert [set(s) for s in sc.sets] == naive_set_cover_sets(n_elems, num_sets, p, seed)
