"""Parsing, serialization, and induced statistics."""

import random

import numpy as np
import pytest

from dcs import (
    MA,
    MM,
    DuplicateEdge,
    EdgeOutOfRange,
    FrameIndexOutOfRange,
    MalformedHeader,
    SelfLoop,
    TemporalGraph,
    VertexSet,
    parse,
    score,
    serialize,
)
from dcs.errors import MalformedEdgeLine
from helpers import naive_stats, random_temporal

TINY = "3 2\n0 0 1\n1 0 1\n1 1 2\n"


def test_parse_basic():
    g = parse(TINY)
    assert g.n == 3 and g.T == 2
    assert g.frames == (((0, 1),), ((0, 1), (1, 2)))


def test_parse_degenerate_single_vertex():
    g = parse("1 1\n")
    assert g.n == 1 and g.T == 1 and g.frames == ((),)


def test_parse_self_loop_names_line():
    with pytest.raises(SelfLoop) as exc:
        parse("2 1\n0 1 1\n")
    assert exc.value.line == 2


def test_parse_tolerates_comments_and_whitespace():
    text = "# instance\n\n  3   2  \n# f0\n0  0   1\n1 0 1\n\n1 1 2\n"
    assert parse(text) == parse(TINY)


def test_parse_accepts_bytes():
    assert parse(TINY.encode()) == parse(TINY)


@pytest.mark.parametrize(
    "text,exc,line",
    [
        ("", MalformedHeader, 1),
        ("3\n", MalformedHeader, 1),
        ("0 2\n", MalformedHeader, 1),
        ("3 x\n", MalformedHeader, 1),
        ("3 2\n2 0 1\n", EdgeOutOfRange, 2),
        ("3 2\n0 0 3\n", EdgeOutOfRange, 2),
        ("3 2\n0 0 1\n0 1 0\n", DuplicateEdge, 3),
    ],
)
def test_parse_errors(text, exc, line):
    with pytest.raises(exc) as info:
        parse(text)
    assert info.value.line == line


def test_serialize_round_trip():
    g = parse(TINY)
    assert serialize(g) == TINY
    assert parse(serialize(g)) == g


def test_serialize_empty_frame():
    assert serialize(TemporalGraph(1, [[]])) == "1 1\n"


def test_serialize_canonical_edge_order():
    g = TemporalGraph(2, [[(1, 0)]])
    assert serialize(g) == "2 1\n0 0 1\n"


def test_round_trip_random_instances():
    rng = random.Random(7)
    for _ in range(25):
        g = random_temporal(rng, rng.randint(1, 9), rng.randint(1, 4))
        assert parse(serialize(g)) == g


def test_constructor_rejects_bad_edges():
    with pytest.raises(SelfLoop):
        TemporalGraph(3, [[(1, 1)]])
    with pytest.raises(EdgeOutOfRange):
        TemporalGraph(3, [[(0, 3)]])
    with pytest.raises(DuplicateEdge):
        TemporalGraph(3, [[(0, 1), (1, 0)]])


def test_constructor_rejects_non_integer_labels():
    with pytest.raises(MalformedEdgeLine, match=r"\(0\.0, 1\.0\)") as info:
        TemporalGraph(3, [[(0.0, 1.0)]])
    assert info.value.line == 0
    with pytest.raises(MalformedEdgeLine):
        TemporalGraph(3, [[(0, 1)], [("1", 2)]])


def test_integer_like_labels_round_trip():
    g = TemporalGraph(3, [[(True, np.int64(2))], [(np.int32(0), 2)]])
    text = serialize(g)
    assert text == "3 2\n0 1 2\n1 0 2\n"
    assert parse(text) == g
    assert all(type(x) is int for frame in g.frames for e in frame for x in e)


def frame_stats(g, t, members):
    """(edge count, min degree) of frame t induced by members, read off score."""
    size = len(set(members))
    return score(g, members, MA).per_frame[t] * size, score(g, members, MM).per_frame[t]


def test_induced_stats_examples():
    g = parse(TINY)
    assert frame_stats(g, 1, [0, 1, 2]) == (2, 1)
    assert frame_stats(g, 0, [2]) == (0, 0)
    assert frame_stats(g, 0, [0, 1]) == (1, 1)


def test_induced_stats_frame_out_of_range():
    with pytest.raises(FrameIndexOutOfRange):
        parse(TINY).adjacency(2)


def test_induced_stats_matches_naive_double_loop():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 12)
        g = random_temporal(rng, n, rng.randint(1, 3))
        size = rng.randint(1, n)
        members = rng.sample(range(n), size)
        t = rng.randrange(g.T)
        assert frame_stats(g, t, members) == naive_stats(g, t, members)


def test_induced_stats_on_full_vertex_set():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 10)
        g = random_temporal(rng, n, rng.randint(1, 3))
        for t in range(g.T):
            edge_count, min_degree = frame_stats(g, t, range(n))
            assert edge_count == len(g.frames[t])
            assert min_degree == min(len(g.adjacency(t)[v]) for v in range(n))


def test_adjacency_built_on_first_use():
    g = parse(TINY)
    assert g._adj is None
    assert g.adjacency(1) == (frozenset({1}), frozenset({0, 2}), frozenset({1}))
    assert g.adjacency(1) is g.adjacency(1)


def test_union_edges():
    g = parse(TINY)
    assert g.union_edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("bad", [0.5, "1", 1.0])
def test_vertex_set_rejects_non_integer_members(bad):
    with pytest.raises(ValueError, match=f"vertex must be an integer, got {bad!r}"):
        VertexSet([0, bad])


def test_vertex_set_accepts_integer_like_members():
    s = VertexSet([np.int64(2), True, 0])
    assert s.members == (0, 1, 2)
    assert all(type(v) is int for v in s)


def test_vertex_set_canonical():
    s = VertexSet([2, 0, 2, 1])
    assert s.members == (0, 1, 2)
    assert len(s) == 3 and 1 in s
    assert s == VertexSet((0, 1, 2))
