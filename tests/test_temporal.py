"""Parsing, serialization, and induced statistics."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dcs import (
    MA,
    MM,
    DuplicateEdge,
    EdgeOutOfRange,
    FrameIndexOutOfRange,
    MalformedHeader,
    NotUtf8,
    ParseError,
    SelfLoop,
    TemporalGraph,
    VertexSet,
    parse,
    score,
    serialize,
)
from dcs.errors import MalformedEdgeLine
from dcs.generators import PlantedParams, gen_planted_2frame
from helpers import naive_edge_frames, naive_serialize, naive_stats, random_temporal

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


@pytest.mark.parametrize("data,line", [
    (b"\xff3 2\n", 1),
    (b"3 2\n0 0 1\n1 0 \xff\n", 3),
    (b"3 2\n0 0 1\n\xe2\x82", 3),  # a truncated sequence at the end
    # lines end where str.splitlines ends them, as for every other parse error
    (b"3 1\r0 0 1\x0c0 1 2\r\n\xc3(", 4),
])
def test_parse_rejects_non_utf8_naming_the_line(data, line):
    with pytest.raises(NotUtf8) as info:
        parse(data)
    assert isinstance(info.value, ParseError) and info.value.line == line
    assert str(info.value).startswith(f"line {line}: byte 0x")


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


def test_canonical_parse_peak_memory_per_line():
    # 66 bytes per edge line measured under CPython 3.11 and numpy 2.4: the
    # token check's int64 token ends, then the (t, u, v) records, sort
    # columns and stored edges; a regex that kept one backtracking frame per
    # line read 257
    rng = random.Random(24)
    n, t_count, m = 5000, 10, 100_000
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((rng.randrange(t_count), min(u, v), max(u, v)))
    frames = [[] for _ in range(t_count)]
    for t, u, v in edges:
        frames[t].append((u, v))
    g = TemporalGraph(n, frames)
    text = serialize(g).encode()
    tracemalloc.start()
    try:
        parsed = parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == g
    assert peak <= 128 * m


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


@pytest.mark.parametrize("build, line", [
    (lambda: TemporalGraph(3, [[(0, 5), (0.5, 1)]]), 0),
    (lambda: parse("3 1\n0 0 5\n0 x 1\n"), 2),
])
def test_an_earlier_records_fault_wins_unchained(build, line):
    # the malformed record comes later, so the prefix fault is raised alone
    with pytest.raises(EdgeOutOfRange) as info:
        build()
    assert info.value.line == line
    assert info.value.__context__ is None


@pytest.mark.parametrize("build, line", [
    (lambda: TemporalGraph(3, [[(0, 1), (0.5, 1)]]), 0),
    (lambda: parse("3 1\n0 0 1\n0 x 1\n"), 3),
])
def test_a_malformed_record_after_a_clean_prefix_raises_its_own_fault(build, line):
    with pytest.raises(MalformedEdgeLine) as info:
        build()
    assert info.value.line == line
    assert info.value.__suppress_context__ and info.value.__cause__ is None


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
    assert "_adj" not in vars(g)
    assert g.adjacency(1) == (frozenset({1}), frozenset({0, 2}), frozenset({1}))
    assert g.adjacency(1) is g.adjacency(1)


def test_edge_arrays_stored_and_views_built_on_first_use():
    g = parse(TINY)
    arrays = g.edge_arrays
    assert [a.tolist() for a in arrays] == [[[0, 1]], [[0, 1], [1, 2]]]
    assert all(a.dtype == np.int64 and a.shape[1:] == (2,) for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[0][0, 0] = 2
    assert "frames" not in vars(g) and "_adj" not in vars(g)
    assert g.frames == (((0, 1),), ((0, 1), (1, 2)))
    assert g.frames is g.frames
    assert "_adj" not in vars(g)
    assert g.adjacency(0) is g.adjacency(0)
    assert g.edge_arrays is arrays


def test_parsed_constructed_and_generated_copies_are_equal_without_frames():
    generated = gen_planted_2frame(PlantedParams(64, Fraction(1, 20), True, 5))
    parsed = parse(serialize(generated))
    constructed = TemporalGraph(generated.n, [e.tolist() for e in generated.edge_arrays])
    copies = [generated, parsed, constructed]
    assert all(a == b and hash(a) == hash(b) for a in copies for b in copies)
    assert all("frames" not in vars(g) for g in copies)
    assert TemporalGraph(3, [[(0, 1)], []]) != TemporalGraph(3, [[], [(0, 1)]])
    assert TemporalGraph(3, [[(0, 1)]]) != TemporalGraph(4, [[(0, 1)]])
    assert TemporalGraph(3, [[(0, 1)]]) != TemporalGraph(3, [[(0, 1)], []])


def test_union_index_is_exact_where_packed_keys_would_wrap():
    # u * n + v passes int64 here: u = 2**31 would wrap below (0, 1)
    a, b = 2**31, 2**39 + 3
    g = TemporalGraph(2**40, [[(a + 1, a), (0, 1), (a, b)], [], [(b, 0), (a, a + 1), (5, a)]])
    expect = naive_edge_frames(g)
    assert g.union_edges == tuple(expect) == ((0, 1), (0, b), (5, a), (a, a + 1), (a, b))
    assert dict(g.edge_frames) == expect
    union, positions = g.union_index()
    assert union.T.tolist() == [list(e) for e in expect]
    assert [union.T[p].tolist() for p in positions] == [e.tolist() for e in g.edge_arrays]
    assert serialize(g) == naive_serialize(g)
    assert parse(serialize(g)) == g


@pytest.mark.parametrize("n", [2**63 + 1, 2**64])
def test_labels_past_int64_are_rejected_with_a_named_error(n):
    with pytest.raises(MalformedHeader, match=r"n <= 2\*\*63") as info:
        parse(f"{n} 1\n0 0 1\n")
    assert info.value.line == 1
    with pytest.raises(ValueError, match=r"<= 2\*\*63"):
        TemporalGraph(n, [[(0, 1)]])


@pytest.mark.parametrize("t_count", [2**63, 10**20])
def test_frame_counts_past_int64_are_rejected_with_a_named_error(t_count):
    with pytest.raises(MalformedHeader, match=r"T < 2\*\*63") as info:
        parse(f"3 {t_count}\n0 0 1\n")
    assert info.value.line == 1


def test_largest_vertex_count_keeps_int64_labels():
    text = f"{2**63} 1\n0 0 {2**63 - 1}\n"
    g = parse(text)
    assert g.edge_arrays[0].tolist() == [[0, 2**63 - 1]]
    assert serialize(g) == text and TemporalGraph(2**63, g.frames) == g


def test_union_edges():
    g = parse(TINY)
    assert g.union_edges == ((0, 1), (1, 2))


def test_union_index_is_read_only_and_cached():
    g = parse(TINY)
    union, positions = g.union_index()
    assert g.union_index()[0] is union
    assert union.tolist() == [[0, 1], [1, 2]]  # rows u and v
    assert [p.tolist() for p in positions] == [[0], [0, 1]]
    for a in (union[0], union[1], *positions):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


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


def test_constructor_needs_a_frame():
    with pytest.raises(ValueError, match="^at least one frame is required$"):
        TemporalGraph(3, [])


def test_vertex_set_refuses_a_negative_vertex():
    with pytest.raises(ValueError, match="^negative vertex -1$"):
        VertexSet([-1])


def test_graph_and_vertex_set_equal_no_other_type():
    g, s = parse(TINY), VertexSet([1, 0])
    assert g.__eq__(serialize(g)) is NotImplemented and g != serialize(g)
    assert s.__eq__((0, 1)) is NotImplemented and s != (0, 1)


def test_vertex_set_hash_and_repr():
    s = VertexSet([2, 0, 2])
    assert hash(s) == hash(VertexSet((0, 2))) == hash((0, 2))
    assert {s: 1}[VertexSet([0, 2])] == 1
    assert repr(s) == "VertexSet([0, 2])"
