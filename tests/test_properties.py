"""Property-based checks of the graph core against naive references."""

import random
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcs import (
    AA,
    AM,
    BudgetExceeded,
    KMA,
    MA,
    MM,
    EdgeNotInUnion,
    EdgeOutOfRange,
    EdgeSolution,
    FractionalSolution,
    MinRepInstance,
    NotUtf8,
    ParseError,
    SelfLoop,
    TemporalGraph,
    am,
    best_with_all,
    build_lp,
    check_feasible,
    composite_ma,
    check_spanning,
    exact_am,
    exact_best,
    export_lp,
    fpt_approx_am,
    greedy_cover,
    ma,
    mcss_greedy_run,
    parse,
    partition_search,
    potential,
    random_minrep,
    score,
    serialize,
    subset_search,
    threshold_grid,
    temporal,
)
from helpers import (
    CANONICAL_TEXT,
    naive_am_search,
    naive_best,
    naive_build,
    naive_edge_frames,
    naive_export_lp,
    naive_greedy_cover,
    naive_lp_check,
    naive_lp_rows,
    naive_mcss_greedy,
    naive_merge_counts,
    naive_parse,
    naive_partition_search,
    naive_pruned_am_search,
    naive_serialize,
    naive_superedges,
    naive_subset_search,
    naive_value,
    random_connected,
    random_nonedgeless,
    random_temporal,
)

# Seeded and database-free, so every run draws the same examples.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def graphs(draw, max_n=7, max_t=3):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    frames = []
    for _ in range(draw(st.integers(1, max_t))):
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        # either orientation is accepted and normalized
        frames.append([(v, u) if draw(st.booleans()) else (u, v) for u, v in edges])
    return TemporalGraph(n, frames)


@PROPERTY
@given(st.data())
def test_score_matches_naive_value(data):
    g = data.draw(graphs())
    members = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    k = data.draw(st.integers(1, g.T))
    for kind in (MM, MA, AM, AA, KMA(k)):
        expect = naive_value(g, members, kind.name, kind.k)
        assert score(g, members, kind).value == expect


@PROPERTY
@given(graphs())
def test_parse_serialize_round_trip(g):
    text = serialize(g)
    assert parse(text) == g
    assert serialize(parse(text)) == text


@st.composite
def sparse_graphs(draw):
    """Graphs on a few labels drawn from 0..n-1, n up to 2**40; frames may be empty."""
    n = draw(st.sampled_from([2, 9, 2**31 + 7, 2**40]))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=6, unique=True))
    pairs = list(combinations(sorted(labels), 2))
    return TemporalGraph(n, [draw(st.sets(st.sampled_from(pairs)))
                             for _ in range(draw(st.integers(1, 4)))])


@PROPERTY
@given(sparse_graphs())
@example(TemporalGraph(1, [[]]))
@example(TemporalGraph(3, [[], [(2, 0)], []]))
def test_serialize_and_union_index_match_naive(g):
    assert serialize(g) == naive_serialize(g)
    assert dict(g.edge_frames) == naive_edge_frames(g)
    assert g.union_edges == tuple(naive_edge_frames(g))


def _outcome(build):
    try:
        return build()
    except (ParseError, TypeError, ValueError) as exc:
        return exc


@PROPERTY
@given(
    n=st.integers(1, 4),
    frames=st.lists(
        st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5)), max_size=4),
        min_size=1, max_size=3,
    ),
)
@example(n=3, frames=[[(5, 5)]])  # out of range wins over self-loop
def test_parse_and_constructor_agree_on_bad_edges(n, frames):
    records = [(t, u, v) for t, frame in enumerate(frames) for u, v in frame]
    text = f"{n} {len(frames)}\n" + "".join(f"{t} {u} {v}\n" for t, u, v in records)
    built = _outcome(lambda: TemporalGraph(n, frames))
    parsed = _outcome(lambda: parse(text))
    assert type(built) is type(parsed)
    if isinstance(built, ParseError):
        assert built.line == 0
        # the first bad record is the first bad line after the header
        assert str(parsed) == str(built).replace("line 0", f"line {parsed.line}", 1)
    else:
        assert built == parsed


def _same_outcome(got, expect):
    """Equal graphs, or errors of one type with one message and line."""
    assert type(got) is type(expect)
    if isinstance(expect, Exception):
        assert str(got) == str(expect)
        assert getattr(got, "line", None) == getattr(expect, "line", None)
    else:
        assert got == expect


LABELS = st.one_of(st.integers(-1, 4), st.sampled_from([0.5, "1", None, True, np.int64(2)]))


@PROPERTY
@given(
    n=st.integers(1, 4),
    frames=st.lists(
        st.lists(st.one_of(st.tuples(LABELS, LABELS), st.tuples(LABELS)), max_size=4),
        min_size=1, max_size=3,
    ),
)
@example(n=3, frames=[[(0, 5), (0.5, 1)]])  # a range fault before a label fault
@example(n=3, frames=[[(0, 1), (1, 0), (1,)]])  # a duplicate before a non-pair
@example(n=2**63, frames=[[(7, 2**63 - 1), (0, 1), (2**63 - 1, 7)]])  # unsorted, a duplicate
@example(n=3, frames=[[(0, 2**64), (0, 1), (1, 0)]])  # a token past int64 before a duplicate
def test_constructor_matches_naive_build(n, frames):
    records = ((0, t, u, v) for t, frame in enumerate(frames) for u, v in frame)
    _same_outcome(_outcome(lambda: TemporalGraph(n, frames)),
                  _outcome(lambda: naive_build(n, len(frames), records)))


def _spell(token: str, how: int) -> str:
    """An int token as int() also reads it: '+1', '01' or '1_0'."""
    if how == 1:
        return "+" + token
    if how == 2:
        return "0" + token
    if how == 3 and len(token.lstrip("-")) > 1:
        return token[:-1] + "_" + token[-1]
    return token


@st.composite
def dcs_texts(draw):
    """A graph's canonical text, then reordered, faulted and relaid out."""
    g = draw(graphs(max_n=6, max_t=3))
    n, t_count = g.n, g.T
    header, *rows = serialize(g).splitlines()
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        n = 2**40
        header = f"{n} {t_count}"
    big = 2**63 + draw(st.integers(0, 2**64))
    faults = [
        f"{t_count} 0 1", "-1 0 1",  # frame index
        f"0 {n} 0", "0 0 -1", f"0 {big} 1", f"{big} 0 1",  # vertex range, big tokens
        "0 1 1", "0 0 0",  # self-loops
        "0 1", "0 1 2 3", "0 x 1", "0 1.0 2",  # syntax
    ]
    if rows:  # duplicates, as written and reversed
        t, u, v = draw(st.sampled_from(rows)).split()
        faults += [f"{t} {u} {v}", f"{t} {v} {u}"]
    for _ in range(draw(st.integers(0, 2))):  # two faults put a build fault before a syntax one
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(faults)))
    if draw(st.booleans()):
        rows = [" ".join(_spell(tok, draw(st.integers(0, 3))) for tok in row.split())
                for row in rows]
    lines = [header, *rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note", "  "])))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line.replace(" ", sep) + end for line in lines)


@PROPERTY
@given(dcs_texts())
@example(f"3 1\n0 0 {2**63}\n")
@example(f"{2**40} 2\n0 0 1\n1 5 {2**40 - 1}\n1 {2**40 - 1} 5\n")
@example("3 2\n0 0 1\n0 1 1\n0 1\n")  # a self-loop before a syntax fault
@example("3 2\n+1 01 1_0\n")
@example(f"{2**63} 2\n1 5 9\n0 {2**63 - 1} 3\n1 9 5\n")  # unsorted, a duplicate
@example(f"3 2\n0 0 {2**64}\n1 0 1\n1 1 0\n")  # a token past int64 before a duplicate
@example(f"3 2\n1 0 1\n1 1 0\n0 0 {-2**64}\n")  # and after one
def test_parse_matches_naive_parse(text):
    expect = _outcome(lambda: naive_parse(text))
    _same_outcome(_outcome(lambda: parse(text)), expect)
    _same_outcome(_outcome(lambda: parse(text.encode())), expect)


def test_canonical_text_takes_the_array_path(monkeypatch):
    text = serialize(TemporalGraph(4, [[(0, 1), (2, 3)], [(1, 3)]]))
    monkeypatch.setattr(temporal, "_line_records", None)
    assert parse(text) == parse(text.encode()) == naive_parse(text)
    with pytest.raises(SelfLoop) as info:
        parse(text + "1 2 2\n")
    assert info.value.line == 5


# headers the array path reads, and ones only the line path reads
CANONICAL_HEADERS = [b"3 2\n", b"03 2\n"]
LINE_HEADERS = [b"# c\n3 2\n", b"\n3 2\n", b" 3 2\n", b"3  2\n", b"3 2 \n", b"3\t2\n",
                b"3 2\r\n", b"+3 2\n"]


@st.composite
def path_texts(draw):
    """A header, canonical edge lines, then a few stray bytes of the kinds
    that can make text other than canonical."""
    header = draw(st.sampled_from(CANONICAL_HEADERS) | st.sampled_from(LINE_HEADERS))
    token = st.sampled_from([0, 1, 2, 3, 10**17, 10**18])  # 1, 18 or 19 digits
    lines = st.tuples(token, token, token).map(lambda tuv: b"%d %d %d\n" % tuv)
    body = b"".join(draw(st.lists(lines, max_size=3)))
    for byte in draw(st.lists(st.sampled_from(b"0123456789 \n\r\t-#\xe9"), max_size=2)):
        at = draw(st.integers(0, len(body)))
        body = body[:at] + bytes([byte]) + body[at:]
    return header + body


@PROPERTY
@given(path_texts())
@example(b"3 2\n0 1 " + b"9" * 18 + b"\n")  # 18 digits fit int64
@example(b"3 2\n0 1 " + b"9" * 19 + b"\n")  # 19 digits may not
@example(b"3 2\n")  # header only
@example(b"3 2\n0 1 2")  # no final newline
@example(b"3 2\n 0 1\n")  # leading space
@example(b"3 2\n0  1\n")  # doubled space
@example(b"3 2\n0 1 \n")  # trailing space
@example(b"3 2\n0 1 2\xe9\n")  # a non-ASCII byte in a token
@example(b"3 2\r\n0 1 2\r\n")  # CRLF
def test_array_path_reads_exactly_the_canonical_language(text):
    line_records, read_lines = temporal._line_records, []

    def spy(lines):
        read_lines.append(True)
        return line_records(lines)

    with patch.object(temporal, "_line_records", spy):
        outcome = _outcome(lambda: parse(text))
    # every header above passes the line path, which stops early only to
    # report a byte that is not UTF-8; the array path never decodes
    took_array_path = not read_lines and not isinstance(outcome, NotUtf8)
    assert took_array_path == (CANONICAL_TEXT.fullmatch(text) is not None)
    _same_outcome(outcome, _outcome(lambda: naive_parse(text)))


def test_out_of_range_is_checked_before_self_loop():
    with pytest.raises(EdgeOutOfRange):
        TemporalGraph(3, [[(5, 5)]])
    with pytest.raises(EdgeOutOfRange):
        parse("3 1\n0 5 5\n")


@PROPERTY
@given(st.data())
def test_check_spanning_is_zero_potential(data):
    g = data.draw(graphs())
    chosen = data.draw(st.sets(st.sampled_from(g.union_edges))) if g.union_edges else set()
    f = EdgeSolution(chosen)
    assert check_spanning(g, f) == (potential(g, f) == 0)


@PROPERTY
@given(st.data())
def test_edge_frames_match_naive_map(data):
    g = data.draw(graphs())
    want = naive_edge_frames(g)
    assert list(g.edge_frames.items()) == list(want.items())  # same order too
    assert g.union_edges == tuple(g.edge_frames)
    with pytest.raises(TypeError):
        g.edge_frames[(0, 1)] = (0,)
    # edges outside the union are named, sorted, by potential
    pairs = list(combinations(range(g.n + 2), 2))
    chosen = data.draw(st.sets(st.sampled_from(pairs)))
    foreign = sorted(e for e in chosen if e not in want)
    if foreign:
        with pytest.raises(EdgeNotInUnion) as info:
            potential(g, EdgeSolution(chosen))
        assert str(info.value) == f"edges {foreign} are not in the union edge set"
    else:
        assert potential(g, EdgeSolution(chosen)) >= 0


@PROPERTY
@given(graphs(max_n=9, max_t=3))
def test_am_search_matches_naive_lexicographic_search(g):
    exact_values = [tuple(range(g.max_degree(t) + 1)) for t in range(g.T)]
    want_core, want_value, _ = naive_am_search(g, exact_values)
    solution, value = exact_am(g)
    assert (frozenset(solution), value) == (want_core, want_value)
    for eps in (Fraction(1, 2), Fraction(1)):
        grid = threshold_grid(eps, g.n - 1)
        values = [
            tuple(k for k in grid if k <= g.max_degree(t)) or (0,)
            for t in range(g.T)
        ]
        want_core, want_value, _ = naive_am_search(g, values)
        solution, value = fpt_approx_am(g, eps)
        assert (frozenset(solution), value) == (want_core, want_value)


@PROPERTY
@given(graphs(max_n=10, max_t=4))
def test_am_search_peels_as_many_vectors_as_the_per_vector_frontier_scan(g):
    grids = [range(g.n)] + [
        threshold_grid(eps, g.n - 1) for eps in (Fraction(1, 2), Fraction(1), Fraction(2))
    ]
    for grid in grids:
        values = [[k for k in grid if k <= g.max_degree(t)] for t in range(g.T)]
        want_core, want_value, peels = naive_pruned_am_search(g, values)
        solution, value = am._search(g, grid, peels)
        assert (frozenset(solution), value) == (want_core, want_value)
        if peels == 1:  # only one vector to peel: the cap cannot go lower
            with pytest.raises(ValueError, match="max_vectors must be at least 1"):
                am._search(g, grid, 0)
        else:
            with pytest.raises(BudgetExceeded, match=f"exceeded cap {peels - 1}$"):
                am._search(g, grid, peels - 1)


@PROPERTY
@given(graphs(max_n=9, max_t=3))
def test_exact_best_matches_naive_best(g):
    for kind in [MM, MA, AM, AA] + [KMA(k) for k in range(1, g.T + 1)]:
        solution, best = exact_best(g, kind)
        assert (solution, best.value) == naive_best(g, kind.name, kind.k)


# small nudges up and down, or none, so drawn points land on both sides of
# the constraints that are tight at the uniform point
NUDGES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(Fraction(-1, 4), Fraction(1, 4), max_denominator=12),
)


@PROPERTY
@given(st.data())
def test_check_feasible_matches_naive_lp_check(data):
    g = data.draw(graphs(max_n=6, max_t=3))
    uniform = Fraction(1, g.n)
    z = min(len(frame) for frame in g.frames) * uniform

    def nudged(base):
        return base + data.draw(NUDGES) if data.draw(st.booleans()) else base

    f = FractionalSolution(
        y={v: nudged(uniform) for v in range(g.n)},
        x={e: nudged(uniform) for e in g.union_edges},
        z=nudged(z),
    )
    feasible, value, violations = check_feasible(g, f)
    assert feasible == naive_lp_check(g, f) == (not violations)
    assert value == f.z
    model = build_lp(g)
    names = {c.name for c in model.constraints}
    names |= {f"{var}_nonneg" for var in model.variables}
    assert all(v.split(":")[0] in names for v in violations)


@PROPERTY
@given(g=graphs(max_t=4))
@example(g=TemporalGraph(1, [[]]))
@example(g=TemporalGraph(3, [[(0, 1)], [], [(0, 2), (1, 2)], []]))
def test_lp_model_matches_naive_rows_and_export(g):
    model = build_lp(g)
    m = len(g.union_edges)
    assert len(model.constraints) == 1 + 2 * m + g.T
    assert len(model.variables) == g.n + m + 1
    assert list(model.constraints) == naive_lp_rows(g)
    assert export_lp(model) == naive_export_lp(g)


@PROPERTY
@given(st.integers(1, 9), st.integers(1, 4), st.sampled_from([0.0, 0.2, 0.6, 1.0]),
       st.integers(0, 2**32))
# Components of 20-40 vertices: a merge that relabels a component into
# itself, where the committed edge's ends already share it, empties its
# member list, and a later merge then misses its vertices.
@example(n=21, t_count=4, extra=0.2, seed=1)
@example(n=35, t_count=5, extra=0.2, seed=3)
@example(n=36, t_count=6, extra=0.6, seed=8)
@example(n=36, t_count=3, extra=0.2, seed=14)
def test_mcss_greedy_matches_naive_eager_loop(n, t_count, extra, seed):
    g = random_connected(random.Random(seed), n, t_count, extra=extra)
    run = mcss_greedy_run(g)
    got = (run.picks, run.gains, run.potentials, run.phase_boundary)
    assert got == naive_mcss_greedy(g)
    assert run.solution.edges == tuple(sorted(run.picks))


@PROPERTY
@given(st.integers(1, 9), st.integers(1, 4), st.sampled_from([0.0, 0.2, 0.6, 1.0]),
       st.integers(0, 2**32))
def test_mcss_merge_counts_never_rise_along_the_picks(n, t_count, extra, seed):
    # the greedy drops an edge from its scan at gain 0; that is exact only
    # if no edge's count of merging frames rises after a later pick
    g = random_connected(random.Random(seed), n, t_count, extra=extra)
    picks = mcss_greedy_run(g).picks
    counts = naive_merge_counts(g, ())
    for i, e in enumerate(picks, 1):
        after = naive_merge_counts(g, picks[:i])
        assert all(after[f] <= c for f, c in counts.items())
        assert after[e] == 0
        counts = after
    assert not any(counts.values())


@PROPERTY
@given(st.data())
def test_superedges_match_naive_per_pair_filter(data):
    mr = random_minrep(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)),
                       data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0])),
                       data.draw(st.integers(0, 2**32)))
    # the same instance with its edges reordered: groups keep instance order
    shuffled = MinRepInstance(mr.a_parts, mr.b_parts, data.draw(st.permutations(mr.edges)))
    for inst in (mr, shuffled):
        got = inst.superedges()
        assert list(got.items()) == list(naive_superedges(inst).items())
        assert list(got) == sorted(got)


@st.composite
def ma_graphs(draw):
    """Random instances for the MA solvers: T past 64 (multi-word frame
    masks) and T >= n^3 (subsets of 3 or more searched) included."""
    n = draw(st.sampled_from(range(1, 10)))
    t_count = draw(st.sampled_from([1, 2, 3, 4, 6, 9, 27, 64, 65, 70, 130]))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0, None, 0.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if n >= 2 and draw(st.sampled_from([True, True, False])):  # mostly no edgeless frame
        g = random_nonedgeless(rng, n, t_count, density)
    else:
        g = random_temporal(rng, n, t_count, density)
    if draw(st.booleans()):  # every frame alike: every union ties across frames
        g = TemporalGraph(n, [g.frames[0]] * t_count)
    return g


COMPLETE_5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]


@PROPERTY
@given(ma_graphs())
@example(TemporalGraph(1, [[]]))
@example(TemporalGraph(2, [[(0, 1)]]))
@example(TemporalGraph(2, [[(0, 1)], []]))
@example(TemporalGraph(3, [[(0, 1)], [(1, 2)], [(0, 2)]] * 9))  # T = n^3: triples searched
@example(TemporalGraph(4, [[(0, 1), (2, 3)], [(1, 2)]] * 35))  # T = 70 >= n^3
@example(TemporalGraph(5, [COMPLETE_5] * 130))  # dense ties, three mask words
@example(TemporalGraph(9, [[(t % 8, t % 8 + 1)] for t in range(72)]))  # a path, edge by edge
def test_ma_solvers_match_naive_scans(g):
    greedy = naive_greedy_cover(g)
    subset = naive_subset_search(g)
    partition = naive_partition_search(g)
    everything = ma._all_vertices(g)
    expected = {
        greedy_cover: greedy,
        subset_search: subset,
        partition_search: partition,
        best_with_all: ma._best_of("best-with-all", [everything, greedy]),
        composite_ma: ma._best_of("composite-ma", [greedy, subset, partition, everything]),
    }
    # a block of 3: ties meet across greedy row blocks and scoring chunks
    for block in (ma._PAIR_BLOCK, 3):
        with patch.object(ma, "_PAIR_BLOCK", block):
            for solver, report in expected.items():
                assert solver(g) == report, (solver.__name__, block)


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 12)), min_size=1, max_size=40))
def test_first_max_ratio_is_the_first_best_fraction(pairs):
    num, den = (np.array(column) for column in zip(*pairs))
    values = [Fraction(a, b) for a, b in pairs]
    assert ma._first_max_ratio(num, den) == values.index(max(values))
