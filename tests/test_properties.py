"""Property-based checks of the graph core against naive references."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcs import (
    AA,
    AM,
    KMA,
    MA,
    MM,
    EdgeNotInUnion,
    EdgeOutOfRange,
    EdgeSolution,
    FractionalSolution,
    MinRepInstance,
    ParseError,
    TemporalGraph,
    build_lp,
    check_feasible,
    check_spanning,
    exact_am,
    exact_best,
    export_lp,
    fpt_approx_am,
    mcss_greedy_run,
    parse,
    potential,
    random_minrep,
    score,
    serialize,
    threshold_grid,
)
from helpers import (
    naive_am_search,
    naive_best,
    naive_edge_frames,
    naive_export_lp,
    naive_lp_check,
    naive_lp_rows,
    naive_mcss_greedy,
    naive_superedges,
    naive_value,
    random_connected,
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


def _outcome(build):
    try:
        return build()
    except ParseError as exc:
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
def test_mcss_greedy_matches_naive_eager_loop(n, t_count, extra, seed):
    g = random_connected(random.Random(seed), n, t_count, extra=extra)
    run = mcss_greedy_run(g)
    got = (run.picks, run.gains, run.potentials, run.phase_boundary)
    assert got == naive_mcss_greedy(g)
    assert run.solution.edges == tuple(sorted(run.picks))


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
