"""Approximation algorithms for the min-over-frames density objective.

Four solvers, combinable:

* greedy frame cover: grow a set two vertices at a time, always covering
  as many still-edgeless frames as possible;
* the all-vertices baseline, paired with the greedy (the better of the two
  is an O(sqrt(n log T)) approximation);
* exhaustive search over small subsets (exact whenever the optimum is small);
* a balanced-partition search evaluating every union of contiguous blocks.

The composite solver returns the best of all candidates and is an n^(2/3)
approximation regardless of T.  All solvers are deterministic: greedy ties
break on the lexicographically smallest pair, and argmax scans keep the
first best candidate.

Instances with an edgeless frame have optimum zero; solvers then return
all vertices with the zero_score flag set instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .objectives import MA, Score, score
from .temporal import TemporalGraph, VertexSet, induced_degrees


@dataclass
class SolveReport:
    """One solver run: solution and its independently recomputed score."""

    algorithm: str
    solution: VertexSet
    score: Score
    frames_covered_per_iteration: tuple[int, ...] | None = None
    zero_score: bool = False
    candidate_scores: dict[str, Fraction] = field(default_factory=dict)


def _report(g: TemporalGraph, algorithm: str, members: Iterable[int],
            trace: tuple[int, ...] | None = None,
            zero_score: bool = False) -> SolveReport:
    solution = VertexSet(members)
    return SolveReport(
        algorithm=algorithm,
        solution=solution,
        score=score(g, solution, MA),
        frames_covered_per_iteration=trace,
        zero_score=zero_score,
    )


def _best_of(algorithm: str, runs: list[SolveReport]) -> SolveReport:
    """The first run with the highest score, relabelled, with every run's score."""
    best = max(runs, key=lambda run: run.score.value)
    return replace(
        best,
        algorithm=algorithm,
        candidate_scores={run.algorithm: run.score.value for run in runs},
    )


def _all_vertices(g: TemporalGraph) -> SolveReport:
    return _report(g, "all-vertices", range(g.n), zero_score=_has_edgeless_frame(g))


def _has_edgeless_frame(g: TemporalGraph) -> bool:
    return any(not fr for fr in g.frames)


def _ma_value(g: TemporalGraph, members: tuple[int, ...]) -> Fraction:
    inside = set(members)
    worst = None
    for t in range(g.T):
        count = sum(induced_degrees(g, t, members, inside)) // 2
        if worst is None or count < worst:
            worst = count
        if worst == 0:
            break
    return Fraction(worst, len(members))


def _first_best(g: TemporalGraph, algorithm: str,
                candidates: Iterable[tuple[int, ...]]) -> SolveReport:
    """Report the first candidate set with the highest MA value."""
    return _report(g, algorithm, max(candidates, key=lambda m: _ma_value(g, m)))


def greedy_cover(g: TemporalGraph) -> SolveReport:
    """Cover every frame with induced edges, two vertices per step.

    Each step adds the pair {u, v} covering the most frames that are still
    edgeless under the current set (ties: smallest (u, v)).  Terminates in
    at most T steps.  If some frame has no edges at all, returns all
    vertices flagged zero_score.
    """
    if _has_edgeless_frame(g):
        return _report(g, "greedy-cover", range(g.n), trace=(), zero_score=True)
    n = g.n
    # bit t of a mask stands for frame t; pair_frames[(u, v)]: frames holding edge (u, v)
    pair_frames = {e: sum(1 << t for t in frames) for e, frames in g.edge_frames.items()}
    chosen: set[int] = set()
    uncovered = (1 << g.T) - 1
    trace: list[int] = []
    while uncovered:
        # Per-vertex masks of uncovered frames where the vertex would attach
        # to the current set; pair (u, v) additionally covers frames holding
        # the edge (u, v) itself.
        near = [0] * n
        for t in range(g.T):
            if uncovered >> t & 1:
                for u, d in enumerate(induced_degrees(g, t, range(n), chosen)):
                    if d:
                        near[u] |= 1 << t

        def covers(pair: tuple[int, int]) -> int:
            u, v = pair
            return (near[u] | near[v] | pair_frames.get(pair, 0)) & uncovered

        # uncovered frames have edges, so the best pair covers at least one
        best = max(combinations(range(n), 2), key=lambda pair: covers(pair).bit_count())
        covered = covers(best)
        chosen.update(best)
        uncovered &= ~covered
        trace.append(covered.bit_count())
    return _report(g, "greedy-cover", chosen, trace=tuple(trace))


def best_with_all(g: TemporalGraph) -> SolveReport:
    """Better of the all-vertices baseline and the greedy cover; ties keep V."""
    return _best_of("best-with-all", [_all_vertices(g), greedy_cover(g)])


def _int_log(base: int, value: int) -> int:
    """Largest b >= 0 with base**b <= value (base >= 2)."""
    b = 0
    while base ** (b + 1) <= value:
        b += 1
    return b


def subset_search(g: TemporalGraph) -> SolveReport:
    """Best subset of size at most max(2, floor(log_n T)), exhaustively.

    Exact whenever the optimum is that small; the floor of 2 keeps the
    search over edge-bearing pairs even when log_n T < 2.
    """
    n = g.n
    bound = max(2, _int_log(n, g.T)) if n >= 2 else 1
    return _first_best(g, "subset-search", (
        members
        for size in range(1, min(n, bound) + 1)
        for members in combinations(range(n), size)
    ))


def partition_blocks(n: int, t_count: int) -> list[tuple[int, ...]]:
    """Contiguous index blocks, r = min(n, 2*ceil(ln T)) of them (at least 1),
    with sizes differing by at most one."""
    r = min(n, 2 * math.ceil(math.log(t_count))) if t_count > 1 else 1
    r = max(1, r)
    base, extra = divmod(n, r)
    blocks = []
    start = 0
    for i in range(r):
        size = base + (1 if i < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def partition_search(g: TemporalGraph) -> SolveReport:
    """Evaluate every nonempty union of near-equal contiguous vertex blocks."""
    blocks = partition_blocks(g.n, g.T)
    r = len(blocks)
    return _first_best(g, "partition-search", (
        tuple(v for i in range(r) if mask >> i & 1 for v in blocks[i])
        for mask in range(1, 1 << r)
    ))


def composite_ma(g: TemporalGraph) -> SolveReport:
    """Best of greedy cover, small-subset search, partition search, and V.

    The all-vertices candidate is dominated (the partition search always
    evaluates the union of all blocks) but kept in the per-candidate scores
    for reporting.  Ties keep the earliest candidate in the order above.
    """
    runs = [greedy_cover(g), subset_search(g), partition_search(g), _all_vertices(g)]
    return _best_of("composite-ma", runs)
