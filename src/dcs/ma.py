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

Candidates are scored in bulk from the graph's per-frame edge arrays
(`TemporalGraph.edge_arrays`), never one set at a time: the greedy keeps
one uncovered-frame bitmask per vertex (uint64 words, bit t for frame t)
and counts each pair's frames with a popcount, a block of pairs at a time;
the subset search looks each combination's pairs up in every frame's
sorted edge keys; the partition search scores all block unions from one
block-to-block edge-count matrix per frame.  Values are compared exactly,
by integer cross-multiplication, in the same candidate order as a plain
scan, so the tie-breaks above are unchanged.  Every report is rescored by
`objectives.score`, independently of the scan.

Instances with an edgeless frame have optimum zero; solvers then return
all vertices with the zero_score flag set instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Iterable, Sequence

import numpy as np

from .objectives import MA, Score, score
from .temporal import TemporalGraph, VertexSet


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
    return not all(map(len, g.edge_arrays))


def _frame_words(rows: np.ndarray, frames: np.ndarray, count: int,
                 t_count: int) -> np.ndarray:
    """(count, ceil(T/64)) uint64 frame masks: bit t of row i is set where
    some (rows[k], frames[k]) = (i, t)."""
    words = np.zeros((count, -(-t_count // 64)), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (frames & 63).astype(np.uint64))
    np.bitwise_or.at(words, (rows, frames >> 6), bits)
    return words


def _frame_bits(words: np.ndarray, t_count: int) -> np.ndarray:
    """Bool array of frames 0..T-1: whether bit t of the mask `words` is set."""
    t = np.arange(t_count)
    return (words[t >> 6] >> (t & 63).astype(np.uint64)) & np.uint64(1) == 1


# Greedy pairs, subset pair lookups or partition (union, frame, block) cells
# scored at once; bounds the scratch arrays of each scan
_PAIR_BLOCK = 1 << 16


def greedy_cover(g: TemporalGraph) -> SolveReport:
    """Cover every frame with induced edges, two vertices per step.

    Each step adds the pair {u, v} covering the most frames that are still
    edgeless under the current set (ties: smallest (u, v)).  Terminates in
    at most T steps.  If some frame has no edges at all, returns all
    vertices flagged zero_score.
    """
    if _has_edgeless_frame(g):
        return _report(g, "greedy-cover", range(g.n), trace=(), zero_score=True)
    n, t_count = g.n, g.T
    edges = np.concatenate(g.edge_arrays)
    frame = np.repeat(np.arange(t_count), [len(e) for e in g.edge_arrays])
    (union_u, union_v), positions = g.union_index()  # sorted by (u, v)
    pair_words = _frame_words(np.concatenate(positions), frame, len(union_u), t_count)
    uncovered = _frame_words(np.zeros(t_count, dtype=np.int64), np.arange(t_count), 1, t_count)[0]
    chosen = np.zeros(n, dtype=bool)
    trace: list[int] = []
    rows_per_block = max(1, _PAIR_BLOCK // n)
    while uncovered.any():
        # near[u]: uncovered frames where u has a neighbour in the current set;
        # pair (u, v) covers near[u] | near[v], plus the uncovered frames
        # holding the edge (u, v) itself
        open_edge = _frame_bits(uncovered, t_count)[frame]
        into_u = open_edge & chosen[edges[:, 1]]
        into_v = open_edge & chosen[edges[:, 0]]
        near = _frame_words(np.concatenate([edges[into_u, 0], edges[into_v, 1]]),
                            np.concatenate([frame[into_u], frame[into_v]]), n, t_count)
        open_pairs = pair_words & uncovered
        best, best_count = None, 0
        for a in range(0, n - 1, rows_per_block):
            # rows u in [a, b), columns v in [a + 1, n); the pair is (a + i, a + 1 + j)
            b = min(a + rows_per_block, n - 1)
            covers = near[a:b, None, :] | near[None, a + 1:, :]
            lo, hi = np.searchsorted(union_u, [a, b])
            u, v = union_u[lo:hi], union_v[lo:hi]
            covers[u - a, v - a - 1] |= open_pairs[lo:hi]
            # zero for v <= u: an uncovered frame has an edge, so the best pair covers >= 1
            counts = np.triu(np.bitwise_count(covers).sum(axis=2, dtype=np.int64))
            i, j = np.unravel_index(np.argmax(counts), counts.shape)
            if counts[i, j] > best_count:  # strictly: an earlier block keeps ties
                best, best_count = (a + i, a + 1 + j), int(counts[i, j])
                covered = covers[i, j].copy()
        chosen[list(best)] = True
        uncovered &= ~covered
        trace.append(best_count)
    return _report(g, "greedy-cover", np.flatnonzero(chosen).tolist(), trace=tuple(trace))


def best_with_all(g: TemporalGraph) -> SolveReport:
    """Better of the all-vertices baseline and the greedy cover; ties keep V."""
    return _best_of("best-with-all", [_all_vertices(g), greedy_cover(g)])


def _int_log(base: int, value: int) -> int:
    """Largest b >= 0 with base**b <= value (base >= 2)."""
    b = 0
    while base ** (b + 1) <= value:
        b += 1
    return b


def _first_max_ratio(num: np.ndarray, den: np.ndarray) -> int:
    """Index of the first largest num[i] / den[i], by exact cross-multiplication.

    A knockout over adjacent pairs, the earlier entry winning ties, so each
    survivor is the first best of the run of entries it stands for.
    """
    alive = np.arange(len(num))
    while len(alive) > 1:
        paired = len(alive) // 2 * 2
        left, right = alive[0:paired:2], alive[1:paired:2]
        later = num[right] * den[left] > num[left] * den[right]
        alive = np.concatenate([np.where(later, right, left), alive[paired:]])
    return int(alive[0])


def _best_scored(scored: Iterable[tuple[Sequence, np.ndarray, np.ndarray]]):
    """The first candidate with the highest MA value.

    ``scored`` yields chunks (candidates, edge counts, sizes) in candidate
    order; the value of candidate i is counts[i] / sizes[i].
    """
    best = None
    for candidates, num, den in scored:
        i = _first_max_ratio(num, den)
        a, b = int(num[i]), int(den[i])
        if best is None or a * best[2] > best[1] * b:  # strictly: earlier chunks keep ties
            best = (candidates[i], a, b)
    return best[0]


def subset_search(g: TemporalGraph) -> SolveReport:
    """Best subset of size at most max(2, floor(log_n T)), exhaustively.

    Exact whenever the optimum is that small; the floor of 2 keeps the
    search over edge-bearing pairs even when log_n T < 2.
    """
    n = g.n
    bound = max(2, _int_log(n, g.T)) if n >= 2 else 1
    # each frame's edge keys u*n + v, ascending, then n*n past every key
    frame_keys = [np.append(e[:, 0] * n + e[:, 1], n * n) for e in g.edge_arrays]

    def scored():
        for size in range(1, min(n, bound) + 1):
            iu, iv = np.triu_indices(size, 1)  # the pairs inside a combination
            combos = combinations(range(n), size)
            chunk = max(1, _PAIR_BLOCK // max(1, len(iu)))
            while len(block := np.fromiter(chain.from_iterable(islice(combos, chunk)),
                                           dtype=np.int64).reshape(-1, size)):
                queries = block[:, iu] * n + block[:, iv]
                worst = None
                for keys in frame_keys:
                    count = (keys[np.searchsorted(keys, queries)] == queries).sum(axis=1)
                    worst = count if worst is None else np.minimum(worst, count)
                    if not worst.any():
                        break
                yield block, worst, np.full(len(block), size)

    return _report(g, "subset-search", _best_scored(scored()))


def partition_blocks(n: int, t_count: int) -> list[tuple[int, ...]]:
    """Contiguous index blocks, r = min(n, 2*ceil(ln T)) of them (at least 1),
    with sizes differing by at most one."""
    r = min(n, 2 * math.ceil(math.log(t_count))) if t_count > 1 else 1
    base, extra = divmod(n, r)
    blocks = []
    start = 0
    for i in range(r):
        size = base + (1 if i < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def partition_search(g: TemporalGraph) -> SolveReport:
    """Evaluate every nonempty union of near-equal contiguous vertex blocks.

    Union `mask` holds block i where bit i of the mask is set; unions are
    scored in mask order from per-frame block-to-block edge counts.
    """
    blocks = partition_blocks(g.n, g.T)
    r = len(blocks)
    sizes = np.array([len(block) for block in blocks])
    block_of = np.repeat(np.arange(r), sizes)
    # row i: frame t's edge counts from block i to each block j, for t = 0..T-1 in turn
    spread = np.stack([
        np.bincount(block_of[e[:, 0]] * r + block_of[e[:, 1]], minlength=r * r).reshape(r, r)
        for e in g.edge_arrays
    ], axis=1).reshape(r, -1)

    def scored():
        chunk = max(1, _PAIR_BLOCK // spread.shape[1])
        for start in range(1, 1 << r, chunk):
            masks = np.arange(start, min(start + chunk, 1 << r))
            pick = masks[:, None] >> np.arange(r) & 1  # pick[k, i]: mask k holds block i
            inner = (pick @ spread).reshape(len(masks), g.T, r) * pick[:, None, :]
            yield masks, inner.sum(axis=2).min(axis=1), pick @ sizes

    mask = _best_scored(scored())
    return _report(g, "partition-search",
                   (v for i in range(r) if mask >> i & 1 for v in blocks[i]))


def composite_ma(g: TemporalGraph) -> SolveReport:
    """Best of greedy cover, small-subset search, partition search, and V.

    The all-vertices candidate is dominated (the partition search always
    evaluates the union of all blocks) but kept in the per-candidate scores
    for reporting.  Ties keep the earliest candidate in the order above.
    """
    runs = [greedy_cover(g), subset_search(g), partition_search(g), _all_vertices(g)]
    return _best_of("composite-ma", runs)
