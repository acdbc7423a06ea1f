"""Sum-of-minimum-degrees solvers via generalized core peeling.

A (k_1, ..., k_T)-core is the unique maximal vertex set inducing minimum
degree at least k_i in every frame i; it is found by repeatedly deleting
any violating vertex (the result is order-independent).  The exact solver
maximizes sum(k_i) over threshold vectors with a nonempty core; the FPT
variant restricts each k_i to the rounded geometric grid
{0} union {floor((1+eps)^l)} and is within a (1+eps) factor of exact.

Vector enumeration is lexicographic with two sound prunings that never
change the result: branches that cannot strictly beat the incumbent sum
are cut, and every componentwise superset of an empty-core vector is
skipped.  Minimal empty vectors form a frontier, read once per node:
below prefix (frames 0..t-1) an entry e dominates (prefix, k, 0, ...) iff
e is zero after t, e <= prefix before t and e[t] <= k, so frame t's loop
stops at k_dom, the least e[t] over those entries.  Entries recorded
deeper are nonzero after t (the k = 0 child is its parent's nonempty
core), so none joins or leaves that set while the loop runs.

Every peel starts from a core that already contains its answer, together
with that core's exact per-frame degrees, so no peel recomputes degrees:

* a child: below the nonempty core C of (prefix, 0, ...), where prefix
  fixes frames 0..t-1, the first candidate for frame t is peeled from C,
  starting from C's exact degrees;
* a sibling: each later candidate (prefix, k, 0, ...) is peeled from the
  previous candidate's core, the core of (prefix, k_prev, 0, ...) with
  k_prev < k, since core(prefix, k) is a subset of core(prefix, k_prev).

Either start set meets every threshold except frame t's, so only frame t
is scanned for the first violators.  Peeling decrements degrees in every
frame as vertices go (Batagelj and Zaversnik's O(m) core update), which
keeps the degrees handed on exact.
"""

from __future__ import annotations

from fractions import Fraction
from operator import le
from typing import Iterable, Sequence

from .errors import BudgetExceeded
from .temporal import TemporalGraph, VertexSet, as_int

CoreVector = tuple[int, ...]
Degrees = list[list[int]]  # deg[t][v]: frame-t degree of v inside a vertex set

_MAX_VECTORS = 10**8  # default cap on threshold vectors peeled per search


def _validate_vector(g: TemporalGraph, thresholds) -> CoreVector:
    kv = tuple(as_int(k, "threshold") for k in thresholds)
    if len(kv) != g.T:
        raise ValueError(f"expected {g.T} thresholds, got {len(kv)}")
    for k in kv:
        if not 0 <= k <= g.n - 1:
            raise ValueError(f"threshold {k} outside [0, {g.n - 1}]")
    return kv


def _full_degrees(g: TemporalGraph) -> Degrees:
    return [[len(nbrs) for nbrs in g.adjacency(t)] for t in range(g.T)]


def _peel(
    g: TemporalGraph,
    kv: CoreVector,
    alive: frozenset[int],
    deg: Degrees,
    frames: Iterable[int],
) -> tuple[frozenset[int], Degrees]:
    """Maximal subset of `alive` meeting all thresholds, and its degrees.

    deg[t][v] is the frame-t degree of v inside `alive`, for every v in
    `alive`; only the frames in `frames` may hold a violator to begin with.
    Degrees are decremented in every frame as vertices go, so the returned
    ones are exact for the returned set (entries of removed vertices are
    stale).  The arguments are never modified.
    """
    stack = [v for t in frames if kv[t] for v in alive if deg[t][v] < kv[t]]
    if not stack:
        return alive, deg
    left = set(alive)
    deg = [row[:] for row in deg]
    steps = [(g.adjacency(t), deg[t], kv[t] - 1) for t in range(g.T)]
    while stack:
        v = stack.pop()
        if v not in left:
            continue
        left.remove(v)
        for adj, d, below in steps:
            for w in adj[v]:
                if w in left:
                    d[w] -= 1
                    if d[w] == below:
                        stack.append(w)
    return frozenset(left), deg


def core(g: TemporalGraph, thresholds) -> VertexSet:
    """The (k_1, ..., k_T)-core of g, possibly empty.

    Deletion order does not matter: a vertex violating some threshold can
    never rejoin a core of any subset, so the maximal core is unique.
    """
    kv = _validate_vector(g, thresholds)
    alive, _ = _peel(g, kv, frozenset(range(g.n)), _full_degrees(g), range(g.T))
    return VertexSet(alive)


def _search(g: TemporalGraph, grid: Sequence[int],
            max_vectors: int) -> tuple[VertexSet, int]:
    """Lexicographic DFS over threshold vectors, maximizing the sum.

    Frame t's candidates are the values of `grid` (ascending, starting at
    0) up to frame t's maximum degree.  Returns the core of the first
    vector attaining the best sum, and that sum; the cap counts vectors
    actually peeled and raises BudgetExceeded past it.
    """
    max_vectors = as_int(max_vectors, "max_vectors")
    if max_vectors < 1:
        raise ValueError(f"max_vectors must be at least 1, got {max_vectors}")
    t_count = g.T
    values_per_frame = [[k for k in grid if k <= cap]
                        for cap in map(g.max_degree, range(t_count))]
    best_value = -1
    best_core: frozenset[int] = frozenset(range(g.n))
    empties: list[CoreVector] = []
    visited = 0
    suffix_max = [0] * (t_count + 1)
    for t in range(t_count - 1, -1, -1):
        suffix_max[t] = suffix_max[t + 1] + values_per_frame[t][-1]

    def record_empty(vec: CoreVector) -> None:
        nonlocal empties
        empties = [
            e for e in empties if not all(e[i] >= vec[i] for i in range(t_count))
        ]
        empties.append(vec)

    def descend(
        t: int, prefix: tuple[int, ...], alive: frozenset[int], deg: Degrees
    ) -> None:
        nonlocal best_value, best_core, visited
        if sum(prefix) + suffix_max[t] <= best_value:
            return
        zeros = (0,) * (t_count - t - 1)
        k_dom = min((e[t] for e in empties
                     if e[t + 1:] == zeros and all(map(le, e, prefix))), default=g.n)
        for k in values_per_frame[t]:
            if k >= k_dom:
                break
            vec = prefix + (k,) + zeros
            visited += 1
            if visited > max_vectors:
                raise BudgetExceeded(
                    f"threshold-vector search exceeded cap {max_vectors}"
                )
            # alive is the previous sibling's core, or the parent's core.
            alive, deg = _peel(g, vec, alive, deg, (t,))
            if not alive:
                record_empty(vec)
                break
            if t == t_count - 1:
                value = sum(prefix) + k
                if value > best_value:
                    best_value, best_core = value, alive
            else:
                descend(t + 1, prefix + (k,), alive, deg)

    descend(0, (), frozenset(range(g.n)), _full_degrees(g))
    return VertexSet(best_core), best_value


def exact_am(g: TemporalGraph, max_vectors: int = _MAX_VECTORS) -> tuple[VertexSet, int]:
    """Exact optimum of the degree-sum objective for small T.

    Enumerates k_i in [0, maxdeg(frame i)] with dominance pruning, under
    the peel cap `max_vectors`, an integer of at least 1.
    """
    return _search(g, range(g.n), max_vectors)


def threshold_grid(eps, limit: int) -> tuple[int, ...]:
    """{0} union {floor((1+eps)^l)} capped at `limit`, deduplicated.

    Computed in exact rationals.  Zero is included explicitly: optimal
    vectors may have zero entries, which no power of 1+eps rounds to.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if limit < 1:
        return (0,)
    if eps <= Fraction(1, limit):
        # Steps of (1+eps) cannot skip an integer below the cap.
        return tuple(range(limit + 1))
    values = {0}
    base = Fraction(1) + eps
    power = Fraction(1)
    while True:
        v = power.numerator // power.denominator
        if v > limit:
            break
        values.add(v)
        power *= base
    return tuple(sorted(values))


def fpt_approx_am(g: TemporalGraph, eps) -> tuple[VertexSet, int]:
    """Grid-restricted threshold search: value >= exact / (1 + eps).

    Rounding each entry of an optimal vector down to the grid keeps its
    core nonempty and loses at most a (1+eps) factor per entry.  Runs
    under exact_am's default peel cap.
    """
    return _search(g, threshold_grid(eps, g.n - 1), _MAX_VECTORS)
