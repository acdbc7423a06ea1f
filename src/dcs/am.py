"""Sum-of-minimum-degrees solvers via generalized core peeling.

A (k_1, ..., k_T)-core is the unique maximal vertex set inducing minimum
degree at least k_i in every frame i; it is found by repeatedly deleting
any violating vertex (the result is order-independent).  The exact solver
maximizes sum(k_i) over threshold vectors with a nonempty core; the FPT
variant restricts each k_i to the rounded geometric grid
{0} union {floor((1+eps)^l)} and is within a (1+eps) factor of exact.

Vector enumeration is lexicographic with three sound prunings that never
change the result: each drops only vectors that cannot strictly beat the
incumbent sum, or whose core is empty.  A node (prefix, ...) fixes frames
0..t-1 and starts from C, the core of (prefix, 0, ...), which holds the
core of every vector below it.

* Incumbent cut.  The node is cut when sum(prefix) plus, for each frame
  s >= t, a bound on frame s's threshold is at most the incumbent sum;
  the root's bounds are each frame's largest candidate.
* Empty frontier.  Every componentwise superset of an empty-core vector
  is skipped.  Minimal empty vectors form a frontier, read once per
  node: below prefix an entry e dominates (prefix, k, 0, ...) iff e is
  zero after t, e <= prefix before t and e[t] <= k, so frame t's loop
  stops at k_dom, the least e[t] over those entries.  Entries recorded
  deeper are nonzero after t (the k = 0 child is its parent's nonempty
  core), so none joins or leaves that set while the loop runs.
* Core-number cut.  Frame s's threshold in any nonempty core inside C is
  at most frame s's degeneracy inside C (its largest core number,
  Batagelj and Zaversnik), rounded down to the grid; these are the
  incumbent cut's bounds at every node above the last frame (cores of
  threshold vectors: Galimberti, Bonchi and Gullo, CIKM 2017).  A
  last-frame node (t = T-1) takes its parent's frame-(T-1) bound instead
  of its own.  Bounds are computed frame by frame, and the pass stops
  once the partial sum cuts: a bound inherited from an ancestor's core
  is never lower, as that core is a superset.  Frame t's bound serves
  only the node's own cut, so it comes last and is skipped once the
  exact later bounds rule the cut out.  A node whose core is its
  parent's own set (a no-op peel) inherits exact bounds and computes
  none.  So the cut is a fixed function of the node.

Every peel starts from a core that already contains its answer, together
with that core's exact per-frame degrees, so no peel recomputes degrees:

* a child: below the nonempty core C of (prefix, 0, ...), where prefix
  fixes frames 0..t-1, the first candidate for frame t is peeled from C,
  starting from C's exact degrees;
* a sibling: each later candidate (prefix, k, 0, ...) is peeled from the
  previous candidate's core, the core of (prefix, k_prev, 0, ...) with
  k_prev < k, since core(prefix, k) is a subset of core(prefix, k_prev).

Either start set meets every threshold except frame t's, so only frame t
is scanned for the first violators.  Peeling decrements degrees as
vertices go (Batagelj and Zaversnik's O(m) core update), in the frames
read below the node only: those with a positive threshold and those after
t.  Their degrees stay exact; the other rows are shared, not copied.
"""

from __future__ import annotations

from bisect import bisect_right
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


def _full_degrees(adj: Sequence[Sequence[frozenset[int]]]) -> Degrees:
    return [[len(nbrs) for nbrs in frame] for frame in adj]


def _peel(
    adj: Sequence[Sequence[frozenset[int]]],
    kv: CoreVector,
    alive: frozenset[int],
    deg: Degrees,
    scan: Iterable[int],
    keep: Sequence[int],
) -> tuple[frozenset[int], Degrees]:
    """Maximal subset of `alive` meeting all thresholds, and its degrees.

    adj[t] is frame t's adjacency, and deg[t][v] is the frame-t degree of v
    inside `alive`, for every v in `alive`; only the frames in `scan` may
    hold a violator to begin with.  The rows of the frames in `keep`, which
    must include every frame with a positive threshold, are copied and
    decremented as vertices go, so they are exact for the returned set
    (entries of removed vertices are stale).  The other rows are shared
    with `deg` and go stale.  The arguments are never modified.
    """
    stack = [v for t in scan if kv[t] for v in alive if deg[t][v] < kv[t]]
    if not stack:
        return alive, deg
    left = set(alive)
    deg = deg[:]
    steps = []
    for t in keep:
        deg[t] = row = deg[t][:]
        steps.append((adj[t], row, kv[t] - 1))
    while stack:
        v = stack.pop()
        if v not in left:
            continue
        left.remove(v)
        for nbrs, d, below in steps:
            for w in nbrs[v]:
                if w in left:
                    d[w] -= 1
                    if d[w] == below:
                        stack.append(w)
    return frozenset(left), deg


def _grid_degeneracy(
    nbrs: Sequence[frozenset[int]],
    alive: frozenset[int],
    row: Sequence[int],
    values: Sequence[int],
    cap: int,
) -> int:
    """The frame's degeneracy inside `alive`, rounded down to `values`, or
    `cap` if lower: the largest k <= cap in `values` whose core is nonempty.

    `values` ascends from 0 and holds `cap`; row[v] is v's degree inside
    `alive`.  Levels are peeled bottom-up (Batagelj and Zaversnik): after
    each, the survivors' least degree m puts the answer at or above the
    largest grid value <= m, so the next level tested is the one after it,
    and the pass stops once that value reaches `cap`.
    """
    d = {v: row[v] for v in alive}
    i = 0
    while True:
        i = bisect_right(values, min(d.values()), i) - 1
        if values[i] >= cap:
            return cap
        below = values[i + 1] - 1
        stack = [v for v, x in d.items() if x <= below]
        while stack:
            v = stack.pop()
            del d[v]
            for w in nbrs[v]:
                if w in d:
                    d[w] -= 1
                    if d[w] == below:
                        stack.append(w)
        if not d:
            return values[i]


def core(g: TemporalGraph, thresholds) -> VertexSet:
    """The (k_1, ..., k_T)-core of g, possibly empty.

    Deletion order does not matter: a vertex violating some threshold can
    never rejoin a core of any subset, so the maximal core is unique.
    """
    kv = _validate_vector(g, thresholds)
    adj = [g.adjacency(t) for t in range(g.T)]
    alive, _ = _peel(adj, kv, frozenset(range(g.n)), _full_degrees(adj),
                     range(g.T), [t for t in range(g.T) if kv[t]])
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
    last = t_count - 1
    adj = [g.adjacency(t) for t in range(t_count)]
    values_per_frame = [[k for k in grid if k <= cap]
                        for cap in map(g.max_degree, range(t_count))]
    best_value = -1
    best_core: frozenset[int] = frozenset(range(g.n))
    empties: list[CoreVector] = []
    visited = 0

    def record_empty(vec: CoreVector) -> None:
        nonlocal empties
        empties = [
            e for e in empties if not all(e[i] >= vec[i] for i in range(t_count))
        ]
        empties.append(vec)

    def descend(t: int, prefix: tuple[int, ...], alive: frozenset[int],
                deg: Degrees, bounds: list[int], exact: bool) -> None:
        # bounds[s], for s >= t, is at least frame s's threshold in every
        # nonempty core inside alive: the frame's grid degeneracy inside
        # alive or inside an ancestor's core; `exact` when all are alive's.
        nonlocal best_value, best_core, visited
        total = sum(prefix) + sum(bounds[t:])
        if total <= best_value:
            return
        if t < last and not exact:
            bounds = bounds[:]
            # Later frames first, as the children read them; frame t's bound
            # serves only this cut, so it is skipped once the rest rule it out.
            for s in [*range(t + 1, t_count), t]:
                if s == t and total - bounds[t] > best_value:
                    break
                bound = _grid_degeneracy(adj[s], alive, deg[s],
                                         values_per_frame[s], bounds[s])
                total -= bounds[s] - bound
                bounds[s] = bound
                if total <= best_value:
                    return
        zeros = (0,) * (t_count - t - 1)
        k_dom = min((e[t] for e in empties
                     if e[t + 1:] == zeros and all(map(le, e, prefix))), default=g.n)
        start = alive
        keep = [s for s in range(t) if prefix[s]] + list(range(t, t_count))
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
            alive, deg = _peel(adj, vec, alive, deg, (t,), keep)
            if not alive:
                record_empty(vec)
                break
            if t == last:
                value = sum(prefix) + k
                if value > best_value:
                    best_value, best_core = value, alive
            else:
                descend(t + 1, prefix + (k,), alive, deg, bounds, alive is start)

    descend(0, (), frozenset(range(g.n)), _full_degrees(adj),
            [values[-1] for values in values_per_frame], False)
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
