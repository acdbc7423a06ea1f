"""Brute-force exact solvers used as ground truth in tests.

Subset enumeration is the whole point here: these solvers try every
candidate (vertex subsets, edge subsets, cover subsets) and therefore stay
independent of the approximation algorithms they validate.  Vertex-subset
scoring is one exact integer kernel: each frame keeps a neighbour bitmask
per vertex, and a member's induced degree in subset mask S is
popcount(S & nbr[v]), taken over a whole chunk of masks at once with numpy.
Instances up to the budget caps finish quickly, but the semantics are
plain exhaustive search.

Tie-breaking is fully deterministic: among optimal vertex sets, the
smallest, then lexicographically smallest member list wins; the edge-subset
search returns the first feasible set in (size, lexicographic) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import BudgetExceeded, NotSingleFrame, Uncoverable
from .generators import MinRepInstance, SetCoverInstance
from .mcss import EdgeSolution, require_connected
from .objectives import ObjectiveKind, Score, score
from .temporal import TemporalGraph, VertexSet

# masks per chunk; a power of two, so every chunk is an aligned power-of-two range
_CHUNK = 1 << 16
# exact_best keeps two int64 entries (16 bytes) per subset mask; refuse past this.
_MAX_TABLE_BYTES = 1 << 30


@dataclass(frozen=True)
class OracleBudget:
    """Hard caps on enumeration size; exceeding one raises, never truncates."""

    max_vertices: int = 20
    max_union_edges: int = 22

    def __post_init__(self):
        if self.max_vertices < 1 or self.max_union_edges < 1:
            raise ValueError("budget caps must be positive")

    def check_vertices(self, n: int) -> None:
        """Refuse an n-vertex subset enumeration over the cap, before any work."""
        if n > self.max_vertices:
            raise BudgetExceeded(f"n = {n} exceeds subset budget {self.max_vertices}")


def _neighbour_masks(frame, n: int) -> list[int]:
    """nbr[v]: bitmask of v's neighbours in one frame's edge list."""
    nbr = [0] * n
    for u, v in frame:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def _chunk_tables(nbrs, n, lo, hi, min_degree):
    """Per-frame induced measures for all subset masks in [lo, hi).

    Returns (sizes, stats): sizes per mask, then per frame the minimum
    induced degree (min_degree) or the induced degree sum.  A member v's
    induced degree is popcount(mask & nbr[v]), exact integer arithmetic.
    The range is a power of two long and starts at a multiple of its
    length, so the masks holding v are every other run of 2^v masks, or
    the whole range, or none of it.
    """
    size = hi - lo
    masks = np.arange(lo, hi, dtype=np.int64)
    sizes = np.bitwise_count(masks)
    stats = []
    for nbr in nbrs:
        # a mask's degree sum is at most n(n-1) <= 650; min degrees start at n
        acc = np.full(size, n, np.uint8) if min_degree else np.zeros(size, np.int16)
        for v in range(n):
            run = 1 << v
            if run < size:
                members = masks.reshape(-1, 2, run)[:, 1]
                out = acc.reshape(-1, 2, run)[:, 1]
            elif lo & run:
                members, out = masks, acc
            else:
                continue
            deg = np.bitwise_count(members & nbr[v])
            if min_degree:
                np.minimum(out, deg, out=out)
            else:
                out += deg
        if min_degree and lo == 0:
            acc[0] = 0  # the empty mask has no member to lower it from n
        stats.append(acc)
    return sizes, stats


def _members(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


def exact_best(
    g: TemporalGraph, kind: ObjectiveKind, budget: OracleBudget | None = None
) -> tuple[VertexSet, Score]:
    """Best nonempty vertex set under `kind`, by enumerating all 2^n - 1.

    Ties go to the smaller set, then the lexicographically smallest member
    list, so outputs are stable golden values.
    """
    budget = budget or OracleBudget()
    n = g.n
    budget.check_vertices(n)
    if 16 << n > _MAX_TABLE_BYTES:
        raise BudgetExceeded(f"n = {n} needs {16 << n} bytes of subset tables, "
                             f"over the {_MAX_TABLE_BYTES}-byte cap")
    kind.check_order(g.T)
    nbrs = [_neighbour_masks(frame, n) for frame in g.frames]

    full = 1 << n
    nums = np.empty(full, dtype=np.int64)
    sizes = np.empty(full, dtype=np.int64)
    for lo in range(0, full, _CHUNK):
        hi = min(lo + _CHUNK, full)
        sz, stats = _chunk_tables(nbrs, n, lo, hi, kind.min_degree)
        nums[lo:hi] = kind.aggregate(np.stack(stats))
        sizes[lo:hi] = sz

    per_size_max = np.zeros(n + 1, dtype=np.int64)  # every table entry is >= 0
    np.maximum.at(per_size_max, sizes, nums)
    vals = [Fraction(int(per_size_max[s0]), kind.divisor(s0)) for s0 in range(1, n + 1)]
    best_val = max(vals)
    s_star = vals.index(best_val) + 1  # the smallest size reaching it
    target = per_size_max[s_star]
    candidates = np.nonzero((sizes == s_star) & (nums == target))[0]
    best_mask = min((int(m) for m in candidates), key=lambda m: _members(m, n))
    solution = VertexSet(_members(best_mask, n))
    return solution, score(g, solution, kind)


def exact_mcss(g: TemporalGraph, budget: OracleBudget | None = None) -> EdgeSolution:
    """Minimum edge set spanning every frame, by increasing-size enumeration.

    Candidate subsets are visited in (size, lexicographic) order so the
    first feasible hit is a deterministic optimum.  Branches are pruned
    only when no feasible completion can exist (an edge merging nothing is
    redundant in any minimum solution; a frame needing more merges than the
    remaining suffix provides is a dead end).
    """
    budget = budget or OracleBudget()
    union = g.union_edges
    m = len(union)
    if m > budget.max_union_edges:
        raise BudgetExceeded(
            f"|E| = {m} exceeds edge-subset budget {budget.max_union_edges}"
        )
    n, T = g.n, g.T
    require_connected(g)

    frames_of = list(g.edge_frames.values())
    # avail[t][i]: edges at index >= i usable by frame t; max_gain[i]: best
    # per-pick merge count in the suffix from i.
    avail = [[0] * (m + 1) for _ in range(T)]
    max_gain = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        for t in range(T):
            avail[t][i] = avail[t][i + 1] + (t in frames_of[i])
        max_gain[i] = max(max_gain[i + 1], len(frames_of[i]))

    def _mcss_dfs(start, remaining, comps, counts, rho, chosen):
        if rho == 0:
            return chosen
        if remaining == 0 or m - start < remaining:
            return None
        if rho > remaining * max_gain[start]:
            return None
        for t in range(T):
            if counts[t] - 1 > avail[t][start]:
                return None
        for i in range(start, m - remaining + 1):
            u, v = union[i]
            merge_frames = [t for t in frames_of[i] if comps[t][u] != comps[t][v]]
            if not merge_frames:
                continue
            new_comps = list(comps)
            new_counts = list(counts)
            for t in merge_frames:
                keep, drop = comps[t][u], comps[t][v]
                new_comps[t] = [keep if c == drop else c for c in comps[t]]
                new_counts[t] -= 1
            res = _mcss_dfs(
                i + 1,
                remaining - 1,
                new_comps,
                new_counts,
                rho - len(merge_frames),
                chosen + [i],
            )
            if res is not None:
                return res
        return None

    for k in range(n - 1, m + 1):
        comps = [list(range(n)) for _ in range(T)]
        found = _mcss_dfs(0, k, comps, [n] * T, n * T - T, [])
        if found is not None:
            return EdgeSolution(union[i] for i in found)
    raise AssertionError("unreachable: the full union spans connected frames")


def _fewest_masks(masks: list[int], accepts) -> int:
    """Size of the smallest subfamily of `masks` whose union `accepts`, by
    increasing size; the whole family's union must be accepted."""
    for size in range(len(masks) + 1):
        for combo in combinations(masks, size):
            union = 0
            for mask in combo:
                union |= mask
            if accepts(union):
                return size
    raise AssertionError("the whole family's union is not accepted")


def exact_minrep(mr: MinRepInstance, budget: OracleBudget | None = None) -> int:
    """Minimum |A'| + |B'| covering every superedge, by subset enumeration."""
    budget = budget or OracleBudget()
    labels = list(mr.a_vertices) + list(mr.b_vertices)
    nv = len(labels)
    budget.check_vertices(nv)
    bit = {lab: 1 << i for i, lab in enumerate(labels)}
    # every superedge holds an edge, so choosing every vertex covers all of them
    pair_masks = [[bit[a] | bit[b] for a, b in edges] for edges in mr.superedges().values()]
    return _fewest_masks([1 << i for i in range(nv)], lambda chosen: all(
        any(p & chosen == p for p in pairs) for pairs in pair_masks))


def exact_mis(graph: TemporalGraph, budget: OracleBudget | None = None) -> int:
    """Maximum independent set size of a single-frame graph."""
    budget = budget or OracleBudget()
    if graph.T != 1:
        raise NotSingleFrame("input must be a single-frame graph")
    n = graph.n
    budget.check_vertices(n)
    nbr = _neighbour_masks(graph.frames[0], n)
    memo: dict[int, int] = {0: 0}

    def mis(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v = (mask & -mask).bit_length() - 1
        without = mis(mask & ~(1 << v))
        with_v = 1 + mis(mask & ~(nbr[v] | (1 << v)))
        memo[mask] = best = max(without, with_v)
        return best

    return mis((1 << n) - 1)


def exact_setcover(sc: SetCoverInstance, budget: OracleBudget | None = None) -> int:
    """Minimum number of sets covering the universe, by increasing-size search."""
    budget = budget or OracleBudget()
    m = len(sc.sets)
    if m > budget.max_vertices:
        raise BudgetExceeded(f"m = {m} sets exceed budget {budget.max_vertices}")
    universe = (1 << sc.n_elems) - 1
    masks = []
    for s in sc.sets:
        mask = 0
        for x in s:
            mask |= 1 << x
        masks.append(mask)
    reachable = 0
    for mask in masks:
        reachable |= mask
    if reachable != universe:
        raise Uncoverable("some element belongs to no set")
    return _fewest_masks(masks, lambda got: got == universe)

