"""Brute-force exact solvers used as ground truth in tests.

Subset enumeration is the whole point here: these solvers try every
candidate (vertex subsets, edge subsets, cover subsets) and therefore stay
independent of the approximation algorithms they validate.  Vertex-subset
scoring is exact integer arithmetic on uint32 bitmasks: each frame keeps a
neighbour bitmask per vertex, and a member v's induced degree in subset
mask S is popcount(S & nbr[v]).  Masks are scored in aligned chunks with
numpy, by one of two kernels:

* induced edge counts (half the degree sum; MA, AA, KMA) by doubling:
  adding the top vertex v to a mask S below 2^v adds popcount(S & nbr[v])
  edges, so 2^n popcounts per frame fill the whole table while one chunk
  holds every mask (by default n <= 16 and T <= 16).  Past that, the
  low-bit table is built once and each chunk adds one pass per high member;
* minimum induced degrees (MM, AM): one popcount pass per vertex over the
  masks holding it, n * 2^(n-1) popcounts per frame.  The six lowest
  vertices' runs are too short for a fast strided view, so their passes
  score every mask instead, 6 * 2^(n-1) popcounts more.

Instances up to the budget caps finish quickly, but the semantics are
plain exhaustive search: every mask is scored.

Tie-breaking is fully deterministic: among optimal vertex sets, the
smallest, then lexicographically smallest member list wins; the edge-subset
search returns the first feasible set in (size, lexicographic) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetExceeded, NotSingleFrame, Uncoverable
from .objectives import ObjectiveKind, Score, score
from .temporal import TemporalGraph, VertexSet

if TYPE_CHECKING:
    from .generators import MinRepInstance, SetCoverInstance
    from .mcss import EdgeSolution

# masks per chunk at most; a power of two, so every chunk is an aligned power-of-two range
_CHUNK = 1 << 16
# frames x masks per chunk at most: a chunk's per-frame tables grow with both
_MAX_CHUNK_CELLS = 1 << 20
# exact_best keeps an int64 value per subset mask and may list as many int64
# candidates: 16 bytes per mask.  Refusing past this also keeps n < 27, so
# every mask fits in 32 bits.
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


def _neighbour_masks(edges: np.ndarray, n: int) -> list[int]:
    """nbr[v]: bitmask of v's neighbours in one frame's (m, 2) edge array."""
    nbr = [0] * n
    for u, v in edges.tolist():
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def _chunk_length(n: int, t_count: int) -> int:
    """The largest power of two at most _CHUNK and 2^n whose t_count
    per-frame tables stay within _MAX_CHUNK_CELLS entries."""
    length = min(_CHUNK, 1 << n)
    while length > 1 and t_count * length > _MAX_CHUNK_CELLS:
        length >>= 1
    return length


def _edge_count_tables(nbrs: np.ndarray, length: int):
    """Yield (lo, tables) for each aligned chunk [lo, lo + length) of the
    subset masks: tables[t] holds frame t's induced edge count (half the
    degree sum) of every mask in the chunk, as int16.  nbrs is the (T, n)
    uint32 array of neighbour masks; the tables buffer is reused.

    The low bits of a chunk's masks run over [0, length) and its high bits
    are lo.  The table of the low masks is built once, by doubling: adding
    the top vertex v to a mask L below 2^v adds popcount(L & nbr[v]) edges.
    A chunk adds its high members' own edges, then one pass per high member
    for its edges into the low bits.
    """
    t_count, n = nbrs.shape
    bits = length.bit_length() - 1
    low = np.arange(length, dtype=np.uint32)
    hits = np.empty((t_count, length), np.uint32)
    low_edges = np.zeros((t_count, length), np.int16)
    for v in range(bits):
        run = 1 << v
        np.bitwise_and(low[:run], nbrs[:, v, None], out=hits[:, :run])
        np.add(low_edges[:, :run], np.bitwise_count(hits[:, :run]),
               out=low_edges[:, run:2 * run])
    tables = np.empty_like(low_edges)
    for lo in range(0, 1 << n, length):
        high = [v for v in range(bits, n) if lo >> v & 1]
        own = np.bitwise_count(nbrs[:, high] & np.uint32(lo)).sum(axis=1, dtype=np.int16) // 2
        np.add(low_edges, own[:, None], out=tables)
        for v in high:
            np.bitwise_and(low, nbrs[:, v, None], out=hits)
            tables += np.bitwise_count(hits)
        yield lo, tables


def _min_degree_tables(nbrs: np.ndarray, length: int):
    """As _edge_count_tables, with frame t's minimum induced degree of every
    mask, as uint8 (0 for the empty mask).

    Each member v lowers a mask's minimum to popcount(mask & nbr[v]).  In
    an aligned chunk the masks holding v are every other run of 2^v masks
    (v a low bit), all of them or none (v a high bit).  A run shorter than
    64 masks makes a slow strided view, so there every mask is scored and a
    non-member's count is pushed past n by OR-ing in every bit.
    """
    t_count, n = nbrs.shape
    span = min(length, 64)
    low = np.arange(length, dtype=np.uint32)
    # outside[v, j]: every bit if mask j (mod span) lacks v, else none
    shifts = np.arange(span.bit_length() - 1, dtype=np.uint32)[:, None]
    outside = (low[:span] >> shifts & 1) - np.uint32(1)
    masks = np.empty(length, np.uint32)
    hits = np.empty((t_count, length), np.uint32)
    tables = np.empty((t_count, length), np.uint8)
    for lo in range(0, 1 << n, length):
        np.bitwise_or(low, np.uint32(lo), out=masks)
        tables.fill(n)
        for v in range(n):
            run = 1 << v
            if span <= run < length:
                members = masks.reshape(-1, 2, run)[:, 1]
                out = tables.reshape(t_count, -1, 2, run)[:, :, 1]
                np.minimum(out, np.bitwise_count(members & nbrs[:, v, None, None]), out=out)
                continue
            if run >= length and not lo & run:
                continue  # no mask of the chunk holds v
            np.bitwise_and(masks, nbrs[:, v, None], out=hits)
            if run < length:
                rows = hits.reshape(t_count, -1, span)
                rows |= outside[v]
            np.minimum(tables, np.bitwise_count(hits), out=tables)
        if lo == 0:
            tables[:, 0] = 0  # the empty mask has no member to lower it from n
        yield lo, tables


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
    nbrs = np.array([_neighbour_masks(e, n) for e in g.edge_arrays], dtype=np.uint32)

    nums = np.empty(1 << n, dtype=np.int64)
    per_size_max = np.zeros(n + 1, dtype=np.int64)  # every table entry is >= 0
    length = _chunk_length(n, g.T)
    low_sizes = np.bitwise_count(np.arange(length, dtype=np.uint32))
    tables_of = _min_degree_tables if kind.min_degree else _edge_count_tables
    for lo, tables in tables_of(nbrs, length):
        chunk = nums[lo:lo + length]
        chunk[:] = kind.aggregate(tables)
        np.maximum.at(per_size_max[lo.bit_count():], low_sizes, chunk)

    scale = 1 if kind.min_degree else 2  # a degree sum is twice the edge count
    vals = [Fraction(scale * int(per_size_max[s0]), kind.divisor(s0))
            for s0 in range(1, n + 1)]
    best_val = max(vals)
    s_star = vals.index(best_val) + 1  # the smallest size reaching it
    candidates = np.flatnonzero(nums == per_size_max[s_star])
    candidates = candidates[np.bitwise_count(candidates) == s_star]
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
    from .mcss import EdgeSolution, require_connected

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
    nbr = _neighbour_masks(graph.edge_arrays[0], n)
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

