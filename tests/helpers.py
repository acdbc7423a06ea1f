"""Shared instance builders and naive reference implementations.

The naive functions deliberately re-derive quantities with double loops
and plain subset enumeration so the fast library paths are checked against
an independent computation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from operator import index

import numpy as np

from dcs import (
    DuplicateEdge,
    EdgeOutOfRange,
    MalformedHeader,
    NotUtf8,
    SelfLoop,
    TemporalGraph,
    VertexSet,
)
from dcs.errors import MalformedEdgeLine
from dcs.lp import LPConstraint
from dcs.ma import SolveReport, _int_log, _report, partition_blocks
from dcs.rng import substream


def random_temporal(rng: random.Random, n: int, t_count: int,
                    density: float | None = None) -> TemporalGraph:
    """Random instance; each frame gets its own Bernoulli(p) edges.

    With density=None, p is drawn uniformly per frame.
    """
    frames = []
    for _ in range(t_count):
        p = rng.random() if density is None else density
        frames.append(
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
    return TemporalGraph(n, frames)


def random_nonedgeless(rng: random.Random, n: int, t_count: int,
                       density: float | None = None) -> TemporalGraph:
    """As random_temporal, but every frame is patched to hold >= 1 edge."""
    frames = []
    for _ in range(t_count):
        p = rng.random() if density is None else density
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if not edges:
            u = rng.randrange(n - 1)
            edges = [(u, rng.randrange(u + 1, n))]
        frames.append(edges)
    return TemporalGraph(n, frames)


def random_connected(rng: random.Random, n: int, t_count: int,
                     extra: float = 0.3, max_union: int | None = None) -> TemporalGraph:
    """Every frame connected, with the union edge count capped.

    Draws a connected edge pool of at most max_union edges, then builds
    each frame as a random spanning tree of the pool plus extra pool edges,
    so frames are connected and the union stays within the pool.
    """
    cap = max_union if max_union is not None else n * (n - 1) // 2
    order = list(range(n))
    rng.shuffle(order)
    pool = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        pool.add((min(u, v), max(u, v)))
    others = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pool
    ]
    rng.shuffle(others)
    for e in others:
        if len(pool) >= cap:
            break
        if rng.random() < extra:
            pool.add(e)
    pool_edges = sorted(pool)
    frames = []
    for _ in range(t_count):
        shuffled = list(pool_edges)
        rng.shuffle(shuffled)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edges = set()
        for u, v in shuffled:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                edges.add((u, v))
        for e in pool_edges:
            if e not in edges and rng.random() < extra:
                edges.add(e)
        frames.append(sorted(edges))
    return TemporalGraph(n, frames)


def naive_build(n: int, t_count: int, records) -> TemporalGraph:
    """The graph of (line, t, u, v) edge records, checked one record at a
    time: integer labels, vertex range, self-loop, then duplicate.

    Sets the graph's storage directly, so no library check is involved.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if n > 2**63:
        raise ValueError(f"vertex count must be <= 2**63, got {n}")
    if t_count < 1:
        raise ValueError("at least one frame is required")
    seen = [set() for _ in range(t_count)]
    for line, t, u, v in records:
        try:
            u, v = index(u), index(v)
        except TypeError:
            raise MalformedEdgeLine(
                f"non-integer vertex label in edge ({u!r}, {v!r}) in frame {t}",
                line=line,
            ) from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeOutOfRange(
                f"edge ({u}, {v}) outside vertex range [0, {n}) in frame {t}",
                line=line,
            )
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u} in frame {t}", line=line)
        e = (u, v) if u < v else (v, u)
        if e in seen[t]:
            raise DuplicateEdge(f"duplicate edge {e} in frame {t}", line=line)
        seen[t].add(e)
    g = TemporalGraph.__new__(TemporalGraph)
    g.n = n
    g.edge_arrays = tuple(np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
                          for edges in seen)
    for edges in g.edge_arrays:
        edges.flags.writeable = False
    return g


def naive_parse(text) -> TemporalGraph:
    """.dcs text to a graph, one line at a time, feeding naive_build."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len((text[:exc.start].decode("utf-8") + "_").splitlines())
            raise NotUtf8(f"byte 0x{text[exc.start]:02x} is not valid UTF-8 "
                          f"({exc.reason})", line=line) from None
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            break
    else:
        raise MalformedHeader("empty input", line=1)
    if len(fields) != 2:
        raise MalformedHeader(f"expected '<n> <T>', got {raw!r}", line=lineno)
    try:
        n, t_count = int(fields[0]), int(fields[1])
    except ValueError:
        raise MalformedHeader(f"non-integer header fields in {raw!r}", line=lineno) from None
    if n < 1 or t_count < 1:
        raise MalformedHeader(f"need n >= 1 and T >= 1, got n={n}, T={t_count}", line=lineno)
    if n > 2**63:
        raise MalformedHeader(f"need n <= 2**63 for int64 labels, got n={n}", line=lineno)
    if t_count >= 2**63:
        raise MalformedHeader(f"need T < 2**63 for an int64 frame count, got T={t_count}",
                              line=lineno)

    def records():
        for lineno, raw in lines:
            fields = raw.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != 3:
                raise MalformedEdgeLine(f"expected '<t> <u> <v>', got {raw!r}", line=lineno)
            try:
                t, u, v = map(int, fields)
            except ValueError:
                raise MalformedEdgeLine(f"non-integer edge fields in {raw!r}", line=lineno) from None
            if not (0 <= t < t_count):
                raise EdgeOutOfRange(f"frame index {t} not in [0, {t_count})", line=lineno)
            yield lineno, t, u, v

    return naive_build(n, t_count, records())


def naive_serialize(g: TemporalGraph) -> str:
    """Canonical .dcs text, one formatted line per edge tuple of g.frames."""
    out = [f"{g.n} {g.T}\n"]
    for t, frame_edges in enumerate(g.frames):
        for u, v in frame_edges:
            out.append(f"{t} {u} {v}\n")
    return "".join(out)


def naive_stats(g: TemporalGraph, t: int, members) -> tuple[int, int]:
    """(edge count, min degree) of an induced frame subgraph, by double loop."""
    members = sorted(set(members))
    edges = set(g.frames[t])
    count = 0
    for u in members:
        for v in members:
            if u < v and (u, v) in edges:
                count += 1
    min_deg = min(
        sum(1 for w in members if w != v and (min(v, w), max(v, w)) in edges)
        for v in members
    )
    return count, min_deg


def naive_value(g: TemporalGraph, members, kind_name: str, k: int | None = None) -> Fraction:
    """Objective value straight from the defining formulas."""
    members = sorted(set(members))
    size = len(members)
    stats = [naive_stats(g, t, members) for t in range(g.T)]
    if kind_name == "mm":
        return Fraction(min(md for _, md in stats))
    if kind_name == "ma":
        return min(Fraction(ec, size) for ec, _ in stats)
    if kind_name == "am":
        return Fraction(sum(md for _, md in stats))
    if kind_name == "aa":
        return sum((Fraction(2 * ec, size) for ec, _ in stats), Fraction(0))
    densities = sorted((Fraction(ec, size) for ec, _ in stats), reverse=True)
    return densities[k - 1]


def naive_best(g: TemporalGraph, kind_name: str, k: int | None = None):
    """Exhaustive optimum with the library tie-break: size, then member order."""
    best = None
    for size in range(1, g.n + 1):
        for members in combinations(range(g.n), size):
            value = naive_value(g, members, kind_name, k)
            if best is None or value > best[0]:
                best = (value, VertexSet(members))
    return best[1], best[0]


def naive_core(g: TemporalGraph, thresholds, rng: random.Random) -> frozenset[int]:
    """Peel in a random victim order; used to confirm order independence."""
    alive = set(range(g.n))
    while True:
        violating = [
            v for v in alive
            if any(
                sum(1 for w in g.adjacency(t)[v] if w in alive) < thresholds[t]
                for t in range(g.T)
            )
        ]
        if not violating:
            return frozenset(alive)
        alive.remove(rng.choice(violating))


def naive_am_search(g: TemporalGraph, values_per_frame):
    """Threshold search by plain enumeration, without pruning.

    Returns (core, value, vector) for the first vector, in lexicographic
    order, whose core is nonempty and whose sum is the largest.
    """
    best = None
    for vec in product(*values_per_frame):
        alive = naive_core(g, vec, random.Random(0))
        if alive and (best is None or sum(vec) > best[1]):
            best = (alive, sum(vec), vec)
    return best


def naive_degeneracy(g: TemporalGraph, t: int, members) -> int:
    """Frame t's degeneracy inside `members`: the largest least degree met
    while removing a least-degree vertex, one vertex at a time."""
    left = set(members)
    result = 0
    while left:
        degree = {v: sum(1 for w in g.adjacency(t)[v] if w in left) for v in left}
        v = min(left, key=degree.__getitem__)
        result = max(result, degree[v])
        left.remove(v)
    return result


def naive_pruned_am_search(g: TemporalGraph, values_per_frame):
    """The threshold search with a per-vector scan of the empty frontier.

    Walks (prefix, k, 0, ...) in am._search's order with its three
    prunings, but tests every vector against every recorded minimal empty
    vector, peels every vector from scratch and computes every core-number
    bound afresh: at a node above the last frame, frame s's bound is its
    degeneracy inside core(prefix, 0, ...), rounded down to
    values_per_frame[s]; a last-frame node takes its parent's last-frame
    bound.  Returns (core, value, peels): the core of the first vector
    with the best sum, that sum and the number of vectors peeled.
    """
    t_count = g.T
    best_value, best_core = -1, frozenset(range(g.n))
    empties = []
    peels = 0

    def dominated(vec):
        return any(all(vec[i] >= e[i] for i in range(t_count)) for e in empties)

    def record_empty(vec):
        nonlocal empties
        empties = [e for e in empties if not all(e[i] >= vec[i] for i in range(t_count))]
        empties.append(vec)

    def descend(t, prefix, last_bound):
        nonlocal best_value, best_core, peels
        if t < t_count - 1:
            start = naive_core(g, prefix + (0,) * (t_count - t), random.Random(0))
            degeneracies = [naive_degeneracy(g, s, start) for s in range(t, t_count)]
            bounds = [max(k for k in values if k <= d)
                      for values, d in zip(values_per_frame[t:], degeneracies)]
        else:
            bounds = [last_bound]
        if sum(prefix) + sum(bounds) <= best_value:
            return
        for k in values_per_frame[t]:
            vec = prefix + (k,) + (0,) * (t_count - t - 1)
            if dominated(vec):
                break
            peels += 1
            alive = naive_core(g, vec, random.Random(0))
            if not alive:
                record_empty(vec)
                break
            if t == t_count - 1:
                if sum(vec) > best_value:
                    best_value, best_core = sum(vec), alive
            else:
                descend(t + 1, prefix + (k,), bounds[-1])

    descend(0, (), values_per_frame[-1][-1])
    return best_core, best_value, peels


def naive_lp_check(g: TemporalGraph, f) -> bool:
    """Feasibility of (y, x, z) in the density LP, each bound and constraint
    written out by hand."""
    y = {v: Fraction(val) for v, val in f.y.items()}
    x = {e: Fraction(val) for e, val in f.x.items()}
    z = Fraction(f.z)
    if sum(y.values(), Fraction(0)) != 1 or z < 0:
        return False
    if any(y[v] < 0 for v in range(g.n)):
        return False
    for (u, v), val in x.items():
        if val < 0 or val > y[u] or val > y[v]:
            return False
    return all(
        z <= sum((x[e] for e in g.frames[t]), Fraction(0)) for t in range(g.T)
    )


def naive_lp_rows(g: TemporalGraph) -> list:
    """The rows of the density LP as one LPConstraint each, built term by
    term in model order: normalize, both endpoint rows per union edge, then
    one row per frame."""
    rows = [LPConstraint("normalize", tuple((1, f"y{i}") for i in range(g.n)), "=", 1)]
    for u, v in sorted({e for frame in g.frames for e in frame}):
        xe = f"x_{u}_{v}"
        rows.append(LPConstraint(f"{xe}_le_y{u}", ((1, xe), (-1, f"y{u}")), "<=", 0))
        rows.append(LPConstraint(f"{xe}_le_y{v}", ((1, xe), (-1, f"y{v}")), "<=", 0))
    for t in range(g.T):
        terms = ((1, "z"),) + tuple((-1, f"x_{u}_{v}") for u, v in g.frames[t])
        rows.append(LPConstraint(f"frame_{t}", terms, "<=", 0))
    return rows


def naive_export_lp(g: TemporalGraph) -> str:
    """CPLEX-LP text of the density LP, rendering naive_lp_rows term by term."""
    def render(terms):
        parts = []
        for coef, name in terms:
            parts.append(f"- {name}" if coef == -1 else f"+ {name}" if parts else name)
        return " ".join(parts)

    union = sorted({e for frame in g.frames for e in frame})
    variables = [f"y{i}" for i in range(g.n)] + [f"x_{u}_{v}" for u, v in union] + ["z"]
    lines = ["Maximize", " obj: z", "Subject To"]
    lines += [f" {c.name}: {render(c.terms)} {c.sense} {c.rhs}" for c in naive_lp_rows(g)]
    lines.append("Bounds")
    lines += [f" 0 <= {name}" for name in variables]
    lines.append("End")
    return "\n".join(lines) + "\n"


def naive_edge_frames(g: TemporalGraph) -> dict:
    """Ascending frames holding each union edge, by testing every union
    edge against every frame."""
    union = sorted({e for frame in g.frames for e in frame})
    return {e: tuple(t for t, frame in enumerate(g.frames) if e in frame)
            for e in union}


def naive_minrep_edges(parts: int, part_size: int, edge_prob: float, seed: int) -> list:
    """random_minrep's edges by one scalar coin per A x B pair, row-major,
    with its fallback edge when no coin comes up."""
    a_all = [f"a{i}_{j}" for i in range(parts) for j in range(part_size)]
    b_all = [f"b{i}_{j}" for i in range(parts) for j in range(part_size)]
    stream = substream(seed, 0)
    edges = [(a, b) for a in a_all for b in b_all if stream.bernoulli(edge_prob)]
    return edges or [(a_all[0], b_all[0])]


def naive_set_cover_sets(n_elems: int, num_sets: int, prob: float, seed: int) -> list:
    """random_set_cover's sets by one scalar coin per (set, element),
    row-major, then patched so every element is covered."""
    stream = substream(seed, 0)
    sets = [{x for x in range(n_elems) if stream.bernoulli(prob)} for _ in range(num_sets)]
    for x in range(n_elems):
        if not any(x in s for s in sets):
            sets[x % num_sets].add(x)
    return sets


def naive_mcss_greedy(g: TemporalGraph) -> tuple:
    """The eager max-merge greedy, with its phase boundary kept in the loop.

    Returns (picks, gains, potentials, phase_boundary).  Each pick rescans
    every union edge in sorted order and keeps the first one merging the
    most components across the frames holding it.  The boundary is the
    number of picks made when the potential, checked before each pick, is
    first at most n; the number of all picks if that never happens.
    """
    frame_sets = [set(frame) for frame in g.frames]
    union = sorted(set().union(*frame_sets))
    parents = [list(range(g.n)) for _ in range(g.T)]

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def merging_frames(e):
        return [t for t in range(g.T)
                if e in frame_sets[t] and find(parents[t], e[0]) != find(parents[t], e[1])]

    rho = g.n * g.T - g.T
    picks, gains, potentials = [], [], []
    boundary = None
    while rho > 0:
        if boundary is None and rho <= g.n:
            boundary = len(picks)
        best = max(union, key=lambda e: len(merging_frames(e)))
        merged = merging_frames(best)
        for t in merged:
            parents[t][find(parents[t], best[0])] = find(parents[t], best[1])
        rho -= len(merged)
        picks.append(best)
        gains.append(len(merged))
        potentials.append(rho)
    if boundary is None:
        boundary = len(picks)
    return tuple(picks), tuple(gains), tuple(potentials), boundary


def naive_superedges(mr) -> dict:
    """Each part pair joined by an edge, in sorted order, mapped to its
    edges in instance order, by filtering every edge for every part pair."""
    groups = {}
    for i, a_part in enumerate(mr.a_parts):
        for j, b_part in enumerate(mr.b_parts):
            edges = tuple(e for e in mr.edges if e[0] in a_part and e[1] in b_part)
            if edges:
                groups[(i, j)] = edges
    return groups


def naive_ma_value(g: TemporalGraph, members) -> Fraction:
    """MA value of a vertex tuple, by one set intersection per (vertex, frame)."""
    inside = set(members)
    worst = min(sum(len(g.adjacency(t)[v] & inside) for v in members) // 2
                for t in range(g.T))
    return Fraction(worst, len(members))


def _naive_first_best(g: TemporalGraph, algorithm: str, candidates) -> SolveReport:
    """Report the first candidate set with the highest MA value."""
    return _report(g, algorithm, max(candidates, key=lambda m: naive_ma_value(g, m)))


def naive_greedy_cover(g: TemporalGraph) -> SolveReport:
    """The greedy frame cover by a Python scan of every pair at every step."""
    if any(not frame for frame in g.frames):
        return _report(g, "greedy-cover", range(g.n), trace=(), zero_score=True)
    n = g.n
    # bit t of a mask stands for frame t; pair_frames[(u, v)]: frames holding edge (u, v)
    pair_frames = {e: sum(1 << t for t in frames) for e, frames in g.edge_frames.items()}
    chosen: set[int] = set()
    uncovered = (1 << g.T) - 1
    trace: list[int] = []
    while uncovered:
        # near[u]: uncovered frames where u has a neighbour in the current set
        near = [0] * n
        for t in range(g.T):
            if uncovered >> t & 1:
                for u in range(n):
                    if g.adjacency(t)[u] & chosen:
                        near[u] |= 1 << t

        def covers(pair: tuple[int, int]) -> int:
            u, v = pair
            return (near[u] | near[v] | pair_frames.get(pair, 0)) & uncovered

        best = max(combinations(range(n), 2), key=lambda pair: covers(pair).bit_count())
        covered = covers(best)
        chosen.update(best)
        uncovered &= ~covered
        trace.append(covered.bit_count())
    return _report(g, "greedy-cover", chosen, trace=tuple(trace))


def naive_subset_search(g: TemporalGraph) -> SolveReport:
    """Every subset of size at most max(2, floor(log_n T)), scored one by one."""
    n = g.n
    bound = max(2, _int_log(n, g.T)) if n >= 2 else 1
    return _naive_first_best(g, "subset-search", (
        members
        for size in range(1, min(n, bound) + 1)
        for members in combinations(range(n), size)
    ))


def naive_partition_search(g: TemporalGraph) -> SolveReport:
    """Every nonempty union of the partition blocks, scored one by one in mask order."""
    blocks = partition_blocks(g.n, g.T)
    r = len(blocks)
    return _naive_first_best(g, "partition-search", (
        tuple(v for i in range(r) if mask >> i & 1 for v in blocks[i])
        for mask in range(1, 1 << r)
    ))
