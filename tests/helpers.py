"""Shared instance builders and naive reference implementations.

The naive functions deliberately re-derive quantities with double loops
and plain subset enumeration so the fast library paths are checked against
an independent computation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from dcs import TemporalGraph, VertexSet
from dcs.lp import LPConstraint
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
