"""Instance generators: gap families, reductions, and planted random graphs.

Three kinds of construction live here:

* the star-sequence gap family whose LP/integral ratio grows like n / log n;
* reductions that re-express covering problems as graph-sequence problems
  (MinRep -> min-over-frames density, independent set -> sum of min degrees,
  set cover -> common spanning subgraph), used as instance generators with
  known optima;
* planted random models (two-frame planted dense subgraph, the recursive
  planted distribution, and low-density padding frames).

Every randomized generator is a pure function of (params, seed): identical
seeds give byte-identical serializations.  Reductions that add fresh
vertices append them at the top of the index range and return a name map
(index -> label) suitable for writing ".names" files.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CompleteGraph, NoSuperedges, NotSingleFrame, NotUniform, Uncoverable
from .rng import SplitMix64, bernoulli_block, substream
from .temporal import Edge, TemporalGraph


def _as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class MinRepInstance:
    """Bipartite label-cover instance: partitioned sides plus crossing edges.

    Vertices are opaque string labels.  A superedge (i, j) exists when some
    edge joins part i of the A side to part j of the B side; a cover must
    pick both endpoints of at least one edge per superedge.
    """

    a_parts: tuple[tuple[str, ...], ...]
    b_parts: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "a_parts", tuple(tuple(p) for p in self.a_parts))
        object.__setattr__(self, "b_parts", tuple(tuple(p) for p in self.b_parts))
        object.__setattr__(self, "edges", tuple((a, b) for a, b in self.edges))
        a_all = [x for part in self.a_parts for x in part]
        b_all = [x for part in self.b_parts for x in part]
        if len(set(a_all)) != len(a_all) or len(set(b_all)) != len(b_all):
            raise ValueError("parts within a side must be disjoint")
        if set(a_all) & set(b_all):
            raise ValueError("A and B sides must be disjoint")
        a_set, b_set, seen = set(a_all), set(b_all), set()
        for a, b in self.edges:
            if a not in a_set or b not in b_set:
                raise ValueError(f"edge ({a!r}, {b!r}) does not cross from A to B")
            if (a, b) in seen:
                raise ValueError(f"edge ({a!r}, {b!r}) is repeated")
            seen.add((a, b))

    @property
    def a_vertices(self) -> tuple[str, ...]:
        return tuple(x for part in self.a_parts for x in part)

    @property
    def b_vertices(self) -> tuple[str, ...]:
        return tuple(x for part in self.b_parts for x in part)

    def superedges(self) -> dict[tuple[int, int], tuple[tuple[str, str], ...]]:
        """Each (i, j) part pair joined by an edge, in sorted order, mapped to
        the edges joining them, in instance order."""
        part_of_a = {x: i for i, part in enumerate(self.a_parts) for x in part}
        part_of_b = {x: j for j, part in enumerate(self.b_parts) for x in part}
        groups: dict[tuple[int, int], list[tuple[str, str]]] = {}
        for a, b in self.edges:
            groups.setdefault((part_of_a[a], part_of_b[b]), []).append((a, b))
        return {pair: tuple(groups[pair]) for pair in sorted(groups)}


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe 0..n_elems-1 plus subsets; minimize the number of chosen sets."""

    n_elems: int
    sets: tuple[frozenset[int], ...]

    def __init__(self, n_elems: int, sets: Iterable[Iterable[int]]):
        if n_elems < 0:
            raise ValueError(f"need n_elems >= 0, got {n_elems}")
        object.__setattr__(self, "n_elems", n_elems)
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in sets))
        for s in self.sets:
            if s and (min(s) < 0 or max(s) >= n_elems):
                raise ValueError(f"set {sorted(s)} not within universe [0, {n_elems})")


@dataclass(frozen=True)
class PlantedParams:
    """Two-frame planted dense subgraph parameters."""

    n: int
    eps: Fraction
    planted: bool
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "eps", _as_fraction(self.eps))
        if self.n < 16:
            raise ValueError(f"ambient size must be >= 16, got {self.n}")
        if not Fraction(0) < self.eps < Fraction(1, 4):
            raise ValueError(f"eps must lie in (0, 1/4), got {self.eps}")


@dataclass(frozen=True)
class RecursiveParams:
    """Recursive planted-distribution parameters: sizes and log-densities."""

    nvec: tuple[int, ...]
    pvec: tuple[Fraction, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "nvec", tuple(int(v) for v in self.nvec))
        object.__setattr__(self, "pvec", tuple(_as_fraction(p) for p in self.pvec))
        if len(self.nvec) != len(self.pvec) or not self.nvec:
            raise ValueError("size and log-density vectors must have equal nonzero length")
        if any(v <= 0 for v in self.nvec):
            raise ValueError("sizes must be positive")
        if any(a <= b for a, b in zip(self.nvec, self.nvec[1:])):
            raise ValueError("size vector must be strictly decreasing")
        if any(not Fraction(0) < p <= Fraction(1) for p in self.pvec):
            raise ValueError("log-densities must lie in (0, 1]")


def _ceil_root(n: int, k: int) -> int:
    """Smallest m with m**k >= n."""
    m = max(1, round(n ** (1.0 / k)))
    while m**k < n:
        m += 1
    while m > 1 and (m - 1) ** k >= n:
        m -= 1
    return m


def _er_edges(stream: SplitMix64, vertices: Sequence[int], p: float) -> list[Edge]:
    """Bernoulli(p) edges over all vertex pairs, in pair order, vectorized.

    One draw per pair of the given (ascending) vertex list, pairs ordered
    lexicographically by position, so output depends only on the stream
    position and p.
    """
    m = len(vertices)
    hits = bernoulli_block(stream, m * (m - 1) // 2, p)
    idx = np.nonzero(hits)[0]
    row_sizes = m - 1 - np.arange(m - 1)
    starts = np.concatenate(([0], np.cumsum(row_sizes)))[:-1]
    rows = np.searchsorted(starts, idx, side="right") - 1
    cols = idx - starts[rows] + rows + 1
    return [(vertices[int(i)], vertices[int(j)]) for i, j in zip(rows, cols)]


def gen_gap_instance(n: int) -> TemporalGraph:
    """Star sequence with T = n-1 frames; frame k is a k-edge star at vertex k.

    Every vertex centers a star in some frame, so any integral solution
    missing a vertex scores zero, while the full set scores exactly 1/n.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    frames = [[(i, k) for i in range(k)] for k in range(1, n)]
    return TemporalGraph(n, frames)


def reduce_minrep_to_ma(mr: MinRepInstance) -> tuple[TemporalGraph, dict[int, str]]:
    """MinRep instance -> graph sequence whose best min-density is 1/(cover+2).

    Vertices are the A side, then the B side, then two fresh vertices u, v.
    Frame 0 holds the single edge (u, v); each further frame holds exactly
    the edges of one superedge.  A positive score forces u, v plus a cover.
    """
    supers = mr.superedges()
    if not supers:
        raise NoSuperedges("instance has no superedges")
    labels = list(mr.a_vertices) + list(mr.b_vertices) + ["u", "v"]
    index = {lab: i for i, lab in enumerate(labels)}
    u_idx, v_idx = index["u"], index["v"]
    frames = [[(u_idx, v_idx)]] + [
        [(index[a], index[b]) for a, b in edges] for edges in supers.values()
    ]
    g = TemporalGraph(len(labels), frames)
    return g, dict(enumerate(labels))


def reduce_mis_to_am(graph: TemporalGraph) -> TemporalGraph:
    """Non-complete graph -> sequence whose best degree-sum equals max ind. set.

    One frame per vertex v: the neighbors of v are isolated while v and its
    non-neighbors form a star centered at v.
    """
    if graph.T != 1:
        raise NotSingleFrame("input must be a single-frame graph")
    n = graph.n
    adj = graph.adjacency(0)
    if all(len(adj[v]) == n - 1 for v in range(n)):
        raise CompleteGraph("input graph is complete")
    frames = []
    for v in range(n):
        non_neighbors = [w for w in range(n) if w != v and w not in adj[v]]
        frames.append([(min(v, w), max(v, w)) for w in non_neighbors])
    return TemporalGraph(n, frames)


def planted_subset(p: PlantedParams) -> tuple[int, ...]:
    """The ambient subset that receives (or would receive) the dense overlay.

    Drawn from its own sub-stream, so it is well defined for planted and
    unplanted parameters alike and independent of the edge draws.
    """
    m = _ceil_root(p.n, 2)
    return tuple(substream(p.seed, 2).sample_without_replacement(p.n, m))


def gen_planted_2frame(p: PlantedParams) -> TemporalGraph:
    """Two frames: a clique on fresh vertices, and a sparse ambient graph.

    Frame 0 is a clique on ceil(n^(1/4)) fresh vertices appended after the
    n ambient ones.  Frame 1 is G(n, n^(-1/2)) on the ambient vertices;
    when planted, a uniformly chosen ceil(sqrt(n))-subset additionally
    receives Bernoulli(n^(-1/4-eps)) edges, unioned in.

    Sub-streams: role 1 = ambient edges, role 2 = subset choice,
    role 3 = overlay edges.
    """
    n = p.n
    u_size = _ceil_root(n, 4)
    clique = [(a, b) for a in range(n, n + u_size) for b in range(a + 1, n + u_size)]
    ambient = list(range(n))
    edges = set(_er_edges(substream(p.seed, 1), ambient, n**-0.5))
    if p.planted:
        sub = list(planted_subset(p))
        overlay_p = float(n) ** (-0.25 - float(p.eps))
        edges.update(_er_edges(substream(p.seed, 3), sub, overlay_p))
    return TemporalGraph(n + u_size, [clique, edges])


def sample_recursive_planted(rp: RecursiveParams) -> TemporalGraph:
    """Single frame from the recursive planted distribution.

    Level 0 is G(n_1, n_1^(p_1 - 1)); each deeper level unions a recursive
    sample onto a uniformly chosen subset of the previous level's vertices.
    Sub-streams: role 2*level = edges, role 2*level + 1 = subset choice.
    """
    edges = _recursive_edges(rp, 0, list(range(rp.nvec[0])))
    return TemporalGraph(rp.nvec[0], [edges])


def _recursive_edges(rp: RecursiveParams, level: int, vertices: list[int]) -> set[Edge]:
    size = rp.nvec[level]
    prob = float(size) ** (float(rp.pvec[level]) - 1.0)
    edges = set(_er_edges(substream(rp.seed, 2 * level), vertices, prob))
    if level + 1 < len(rp.nvec):
        pick = substream(rp.seed, 2 * level + 1).sample_without_replacement(
            size, rp.nvec[level + 1]
        )
        edges |= _recursive_edges(rp, level + 1, [vertices[i] for i in pick])
    return edges


def gen_padded_sequence(
    base: TemporalGraph,
    pad_count: int | None,
    eps_prime,
    seed: int,
    ambient_n: int | None = None,
) -> TemporalGraph:
    """Append i.i.d. G(ambient_n, ambient_n^(-3*eps')) frames to a sequence.

    ``ambient_n`` restricts padding edges to the first ambient_n vertices
    (default: all of them), so fresh vertices appended by an earlier
    construction stay isolated in the padding frames.  ``pad_count=None``
    picks min(ambient_n**2, 10**4).  Padding frame j draws from sub-stream
    role base.T + j (its frame index in the output).
    """
    amb = base.n if ambient_n is None else ambient_n
    if not 1 <= amb <= base.n:
        raise ValueError(f"ambient_n must lie in [1, {base.n}], got {amb}")
    eps_prime = _as_fraction(eps_prime)
    if eps_prime < 0:
        raise ValueError(f"eps_prime must be >= 0, got {eps_prime}")
    if pad_count is None:
        pad_count = min(amb * amb, 10_000)
    if pad_count < 0:
        raise ValueError(f"pad_count must be >= 0, got {pad_count}")
    prob = float(amb) ** (-3.0 * float(eps_prime))
    ambient = list(range(amb))
    frames = [list(fr) for fr in base.frames]
    for j in range(pad_count):
        frames.append(_er_edges(substream(seed, base.T + j), ambient, prob))
    return TemporalGraph(base.n, frames)


def reduce_setcover_to_mcss(sc: SetCoverInstance) -> tuple[TemporalGraph, dict[int, str]]:
    """Set cover -> spanning-subgraph sequence with optimum m + cover + 1.

    Vertices s_1..s_m, x, y.  Frame 0 is the path x, y, s_1, ..., s_m (its
    m+1 edges are forced into any solution).  The frame of element i keeps
    the path y, s_1, ..., s_m and attaches x to s_j for every set S_j
    containing i, so connecting x picks one covering set per element.
    """
    m = len(sc.sets)
    if m == 0:
        raise ValueError("need at least one set")
    covered = frozenset().union(*sc.sets)
    if len(covered) < sc.n_elems:
        missing = sorted(set(range(sc.n_elems)) - covered)
        raise Uncoverable(f"elements {missing} belong to no set")
    x_idx, y_idx = m, m + 1
    spine = [(y_idx, 0)] + [(j, j + 1) for j in range(m - 1)]
    frames: list[list[Edge]] = [[(x_idx, y_idx)] + spine]
    for elem in range(sc.n_elems):
        attach = [(j, x_idx) for j in range(m) if elem in sc.sets[j]]
        frames.append(spine + attach)
    names = {j: f"s{j + 1}" for j in range(m)}
    names[x_idx] = "x"
    names[y_idx] = "y"
    return TemporalGraph(m + 2, frames), names


def ekvc_to_setcover(num_vertices: int, hyperedges: Sequence[Sequence[int]]) -> SetCoverInstance:
    """k-uniform hypergraph vertex cover as set cover.

    The universe is the hyperedge index set; the set of vertex v holds the
    indices of v's incident hyperedges (possibly empty).
    """
    if not hyperedges:
        raise ValueError("need at least one hyperedge")
    k = len(set(hyperedges[0]))
    if k < 2:
        raise NotUniform("hyperedges must have arity >= 2")
    sets: list[set[int]] = [set() for _ in range(num_vertices)]
    for i, he in enumerate(hyperedges):
        members = set(he)
        if len(members) != len(he) or len(members) != k:
            raise NotUniform(f"hyperedge {i} is not a {k}-set: {list(he)}")
        for v in members:
            if not 0 <= v < num_vertices:
                raise ValueError(f"vertex {v} outside range [0, {num_vertices})")
            sets[v].add(i)
    return SetCoverInstance(len(hyperedges), sets)


def random_minrep(
    parts: int, part_size: int, edge_prob: float, seed: int
) -> MinRepInstance:
    """Random MinRep instance with `parts` parts of `part_size` on each side.

    Each A x B vertex pair gets an edge with probability edge_prob; if none
    appears, one fixed edge is added so at least one superedge exists.
    """
    if parts < 1 or part_size < 1:
        raise ValueError(f"need parts >= 1 and part_size >= 1, got {parts} and {part_size}")
    a_parts = tuple(
        tuple(f"a{i}_{j}" for j in range(part_size)) for i in range(parts)
    )
    b_parts = tuple(
        tuple(f"b{i}_{j}" for j in range(part_size)) for i in range(parts)
    )
    a_all = [x for part in a_parts for x in part]
    b_all = [x for part in b_parts for x in part]
    hits = bernoulli_block(substream(seed, 0), len(a_all) * len(b_all), edge_prob)
    edges = [(a_all[i], b_all[j]) for i, j in zip(*np.nonzero(hits.reshape(len(a_all), -1)))]
    if not edges:
        edges.append((a_parts[0][0], b_parts[0][0]))
    return MinRepInstance(a_parts, b_parts, tuple(edges))


def random_set_cover(n_elems: int, num_sets: int, prob: float, seed: int) -> SetCoverInstance:
    """Random set system over n_elems elements, patched to cover everything."""
    if num_sets < 1:
        raise ValueError(f"need num_sets >= 1, got {num_sets}")
    hits = bernoulli_block(substream(seed, 0), num_sets * n_elems, prob)
    sets = [set(np.flatnonzero(row).tolist()) for row in hits.reshape(num_sets, -1)]
    for x in range(n_elems):
        if not any(x in s for s in sets):
            sets[x % num_sets].add(x)
    return SetCoverInstance(n_elems, sets)


def random_graph(n: int, p: float, seed: int) -> TemporalGraph:
    """Single-frame G(n, p) sample."""
    return TemporalGraph(n, [_er_edges(substream(seed, 0), list(range(n)), p)])
