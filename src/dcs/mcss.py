"""Common spanning subgraphs: greedy edge selection and feasibility checks.

Given a sequence of connected frames, the goal is a smallest edge set F
from the union graph such that (V, F ∩ E_t) is connected for every frame t.
The greedy repeatedly commits the edge merging the most components summed
across the frames that contain it.  Progress is measured by the potential

    rho(F) = sum over frames of #components(V, F ∩ E_t)  -  T

which starts at nT - T, strictly decreases at every pick, and hits zero
exactly when F is feasible.

Components are kept as a label per vertex per frame, with each label's
member list.  A merge relabels the smaller component into the larger, so a
vertex is relabelled O(log n) times per frame, and the greedy's gain scan
is one label comparison per (edge, frame).  The scan walks a live list of
union edges and drops an edge at the first scan where its gain is 0.
Components only merge, so a gain never rises and a dropped edge could
never be picked again (a pick needs a positive gain).  The list keeps
union order, so the pick is still the first maximum-gain edge in union
order.  Every path here reads the graph's edge arrays and union index,
never its `frames` tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EdgeNotInUnion, InfeasibleFrame
from .temporal import Edge, TemporalGraph


@dataclass(frozen=True)
class EdgeSolution:
    """Subset of the union edge set, canonically sorted."""

    edges: tuple[Edge, ...]

    def __init__(self, edges):
        normalized = sorted({(u, v) if u < v else (v, u) for u, v in edges})
        object.__setattr__(self, "edges", tuple(normalized))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)


@dataclass(frozen=True)
class GreedyRun:
    """Full trace of one greedy execution."""

    solution: EdgeSolution
    picks: tuple[Edge, ...]            # edges in pick order
    gains: tuple[int, ...]             # component merges per pick
    potentials: tuple[int, ...]        # potential after each pick
    phase_boundary: int                # pick index where potential first dropped to <= n


def _merge(label: list[int], members: list[list[int]], u: int, v: int) -> bool:
    """Join the components of u and v, relabelling the smaller; True iff they were apart."""
    a, b = label[u], label[v]
    if a == b:
        return False
    if len(members[a]) < len(members[b]):
        a, b = b, a
    for w in members[b]:
        label[w] = a
    members[a] += members[b]
    members[b] = []
    return True


def component_count(n: int, edges) -> int:
    label, members = list(range(n)), [[v] for v in range(n)]
    return n - sum(_merge(label, members, u, v) for u, v in edges)


def require_connected(g: TemporalGraph) -> None:
    """Raise InfeasibleFrame naming the first disconnected frame, if any."""
    for t, a in enumerate(g.edge_arrays):
        if component_count(g.n, zip(*a.T.tolist())) != 1:
            raise InfeasibleFrame(f"frame {t} is disconnected")


def check_spanning(g: TemporalGraph, f: EdgeSolution) -> bool:
    """True iff (V, F ∩ E_t) is connected for every frame t."""
    return potential(g, f) == 0


def potential(g: TemporalGraph, f: EdgeSolution) -> int:
    """Total component count across frames minus T; zero iff F spans every frame."""
    extra = [e for e in f.edges if e not in g.edge_frames]
    if extra:
        raise EdgeNotInUnion(f"edges {extra} are not in the union edge set")
    chosen = set(f.edges)
    return sum(
        component_count(g.n, (e for e in zip(*a.T.tolist()) if e in chosen))
        for a in g.edge_arrays
    ) - g.T


def mcss_greedy(g: TemporalGraph) -> EdgeSolution:
    """Greedy max-merge edge selection; requires every frame connected."""
    return mcss_greedy_run(g).solution


def mcss_greedy_run(g: TemporalGraph) -> GreedyRun:
    """As :func:`mcss_greedy`, returning the full pick trace.

    One loop covers both phases of the classic two-phase scheme: once the
    potential is at most n, every useful edge still merges at least one
    component, so max-gain picks coincide with the closing picks.  The
    phase boundary is recorded for auditability.
    """
    n, T = g.n, g.T
    require_connected(g)
    frames_of = g.edge_frames

    labels = [list(range(n)) for _ in range(T)]
    members = [[[v] for v in range(n)] for _ in range(T)]
    rho = n * T - T
    picks: list[Edge] = []
    gains: list[int] = []
    potentials: list[int] = []

    live = list(frames_of.items())
    while rho > 0:
        best_edge: Edge | None = None
        best_gain = 0
        kept = []
        for item in live:
            (u, v), frames = item
            gain = 0
            for t in frames:
                label = labels[t]
                if label[u] != label[v]:
                    gain += 1
            if gain:
                kept.append(item)
                if gain > best_gain:
                    best_edge, best_gain = item[0], gain
        live = kept
        assert best_edge is not None  # connected frames guarantee a useful edge
        u, v = best_edge
        for t in frames_of[best_edge]:
            _merge(labels[t], members[t], u, v)
        rho -= best_gain
        picks.append(best_edge)
        gains.append(best_gain)
        potentials.append(rho)

    # the potential before pick i is ([n*T - T] + potentials)[i]; it ends at 0
    before = [n * T - T] + potentials
    return GreedyRun(
        solution=EdgeSolution(picks),
        picks=tuple(picks),
        gains=tuple(gains),
        potentials=tuple(potentials),
        phase_boundary=next(i for i, p in enumerate(before) if p <= n),
    )
