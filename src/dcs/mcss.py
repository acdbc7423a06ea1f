"""Common spanning subgraphs: greedy edge selection and feasibility checks.

Given a sequence of connected frames, the goal is a smallest edge set F
from the union graph such that (V, F ∩ E_t) is connected for every frame t.
The greedy repeatedly commits the edge merging the most components summed
across the frames that contain it.  Progress is measured by the potential

    rho(F) = sum over frames of #components(V, F ∩ E_t)  -  T

which starts at nT - T, strictly decreases at every pick, and hits zero
exactly when F is feasible.
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


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def component_count(n: int, edges) -> int:
    parent = list(range(n))
    count = n
    for u, v in edges:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def require_connected(g: TemporalGraph) -> None:
    """Raise InfeasibleFrame naming the first disconnected frame, if any."""
    for t, frame_edges in enumerate(g.frames):
        if component_count(g.n, frame_edges) != 1:
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
        component_count(g.n, [e for e in frame_edges if e in chosen])
        for frame_edges in g.frames
    ) - g.T


def serialize_edges(f: EdgeSolution) -> str:
    """Edge-list text, one "u v" line per edge (union membership implied)."""
    return "".join(f"{u} {v}\n" for u, v in f.edges)


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

    parents = [list(range(n)) for _ in range(T)]
    rho = n * T - T
    picks: list[Edge] = []
    gains: list[int] = []
    potentials: list[int] = []
    phase_boundary: int | None = None

    while rho > 0:
        if phase_boundary is None and rho <= n:
            phase_boundary = len(picks)
        best_edge: Edge | None = None
        best_gain = 0
        for e, frames in frames_of.items():
            u, v = e
            gain = 0
            for t in frames:
                if _find(parents[t], u) != _find(parents[t], v):
                    gain += 1
            if gain > best_gain:
                best_edge, best_gain = e, gain
        assert best_edge is not None  # connected frames guarantee a useful edge
        u, v = best_edge
        for t in frames_of[best_edge]:
            ru, rv = _find(parents[t], u), _find(parents[t], v)
            if ru != rv:
                parents[t][ru] = rv
        rho -= best_gain
        picks.append(best_edge)
        gains.append(best_gain)
        potentials.append(rho)

    if phase_boundary is None:
        phase_boundary = len(picks)
    return GreedyRun(
        solution=EdgeSolution(picks),
        picks=tuple(picks),
        gains=tuple(gains),
        potentials=tuple(potentials),
        phase_boundary=phase_boundary,
    )
