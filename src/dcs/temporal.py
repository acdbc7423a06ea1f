"""Graph sequences on a shared vertex set, and the .dcs text format.

A temporal graph is a sequence of T simple undirected graphs (frames)
over the same vertices 0..n-1, indexed by two cached views, `adjacency`
and `edge_frames`.  The on-disk format is plain text:

    line 1:             "<n> <T>"
    every other line:   "<t> <u> <v>"   one edge of frame t, 0-based
    lines starting with '#' are comments; blank lines are ignored

Parsing is whitespace-tolerant; serialization is canonical (edges sorted
by (t, u, v) with u < v, single spaces, trailing newline) so equal graphs
produce byte-identical files.
"""

from __future__ import annotations

from operator import index
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import (
    DuplicateEdge,
    EdgeOutOfRange,
    FrameIndexOutOfRange,
    MalformedEdgeLine,
    MalformedHeader,
    NotUtf8,
    SelfLoop,
)

Edge = tuple[int, int]


class TemporalGraph:
    """Immutable sequence of frames over vertices 0..n-1.

    Frames are stored as sorted tuples of normalized edges (u < v).  Two
    derived views are computed on first use and cached: the per-frame
    adjacency index (`adjacency`) and the frames holding each union edge
    (`edge_frames`).  The frames never change after construction, so a
    concurrent first use can only compute the same value twice.
    """

    __slots__ = ("n", "frames", "_adj", "_edge_frames")

    def __init__(self, n: int, frames: Iterable[Iterable[Edge]]):
        frames = tuple(frames)
        records = ((0, t, u, v) for t, frame in enumerate(frames) for u, v in frame)
        self._build(n, len(frames), records)

    def _build(self, n: int, t_count: int,
               records: Iterable[tuple[int, int, object, object]]) -> None:
        """Validate (line, t, u, v) edge records and store the frames.

        The one edge check on every path into a graph; ``line`` is the
        1-based source line named in errors, 0 for constructed graphs.
        """
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        if t_count < 1:
            raise ValueError("at least one frame is required")
        seen: list[set[Edge]] = [set() for _ in range(t_count)]
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
        self.n = n
        self.frames = tuple(tuple(sorted(edges)) for edges in seen)
        self._adj: tuple[tuple[frozenset[int], ...], ...] | None = None
        self._edge_frames: Mapping[Edge, tuple[int, ...]] | None = None

    @property
    def T(self) -> int:
        return len(self.frames)

    @property
    def edge_frames(self) -> Mapping[Edge, tuple[int, ...]]:
        """Read-only map of each union edge, in sorted order, to its ascending frames."""
        if self._edge_frames is None:
            frames_of: dict[Edge, tuple[int, ...]] = {}
            for t, frame_edges in enumerate(self.frames):
                only_t = (t,)  # () + only_t is only_t: one-frame edges share it
                for e in frame_edges:
                    frames_of[e] = frames_of.get(e, ()) + only_t
            self._edge_frames = MappingProxyType({e: frames_of[e] for e in sorted(frames_of)})
        return self._edge_frames

    @property
    def union_edges(self) -> tuple[Edge, ...]:
        """Sorted union of all frame edge sets: the keys of `edge_frames`."""
        return tuple(self.edge_frames)

    def adjacency(self, t: int) -> tuple[frozenset[int], ...]:
        """Neighbor sets of frame t, indexed by vertex (built once, then cached)."""
        if not (0 <= t < self.T):
            raise FrameIndexOutOfRange(f"frame {t} not in [0, {self.T})")
        if self._adj is None:
            adj = []
            for frame_edges in self.frames:
                nbrs: list[set[int]] = [set() for _ in range(self.n)]
                for u, v in frame_edges:
                    nbrs[u].add(v)
                    nbrs[v].add(u)
                adj.append(tuple(frozenset(s) for s in nbrs))
            self._adj = tuple(adj)
        return self._adj[t]

    def max_degree(self, t: int) -> int:
        return max((len(s) for s in self.adjacency(t)), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return self.n == other.n and self.frames == other.frames

    def __hash__(self) -> int:
        return hash((self.n, self.frames))

    def __repr__(self) -> str:
        return f"TemporalGraph(n={self.n}, T={self.T})"


def as_int(value: object, noun: str) -> int:
    """value as an int, via operator.index; ValueError naming it otherwise."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{noun} must be an integer, got {value!r}") from None


class VertexSet:
    """Canonical subset of a vertex range: sorted, deduplicated members."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[int]):
        ms = tuple(sorted({as_int(v, "vertex") for v in members}))
        if ms and ms[0] < 0:
            raise ValueError(f"negative vertex {ms[0]}")
        self.members = ms

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, v: object) -> bool:
        return v in self.members

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VertexSet):
            return self.members == other.members
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"VertexSet({list(self.members)})"


def induced_degrees(g: TemporalGraph, t: int, vertices: Iterable[int],
                    inside: set[int] | frozenset[int]) -> list[int]:
    """Number of frame-t neighbors in `inside` of each of `vertices`, in order.

    With vertices = inside these are the degrees of the induced subgraph.
    """
    adj = g.adjacency(t)
    return [len(adj[v] & inside) for v in vertices]


def parse(text: str | bytes) -> TemporalGraph:
    """Parse a .dcs text stream into a validated TemporalGraph.

    Tolerates extra whitespace, blank lines, and '#' comments.  Raises a
    ParseError subclass naming the offending 1-based line on bad input.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # count lines as str.splitlines does on the decoded prefix
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
        raise MalformedHeader(
            f"non-integer header fields in {raw!r}", line=lineno
        ) from None
    if n < 1 or t_count < 1:
        raise MalformedHeader(
            f"need n >= 1 and T >= 1, got n={n}, T={t_count}", line=lineno
        )
    g = TemporalGraph.__new__(TemporalGraph)
    g._build(n, t_count, _edge_records(lines, t_count))
    return g


def _edge_records(lines: Iterator[tuple[int, str]],
                  t_count: int) -> Iterator[tuple[int, int, int, int]]:
    """(line, t, u, v) for each edge line; checks syntax and frame index only."""
    for lineno, raw in lines:
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 3:
            raise MalformedEdgeLine(
                f"expected '<t> <u> <v>', got {raw!r}", line=lineno
            )
        try:
            t, u, v = map(int, fields)
        except ValueError:
            raise MalformedEdgeLine(
                f"non-integer edge fields in {raw!r}", line=lineno
            ) from None
        if not (0 <= t < t_count):
            raise EdgeOutOfRange(
                f"frame index {t} not in [0, {t_count})", line=lineno
            )
        yield lineno, t, u, v


def serialize(g: TemporalGraph) -> str:
    """Canonical .dcs text for g; parse(serialize(g)) == g, byte for byte."""
    out = [f"{g.n} {g.T}\n"]
    for t, frame_edges in enumerate(g.frames):
        for u, v in frame_edges:
            out.append(f"{t} {u} {v}\n")
    return "".join(out)


def load(path: str) -> TemporalGraph:
    with open(path, "rb") as fh:
        return parse(fh.read())


def save(g: TemporalGraph, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(serialize(g))
