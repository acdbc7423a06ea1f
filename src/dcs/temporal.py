"""Graph sequences on a shared vertex set, and the .dcs text format.

A temporal graph is a sequence of T simple undirected graphs (frames)
over the same vertices 0..n-1 (n <= 2**63), stored as int64 edge arrays
with cached views.  The on-disk format is plain text:

    line 1:             "<n> <T>"
    every other line:   "<t> <u> <v>"   one edge of frame t, 0-based
    lines starting with '#' are comments; blank lines are ignored

Parsing is whitespace-tolerant; serialization is canonical (edges sorted
by (t, u, v) with u < v, single spaces, trailing newline) so equal graphs
produce byte-identical files.  Canonical text is recognized by a match of
the header line and array checks on the body's bytes, which hold no
per-line object and peak at about 48 bytes per edge line; it is then read
with one array conversion.  Any other text is read line by line, and the
accepted language is the same either way.  Parsed edges, constructed frames
and generated edge arrays all pass one array validator, and an error names
the same line on either path: the first faulty record in file order.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import index
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    EdgeOutOfRange,
    FrameIndexOutOfRange,
    MalformedEdgeLine,
    MalformedHeader,
    NotUtf8,
    ParseError,
    SelfLoop,
)

Edge = tuple[int, int]


class TemporalGraph:
    """Immutable sequence of frames over vertices 0..n-1.

    The storage is `edge_arrays`: one read-only (m_t, 2) int64 array per
    frame, rows (u, v) with u < v in ascending order.  Three views of it are
    cached properties, built on first use: `frames`, `adjacency` and the union
    index (`union_index`, `union_edges`, `edge_frames`).  The arrays never
    change, so a concurrent first use can only compute the same value twice.
    """

    def __init__(self, n: int, frames: Iterable[Iterable[Edge]]):
        frames = tuple(frames)
        self._build(n, len(frames), *_collect(n, len(frames), _frame_records(frames)))

    @classmethod
    def _from_array(cls, n: int, t_count: int, tuv: np.ndarray | list[tuple[int, ...]],
                    lines: Sequence[int] | None = None) -> TemporalGraph:
        """Graph from (m, 3) integer (t, u, v) records; see `_build` and `_collect`."""
        g = cls.__new__(cls)
        g._build(n, t_count, tuv, lines)
        return g

    def _build(self, n: int, t_count: int, tuv: np.ndarray | list[tuple[int, ...]],
               lines: Sequence[int] | None = None) -> None:
        """Validate (t, u, v) edge records and store them as `edge_arrays`.

        The one edge check on every path into a graph (`_collect` resolves
        a malformed record first).  A record's faults are checked in the
        order frame index, vertex range, self-loop, duplicate, and the
        earliest faulty record is reported, naming ``lines[i]``, its 1-based
        source line (0 when ``lines`` is None, for constructed graphs).
        """
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        if n > 1 << 63:
            raise ValueError(f"vertex count must be <= 2**63, got {n}")
        if t_count < 1:
            raise ValueError("at least one frame is required")
        try:
            tuv = np.asarray(tuv, dtype=np.int64).reshape(-1, 3)
        except OverflowError:  # a value past int64 stays a Python int; its record is faulty
            tuv = np.array(tuv, dtype=object).reshape(-1, 3)
        t, u, v = tuv.T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad = (t < 0) | (t >= t_count) | (lo < 0) | (hi >= n) | (u == v)
        # whether each record's (t, lo, hi) is above the one before, compared
        # a column at a time: exact for every n
        up = hi[1:] > hi[:-1]
        for col in (lo, t):
            up = (col[1:] > col[:-1]) | (col[1:] == col[:-1]) & up
        if not up.all():  # canonical input already rises
            order = np.lexsort((hi, lo, t))
            t, lo, hi = t[order], lo[order], hi[order]
            repeat = (t[1:] == t[:-1]) & (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
            bad[order[1:][repeat]] = True  # every repeat after the first
        if bad.any():
            i = int(bad.argmax())
            _raise_fault(n, t_count, *map(int, tuv[i]), line=0 if lines is None else lines[i])
        edges = np.stack((lo, hi), axis=1)
        edges.flags.writeable = False
        ends = np.bincount(t, minlength=t_count).cumsum()
        self.n = n
        self.edge_arrays: tuple[np.ndarray, ...] = tuple(np.split(edges, ends[:-1]))

    @property
    def T(self) -> int:
        return len(self.edge_arrays)

    @cached_property
    def frames(self) -> tuple[tuple[Edge, ...], ...]:
        """Each frame's edges as sorted (u, v) tuples, u < v."""
        # tuple() of a list, not of a zip: growing and shrinking a tuple fragments the heap
        return tuple(tuple(list(zip(*e.T.tolist()))) for e in self.edge_arrays)

    def union_index(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """((u, v), positions), from one sort of all edges: the union edges,
        sorted, as the rows u and v of a read-only (2, k) int64 array, and per
        frame, a read-only int64 array of each edge's index in them."""
        return self._union

    @cached_property
    def _union(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        n, edges = self.n, np.concatenate(self.edge_arrays)
        # frames are ascending runs, which a stable (merging) sort takes fast;
        # u * n + v sorts as (u, v) wherever it cannot pass int64
        order = (np.argsort(edges[:, 0] * n + edges[:, 1], kind="stable") if n < 1 << 31
                 else np.lexsort(edges.T[::-1]))
        ranked = edges[order]
        u, v = ranked.T
        first = np.ones(len(ranked), dtype=bool)  # row 0 and each new row
        first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        position = np.empty(len(ranked), dtype=np.int64)
        position[order] = first.cumsum() - 1
        union = np.ascontiguousarray(ranked[first].T)
        union.flags.writeable = position.flags.writeable = False
        ends = np.cumsum([len(e) for e in self.edge_arrays])[:-1]
        return union, tuple(np.split(position, ends))

    @cached_property
    def union_edges(self) -> tuple[Edge, ...]:
        """Sorted union of all frame edge sets: the keys of `edge_frames`."""
        return tuple(list(zip(*self._union[0].tolist())))  # see frames

    @cached_property
    def edge_frames(self) -> Mapping[Edge, tuple[int, ...]]:
        """Read-only map of each union edge, in sorted order, to its ascending frames."""
        union = self.union_edges
        frames_of: list[tuple[int, ...]] = [()] * len(union)
        for t, positions in enumerate(self._union[1]):
            only_t = (t,)  # () + only_t is only_t: one-frame edges share it
            for i in positions.tolist():
                frames_of[i] += only_t
        return MappingProxyType(dict(zip(union, frames_of)))

    def adjacency(self, t: int) -> tuple[frozenset[int], ...]:
        """Neighbor sets of frame t, indexed by vertex."""
        if not (0 <= t < self.T):
            raise FrameIndexOutOfRange(f"frame {t} not in [0, {self.T})")
        return self._adj[t]

    @cached_property
    def _adj(self) -> tuple[tuple[frozenset[int], ...], ...]:
        adj = []
        for edges in self.edge_arrays:
            nbrs: list[set[int]] = [set() for _ in range(self.n)]
            for u, v in edges.tolist():
                nbrs[u].add(v)
                nbrs[v].add(u)
            adj.append(tuple(frozenset(s) for s in nbrs))
        return tuple(adj)

    def max_degree(self, t: int) -> int:
        return max((len(s) for s in self.adjacency(t)), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (self.n == other.n and self.T == other.T
                and all(map(np.array_equal, self.edge_arrays, other.edge_arrays)))

    def __hash__(self) -> int:
        return hash((self.n, *(e.tobytes() for e in self.edge_arrays)))

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


# The text serialize writes: the header "<n> <T>\n", then edge lines of three
# ASCII digit tokens, each line "<t> <u> <v>\n" with single spaces.  Edge
# tokens of at most 18 digits always fit int64.
_HEADER = re.compile(rb"[0-9]+ [0-9]+\n")


def _canonical_header(text: bytes) -> int:
    """Length of text's header line if text is canonical, else 0.

    The body is checked as one uint8 view of its bytes, with no per-line
    Python object or regex frame: every byte is a digit, a space or a
    newline, the last one a newline; the non-digits run space, space,
    newline; and every token has 1-18 digits.  Its arrays peak at about
    48 bytes per edge line: each token's int64 end, then the gaps between.
    """
    head = _HEADER.match(text)
    if head is None:
        return 0
    body = np.frombuffer(text, dtype=np.uint8, offset=head.end())
    if not len(body):
        return head.end()
    if body[-1] != ord("\n") or body.max() > ord("9"):
        return 0
    ends = np.flatnonzero(body < ord("0"))  # the separator after each token
    if len(ends) % 3 or body[ends].tobytes() != b"  \n" * (len(ends) // 3):
        return 0
    width = np.diff(ends)  # each later token's digits and the separator before it
    return head.end() if 1 <= ends[0] <= 18 and 2 <= width.min() and width.max() <= 19 else 0


def parse(text: str | bytes) -> TemporalGraph:
    """Parse a .dcs text stream into a validated TemporalGraph.

    Tolerates extra whitespace, blank lines, and '#' comments.  Raises a
    ParseError subclass naming the offending 1-based line on bad input.
    Canonical text is recognized by `_canonical_header`, whose arrays peak
    at about 48 bytes per edge line, and read in one array conversion; any
    other text is read line by line.  Both feed the same validator.
    """
    if isinstance(text, str) and text.isascii():
        text = text.encode("ascii")
    if isinstance(text, bytes) and (start := _canonical_header(text)):
        n, t_count = _header(text[:start].decode("ascii"), 1)
        body = np.frombuffer(text, dtype=np.uint8, offset=start)  # no copy
        tuv = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 3)
        return TemporalGraph._from_array(n, t_count, tuv, range(2, len(tuv) + 2))
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
    n, t_count = _header(raw, lineno)
    return TemporalGraph._from_array(n, t_count, *_collect(n, t_count, _line_records(lines)))


def _header(raw: str, lineno: int) -> tuple[int, int]:
    """(n, T) from the header line."""
    fields = raw.split()
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
    if n > 1 << 63:
        raise MalformedHeader(f"need n <= 2**63 for int64 labels, got n={n}", line=lineno)
    if t_count >= 1 << 63:
        raise MalformedHeader(f"need T < 2**63 for an int64 frame count, got T={t_count}",
                              line=lineno)
    return n, t_count


def _line_records(lines: Iterator[tuple[int, str]]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(line, (t, u, v)) for each edge line; checks its syntax only."""
    for lineno, raw in lines:
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 3:
            raise MalformedEdgeLine(
                f"expected '<t> <u> <v>', got {raw!r}", line=lineno
            )
        try:
            row = tuple(map(int, fields))
        except ValueError:
            raise MalformedEdgeLine(
                f"non-integer edge fields in {raw!r}", line=lineno
            ) from None
        yield lineno, row


def _frame_records(frames: Sequence[Iterable[Edge]]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(0, (t, u, v)) for each edge of each frame; checks its labels are integers."""
    for t, frame in enumerate(frames):
        for u, v in frame:
            try:
                row = (t, index(u), index(v))
            except TypeError:
                raise MalformedEdgeLine(
                    f"non-integer vertex label in edge ({u!r}, {v!r}) in frame {t}",
                    line=0,
                ) from None
            yield 0, row


def _collect(n: int, t_count: int, records: Iterator[tuple[int, tuple[int, ...]]]
             ) -> tuple[list[tuple[int, ...]], list[int]]:
    """(rows, lines) of the records for an (n, T) graph.  A record faulty on
    its own (a bad line, a non-pair edge) is raised after the records before
    it pass `_build`, outside the except block: an earlier fault wins, unchained."""
    rows: list[tuple[int, ...]] = []
    lines: list[int] = []
    try:
        for line, row in records:
            lines.append(line)
            rows.append(row)
        return rows, lines
    except (ParseError, TypeError, ValueError) as exc:
        fault = exc
    TemporalGraph._from_array(n, t_count, rows, lines)
    raise fault


def _raise_fault(n: int, t_count: int, t: int, u: int, v: int, line: int) -> None:
    """Raise the first fault of record (t, u, v), which the validator flagged."""
    if not 0 <= t < t_count:
        raise EdgeOutOfRange(f"frame index {t} not in [0, {t_count})", line=line)
    if not (0 <= u < n and 0 <= v < n):
        raise EdgeOutOfRange(
            f"edge ({u}, {v}) outside vertex range [0, {n}) in frame {t}", line=line
        )
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u} in frame {t}", line=line)
    raise DuplicateEdge(f"duplicate edge {(min(u, v), max(u, v))} in frame {t}", line=line)


def serialize(g: TemporalGraph) -> str:
    """Canonical .dcs text for g; parse(serialize(g)) == g, byte for byte."""
    out = [f"{g.n} {g.T}\n"]
    for t, edges in enumerate(g.edge_arrays):  # one format call per frame
        out.append(f"{t} %d %d\n" * len(edges) % tuple(edges.ravel().tolist()))
    return "".join(out)


def load(path: str) -> TemporalGraph:
    with open(path, "rb") as fh:
        return parse(fh.read())


def save(g: TemporalGraph, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(serialize(g))
