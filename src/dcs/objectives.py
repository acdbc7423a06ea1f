"""Aggregate-density objectives over graph sequences, in exact rationals.

For a solution set S the five objectives are

    MM      min over frames of the minimum induced degree
    MA      min over frames of |E_t[S]| / |S|
    AM      sum over frames of the minimum induced degree
    AA      sum over frames of the average induced degree 2|E_t[S]| / |S|
    KMA(k)  k-th largest per-frame density |E_t[S]| / |S|   (k = T gives MA)

Everything is computed with :class:`fractions.Fraction`; no floating point
is involved, so tests can assert equalities like 1/n exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import EmptySolution, KOrderOutOfRange
from .temporal import TemporalGraph, VertexSet, as_vertex_set, check_members, induced_degrees


@dataclass(frozen=True)
class ObjectiveKind:
    """One of the aggregate-density objectives; KMA carries its order k."""

    name: str
    k: int | None = None

    def __post_init__(self):
        if self.name not in ("mm", "ma", "am", "aa", "kma"):
            raise ValueError(f"unknown objective {self.name!r}")
        if self.name == "kma":
            if self.k is None or self.k < 1:
                raise ValueError("KMA order k must be a positive integer")
        elif self.k is not None:
            raise ValueError(f"objective {self.name!r} takes no order")

    def __repr__(self) -> str:
        if self.name == "kma":
            return f"KMA({self.k})"
        return self.name.upper()


MM = ObjectiveKind("mm")
MA = ObjectiveKind("ma")
AM = ObjectiveKind("am")
AA = ObjectiveKind("aa")


def KMA(k: int) -> ObjectiveKind:
    return ObjectiveKind("kma", k)


@dataclass(frozen=True)
class Score:
    """Objective value plus the per-frame quantities it aggregates."""

    value: Fraction
    per_frame: tuple[Fraction, ...]


def score(g: TemporalGraph, s: VertexSet | Iterable[int], kind: ObjectiveKind) -> Score:
    """Evaluate one objective on (g, S).  All arithmetic is exact."""
    s = as_vertex_set(s)
    if not s.members:
        raise EmptySolution("solution set is empty")
    check_members(g, s)
    size = len(s.members)
    if kind.name == "kma" and kind.k > g.T:
        raise KOrderOutOfRange(f"KMA order {kind.k} exceeds frame count {g.T}")

    inside = set(s.members)
    edge_counts: list[int] = []
    min_degs: list[int] = []
    for t in range(g.T):
        degs = induced_degrees(g, t, s.members, inside)
        edge_counts.append(sum(degs) // 2)
        min_degs.append(min(degs))

    if kind.name == "mm":
        per = tuple(Fraction(d) for d in min_degs)
        return Score(min(per), per)
    if kind.name == "ma":
        per = tuple(Fraction(c, size) for c in edge_counts)
        return Score(min(per), per)
    if kind.name == "am":
        per = tuple(Fraction(d) for d in min_degs)
        return Score(sum(per, Fraction(0)), per)
    if kind.name == "aa":
        per = tuple(Fraction(2 * c, size) for c in edge_counts)
        return Score(sum(per, Fraction(0)), per)
    # kma: k-th largest per-frame density
    per = tuple(Fraction(c, size) for c in edge_counts)
    return Score(sorted(per, reverse=True)[kind.k - 1], per)
