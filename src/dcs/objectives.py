"""Aggregate-density objectives over graph sequences, in exact rationals.

For a solution set S each objective is a per-frame measure of the frame
subgraph induced by S, an aggregation of those measures over the frames,
and a divisor:

    objective  measure                  aggregation      divisor
    MM         minimum induced degree   min              1
    MA         induced degree sum       min              2|S|
    AM         minimum induced degree   sum              1
    AA         induced degree sum       sum              |S|
    KMA(k)     induced degree sum       k-th largest     2|S|    (k = T gives MA)

The induced degree sum is 2|E_t[S]|, so MA is the min over frames of
|E_t[S]| / |S| and AA the sum of the average degrees 2|E_t[S]| / |S|.

Everything is computed with :class:`fractions.Fraction`; no floating point
is involved, so tests can assert equalities like 1/n exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import EmptySolution, KOrderOutOfRange
from .temporal import TemporalGraph, VertexSet, as_int, induced_degrees


@dataclass(frozen=True)
class ObjectiveKind:
    """One of the aggregate-density objectives; KMA carries its order k.

    The one definition of each objective: `score` and the subset oracle
    both read its measure, aggregation and divisor from here.
    """

    name: str
    k: int | None = None

    def __post_init__(self):
        if self.name not in ("mm", "ma", "am", "aa", "kma"):
            raise ValueError(f"unknown objective {self.name!r}")
        if self.name == "kma":
            object.__setattr__(self, "k", as_int(self.k, "KMA order k"))
            if self.k < 1:
                raise ValueError("KMA order k must be a positive integer")
        elif self.k is not None:
            raise ValueError(f"objective {self.name!r} takes no order")

    def __repr__(self) -> str:
        if self.name == "kma":
            return f"KMA({self.k})"
        return self.name.upper()

    @property
    def min_degree(self) -> bool:
        """Per-frame measure: the minimum induced degree, else the induced degree sum."""
        return self.name in ("mm", "am")

    def aggregate(self, measures):
        """Aggregate per-frame measures over axis 0: a list, or a frames x masks array."""
        if self.name in ("mm", "ma"):
            return np.min(measures, axis=0)
        if self.name in ("am", "aa"):
            return np.sum(measures, axis=0)
        kth = len(measures) - self.k  # kma: the k-th largest
        return np.partition(measures, kth, axis=0)[kth]

    def divisor(self, size: int) -> int:
        """What the aggregate of a set of `size` vertices is divided by."""
        return {"mm": 1, "am": 1, "aa": size}.get(self.name, 2 * size)

    def check_order(self, t_count: int) -> None:
        """Raise KOrderOutOfRange if a KMA order exceeds the frame count."""
        if self.name == "kma" and self.k > t_count:
            raise KOrderOutOfRange(f"KMA order {self.k} exceeds frame count {t_count}")


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
    s = s if isinstance(s, VertexSet) else VertexSet(s)
    if not s.members:
        raise EmptySolution("solution set is empty")
    if s.members[-1] >= g.n:
        raise ValueError(f"vertex {s.members[-1]} outside graph range [0, {g.n})")
    kind.check_order(g.T)

    inside = set(s.members)
    measure = min if kind.min_degree else sum
    per = [measure(induced_degrees(g, t, s.members, inside)) for t in range(g.T)]
    divisor = kind.divisor(len(s.members))
    return Score(Fraction(int(kind.aggregate(per)), divisor),
                 tuple(Fraction(m, divisor) for m in per))
