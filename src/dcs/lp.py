"""The fractional relaxation of the min-over-frames density objective.

The LP places a unit mass y over vertices, lets each union edge carry
x_e <= min(y_u, y_v), and maximizes z subject to z <= sum of x over each
frame's edges:

    maximize    z
    subject to  sum_v y_v = 1
                x_(u,v) <= y_u,  x_(u,v) <= y_v     for every union edge
                z <= sum_{e in E_t} x_e             for every frame t
                x, y, z >= 0

With one frame this is the classical exact densest-subgraph LP.  With many
frames its value can exceed any integral solution by a near-linear factor:
on the star-sequence family, the harmonic assignment certifies LP value
1/(1 + H_{n-1}) while the best integral score is exactly 1/n.

`build_lp` is the one definition of the relaxation.  Its `LPModel` holds
the variable names (y per vertex, x per union edge shared across frames as
in the single-frame specialization, then z), the graph's union edges and
each frame's x column positions; `constraints` builds each row on access
from that index.  `export_lp` renders the rows straight from it in the
CPLEX-LP text format for external solvers, and `check_feasible` evaluates
the bounds and constraints on a candidate fractional solution in exact
rational arithmetic (a verified feasible value is a lower bound on the LP
optimum, which is all the gap family needs).  No solver is bundled.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import oracle as _oracle
from .errors import DcsError, DomainMismatch
from .generators import gen_gap_instance
from .objectives import MA
from .temporal import Edge, TemporalGraph


@dataclass
class FractionalSolution:
    """A candidate (y, x, z) assignment; feasibility is checked, not assumed."""

    y: dict[int, Fraction]
    x: dict[Edge, Fraction]
    z: Fraction


@dataclass(frozen=True)
class LPConstraint:
    name: str
    terms: tuple[tuple[int, str], ...]   # (+1 or -1, variable); the first is +1
    sense: str                           # "<=" or "="
    rhs: int


@dataclass(frozen=True)
class LPModel:
    """The relaxation's index: `frame_columns[t]` are positions in `variables`."""

    variables: tuple[str, ...]
    edges: tuple[Edge, ...]
    frame_columns: tuple[tuple[int, ...], ...]

    @property
    def constraints(self) -> Sequence[LPConstraint]:
        return _Rows(self)


class _Rows(Sequence[LPConstraint]):
    """The rows in model order, each built on access; len builds none."""

    def __init__(self, model: LPModel):
        self._m = model

    def __len__(self) -> int:
        return 1 + 2 * len(self._m.edges) + len(self._m.frame_columns)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i = range(len(self))[i]  # IndexError past either end, as for a tuple
        var, edges = self._m.variables, self._m.edges
        n = len(var) - len(edges) - 1
        if i == 0:
            return LPConstraint("normalize", tuple((1, y) for y in var[:n]), "=", 1)
        k, side = divmod(i - 1, 2)
        if k < len(edges):
            xe, y = var[n + k], var[edges[k][side]]
            return LPConstraint(f"{xe}_le_{y}", ((1, xe), (-1, y)), "<=", 0)
        t = i - 1 - 2 * len(edges)
        terms = ((1, "z"),) + tuple((-1, var[c]) for c in self._m.frame_columns[t])
        return LPConstraint(f"frame_{t}", terms, "<=", 0)


def edge_var(e: Edge) -> str:
    return f"x_{e[0]}_{e[1]}"


def build_lp(g: TemporalGraph) -> LPModel:
    """Model with n + |E| + 1 variables and 1 + 2|E| + T constraints."""
    union = g.union_edges
    columns: list[list[int]] = [[] for _ in range(g.T)]
    for c, frames in enumerate(g.edge_frames.values(), g.n):
        for t in frames:
            columns[t].append(c)
    variables = (*(f"y{i}" for i in range(g.n)), *map(edge_var, union), "z")
    return LPModel(variables, union, tuple(map(tuple, columns)))


def export_lp(model: LPModel) -> str:
    """Deterministic CPLEX-LP text, each row rendered straight from the index."""
    var = model.variables
    n = len(var) - len(model.edges) - 1
    lines = ["Maximize", " obj: z", "Subject To", f" normalize: {' + '.join(var[:n])} = 1"]
    lines += [f" {xe}_le_y{u}: {xe} - y{u} <= 0\n {xe}_le_y{v}: {xe} - y{v} <= 0"
              for xe, (u, v) in zip(var[n:], model.edges)]
    lines += [f" frame_{t}: {' - '.join(['z', *map(var.__getitem__, cols)])} <= 0"
              for t, cols in enumerate(model.frame_columns)]
    lines += ["Bounds", " 0 <= " + "\n 0 <= ".join(var), "End\n"]
    return "\n".join(lines)


def check_feasible(
    g: TemporalGraph, f: FractionalSolution
) -> tuple[bool, Fraction, list[str]]:
    """Evaluate every constraint, then every bound, of build_lp(g) exactly.

    Returns (feasible, f.z, violations), with one violation string per
    failed constraint or bound in model order, led by its name.
    """
    if set(f.y) != set(range(g.n)):
        raise DomainMismatch("y must assign exactly the graph's vertices")
    if f.x.keys() != g.edge_frames.keys():
        raise DomainMismatch("x must assign exactly the union edges")
    value = {f"y{v}": Fraction(val) for v, val in f.y.items()}
    value.update((edge_var(e), Fraction(val)) for e, val in f.x.items())
    value["z"] = Fraction(f.z)
    model = build_lp(g)
    violations: list[str] = []
    for c in model.constraints:
        lhs = sum((coef * value[name] for coef, name in c.terms), Fraction(0))
        if lhs > c.rhs or (c.sense == "=" and lhs < c.rhs):
            violations.append(f"{c.name}: {lhs} {'>' if lhs > c.rhs else '<'} {c.rhs}")
    violations += [f"{name}_nonneg: {value[name]} < 0"
                   for name in model.variables if value[name] < 0]
    return not violations, value["z"], violations


def harmonic_number(k: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def harmonic_solution(n: int) -> tuple[TemporalGraph, FractionalSolution]:
    """The star-sequence instance plus its harmonic fractional solution.

    With h = 1 / (1 + H_{n-1}), vertex 0 gets y = h and vertex i >= 1 gets
    y = h / i; each edge carries the smaller endpoint mass, so every frame's
    edges sum to exactly h and z = h is feasible (tight on every frame).
    """
    g = gen_gap_instance(n)
    h = 1 / (1 + harmonic_number(n - 1))
    y = {0: h}
    for i in range(1, n):
        y[i] = h / i
    x = {(u, v): min(y[u], y[v]) for u, v in g.union_edges}
    return g, FractionalSolution(y=y, x=x, z=h)


@dataclass(frozen=True)
class GapReport:
    lp_value: Fraction
    integral_opt: Fraction
    ratio: Fraction


def gap_report(n: int, budget: "_oracle.OracleBudget | None" = None) -> GapReport:
    """Certified LP value vs. brute-force integral optimum on the gap family.

    The ratio is exactly n / (1 + H_{n-1}): the harmonic solution is checked
    feasible (so its value lower-bounds the LP optimum) and the integral
    side is enumerated.
    """
    g, f = harmonic_solution(n)
    feasible, value, violations = check_feasible(g, f)
    if not feasible:
        raise DcsError(f"harmonic solution unexpectedly infeasible: {violations}")
    _, best = _oracle.exact_best(g, MA, budget)
    return GapReport(lp_value=value, integral_opt=best.value, ratio=value / best.value)
