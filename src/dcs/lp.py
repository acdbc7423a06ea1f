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

`build_lp` is the one definition of the relaxation: `export_lp` renders
it in the CPLEX-LP text format for external solvers, and `check_feasible`
evaluates its bounds and constraints on a candidate fractional solution
in exact rational arithmetic (a verified feasible value is a lower bound
on the LP optimum, which is all the gap family needs).  No solver is
bundled.  x is indexed per union edge, shared across frames, matching the
single-frame specialization.
"""

from __future__ import annotations

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
    """Variables in deterministic order and constraints; the objective is max z."""

    variables: tuple[str, ...]
    constraints: tuple[LPConstraint, ...]


def edge_var(e: Edge) -> str:
    return f"x_{e[0]}_{e[1]}"


def build_lp(g: TemporalGraph) -> LPModel:
    """Model with n + |E| + 1 variables and 1 + 2|E| + T constraints."""
    union = g.union_edges
    variables = tuple(
        [f"y{i}" for i in range(g.n)] + [edge_var(e) for e in union] + ["z"]
    )
    constraints = [
        LPConstraint(
            name="normalize",
            terms=tuple((1, f"y{i}") for i in range(g.n)),
            sense="=",
            rhs=1,
        )
    ]
    for u, v in union:
        xe = edge_var((u, v))
        constraints.append(
            LPConstraint(f"{xe}_le_y{u}", ((1, xe), (-1, f"y{u}")), "<=", 0)
        )
        constraints.append(
            LPConstraint(f"{xe}_le_y{v}", ((1, xe), (-1, f"y{v}")), "<=", 0)
        )
    for t in range(g.T):
        terms = ((1, "z"),) + tuple((-1, edge_var(e)) for e in g.frames[t])
        constraints.append(LPConstraint(f"frame_{t}", terms, "<=", 0))
    return LPModel(variables=variables, constraints=tuple(constraints))


def _render_terms(terms) -> str:
    parts = []
    for coef, name in terms:
        parts.append(f"- {name}" if coef == -1 else f"+ {name}" if parts else name)
    return " ".join(parts)


def export_lp(model: LPModel) -> str:
    """Deterministic CPLEX-LP text for the model."""
    lines = ["Maximize", " obj: z", "Subject To"]
    lines += [f" {c.name}: {_render_terms(c.terms)} {c.sense} {c.rhs}"
              for c in model.constraints]
    lines.append("Bounds")
    lines += [f" 0 <= {name}" for name in model.variables]
    lines.append("End")
    return "\n".join(lines) + "\n"


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
