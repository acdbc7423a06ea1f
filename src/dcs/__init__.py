"""Densest common subgraph toolkit.

Scoring, solving, and generating sequences of graphs that share one vertex
set: exact-rational density objectives, approximation and exact solvers,
an LP relaxation with a certified integrality-gap family, a common
spanning subgraph greedy, and reduction-based instance generators, all
cross-checked by brute-force oracles.
"""

from .am import core, exact_am, fpt_approx_am, threshold_grid
from .errors import (
    BudgetExceeded,
    CompleteGraph,
    DcsError,
    DomainMismatch,
    DuplicateEdge,
    EdgeNotInUnion,
    EdgeOutOfRange,
    EmptySolution,
    FrameIndexOutOfRange,
    InfeasibleFrame,
    KOrderOutOfRange,
    MalformedHeader,
    NoSuperedges,
    NotSingleFrame,
    NotUniform,
    NotUtf8,
    ParseError,
    SelfLoop,
    Uncoverable,
    VertexOutOfRange,
)
from .generators import (
    MinRepInstance,
    PlantedParams,
    RecursiveParams,
    SetCoverInstance,
    ekvc_to_setcover,
    gen_gap_instance,
    gen_padded_sequence,
    gen_planted_2frame,
    planted_subset,
    random_graph,
    random_minrep,
    random_set_cover,
    reduce_minrep_to_ma,
    reduce_mis_to_am,
    reduce_setcover_to_mcss,
    sample_recursive_planted,
)
from .lp import (
    FractionalSolution,
    GapReport,
    LPModel,
    build_lp,
    check_feasible,
    export_lp,
    gap_report,
    harmonic_solution,
)
from .ma import (
    SolveReport,
    best_with_all,
    composite_ma,
    greedy_cover,
    partition_search,
    subset_search,
)
from .mcss import EdgeSolution, check_spanning, mcss_greedy, mcss_greedy_run, potential
from .objectives import AA, AM, KMA, MA, MM, ObjectiveKind, Score, score
from .oracle import (
    OracleBudget,
    exact_best,
    exact_mcss,
    exact_minrep,
    exact_mis,
    exact_setcover,
)
from .temporal import (
    TemporalGraph,
    VertexSet,
    load,
    parse,
    save,
    serialize,
)

__version__ = "0.1.0"
