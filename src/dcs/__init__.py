"""Densest common subgraph toolkit.

Scoring, solving, and generating sequences of graphs that share one vertex
set: exact-rational density objectives, approximation and exact solvers,
an LP relaxation with a certified integrality-gap family, a common
spanning subgraph greedy, and reduction-based instance generators, all
cross-checked by brute-force oracles.

Every exported name is listed once, under its module, in `_EXPORTS`.
`import dcs` loads no submodule: the first access to a name, as
`dcs.exact_am` or `from dcs import exact_am`, imports its module (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule defining it
_EXPORTS = {
    name: module
    for module, names in {
        "am": ("core", "exact_am", "fpt_approx_am", "threshold_grid"),
        "errors": (
            "BudgetExceeded",
            "CompleteGraph",
            "DcsError",
            "DomainMismatch",
            "DuplicateEdge",
            "EdgeNotInUnion",
            "EdgeOutOfRange",
            "EmptySolution",
            "FrameIndexOutOfRange",
            "InfeasibleFrame",
            "KOrderOutOfRange",
            "MalformedEdgeLine",
            "MalformedHeader",
            "NoSuperedges",
            "NotSingleFrame",
            "NotUniform",
            "NotUtf8",
            "ParseError",
            "SelfLoop",
            "Uncoverable",
            "VertexOutOfRange",
        ),
        "generators": (
            "MinRepInstance",
            "PlantedParams",
            "RecursiveParams",
            "SetCoverInstance",
            "ekvc_to_setcover",
            "gen_gap_instance",
            "gen_padded_sequence",
            "gen_planted_2frame",
            "planted_subset",
            "random_graph",
            "random_minrep",
            "random_set_cover",
            "reduce_minrep_to_ma",
            "reduce_mis_to_am",
            "reduce_setcover_to_mcss",
            "sample_recursive_planted",
        ),
        "lp": (
            "FractionalSolution",
            "GapReport",
            "LPModel",
            "build_lp",
            "check_feasible",
            "export_lp",
            "gap_report",
            "harmonic_solution",
        ),
        "ma": (
            "SolveReport",
            "best_with_all",
            "composite_ma",
            "greedy_cover",
            "partition_search",
            "subset_search",
        ),
        "mcss": ("EdgeSolution", "check_spanning", "mcss_greedy", "mcss_greedy_run", "potential"),
        "objectives": ("AA", "AM", "KMA", "MA", "MM", "ObjectiveKind", "Score", "score"),
        "oracle": (
            "OracleBudget",
            "exact_best",
            "exact_mcss",
            "exact_minrep",
            "exact_mis",
            "exact_setcover",
        ),
        "temporal": ("TemporalGraph", "VertexSet", "load", "parse", "save", "serialize"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
