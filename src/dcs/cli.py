"""Batch command-line front end.

Subcommands wrap the library one verb per area:

    dcs gen {gap|minrep|mis|planted|recursive|setcover-mcss}  write instances
    dcs solve --alg <name in SOLVERS>                         run one solver
    dcs oracle --objective {mm|ma|am|aa|kma|mcss}             brute-force optima
    dcs lp {export|check|gap}                                 relaxation tools
    dcs eval --set <comma list>                               score a given set
    dcs bench                                                 time all solvers

`SOLVERS` maps each solver name, in bench order, to (g, eps) -> Result;
`--alg`, `solve` and `bench` read it, so adding a solver is one entry plus
its function.  `lp gap` checks `--budget-n` before it builds anything.

Only `temporal`, `objectives` and `errors` load with this module; each verb
imports the library modules it runs when it runs them, so `eval` loads no
solver and `solve --alg exact-am` loads `am` alone.  A solver's wall_time
includes its module's import when the process first runs that module.

Reports are JSON on stdout (scores as exact rational strings "p/q");
human diagnostics go to stderr.  Exit codes: 0 success, 1 usage error,
2 infeasible or invalid instance, 3 enumeration budget exceeded; any
other exception is a bug and propagates as a traceback.
Identical invocations produce byte-identical reports apart from the
wall_time fields; the --threads flag is accepted for symmetry with
parallel deployments and never affects results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from fractions import Fraction
from importlib import import_module
from typing import TYPE_CHECKING, NamedTuple

from . import objectives, temporal
from .errors import BudgetExceeded, DcsError, InfeasibleFrame

if TYPE_CHECKING:
    from . import ma, mcss, oracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _positive(noun: str, kind: str, convert):
    """Argument type accepting only values > 0 of the given kind."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            value = 0
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"{noun} must be a positive {kind}, got {text!r}"
            )
        return value
    return parse


_budget = _positive("budget", "integer", int)
_eps = _positive("eps", "rational", Fraction)
_k = _positive("k", "integer", int)
_threads = _positive("threads", "integer", int)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")


def _vertex_list(text: str) -> list[int]:
    vertices = _int_list(text)
    if not vertices or min(vertices) < 0:
        raise argparse.ArgumentTypeError(f"need a nonempty list of vertices >= 0, got {text!r}")
    return vertices


def _frac_list(text: str) -> list[Fraction]:
    return [_frac(part) for part in text.split(",") if part != ""]


def _build_parser() -> _Parser:
    parser = _Parser(prog="dcs", description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=_threads, default=None,
                        help="worker cap accepted for compatibility; results never depend on it")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    g_gap = gen_sub.add_parser("gap", help="star-sequence gap family")
    g_gap.add_argument("--n", type=int, required=True)
    g_gap.add_argument("--out", required=True)

    g_mr = gen_sub.add_parser("minrep", help="random MinRep instance, reduced")
    g_mr.add_argument("--parts", type=int, default=2)
    g_mr.add_argument("--part-size", type=int, default=2)
    g_mr.add_argument("--edge-prob", type=float, default=0.5)
    g_mr.add_argument("--seed", type=int, default=0)
    g_mr.add_argument("--out", required=True)

    g_mis = gen_sub.add_parser("mis", help="independent-set reduction")
    g_mis.add_argument("--in", dest="infile", help="single-frame .dcs input")
    g_mis.add_argument("--n", type=int, help="random input size (with --edge-prob)")
    g_mis.add_argument("--edge-prob", type=float, default=0.5)
    g_mis.add_argument("--seed", type=int, default=0)
    g_mis.add_argument("--out", required=True)

    g_pl = gen_sub.add_parser("planted", help="two-frame planted dense subgraph")
    g_pl.add_argument("--n", type=int, required=True)
    g_pl.add_argument("--eps", type=_frac, required=True)
    g_pl.add_argument("--planted", action="store_true")
    g_pl.add_argument("--seed", type=int, default=0)
    g_pl.add_argument("--out", required=True)

    g_rec = gen_sub.add_parser("recursive", help="recursive planted sample")
    g_rec.add_argument("--nvec", type=_int_list, required=True)
    g_rec.add_argument("--pvec", type=_frac_list, required=True)
    g_rec.add_argument("--seed", type=int, default=0)
    g_rec.add_argument("--out", required=True)

    g_sc = gen_sub.add_parser("setcover-mcss", help="set-cover spanning reduction")
    g_sc.add_argument("--elems", type=int, default=3)
    g_sc.add_argument("--sets", type=int, default=3)
    g_sc.add_argument("--prob", type=float, default=0.5)
    g_sc.add_argument("--seed", type=int, default=0)
    g_sc.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance")
    solve.add_argument("--alg", required=True, choices=SOLVERS)
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--eps", type=_eps, default=Fraction(1, 2))
    solve.add_argument("--out", default=None,
                       help="also write the solution ('u v' lines for an edge "
                            "set, one vertex per line otherwise)")

    orc = sub.add_parser("oracle", help="brute-force exact optimum")
    orc.add_argument("--objective", required=True,
                     choices=["mm", "ma", "am", "aa", "kma", "mcss"])
    orc.add_argument("--in", dest="infile", required=True)
    orc.add_argument("--k", type=_k, default=None, help="KMA order")
    orc.add_argument("--budget-n", type=_budget)
    orc.add_argument("--budget-edges", type=_budget)

    lp_cmd = sub.add_parser("lp", help="LP relaxation tools")
    lp_sub = lp_cmd.add_subparsers(dest="lp_command", required=True)
    l_exp = lp_sub.add_parser("export", help="write CPLEX-LP text")
    l_exp.add_argument("--in", dest="infile", required=True)
    l_exp.add_argument("--out", required=True)
    l_chk = lp_sub.add_parser("check", help="verify the harmonic gap solution")
    l_chk.add_argument("--n", type=int, required=True)
    l_gap = lp_sub.add_parser("gap", help="LP value vs integral optimum")
    l_gap.add_argument("--n", type=int, required=True)
    l_gap.add_argument("--budget-n", type=_budget)

    ev = sub.add_parser("eval", help="score a given vertex set")
    ev.add_argument("--in", dest="infile", required=True)
    ev.add_argument("--set", dest="vertex_set", type=_vertex_list, required=True)
    ev.add_argument("--k", type=_k, default=None, help="also score KMA(k)")

    bench = sub.add_parser("bench", help="time every applicable solver")
    bench.add_argument("--in", dest="infile", required=True)
    bench.add_argument("--eps", type=_eps, default=Fraction(1, 2))

    return parser


@contextlib.contextmanager
def _flag_values():
    """Library calls on flag values alone: their ValueError is a usage
    error, not an invalid instance."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _digest(g: temporal.TemporalGraph) -> str:
    return hashlib.sha256(temporal.serialize(g).encode()).hexdigest()


def _instance_info(g: temporal.TemporalGraph, path: str | None = None) -> dict:
    info = {"digest": _digest(g), "n": g.n, "T": g.T}
    if path is not None:
        info["path"] = path
    return info


def _per_frame(score: objectives.Score) -> list[str]:
    return [str(v) for v in score.per_frame]


def _score_json(s: objectives.Score) -> dict:
    return {"value": str(s.value), "per_frame": _per_frame(s)}


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _run_gen(args) -> dict:
    from . import generators

    names: dict[int, str] | None = None
    if args.generator == "mis" and args.infile:
        # a bad input file is an invalid instance, not a bad flag value
        g = generators.reduce_mis_to_am(temporal.load(args.infile))
    elif args.generator == "mis" and args.n is None:
        raise _UsageError("gen mis needs --in or --n")
    else:
        with _flag_values():
            if args.generator == "gap":
                g = generators.gen_gap_instance(args.n)
            elif args.generator == "minrep":
                g, names = generators.reduce_minrep_to_ma(generators.random_minrep(
                    args.parts, args.part_size, args.edge_prob, args.seed))
            elif args.generator == "mis":
                base = generators.random_graph(args.n, args.edge_prob, args.seed)
                if base.n < 2:  # one vertex is always a complete graph
                    raise _UsageError(f"gen mis needs --n >= 2, got {args.n}")
                if len(base.frames[0]) == base.n * (base.n - 1) // 2:
                    # random draw came out complete: drop edge (0, 1) to stay reducible
                    base = temporal.TemporalGraph(base.n, [base.frames[0][1:]])
                g = generators.reduce_mis_to_am(base)
            elif args.generator == "planted":
                g = generators.gen_planted_2frame(generators.PlantedParams(
                    n=args.n, eps=args.eps, planted=args.planted, seed=args.seed))
            elif args.generator == "recursive":
                g = generators.sample_recursive_planted(generators.RecursiveParams(
                    nvec=tuple(args.nvec), pvec=tuple(args.pvec), seed=args.seed))
            else:  # setcover-mcss
                g, names = generators.reduce_setcover_to_mcss(generators.random_set_cover(
                    args.elems, args.sets, args.prob, args.seed))
    temporal.save(g, args.out)
    report = {"out": args.out, "instance": _instance_info(g)}
    if names is not None:
        names_path = args.out + ".names"
        _write(names_path, "".join(f"{i} {names[i]}\n" for i in sorted(names)))
        report["names_out"] = names_path
    return report


class Result(NamedTuple):
    """A solution, its exact value (an edge set's size) and its own report fields.

    A NamedTuple, not a frozen dataclass: every CLI process builds the class
    at import, and a dataclass takes about 1 ms longer to build.
    """

    solution: temporal.VertexSet | mcss.EdgeSolution
    value: Fraction | int
    fields: dict

    def body(self) -> dict:
        if isinstance(self.solution, temporal.VertexSet):
            return {"solution": list(self.solution), "score": str(self.value), **self.fields}
        return {"edges": [list(e) for e in self.solution], "size": self.value, **self.fields}

    def text(self) -> str:
        """The --out file: one vertex per line for a vertex set, 'u v' lines for an edge set."""
        if isinstance(self.solution, temporal.VertexSet):
            return "".join(f"{v}\n" for v in self.solution)
        return "".join(f"{u} {v}\n" for u, v in self.solution)


def _from_ma(rep: ma.SolveReport) -> Result:
    fields = {"algorithm": rep.algorithm, "zero_score": rep.zero_score,
              "per_frame": _per_frame(rep.score)}
    if rep.frames_covered_per_iteration is not None:
        fields["frames_covered_per_iteration"] = list(rep.frames_covered_per_iteration)
    if rep.candidate_scores:
        fields["candidate_scores"] = {k: str(v) for k, v in rep.candidate_scores.items()}
    return Result(rep.solution, rep.score.value, fields)


def _from_am(g: temporal.TemporalGraph, alg: str, found) -> Result:
    solution, value = found
    verified = str(objectives.score(g, solution, objectives.AM).value)
    return Result(solution, Fraction(value), {"algorithm": alg, "verified_am_score": verified})


def _from_mcss(g: temporal.TemporalGraph, run: mcss.GreedyRun) -> Result:
    from .mcss import check_spanning

    return Result(run.solution, len(run.solution), {
        "algorithm": "mcss-greedy", "gains": list(run.gains), "phase_boundary": run.phase_boundary,
        "spanning": check_spanning(g, run.solution)})


def _lib(name: str):
    """The library module dcs.<name>, imported on first use."""
    return import_module(f"{__package__}.{name}")


# every solver, in the order bench reports them; each entry imports its module
# and looks its library function up when called, so a patched module
# attribute takes effect
SOLVERS = {
    "greedy-ma": lambda g, eps: _from_ma(_lib("ma").greedy_cover(g)),
    "best-with-all": lambda g, eps: _from_ma(_lib("ma").best_with_all(g)),
    "composite-ma": lambda g, eps: _from_ma(_lib("ma").composite_ma(g)),
    "exact-am": lambda g, eps: _from_am(g, "exact-am", _lib("am").exact_am(g)),
    "fpt-am": lambda g, eps: _from_am(g, "fpt-am", _lib("am").fpt_approx_am(g, eps)),
    "mcss-greedy": lambda g, eps: _from_mcss(g, _lib("mcss").mcss_greedy_run(g)),
}


def _oracle_budget(**caps: int | None) -> oracle.OracleBudget:
    """The caps given as flags; OracleBudget's field defaults fill the rest."""
    from .oracle import OracleBudget

    return OracleBudget(**{field: cap for field, cap in caps.items() if cap is not None})


def _exact(g: temporal.TemporalGraph, kind: objectives.ObjectiveKind | None,
           budget: oracle.OracleBudget) -> Result:
    """The oracle's optimum under `kind`, or its smallest spanning edge set for None."""
    from . import oracle

    if kind is None:
        solution = oracle.exact_mcss(g, budget)
        return Result(solution, len(solution), {"objective": "mcss"})
    solution, best = oracle.exact_best(g, kind, budget)
    return Result(solution, best.value, {"objective": repr(kind), "per_frame": _per_frame(best)})


def _timed(solver, *args) -> tuple[Result, dict]:
    """Run one solver, timed here as solvers do not time themselves: (Result, body)."""
    t0 = time.perf_counter()
    result = solver(*args)
    return result, {**result.body(), "wall_time": time.perf_counter() - t0}


def _run_solve(args) -> dict:
    g = temporal.load(args.infile)
    result, body = _timed(SOLVERS[args.alg], g, args.eps)
    if args.out:
        _write(args.out, result.text())
    return {"instance": _instance_info(g, args.infile), "result": body}


def _run_oracle(args) -> dict:
    if (args.k is None) == (args.objective == "kma"):
        raise _UsageError("oracle --objective kma needs --k, and no other objective takes it")
    g = temporal.load(args.infile)
    kind = None if args.objective == "mcss" else objectives.ObjectiveKind(args.objective, args.k)
    _, body = _timed(_exact, g, kind, _oracle_budget(
        max_vertices=args.budget_n, max_union_edges=args.budget_edges))
    return {"instance": _instance_info(g, args.infile), "result": body}


def _run_lp(args) -> dict:
    from . import lp

    if args.lp_command == "export":
        g = temporal.load(args.infile)
        model = lp.build_lp(g)
        text = lp.export_lp(model)
        _write(args.out, text)
        return {
            "instance": _instance_info(g, args.infile),
            "result": {
                "out": args.out,
                "variables": len(model.variables),
                "constraints": len(model.constraints),
                "digest": hashlib.sha256(text.encode()).hexdigest(),
            },
        }
    if args.lp_command == "check":
        with _flag_values():
            g, f = lp.harmonic_solution(args.n)
        feasible, value, violations = lp.check_feasible(g, f)
        return {
            "instance": _instance_info(g),
            "result": {
                "feasible": feasible,
                "objective": str(value),
                "violations": violations,
            },
        }
    with _flag_values():
        report = lp.gap_report(args.n, _oracle_budget(max_vertices=args.budget_n))
    return {
        "result": {
            "n": args.n,
            "lp_value": str(report.lp_value),
            "integral_opt": str(report.integral_opt),
            "ratio": str(report.ratio),
        }
    }


def _run_eval(args) -> dict:
    g = temporal.load(args.infile)
    members = args.vertex_set
    kinds = [objectives.MM, objectives.MA, objectives.AM, objectives.AA]
    if args.k is not None:
        kinds.append(objectives.KMA(args.k))
    scores = {repr(kind): objectives.score(g, members, kind) for kind in kinds}
    return {
        "instance": _instance_info(g, args.infile),
        "result": {
            "set": sorted(set(members)),
            "scores": {name: _score_json(s) for name, s in scores.items()},
            "frame_densities": [str(v) for v in scores["MA"].per_frame],
        },
    }


def _run_bench(args) -> dict:
    g = temporal.load(args.infile)
    rows = []
    for alg, solver in SOLVERS.items():
        try:
            result, body = _timed(solver, g, args.eps)
        except InfeasibleFrame:  # only the mcss greedy needs connected frames
            continue
        rows.append({"algorithm": alg, "score": str(result.value), "wall_time": body["wall_time"]})
    return {"instance": _instance_info(g, args.infile), "result": rows}


def run(argv, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "gen": _run_gen,
            "solve": _run_solve,
            "oracle": _run_oracle,
            "lp": _run_lp,
            "eval": _run_eval,
            "bench": _run_bench,
        }[args.command]
        body = handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=stderr)
        return EXIT_BUDGET
    except (DcsError, OSError) as exc:
        print(f"invalid instance: {exc}", file=stderr)
        return EXIT_INVALID
    report = {"command": list(argv), "status": "ok"}
    report.update(body)
    json.dump(report, stdout, indent=2, sort_keys=True)
    stdout.write("\n")
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
