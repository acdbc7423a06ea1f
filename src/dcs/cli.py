"""Batch command-line front end.

Subcommands wrap the library one verb per area:

    dcs gen {gap|minrep|mis|planted|recursive|setcover-mcss}  write instances
    dcs solve --alg {greedy-ma|best-with-all|composite-ma|exact-am|fpt-am|mcss-greedy}
    dcs oracle --objective {mm|ma|am|aa|kma|mcss}             brute-force optima
    dcs lp {export|check|gap}                                 relaxation tools
    dcs eval --set <comma list>                               score a given set
    dcs bench                                                 time all solvers

Reports are JSON on stdout (scores as exact rational strings "p/q");
human diagnostics go to stderr.  Exit codes: 0 success, 1 usage error,
2 infeasible or invalid instance, 3 enumeration budget exceeded.
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

from . import am, generators, lp, ma, mcss, objectives, oracle, temporal
from .errors import BudgetExceeded, DcsError, InfeasibleFrame

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

# every solver, in the order bench reports them
_ALGORITHMS = (
    "greedy-ma", "best-with-all", "composite-ma", "exact-am", "fpt-am", "mcss-greedy",
)


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
    solve.add_argument("--alg", required=True, choices=_ALGORITHMS)
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--eps", type=_eps, default=Fraction(1, 2))
    solve.add_argument("--out", default=None,
                       help="also write the solution ('u v' edge lines for "
                            "mcss-greedy, one vertex per line otherwise)")

    orc = sub.add_parser("oracle", help="brute-force exact optimum")
    orc.add_argument("--objective", required=True,
                     choices=["mm", "ma", "am", "aa", "kma", "mcss"])
    orc.add_argument("--in", dest="infile", required=True)
    orc.add_argument("--k", type=_k, default=None, help="KMA order")
    orc.add_argument("--budget-n", type=_budget, default=20)
    orc.add_argument("--budget-edges", type=_budget, default=22)

    lp_cmd = sub.add_parser("lp", help="LP relaxation tools")
    lp_sub = lp_cmd.add_subparsers(dest="lp_command", required=True)
    l_exp = lp_sub.add_parser("export", help="write CPLEX-LP text")
    l_exp.add_argument("--in", dest="infile", required=True)
    l_exp.add_argument("--out", required=True)
    l_chk = lp_sub.add_parser("check", help="verify the harmonic gap solution")
    l_chk.add_argument("--n", type=int, required=True)
    l_gap = lp_sub.add_parser("gap", help="LP value vs integral optimum")
    l_gap.add_argument("--n", type=int, required=True)
    l_gap.add_argument("--budget-n", type=_budget, default=20)

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


def _score_json(s: objectives.Score) -> dict:
    return {
        "value": str(s.value),
        "per_frame": [str(v) for v in s.per_frame],
    }


def _scored(solution: temporal.VertexSet, score: objectives.Score) -> dict:
    return {
        "solution": list(solution.members),
        "score": str(score.value),
        "per_frame": [str(v) for v in score.per_frame],
    }


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _run_gen(args) -> dict:
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
                if base.n > 1 and len(base.frames[0]) == base.n * (base.n - 1) // 2:
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


def _solve(g: temporal.TemporalGraph, alg: str, eps: Fraction) -> tuple[dict, str]:
    """Run one solver: its report fields, timed, and its --out text.

    The only code in the CLI that calls a solver; solvers do not time themselves.
    """
    t0 = time.perf_counter()
    if alg == "mcss-greedy":
        run = mcss.mcss_greedy_run(g)
        result = {
            "algorithm": alg,
            "edges": [list(e) for e in run.solution.edges],
            "size": len(run.solution),
            "gains": list(run.gains),
            "phase_boundary": run.phase_boundary,
            "spanning": mcss.check_spanning(g, run.solution),
        }
        text = mcss.serialize_edges(run.solution)
    elif alg in ("exact-am", "fpt-am"):
        solution, value = am.exact_am(g) if alg == "exact-am" else am.fpt_approx_am(g, eps)
        result = {
            "algorithm": alg,
            "solution": list(solution.members),
            "score": str(Fraction(value)),
            "verified_am_score": str(objectives.score(g, solution, objectives.AM).value),
        }
    else:
        solver = {
            "greedy-ma": ma.greedy_cover,
            "best-with-all": ma.best_with_all,
            "composite-ma": ma.composite_ma,
        }[alg]
        rep = solver(g)
        solution = rep.solution
        result = {"algorithm": rep.algorithm, "zero_score": rep.zero_score,
                  **_scored(solution, rep.score)}
        if rep.frames_covered_per_iteration is not None:
            result["frames_covered_per_iteration"] = list(rep.frames_covered_per_iteration)
        if rep.candidate_scores:
            result["candidate_scores"] = {k: str(v) for k, v in rep.candidate_scores.items()}
    if alg != "mcss-greedy":
        text = "".join(f"{v}\n" for v in solution.members)
    result["wall_time"] = time.perf_counter() - t0
    return result, text


def _run_solve(args) -> dict:
    g = temporal.load(args.infile)
    result, text = _solve(g, args.alg, args.eps)
    if args.out:
        _write(args.out, text)
    return {"instance": _instance_info(g, args.infile), "result": result}


def _run_oracle(args) -> dict:
    if (args.k is None) == (args.objective == "kma"):
        raise _UsageError("oracle --objective kma needs --k, and no other objective takes it")
    g = temporal.load(args.infile)
    info = _instance_info(g, args.infile)
    budget = oracle.OracleBudget(args.budget_n, args.budget_edges)
    t0 = time.perf_counter()
    if args.objective == "mcss":
        solution = oracle.exact_mcss(g, budget)
        return {
            "instance": info,
            "result": {
                "objective": "mcss",
                "edges": [list(e) for e in solution.edges],
                "size": len(solution),
                "wall_time": time.perf_counter() - t0,
            },
        }
    kind = objectives.ObjectiveKind(args.objective, args.k)
    solution, best = oracle.exact_best(g, kind, budget)
    return {
        "instance": info,
        "result": {
            "objective": repr(kind),
            **_scored(solution, best),
            "wall_time": time.perf_counter() - t0,
        },
    }


def _run_lp(args) -> dict:
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
        report = lp.gap_report(args.n, oracle.OracleBudget(max_vertices=args.budget_n))
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
    for alg in _ALGORITHMS:
        try:
            result, _ = _solve(g, alg, args.eps)
        except InfeasibleFrame:  # only the mcss greedy needs connected frames
            continue
        score = result["score"] if "score" in result else str(result["size"])
        rows.append({"algorithm": alg, "score": score, "wall_time": result["wall_time"]})
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
    except (DcsError, OSError, ValueError) as exc:
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
