"""Seeded inputs, jobs and output checks for the benchmark's workloads.

A job is one user action on one instance, as the ``dcs`` CLI would run it:
load a file, solve, verify, and serialize the report.  ``Job.run`` is the
timed part and returns the report text; ``Job.check`` runs outside the
timed region, raises :class:`CheckFailed` on a wrong output and returns
the job's *computed* counters (from input sizes and returned outputs, never
from inside the program).  Reports hold no paths or timings, so equal
outputs give equal digests in any checkout.

Why each workload exists:

* ``ma-scale`` - sparse planted and random instances through ``temporal``,
  ``generators``, ``objectives``, ``ma`` and ``lp``, with writes (gen, save,
  export) beside reads (load, eval).  ``am``, ``mcss`` and ``oracle`` stay
  idle, so a graph-core or MA-search change shows here.
* ``am-lattice`` - small, few-frame, moderately dense instances through
  ``am`` peeling/search and the ``oracle``; files are tens of KB, so parsing
  is a few percent, but per-vertex adjacency access is hot.
* ``mcss-span`` - connected frames through the ``mcss`` greedy (union
  edges, per-frame edge tuples, union-find).  Narrow unions share one edge
  pool; wide unions add per-frame edges and scan about ten times more.
  ``exact_mcss`` on set-cover reductions checks the known optimum.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from dcs import am, generators, lp, ma, mcss, objectives, oracle, temporal

class CheckFailed(Exception):
    """A job's output failed one of the benchmark's checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    key: str                          # "<verb>:<instance>", the same for every seed
    run: Callable                     # (tracer) -> report text; the timed part
    check: Callable                   # (report, reports by key) -> counters
    outputs: tuple[str, ...] = ()     # files the job writes, folded into its digest


@dataclass
class Workload:
    name: str
    setup: Callable[[], None]         # writes every input file
    jobs: list[Job]                   # one cycle of the closed loop
    cli_argv: list[str]               # the workload's representative CLI verb
    cli_check: Callable[[dict, dict], None]   # (CLI report, report of cli_key)
    cli_key: str


def dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- inputs

def random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Each pair u < v independently with probability p, in pair order.

    Geometric skipping draws one number per edge instead of one per pair.
    """
    log_q = math.log1p(-p)
    edges = []
    u, v = 0, 0
    while True:
        v += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while v >= n:
            u += 1
            if u >= n - 1:
                return edges
            v = v - n + u + 1
        edges.append((u, v))


def random_tree(rng: random.Random, n: int) -> set[tuple[int, int]]:
    order = list(range(n))
    rng.shuffle(order)
    tree = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        tree.add((min(a, b), max(a, b)))
    return tree


def bernoulli_frames(rng, n, t_count, p):
    return [random_edges(rng, n, p) for _ in range(t_count)]


def narrow_frames(rng, n, t_count, pool_size, q):
    """Connected frames drawn from one shared pool of about pool_size edges.

    Each frame is a random spanning tree of the pool graph plus each other
    pool edge with probability q.
    """
    pool = random_tree(rng, n)
    while len(pool) < pool_size:
        a, b = rng.sample(range(n), 2)
        pool.add((min(a, b), max(a, b)))
    pool = sorted(pool)
    frames = []
    for _ in range(t_count):
        order = pool[:]
        rng.shuffle(order)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        frame = set()
        for a, b in order:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                frame.add((a, b))
            elif rng.random() < q:
                frame.add((a, b))
        frames.append(frame)
    return frames


def wide_frames(rng, n, t_count, p):
    """Connected frames with their own tree and extra edges each."""
    return [random_tree(rng, n) | set(random_edges(rng, n, p)) for _ in range(t_count)]


def write_dcs(path: str, n: int, frames) -> None:
    """Canonical .dcs text, written by the benchmark itself."""
    out = [f"{n} {len(frames)}\n"]
    for t, frame in enumerate(frames):
        out.extend(f"{t} {u} {v}\n" for u, v in sorted(frame))
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(out))


class Inputs:
    """Input files of one workload, re-creatable from their recorded seeds."""

    def __init__(self, work: str):
        self.work = work
        self.makers: list[tuple[str, Callable[[str], None]]] = []

    def add(self, name: str, make: Callable[[str], None]) -> str:
        path = os.path.join(self.work, name + ".dcs")
        self.makers.append((path, make))
        return path

    def random(self, name, frames_fn, n, *args, seed) -> str:
        return self.add(name, lambda path: write_dcs(
            path, n, frames_fn(random.Random(seed), n, *args)))

    def planted(self, name, params) -> str:
        return self.add(name, lambda path: temporal.save(
            generators.gen_planted_2frame(params), path))

    def setup(self) -> None:
        for path, make in self.makers:
            make(path)


# ------------------------------------------------------------ helpers

def edge_count(g) -> int:
    return sum(len(fr) for fr in g.frames)


def loaded(path: str, g) -> dict:
    return {"temporal.edges_loaded": edge_count(g),
            "temporal.bytes_loaded": os.path.getsize(path)}


def load(tr, path):
    with tr.span("temporal.load"):
        return temporal.load(path)


def max_degrees(g) -> list[int]:
    out = []
    for frame in g.frames:
        deg = Counter(v for e in frame for v in e)
        out.append(max(deg.values(), default=0))
    return out


def grid_size(eps: Fraction, limit: int, cap: int) -> int:
    """Number of grid thresholds {0} u {floor((1+eps)^l)} <= min(limit, cap)."""
    values, power = {0}, Fraction(1)
    while power <= limit:
        values.add(math.floor(power))
        power *= 1 + eps
    return sum(1 for v in values if v <= cap)


def rescore(g, report: dict, kind) -> None:
    s = objectives.score(g, report["solution"], kind)
    require(str(s.value) == report["score"],
            f"re-scored {kind!r} {s.value} != reported {report['score']}")


def induced_counts(g, members) -> list[tuple[int, int]]:
    """(edge count, minimum degree) of each frame inside `members`, recounted
    from the edge lists independently of ``dcs.objectives``."""
    inside = set(members)
    out = []
    for frame in g.frames:
        deg = Counter()
        for u, v in frame:
            if u in inside and v in inside:
                deg[u] += 1
                deg[v] += 1
        out.append((sum(deg.values()) // 2, min(deg[v] for v in inside)))
    return out


# --------------------------------------------------------------- jobs

def gen_planted_job(key, params, out) -> Job:
    def run(tr):
        with tr.span("generators.planted"):
            g = generators.gen_planted_2frame(params)
        with tr.span("temporal.save"):
            temporal.save(g, out)
        return dump({"n": g.n, "T": g.T, "edges": [len(fr) for fr in g.frames]})

    def check(report, reports):
        with open(out, "rb") as fh:
            data = fh.read()
        again = temporal.serialize(generators.gen_planted_2frame(params)).encode()
        require(data == again, "planted generation is not byte-identical across two runs")
        g = temporal.parse(data)
        require([len(fr) for fr in g.frames] == report["edges"], "edge counts differ from file")
        return {"generators.edges_generated": edge_count(g), "temporal.bytes_saved": len(data)}

    return Job(key, run, check, outputs=(out,))


def eval_job(key, path, members, k) -> Job:
    kinds = (objectives.MM, objectives.MA, objectives.AM, objectives.AA, objectives.KMA(k))

    def run(tr):
        g = load(tr, path)
        scores = {}
        for kind in kinds:
            with tr.span("objectives.score"):
                s = objectives.score(g, members, kind)
            scores[repr(kind)] = {"value": str(s.value),
                                  "per_frame": [str(v) for v in s.per_frame]}
        return dump({"set": sorted(members), "scores": scores})

    def check(report, reports):
        g = temporal.load(path)
        counts = induced_counts(g, members)
        size = len(members)
        dens = [Fraction(c, size) for c, _ in counts]
        expect = {
            "MM": min(Fraction(d) for _, d in counts),
            "MA": min(dens),
            "AM": Fraction(sum(d for _, d in counts)),
            "AA": 2 * sum(dens),
            f"KMA({k})": sorted(dens, reverse=True)[k - 1],
        }
        got = {name: Fraction(s["value"]) for name, s in report["scores"].items()}
        require(got == expect, f"scores {got} != recount {expect}")
        return {**loaded(path, g), "objectives.score_calls": len(kinds)}

    return Job(key, run, check)


def lp_export_job(key, path, out) -> Job:
    def run(tr):
        g = load(tr, path)
        with tr.span("temporal.union_edges"):
            g.union_edges
        with tr.span("lp.build"):
            model = lp.build_lp(g)
        with tr.span("lp.export"):
            text = lp.export_lp(model)
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
        return dump({"variables": len(model.variables),
                     "constraints": len(model.constraints), "digest": sha256(text)})

    def check(report, reports):
        g = temporal.load(path)
        m = len(g.union_edges)
        require(report["variables"] == g.n + m + 1, "variable count != n + |E| + 1")
        require(report["constraints"] == 1 + 2 * m + g.T, "constraint count != 1 + 2|E| + T")
        with open(out, "rb") as fh:
            data = fh.read()
        require(sha256(data) == report["digest"], "written LP differs from the exported text")
        require(data.startswith(b"Maximize\n") and data.endswith(b"End\n"), "not CPLEX-LP text")
        return {**loaded(path, g), "lp.constraints": report["constraints"],
                "lp.export_bytes": len(data)}

    return Job(key, run, check, outputs=(out,))


MA_SOLVERS = {
    "best-with-all": (ma.best_with_all, "ma.best_with_all"),
    "greedy-ma": (ma.greedy_cover, "ma.greedy"),
    "composite-ma": (ma.composite_ma, "ma.composite"),
}


def partition_unions(n: int, t_count: int) -> int:
    """2^r - 1 block unions, r = min(n, 2 ceil(ln T)) blocks (at least 1)."""
    r = max(1, min(n, 2 * math.ceil(math.log(t_count)))) if t_count > 1 else 1
    return 2 ** r - 1


def ma_job(key, verb, path) -> Job:
    solver, span = MA_SOLVERS[verb]

    def run(tr):
        g = load(tr, path)
        with tr.span(span):
            rep = solver(g)
        return dump({
            "algorithm": rep.algorithm,
            "solution": list(rep.solution.members),
            "score": str(rep.score.value),
            "per_frame": [str(v) for v in rep.score.per_frame],
            "zero_score": rep.zero_score,
            "trace": list(rep.frames_covered_per_iteration or ()),
            "candidates": {k: str(v) for k, v in rep.candidate_scores.items()},
        })

    def check(report, reports):
        g = temporal.load(path)
        rescore(g, report, objectives.MA)
        counters = loaded(path, g)
        trace = report["trace"]
        if verb == "greedy-ma" and not report["zero_score"]:
            require(sum(trace) == g.T, "greedy cover leaves a frame uncovered")
        counters["ma.greedy_steps"] = len(trace)
        counters["ma.frames_covered"] = sum(trace)
        if verb == "composite-ma":
            counters["ma.unions"] = partition_unions(g.n, g.T)
        return counters

    return Job(key, run, check)


def exact_am_job(key, path) -> Job:
    def run(tr):
        g = load(tr, path)
        with tr.span("am.exact"):
            solution, value = am.exact_am(g)
        with tr.span("objectives.score"):
            verified = objectives.score(g, solution, objectives.AM)
        return dump({"solution": list(solution.members), "score": str(value),
                     "verified_am_score": str(verified.value)})

    def check(report, reports):
        g = temporal.load(path)
        rescore(g, report, objectives.AM)
        require(report["verified_am_score"] == report["score"], "verified score differs")
        return {**loaded(path, g), "objectives.score_calls": 1,
                "am.vector_space": math.prod(d + 1 for d in max_degrees(g)),
                "am.best_sum": int(report["score"])}

    return Job(key, run, check)


def fpt_am_job(key, path, eps, exact_key=None) -> Job:
    def run(tr):
        g = load(tr, path)
        with tr.span("am.fpt"):
            solution, value = am.fpt_approx_am(g, eps)
        with tr.span("objectives.score"):
            verified = objectives.score(g, solution, objectives.AM)
        return dump({"solution": list(solution.members), "score": str(value),
                     "verified_am_score": str(verified.value)})

    def check(report, reports):
        # The reported score is the grid vector's threshold sum, a lower bound
        # on the AM score of its core; the report re-scores the core as well.
        g = temporal.load(path)
        verified = objectives.score(g, report["solution"], objectives.AM).value
        require(str(verified) == report["verified_am_score"],
                f"re-scored AM {verified} != reported {report['verified_am_score']}")
        value = Fraction(report["score"])
        require(value <= verified, f"grid sum {value} exceeds the core's AM {verified}")
        if exact_key is not None:
            require(exact_key in reports, f"no exact-am result for {exact_key}")
            exact = Fraction(reports[exact_key]["score"])
            require(exact / (1 + eps) <= value and verified <= exact,
                    f"fpt-am {value} (core {verified}) outside [exact/(1+eps), exact]"
                    f" for exact {exact}")
        return {**loaded(path, g), "objectives.score_calls": 1,
                "am.vector_space": math.prod(
                    grid_size(eps, g.n - 1, d) for d in max_degrees(g)),
                "am.best_sum": int(value)}

    return Job(key, run, check)


def oracle_job(key, path, kind) -> Job:
    def run(tr):
        g = load(tr, path)
        with tr.span("oracle.exact_best"):
            solution, best = oracle.exact_best(g, kind)
        return dump({"objective": repr(kind), "solution": list(solution.members),
                     "score": str(best.value),
                     "per_frame": [str(v) for v in best.per_frame]})

    def check(report, reports):
        g = temporal.load(path)
        rescore(g, report, kind)
        best = Fraction(report["score"])
        if kind == objectives.AM:
            _, value = am.exact_am(g)
            require(Fraction(value) == best, f"exact-am {value} != oracle {best}")
        else:
            approx = ma.composite_ma(g).score.value
            require(approx <= best, f"composite-ma {approx} beats the oracle {best}")
        return {**loaded(path, g), "oracle.masks": 2 ** g.n - 1}

    return Job(key, run, check)


def mcss_job(key, path) -> Job:
    def run(tr):
        g = load(tr, path)
        with tr.span("temporal.union_edges"):
            g.union_edges
        with tr.span("mcss.greedy"):
            greedy = mcss.mcss_greedy_run(g)
        with tr.span("mcss.verify"):
            spanning = mcss.check_spanning(g, greedy.solution)
            rho = mcss.potential(g, greedy.solution)
        return dump({"edges": [list(e) for e in greedy.solution.edges],
                     "size": len(greedy.solution), "gains": list(greedy.gains),
                     "phase_boundary": greedy.phase_boundary,
                     "spanning": spanning, "potential": rho})

    def check(report, reports):
        g = temporal.load(path)
        solution = mcss.EdgeSolution(map(tuple, report["edges"]))
        require(mcss.check_spanning(g, solution), "greedy edges do not span every frame")
        require(report["spanning"] and report["potential"] == 0, "report says not spanning")
        require(report["size"] == len(report["gains"]) == len(solution), "pick count mismatch")
        require(sum(report["gains"]) == g.n * g.T - g.T, "gains do not sum to nT - T")
        return {**loaded(path, g), "mcss.picks": report["size"],
                "mcss.union_edges": len(g.union_edges)}

    return Job(key, run, check)


def setcover_job(key, elems, sets, prob, seed) -> Job:
    def reduce():
        sc = generators.random_set_cover(elems, sets, prob, seed)
        return sc, generators.reduce_setcover_to_mcss(sc)[0]

    def run(tr):
        with tr.span("generators.reduction"):
            _, g = reduce()
        with tr.span("oracle.exact_mcss"):
            solution = oracle.exact_mcss(g)
        return dump({"n": g.n, "T": g.T, "size": len(solution),
                     "edges": [list(e) for e in solution.edges]})

    def check(report, reports):
        sc, g = reduce()
        expect = sets + oracle.exact_setcover(sc) + 1
        require(report["size"] == expect, f"exact MCSS {report['size']} != m + cover + 1 = {expect}")
        solution = mcss.EdgeSolution(map(tuple, report["edges"]))
        require(mcss.check_spanning(g, solution), "exact MCSS does not span every frame")
        return {"generators.edges_generated": edge_count(g)}

    return Job(key, run, check)


# ---------------------------------------------------------- workloads

def ma_scale(rng: random.Random, work: str, toy: bool) -> Workload:
    inputs = Inputs(work)
    n_planted = 64 if toy else 1536
    eps = Fraction(1, 20)
    params = {name: generators.PlantedParams(n_planted, eps, flag, rng.getrandbits(31))
              for name, flag in (("G1", True), ("G2", False), ("P1", True), ("P2", False))}
    files = {name: inputs.planted(name, params[name]) for name in ("P1", "P2")}
    dims = {  # name: (n, T, p); best-with-all and greedy scan O(n^2) pairs per step
        "R1": (340, 16, 0.01), "R2": (340, 16, 0.01),
        "C1": (130, 24, 0.01), "C2": (130, 24, 0.01),
    }
    for name, (n, t_count, p) in dims.items():
        if toy:
            n, t_count, p = 24, 4, 0.2
        files[name] = inputs.random(name, bernoulli_frames, n, t_count, p,
                                    seed=rng.getrandbits(63))
    subset = {name: generators.planted_subset(params[name]) for name in ("P1", "P2")}

    def out(name):
        return os.path.join(work, name)

    jobs = [
        gen_planted_job("gen-planted:G1", params["G1"], out("G1.out.dcs")),
        eval_job("eval:P1", files["P1"], subset["P1"], 1),
        lp_export_job("lp-export:P1", files["P1"], out("P1.lp")),
        ma_job("best-with-all:R1", "best-with-all", files["R1"]),
        ma_job("composite-ma:C1", "composite-ma", files["C1"]),
        gen_planted_job("gen-planted:G2", params["G2"], out("G2.out.dcs")),
        eval_job("eval:P2", files["P2"], subset["P2"], 1),
        lp_export_job("lp-export:P2", files["P2"], out("P2.lp")),
        ma_job("greedy-ma:R2", "greedy-ma", files["R2"]),
        ma_job("composite-ma:C2", "composite-ma", files["C2"]),
    ]

    def cli_check(cli, job):
        require(cli["result"]["scores"] == job["scores"], "CLI eval scores differ")

    argv = ["eval", "--in", files["P1"], "--set", ",".join(map(str, subset["P1"])),
            "--k", "1"]
    return Workload("ma-scale", inputs.setup, jobs, argv, cli_check, "eval:P1")


def am_lattice(rng: random.Random, work: str, toy: bool) -> Workload:
    inputs = Inputs(work)
    dims = {  # name: (n, T, p)
        "A1": (60, 4, 0.1), "A2": (80, 3, 0.1), "A3": (80, 3, 0.1),
        "A4": (80, 3, 0.1), "A5": (100, 3, 0.1), "A6": (80, 3, 0.1),
        "B1": (70, 5, 0.1), "B2": (70, 5, 0.1), "B3": (70, 5, 0.1), "B4": (70, 5, 0.1),
        "O1": (16, 3, 0.3), "O2": (16, 3, 0.3), "O3": (16, 3, 0.3), "O4": (17, 3, 0.3),
    }
    files = {}
    for name, (n, t_count, p) in dims.items():
        if toy:
            n, t_count, p = (8, 2, 0.4) if name[0] == "O" else (14, 3, 0.3)
        files[name] = inputs.random(name, bernoulli_frames, n, t_count, p,
                                    seed=rng.getrandbits(63))
    one = Fraction(1)
    jobs = [
        exact_am_job("exact-am:A1", files["A1"]),
        fpt_am_job("fpt-am:B1", files["B1"], one),
        oracle_job("oracle-am:O1", files["O1"], objectives.AM),
        exact_am_job("exact-am:A2", files["A2"]),
        fpt_am_job("fpt-am:A1", files["A1"], one, "exact-am:A1"),
        oracle_job("oracle-ma:O3", files["O3"], objectives.MA),
        exact_am_job("exact-am:A3", files["A3"]),
        fpt_am_job("fpt-am:B2", files["B2"], one),
        oracle_job("oracle-am:O2", files["O2"], objectives.AM),
        exact_am_job("exact-am:A4", files["A4"]),
        exact_am_job("exact-am:A5", files["A5"]),
        fpt_am_job("fpt-am:B3", files["B3"], one),
        fpt_am_job("fpt-am:A5", files["A5"], one, "exact-am:A5"),
        oracle_job("oracle-ma:O4", files["O4"], objectives.MA),
        exact_am_job("exact-am:A6", files["A6"]),
        fpt_am_job("fpt-am:B4", files["B4"], one),
        fpt_am_job("fpt-am:A3", files["A3"], one, "exact-am:A3"),
    ]

    def cli_check(cli, job):
        got = (cli["result"]["score"], cli["result"]["solution"])
        require(got == (job["score"], job["solution"]), "CLI exact-am result differs")

    # exact-am time varies with the drawn content far less at n=80, T=3 than at T=4
    argv = ["solve", "--alg", "exact-am", "--in", files["A3"]]
    return Workload("am-lattice", inputs.setup, jobs, argv, cli_check, "exact-am:A3")


def mcss_span(rng: random.Random, work: str, toy: bool) -> Workload:
    inputs = Inputs(work)
    files = {}
    for name, n, t_count, pool in (("N1", 100, 8, 300), ("N2", 100, 8, 300),
                                   ("N3", 120, 10, 450), ("N4", 120, 10, 450),
                                   ("N5", 120, 10, 450), ("N6", 120, 10, 450)):
        if toy:
            n, t_count, pool = 16, 3, 30
        files[name] = inputs.random(name, narrow_frames, n, t_count, pool, 0.3,
                                    seed=rng.getrandbits(63))
    for name in ("W1", "W2", "W3"):
        n, t_count, p = (16, 3, 0.1) if toy else (100, 8, 0.015)
        files[name] = inputs.random(name, wide_frames, n, t_count, p,
                                    seed=rng.getrandbits(63))
    # set-cover reductions keep at most 2m + 1 <= 11 union edges
    covers = [(4, 4, rng.getrandbits(31)), (5, 5, rng.getrandbits(31))]
    jobs = [
        mcss_job("mcss-greedy:W1", files["W1"]),
        mcss_job("mcss-greedy:N1", files["N1"]),
        mcss_job("mcss-greedy:N3", files["N3"]),
        setcover_job("exact-mcss:S1", covers[0][0], covers[0][1], 0.5, covers[0][2]),
        mcss_job("mcss-greedy:N4", files["N4"]),
        mcss_job("mcss-greedy:W2", files["W2"]),
        mcss_job("mcss-greedy:N2", files["N2"]),
        mcss_job("mcss-greedy:N5", files["N5"]),
        setcover_job("exact-mcss:S2", covers[1][0], covers[1][1], 0.5, covers[1][2]),
        mcss_job("mcss-greedy:N6", files["N6"]),
        mcss_job("mcss-greedy:W3", files["W3"]),
    ]

    def cli_check(cli, job):
        got = (cli["result"]["edges"], cli["result"]["gains"])
        require(got == (job["edges"], job["gains"]), "CLI mcss-greedy result differs")

    argv = ["solve", "--alg", "mcss-greedy", "--in", files["N3"]]
    return Workload("mcss-span", inputs.setup, jobs, argv, cli_check, "mcss-greedy:N3")


BUILDERS = {"ma-scale": ma_scale, "am-lattice": am_lattice, "mcss-span": mcss_span}


def build(name: str, seed: int, work: str, toy: bool) -> Workload:
    """The workload's jobs and inputs; the same seed gives the same inputs."""
    return BUILDERS[name](random.Random(f"{name}/{seed}"), work, toy)
