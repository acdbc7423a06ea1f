"""Seeded end-to-end and per-layer benchmark of the ``dcs`` toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload ma-scale --seed 1 --seconds 20 --trace 0

One run builds the workload's inputs from the seed, sets up (generate,
write, warm up), then runs the workload's job cycle in a closed loop (one
client, one process) for ``--seconds`` seconds and checks every job's
output outside the timed region.  Further set-ups and ``python -m dcs.cli``
processes of the workload's representative verb are timed spread over the
loop.  ``--trace 1``
splits the seconds between an untraced and a traced loop and reports
per-layer self times from the spans; the difference in ``jobs_per_s``
between the two is the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record (provenance, counters, per-job digests) and the spans are
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 9
CLI_REPEATS = 20
REF_SAMPLES = 100
# Time of the reference kernel at the speed end-to-end times are reported
# at: about its median on a 2-vCPU shared Intel Xeon VM, Python 3.11.
REF_NOMINAL_S = 0.004
TAIL_PERCENTILE = 90
MIN_JOBS = 100            # a timed loop runs on until ten jobs lie beyond the tail
# Time guards.  The slowest job at the baseline takes well under 2 s, so the
# per-job limit starves nothing that passes today, yet a path that turns
# unbounded fails the run instead of hanging it.
JOB_LIMIT_S = 20.0
CHECK_LIMIT_S = 30.0
SETUP_LIMIT_S = 60.0
CLI_LIMIT_S = 30.0
LOOP_GRACE_S = 30.0       # the loop stops mid-cycle this long after --seconds
RUN_DEADLINE_S = 165.0    # work left after this is skipped and counted failed

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "job_cpu_p50_s": "s",
    "cli_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "verified_frac": "ratio",
}
LAYER_SPANS = (
    "temporal.load", "temporal.save", "temporal.union_edges",
    "generators.planted", "generators.reduction",
    "objectives.score",
    "ma.best_with_all", "ma.greedy", "ma.composite",
    "lp.build", "lp.export",
    "am.exact", "am.fpt",
    "oracle.exact_best", "oracle.exact_mcss",
    "mcss.greedy", "mcss.verify",
)
COUNTERS = {
    "temporal.edges_loaded": "count",
    "temporal.bytes_loaded": "bytes",
    "temporal.bytes_saved": "bytes",
    "generators.edges_generated": "count",
    "objectives.score_calls": "count",
    "ma.greedy_steps": "count",
    "ma.frames_per_step": "frames/step",
    "ma.unions": "count",
    "lp.constraints": "count",
    "lp.export_bytes": "bytes",
    "am.vector_space": "count",
    "am.best_sum": "count",
    "oracle.masks": "count",
    "mcss.picks": "count",
    "mcss.union_edges": "count",
}
PER_LAYER = {
    **{name + "_s": "s" for name in LAYER_SPANS},
    **COUNTERS,
    "cli.process_s": "s",
    "cli.import_s": "s",
    "cli.run_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_jobs_per_s": "1/s",
    "trace.layer_cover_frac": "ratio",
}


class Overrun(Exception):
    """Raised by the SIGALRM handler when a guarded call runs out of time."""


def _on_alarm(signum, frame):
    raise Overrun()


class Deadline:
    def __init__(self, seconds: float):
        self.at = time.perf_counter() + seconds

    def left(self, limit: float) -> float:
        return min(limit, self.at - time.perf_counter())

    @contextlib.contextmanager
    def guard(self, limit: float):
        """Stop the block after ``limit`` seconds, or at the run deadline."""
        seconds = self.left(limit)
        if seconds <= 0:
            raise Overrun()
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


class Record(NamedTuple):
    index: int
    key: str
    wall: float
    cpu: float
    text: str | None
    digest: str | None
    error: str | None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("ma-scale", "am-lattice", "mcss-span"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny instances and few CLI repeats (smoke test)")
    p.add_argument("--update-digests", action="store_true",
                   help="rewrite the default-seed digest table for this workload")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.update_digests and (args.toy or args.seed != DEFAULT_SEED):
        p.error(f"--update-digests needs the default seed {DEFAULT_SEED} and full size")
    return args


# ------------------------------------------------------------ job loop

def run_job(job, tracer, index, deadline) -> Record:
    tracer.job = index
    text = error = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with deadline.guard(JOB_LIMIT_S), tracer.span("job"):
            text = job.run(tracer)
    except Overrun:
        error = f"stopped by the {JOB_LIMIT_S:g} s time guard"
    except Exception as exc:  # a failed job is counted, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    digest = None
    if error is None:
        h = hashlib.sha256(text.encode())
        for path in job.outputs:
            h.update(Path(path).read_bytes())
        digest = h.hexdigest()
    return Record(index, job.key, wall, cpu, text, digest, error)


def run_batch(jobs, seconds, tracer, deadline, first_index=0, samplers=(), min_jobs=0):
    """Whole cycles of ``jobs`` until ``seconds`` of job time have passed
    and at least ``min_jobs`` jobs have run.

    Each ``(sampler, count)`` of ``samplers`` is sampled until it holds
    ``count`` times, spread evenly over the batch.  The machine's speed
    drifts in phases of seconds, so this way the samples see the same
    conditions as the jobs.  Their time is excluded from the batch's
    elapsed time.  Returns (records, elapsed job time).
    """
    records = []
    t0 = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        clock = time.perf_counter() - t0 - paused
        due = [s for s, count in samplers
               if len(s.times) < count and clock >= len(s.times) * seconds / count]
        if due:
            paused += due[0].sample()
            continue
        if i % len(jobs) == 0 and clock >= seconds and i >= min_jobs:
            break
        if clock >= seconds + LOOP_GRACE_S or time.perf_counter() >= deadline.at:
            break
        # Each job starts on a clean heap, as in a fresh CLI process, so that
        # neither its time nor the peak memory depends on garbage left over.
        t = time.perf_counter()
        gc.collect()
        paused += time.perf_counter() - t
        records.append(run_job(jobs[i % len(jobs)], tracer, first_index + i, deadline))
        i += 1
    elapsed = time.perf_counter() - t0 - paused
    for s, count in samplers:
        while len(s.times) < count:
            s.sample()
    return records, elapsed


def reference_kernel() -> int:
    """Fixed pure-Python work like the toolkit's inner loops: tuples, dict
    counts, sorting and set look-ups, about 4 ms."""
    rng = random.Random(12345)
    pairs = [(rng.randrange(400), rng.randrange(400)) for _ in range(2000)]
    degree: dict[int, int] = {}
    for u, v in pairs:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    kept = set()
    for u, v in sorted(pairs):
        if degree[u] > 4 and (v, u) not in kept:
            kept.add((u, v))
    return len(kept)


class Reference:
    """Measures the machine's speed during the loop with a fixed kernel.

    The speed of this shared machine drifts by tens of percent over
    minutes, longer than a run, and every time in the run drifts with it.
    Over 15 s blocks, the kernel's mean time tracked the mean job time with a
    correlation of 0.97.  The kernel is the benchmark's own code, so no
    change to ``dcs`` moves it.  Garbage collection is off while it runs,
    so the size of the program's heap does not move it either.
    """

    def __init__(self):
        self.times: list[float] = []

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            reference_kernel()
        finally:
            elapsed = time.perf_counter() - t0
            if enabled:
                gc.enable()
        self.times.append(elapsed)
        return elapsed

    def speed(self) -> float:
        """REF_NOMINAL_S over the kernel's mean time, the slowest and fastest
        tenth left out: below 1 while the machine runs slow."""
        times = sorted(self.times)
        cut = len(times) // 10
        return REF_NOMINAL_S / statistics.fmean(times[cut:len(times) - cut])


class SetUp:
    """Times one whole set-up: generate and write every input file, then
    warm up every code path once.

    The warm-up runs one job per verb of ``toy``, the same workload at toy
    size: it reaches every first call while costing little.  A later set-up
    rewrites the same bytes, so the loop's inputs do not change.
    """

    def __init__(self, wl, toy, deadline, null_tracer):
        self.wl, self.toy, self.deadline = wl, toy, deadline
        self.null_tracer = null_tracer
        warm = {}
        for job in toy.jobs:
            warm.setdefault(job.key.split(":")[0], job)
        self.warm = list(warm.values())
        self.times: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        with self.deadline.guard(SETUP_LIMIT_S):
            self.wl.setup()
            self.toy.setup()
        for job in self.warm:
            run_job(job, self.null_tracer, -1, self.deadline)
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed


def check_jobs(wl, records, deadline, table):
    """Check each distinct job once; a repeat must reproduce its digest.

    Returns (reports, counters by key, failure reason by record index).
    """
    from workloads import CheckFailed

    by_key = {job.key: job for job in wl.jobs}
    first: dict[str, Record] = {}
    for r in records:
        if r.error is None:
            first.setdefault(r.key, r)
    reports = {key: json.loads(r.text) for key, r in first.items()}
    counters, bad = {}, {}
    for key, r in first.items():
        try:
            with deadline.guard(CHECK_LIMIT_S):
                counters[key] = by_key[key].check(reports[key], reports)
        except Overrun:
            bad[key] = f"check stopped by the {CHECK_LIMIT_S:g} s time guard"
        except CheckFailed as exc:
            bad[key] = f"check failed: {exc}"
        except Exception as exc:  # a crashing check is a failed job
            bad[key] = f"check raised {type(exc).__name__}: {exc}"
        if table is not None and key not in bad and table.get(key) != r.digest:
            bad[key] = "digest differs from the default-seed table"
    failures = {}
    for r in records:
        if r.error is not None:
            failures[r.index] = r.error
        elif r.key in bad:
            failures[r.index] = bad[r.key]
        elif r.digest != first[r.key].digest:
            failures[r.index] = "digest differs from an earlier run of the same job"
    return reports, counters, failures


# ------------------------------------------------------------ CLI phase

def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_process(cmd, deadline):
    """Wall time of one process, or (time, None) if it failed or overran."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=src_env(), capture_output=True,
                              timeout=max(deadline.left(CLI_LIMIT_S), 0.01))
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, proc if proc.returncode == 0 else None


class CliSampler:
    """Times the workload's representative verb as ``python -m dcs.cli``."""

    def __init__(self, argv, deadline):
        self.cmd = [sys.executable, "-m", "dcs.cli", *argv]
        self.deadline = deadline
        self.times: list[float] = []
        self.outputs: list[bytes | None] = []

    def sample(self) -> float:
        elapsed, proc = timed_process(self.cmd, self.deadline)
        self.times.append(elapsed)
        self.outputs.append(None if proc is None else proc.stdout)
        return elapsed

    def problems(self, wl, reports) -> list[str]:
        from workloads import CheckFailed

        out = []
        for stdout in self.outputs:
            if stdout is None:
                out.append(f"`{' '.join(self.cmd)}` failed or overran")
                continue
            try:
                wl.cli_check(json.loads(stdout), reports[wl.cli_key])
            except (CheckFailed, KeyError, ValueError) as exc:
                out.append(f"CLI report check failed: {exc!r}")
        return out


def cli_layer(wl, sampler, repeats, deadline) -> tuple[dict, list[str]]:
    """Per-layer CLI metrics: process, import and in-process run times."""
    from dcs import cli

    problems = []
    run_times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        try:
            with deadline.guard(CLI_LIMIT_S):
                code = cli.run(list(wl.cli_argv), stdout=io.StringIO(), stderr=io.StringIO())
        except Overrun:
            code = None
        run_times.append(time.perf_counter() - t0)
        if code != cli.EXIT_OK:
            problems.append(f"in-process cli.run returned {code}")
    imports = [timed_process([sys.executable, "-c", "import dcs"], deadline)
               for _ in range(repeats)]
    bare = [timed_process([sys.executable, "-c", "pass"], deadline) for _ in range(repeats)]
    if any(p is None for _, p in imports + bare):
        problems.append("interpreter start-up process failed")
    done = [o for o in sampler.outputs if o is not None]
    return {
        "cli.process_s": hd_median(sampler.times),
        "cli.import_s": (statistics.median(t for t, _ in imports)
                         - statistics.median(t for t, _ in bare)),
        "cli.run_s": statistics.median(run_times),
        "cli.report_bytes": len(done[0]) if done else 0,
    }, problems


# ------------------------------------------------------------ metrics

def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: the mean of all order statistics,
    weighted by the Beta((n+1)/2, (n+1)/2) distribution.

    CLI processes on this machine take one of two levels of time, about
    30% apart, in no order.  Of twenty samples the middle one jumps between
    the levels from run to run; this estimate moves much less.
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    steps = 200  # midpoint-rule steps per order statistic
    density = [((k + 0.5) / (steps * n) * (1 - (k + 0.5) / (steps * n))) ** (a - 1)
               for k in range(steps * n)]
    cdf = [0.0, *itertools.accumulate(density)]
    return sum((cdf[(i + 1) * steps] - cdf[i * steps]) / cdf[-1] * x
               for i, x in enumerate(xs))


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def verified(records, failures) -> int:
    return sum(1 for r in records if r.index not in failures)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(records, elapsed, failures, cli_times, setup_times, peak_rss, speed=1.0):
    """End-to-end metrics; every time is multiplied by ``speed``, which
    scales it to the reference speed (see :class:`Reference`)."""
    walls = [r.wall * speed for r in records]
    return {
        "jobs_per_s": verified(records, failures) / (elapsed * speed),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": percentile(walls, TAIL_PERCENTILE),
        "job_cpu_p50_s": statistics.median(r.cpu for r in records) * speed,
        "cli_p50_s": hd_median(cli_times) * speed,
        "setup_s": hd_median(setup_times) * speed,
        "peak_rss_mib": peak_rss,
        "verified_frac": verified(records, failures) / len(records),
    }


def cycle_counters(counters, cycle_keys) -> dict:
    """Computed counters summed over one pass of the job cycle."""
    total = dict.fromkeys(list(COUNTERS) + ["ma.frames_covered"], 0)
    for key in cycle_keys:
        for name, value in counters.get(key, {}).items():
            total[name] += value
    steps = total["ma.greedy_steps"]
    total["ma.frames_per_step"] = total.pop("ma.frames_covered") / steps if steps else 0.0
    return total


def per_layer(tracer, jobs_per_s_untraced, jobs_per_s_traced, cycles):
    self_times = tracer.self_times()
    job_time = sum(s.end - s.start for s in tracer.spans if s.name == "job")
    layer_time = sum(v for k, v in self_times.items() if k != "job")
    out = {name + "_s": self_times.get(name, 0.0) / cycles for name in LAYER_SPANS}
    out["trace.overhead_jobs_per_s"] = jobs_per_s_untraced - jobs_per_s_traced
    out["trace.layer_cover_frac"] = layer_time / job_time
    return out


# ------------------------------------------------------------ provenance

def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import numpy

    for lib_path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                           .glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy

    loc = sum(1 for path in sorted((SRC / "dcs").glob("*.py"))
              for line in path.read_text().splitlines() if line.strip())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": seed,
        "src_dcs_nonblank_lines": loc,
    }


# ------------------------------------------------------------ main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dcs" / "__init__.py").is_file():
        print(f"error: no dcs source tree under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the loop has one client, and idle OpenBLAS workers
    # spin on the second core after each call, which inflates process CPU
    # time and slows the next job when the two cores share a physical core.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import dcs

    if Path(dcs.__file__).resolve().parent != (SRC / "dcs").resolve():
        print(f"error: imported dcs from {dcs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import NullTracer, Tracer

    deadline = Deadline(RUN_DEADLINE_S)
    signal.signal(signal.SIGALRM, _on_alarm)
    tag = f"{args.workload}-seed{args.seed}{'-toy' if args.toy else ''}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"# dcs benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))

    wl = workloads.build(args.workload, args.seed, str(work), args.toy)
    (work / "warm").mkdir()
    toy = workloads.build(args.workload, args.seed, str(work / "warm"), True)
    null = NullTracer()
    repeats = 3 if args.toy else CLI_REPEATS
    sampler = CliSampler(wl.cli_argv, deadline)
    setup = SetUp(wl, toy, deadline, null)
    reference = Reference()
    samplers = [(setup, SETUP_REPEATS), (sampler, repeats), (reference, REF_SAMPLES)]
    tracer = Tracer()
    try:
        setup.sample()
        if args.trace:
            untraced, t_untraced = run_batch(wl.jobs, args.seconds / 2, null, deadline,
                                             samplers=samplers)
            peak_rss = peak_rss_mib()
            traced, t_traced = run_batch(wl.jobs, args.seconds / 2, tracer, deadline,
                                         first_index=len(untraced))
            records, timed, elapsed = untraced + traced, untraced, t_untraced
        else:
            records, elapsed = run_batch(wl.jobs, args.seconds, null, deadline,
                                         samplers=samplers, min_jobs=0 if args.toy else MIN_JOBS)
            peak_rss = peak_rss_mib()
            timed = records
    except Overrun:
        print(f"error: set-up overran {SETUP_LIMIT_S:g} s", file=sys.stderr)
        return 1
    setup_times = setup.times

    table = None
    if args.seed == DEFAULT_SEED and not args.toy and not args.update_digests:
        table = json.loads(DIGESTS.read_text()).get(args.workload, {})
    reports, counters, failures = check_jobs(wl, records, deadline, table)
    for r in records:
        status = failures.get(r.index, "ok")
        print(f"job {r.index} {r.key} wall={r.wall:.6f}s cpu={r.cpu:.6f}s "
              f"digest={r.digest} {status}")

    cli_problems = sampler.problems(wl, reports)
    speed = reference.speed()
    metrics = end_to_end(timed, elapsed, failures, sampler.times, setup_times, peak_rss,
                         speed)
    raw = end_to_end(timed, elapsed, failures, sampler.times, setup_times, peak_rss)
    layer = cycle_counters(counters, [job.key for job in wl.jobs])
    if args.trace:
        cli_metrics, problems = cli_layer(wl, sampler, repeats, deadline)
        layer.update(cli_metrics)
        cli_problems += problems
        layer.update(per_layer(tracer, raw["jobs_per_s"],
                               verified(traced, failures) / t_traced,
                               len(traced) / len(wl.jobs)))
    for problem in cli_problems:
        print(f"cli-error {problem}")
    for name, unit in END_TO_END.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    for name, unit in PER_LAYER.items():
        if name in layer:
            print(f"layer {name} {layer[name]!r} {unit}")
    print(f"info jobs={len(timed)} cycle={len(wl.jobs)} loop_s={elapsed:.3f} "
          f"tail=p{TAIL_PERCENTILE} setup_runs={[round(t, 4) for t in setup_times]} "
          f"speed={speed:.4f}")
    print("info unscaled " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))

    failed = len(failures)
    correct = failed == 0 and not cli_problems
    name = f"{tag}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{name}.spans.jsonl")
    record = {
        "provenance": prov, "workload": args.workload, "seconds": args.seconds,
        "end_to_end": metrics, "end_to_end_unscaled": raw, "speed": speed,
        "reference_times": reference.times, "per_layer": layer, "tail_percentile": TAIL_PERCENTILE,
        "setup_times": setup_times, "cli_process_times": sampler.times,
        "cli_problems": cli_problems, "counters_by_job": counters,
        "jobs": [{"index": r.index, "key": r.key, "wall": r.wall, "cpu": r.cpu,
                  "digest": r.digest, "failure": failures.get(r.index)} for r in records],
    }
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)

    if args.update_digests and correct:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[args.workload] = {r.key: r.digest for r in records}
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"info wrote {len(table[args.workload])} digests to {DIGESTS.name}")

    chosen = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else metrics
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
