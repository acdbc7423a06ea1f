"""Command-line front end: subcommands, exit codes, report determinism."""

import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from dcs import (
    PlantedParams,
    TemporalGraph,
    gen_gap_instance,
    gen_planted_2frame,
    ma,
    reduce_mis_to_am,
    serialize,
)
from dcs.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, EXIT_USAGE, run

TINY = "3 2\n0 0 1\n1 0 1\n1 1 2\n"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    report = json.loads(out.getvalue()) if code == EXIT_OK and out.getvalue() else None
    return code, report, err.getvalue()


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.dcs"
    path.write_text(TINY)
    return str(path)


def test_gen_gap_then_composite(tmp_path):
    out = str(tmp_path / "g.dcs")
    code, report, _ = invoke("gen", "gap", "--n", "4", "--out", out)
    assert code == EXIT_OK and report["instance"]["n"] == 4
    code, report, _ = invoke("solve", "--alg", "composite-ma", "--in", out)
    assert code == EXIT_OK
    assert report["result"]["score"] == "1/4"
    assert report["result"]["solution"] == [0, 1, 2, 3]


def test_oracle_am_example(tiny_path):
    code, report, _ = invoke("oracle", "--objective", "am", "--in", tiny_path)
    assert code == EXIT_OK
    assert report["result"]["score"] == "2"
    assert report["result"]["solution"] == [0, 1]


def test_lp_gap_example():
    code, report, _ = invoke("lp", "gap", "--n", "4")
    assert code == EXIT_OK
    assert report["result"]["lp_value"] == "6/17"
    assert report["result"]["integral_opt"] == "1/4"
    assert report["result"]["ratio"] == "24/17"


def test_lp_check_and_export(tmp_path, tiny_path):
    code, report, _ = invoke("lp", "check", "--n", "5")
    assert code == EXIT_OK and report["result"]["feasible"] is True
    out = str(tmp_path / "m.lp")
    code, report, _ = invoke("lp", "export", "--in", tiny_path, "--out", out)
    assert code == EXIT_OK
    text = Path(out).read_text()
    assert text.startswith("Maximize\n") and text.endswith("End\n")
    assert report["result"]["variables"] == 6


# SHA-256 of the exported bytes, pinned so that any change to the LP text
# fails here and not only in the benchmark's digests
LP_EXPORT_DIGESTS = [
    (gen_gap_instance(6),
     "3e22275b6f0ad66cd9232b99f66239893368d73772415cdcdd3d069b93b316ab"),
    (gen_planted_2frame(PlantedParams(64, Fraction(1, 20), True, 7)),
     "e90679a24ae475060b033cecb98adf48a8d94559ff65a14c42ad26c3d9d3ce16"),
]


@pytest.mark.parametrize("g, digest", LP_EXPORT_DIGESTS, ids=["gap6", "planted64"])
def test_lp_export_bytes_are_pinned(tmp_path, g, digest):
    src, out = tmp_path / "g.dcs", tmp_path / "g.lp"
    src.write_text(serialize(g))
    code, report, _ = invoke("lp", "export", "--in", str(src), "--out", str(out))
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert report["result"]["digest"] == digest


def test_eval_command(tiny_path):
    code, report, _ = invoke(
        "eval", "--in", tiny_path, "--set", "0,1,2", "--k", "1"
    )
    assert code == EXIT_OK
    scores = {k: v["value"] for k, v in report["result"]["scores"].items()}
    assert scores == {"MM": "0", "MA": "1/3", "AM": "1", "AA": "2", "KMA(1)": "2/3"}
    assert report["result"]["frame_densities"] == ["1/3", "2/3"]


def test_solve_every_algorithm(tmp_path, tiny_path):
    for alg in ("greedy-ma", "best-with-all", "composite-ma"):
        code, report, _ = invoke("solve", "--alg", alg, "--in", tiny_path)
        assert code == EXIT_OK and report["result"]["score"] == "1/2"
    code, report, _ = invoke("solve", "--alg", "exact-am", "--in", tiny_path)
    assert code == EXIT_OK and report["result"]["score"] == "2"
    code, report, _ = invoke(
        "solve", "--alg", "fpt-am", "--in", tiny_path, "--eps", "1/2"
    )
    assert code == EXIT_OK and report["result"]["score"] == "2"
    conn = str(tmp_path / "conn.dcs")
    with open(conn, "w") as fh:
        fh.write("3 2\n0 0 1\n0 1 2\n0 0 2\n1 0 1\n1 1 2\n")
    code, report, _ = invoke("solve", "--alg", "mcss-greedy", "--in", conn)
    assert code == EXIT_OK
    assert report["result"]["size"] == 2 and report["result"]["spanning"] is True


def test_gen_every_generator(tmp_path):
    def gen(*argv):
        code, report, err = invoke("gen", *argv)
        assert code == EXIT_OK, err
        return report

    gen("gap", "--n", "5", "--out", str(tmp_path / "a.dcs"))
    rep = gen("minrep", "--seed", "3", "--out", str(tmp_path / "b.dcs"))
    names = Path(rep["names_out"]).read_text().splitlines()
    assert names[0].split() == ["0", "a0_0"]
    assert any(line.endswith(" u") for line in names)
    gen("mis", "--n", "6", "--edge-prob", "0.5", "--seed", "3",
        "--out", str(tmp_path / "c.dcs"))
    gen("planted", "--n", "16", "--eps", "1/10", "--planted", "--seed", "3",
        "--out", str(tmp_path / "d.dcs"))
    gen("recursive", "--nvec", "20,5", "--pvec", "1/2,1/2", "--seed", "3",
        "--out", str(tmp_path / "e.dcs"))
    rep = gen("setcover-mcss", "--elems", "3", "--sets", "3", "--seed", "3",
              "--out", str(tmp_path / "f.dcs"))
    assert rep["names_out"].endswith(".names")


def test_gen_mis_tiny_random_input(tmp_path):
    out = str(tmp_path / "m.dcs")
    # a single vertex is always a complete graph, so --n 1 alone is wrong
    code, _, err = invoke("gen", "mis", "--n", "1", "--out", out)
    assert code == EXIT_USAGE and "gen mis needs --n >= 2, got 1" in err
    # --n 0 is an explicit, invalid size, not a missing flag
    code, _, err = invoke("gen", "mis", "--n", "0", "--out", out)
    assert code == EXIT_USAGE and "vertex count" in err


def test_gen_mis_complete_draw_drops_one_edge(tmp_path):
    # on two vertices p = 1 always draws the complete graph; dropping edge
    # (0, 1) leaves the edgeless graph, whose reduction is two one-edge stars
    out = tmp_path / "m.dcs"
    code, report, err = invoke("gen", "mis", "--n", "2", "--edge-prob", "1", "--out", str(out))
    assert code == EXIT_OK, err
    assert out.read_text() == serialize(reduce_mis_to_am(TemporalGraph(2, [[]])))
    assert out.read_text() == "2 2\n0 0 1\n1 0 1\n"
    assert (report["instance"]["n"], report["instance"]["T"]) == (2, 2)


def test_bench(tiny_path):
    code, report, _ = invoke("bench", "--in", tiny_path)
    assert code == EXIT_OK
    by_alg = {row["algorithm"]: row for row in report["result"]}
    assert by_alg["composite-ma"]["score"] == "1/2"
    assert by_alg["exact-am"]["score"] == "2"


def _strip_wall_times(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_times(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_wall_times(v) for v in obj]
    return obj


def test_reports_deterministic_modulo_wall_time(tiny_path):
    runs = [
        invoke("solve", "--alg", "composite-ma", "--in", tiny_path)[1]
        for _ in range(2)
    ]
    assert _strip_wall_times(runs[0]) == _strip_wall_times(runs[1])


CONNECTED = "3 2\n0 0 1\n0 1 2\n0 0 2\n1 0 1\n1 1 2\n"

# Full report bodies, wall_time aside: (file text, digest, {verb: result}),
# where None marks a verb that exits 2 (mcss needs connected frames).
GOLDEN = {
    "tiny": (TINY, "2c38c20d975a84bf5296799cadffedf8db2f00d076307423937fbf94731dced7", {
        ("solve", "--alg", "greedy-ma"): {
            "algorithm": "greedy-cover", "frames_covered_per_iteration": [2],
            "per_frame": ["1/2", "1/2"], "score": "1/2", "solution": [0, 1],
            "zero_score": False,
        },
        ("solve", "--alg", "best-with-all"): {
            "algorithm": "best-with-all",
            "candidate_scores": {"all-vertices": "1/3", "greedy-cover": "1/2"},
            "frames_covered_per_iteration": [2], "per_frame": ["1/2", "1/2"],
            "score": "1/2", "solution": [0, 1], "zero_score": False,
        },
        ("solve", "--alg", "composite-ma"): {
            "algorithm": "composite-ma",
            "candidate_scores": {"all-vertices": "1/3", "greedy-cover": "1/2",
                                 "partition-search": "1/2", "subset-search": "1/2"},
            "frames_covered_per_iteration": [2], "per_frame": ["1/2", "1/2"],
            "score": "1/2", "solution": [0, 1], "zero_score": False,
        },
        ("solve", "--alg", "exact-am"): {
            "algorithm": "exact-am", "score": "2", "solution": [0, 1],
            "verified_am_score": "2",
        },
        ("solve", "--alg", "fpt-am"): {
            "algorithm": "fpt-am", "score": "2", "solution": [0, 1],
            "verified_am_score": "2",
        },
        ("solve", "--alg", "mcss-greedy"): None,
        ("bench",): [
            {"algorithm": "greedy-ma", "score": "1/2"},
            {"algorithm": "best-with-all", "score": "1/2"},
            {"algorithm": "composite-ma", "score": "1/2"},
            {"algorithm": "exact-am", "score": "2"},
            {"algorithm": "fpt-am", "score": "2"},
        ],
        ("oracle", "--objective", "ma"): {
            "objective": "MA", "per_frame": ["1/2", "1/2"], "score": "1/2",
            "solution": [0, 1],
        },
        ("oracle", "--objective", "mm"): {
            "objective": "MM", "per_frame": ["1", "1"], "score": "1", "solution": [0, 1],
        },
        ("oracle", "--objective", "am"): {
            "objective": "AM", "per_frame": ["1", "1"], "score": "2", "solution": [0, 1],
        },
        ("oracle", "--objective", "aa"): {
            "objective": "AA", "per_frame": ["1", "1"], "score": "2", "solution": [0, 1],
        },
        ("oracle", "--objective", "kma", "--k", "1"): {
            "objective": "KMA(1)", "per_frame": ["1/3", "2/3"], "score": "2/3",
            "solution": [0, 1, 2],
        },
        ("oracle", "--objective", "kma", "--k", "2"): {
            "objective": "KMA(2)", "per_frame": ["1/2", "1/2"], "score": "1/2",
            "solution": [0, 1],
        },
        ("oracle", "--objective", "mcss"): None,
        ("eval", "--set", "0,1,2", "--k", "2"): {
            "frame_densities": ["1/3", "2/3"], "set": [0, 1, 2],
            "scores": {
                "AA": {"per_frame": ["2/3", "4/3"], "value": "2"},
                "AM": {"per_frame": ["0", "1"], "value": "1"},
                "KMA(2)": {"per_frame": ["1/3", "2/3"], "value": "1/3"},
                "MA": {"per_frame": ["1/3", "2/3"], "value": "1/3"},
                "MM": {"per_frame": ["0", "1"], "value": "0"},
            },
        },
    }),
    "connected": (CONNECTED, "a4357cd046afbfef46b0a2f9cb481b6205295668bba5743347762fda240d4a0f", {
        ("solve", "--alg", "greedy-ma"): {
            "algorithm": "greedy-cover", "frames_covered_per_iteration": [2],
            "per_frame": ["1/2", "1/2"], "score": "1/2", "solution": [0, 1],
            "zero_score": False,
        },
        ("solve", "--alg", "best-with-all"): {
            "algorithm": "best-with-all",
            "candidate_scores": {"all-vertices": "2/3", "greedy-cover": "1/2"},
            "per_frame": ["1", "2/3"], "score": "2/3", "solution": [0, 1, 2],
            "zero_score": False,
        },
        ("solve", "--alg", "composite-ma"): {
            "algorithm": "composite-ma",
            "candidate_scores": {"all-vertices": "2/3", "greedy-cover": "1/2",
                                 "partition-search": "2/3", "subset-search": "1/2"},
            "per_frame": ["1", "2/3"], "score": "2/3", "solution": [0, 1, 2],
            "zero_score": False,
        },
        ("solve", "--alg", "exact-am"): {
            "algorithm": "exact-am", "score": "3", "solution": [0, 1, 2],
            "verified_am_score": "3",
        },
        ("solve", "--alg", "fpt-am"): {
            "algorithm": "fpt-am", "score": "3", "solution": [0, 1, 2],
            "verified_am_score": "3",
        },
        ("solve", "--alg", "mcss-greedy"): {
            "algorithm": "mcss-greedy", "edges": [[0, 1], [1, 2]], "gains": [2, 2],
            "phase_boundary": 1, "size": 2, "spanning": True,
        },
        ("bench",): [
            {"algorithm": "greedy-ma", "score": "1/2"},
            {"algorithm": "best-with-all", "score": "2/3"},
            {"algorithm": "composite-ma", "score": "2/3"},
            {"algorithm": "exact-am", "score": "3"},
            {"algorithm": "fpt-am", "score": "3"},
            {"algorithm": "mcss-greedy", "score": "2"},
        ],
        ("oracle", "--objective", "ma"): {
            "objective": "MA", "per_frame": ["1", "2/3"], "score": "2/3",
            "solution": [0, 1, 2],
        },
        ("oracle", "--objective", "mm"): {
            "objective": "MM", "per_frame": ["1", "1"], "score": "1", "solution": [0, 1],
        },
        ("oracle", "--objective", "am"): {
            "objective": "AM", "per_frame": ["2", "1"], "score": "3", "solution": [0, 1, 2],
        },
        ("oracle", "--objective", "aa"): {
            "objective": "AA", "per_frame": ["2", "4/3"], "score": "10/3",
            "solution": [0, 1, 2],
        },
        ("oracle", "--objective", "kma", "--k", "1"): {
            "objective": "KMA(1)", "per_frame": ["1", "2/3"], "score": "1",
            "solution": [0, 1, 2],
        },
        ("oracle", "--objective", "kma", "--k", "2"): {
            "objective": "KMA(2)", "per_frame": ["1", "2/3"], "score": "2/3",
            "solution": [0, 1, 2],
        },
        ("oracle", "--objective", "mcss"): {
            "edges": [[0, 1], [1, 2]], "objective": "mcss", "size": 2,
        },
        ("eval", "--set", "0,1,2", "--k", "2"): {
            "frame_densities": ["1", "2/3"], "set": [0, 1, 2],
            "scores": {
                "AA": {"per_frame": ["2", "4/3"], "value": "10/3"},
                "AM": {"per_frame": ["2", "1"], "value": "3"},
                "KMA(2)": {"per_frame": ["1", "2/3"], "value": "2/3"},
                "MA": {"per_frame": ["1", "2/3"], "value": "2/3"},
                "MM": {"per_frame": ["2", "1"], "value": "1"},
            },
        },
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bodies_match_golden(tmp_path, name):
    text, digest, results = GOLDEN[name]
    path = tmp_path / f"{name}.dcs"
    path.write_text(text)
    instance = {"T": 2, "digest": digest, "n": 3, "path": str(path)}
    for verb, expected in results.items():
        argv = [*verb, "--in", str(path)]
        code, report, err = invoke(*argv)
        if expected is None:
            assert code == EXIT_INVALID and "disconnected" in err
            continue
        assert code == EXIT_OK, err
        timed = report["result"] if verb[0] == "bench" else [report["result"]]
        if verb[0] != "eval":  # eval runs no solver, so reports no wall_time
            assert all(isinstance(row["wall_time"], float) for row in timed)
        if verb[0] == "bench":  # the mcss greedy row needs connected frames
            has_mcss = any(row["algorithm"] == "mcss-greedy" for row in timed)
            assert has_mcss == (name == "connected")
        assert _strip_wall_times(report) == {
            "command": argv, "status": "ok", "instance": instance, "result": expected,
        }


def test_generation_identical_across_thread_counts(tmp_path):
    paths = []
    for threads in ("1", "8"):
        out = str(tmp_path / f"t{threads}.dcs")
        code, _, _ = invoke(
            "--threads", threads, "gen", "planted", "--n", "16", "--eps", "1/10",
            "--planted", "--seed", "9", "--out", out,
        )
        assert code == EXIT_OK
        paths.append(out)
    assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()


def test_exit_codes(tiny_path, tmp_path):
    code, _, err = invoke("solve", "--alg", "bogus", "--in", tiny_path)
    assert code == EXIT_USAGE and "usage error" in err
    code, _, err = invoke("oracle", "--objective", "kma", "--in", tiny_path)
    assert code == EXIT_USAGE  # missing --k
    code, _, err = invoke("solve", "--alg", "mcss-greedy", "--in", tiny_path)
    assert code == EXIT_INVALID  # frame 0 is disconnected
    bad = str(tmp_path / "bad.dcs")
    with open(bad, "w") as fh:
        fh.write("2 1\n0 1 1\n")
    code, _, err = invoke("solve", "--alg", "composite-ma", "--in", bad)
    assert code == EXIT_INVALID and "invalid instance" in err
    code, _, err = invoke("oracle", "--objective", "ma", "--in", tiny_path,
                          "--budget-n", "2")
    assert code == EXIT_BUDGET and "budget exceeded" in err
    code, _, err = invoke("solve", "--alg", "composite-ma", "--in",
                          str(tmp_path / "missing.dcs"))
    assert code == EXIT_INVALID
    # a --in file the reduction refuses is an invalid instance, not a bad flag
    code, _, err = invoke("gen", "mis", "--in", tiny_path, "--out", str(tmp_path / "m.dcs"))
    assert code == EXIT_INVALID and "single-frame" in err


POSITIVE_MESSAGES = {
    "--budget-n": "budget must be a positive integer",
    "--budget-edges": "budget must be a positive integer",
    "--eps": "eps must be a positive rational",
    "--k": "k must be a positive integer",
    "--threads": "threads must be a positive integer",
}


@pytest.mark.parametrize("argv", [
    ("oracle", "--objective", "am", "--budget-n", "0"),
    ("oracle", "--objective", "mcss", "--budget-edges", "0"),
    ("lp", "gap", "--n", "3", "--budget-n", "-1"),
    ("solve", "--alg", "fpt-am", "--eps", "0"),
    ("solve", "--alg", "fpt-am", "--eps", "-1"),
    ("solve", "--alg", "greedy-ma", "--eps", "0"),
    ("bench", "--eps", "0"),
    ("eval", "--set", "0,1", "--k", "0"),
    ("oracle", "--objective", "kma", "--k", "0"),
    ("--threads", "0", "bench"),
])
def test_non_positive_budget_is_usage_error(tiny_path, tmp_path, argv):
    # budgets, --eps, --k and --threads are checked while parsing, so a case
    # other than a budget given a missing file still exits 1, not 2
    flag = next(arg for arg in argv if arg in POSITIVE_MESSAGES)
    if argv[0] != "lp":
        missing = str(tmp_path / "missing.dcs")
        argv += ("--in", tiny_path if flag.startswith("--budget") else missing)
    code, _, err = invoke(*argv)
    assert code == EXIT_USAGE and POSITIVE_MESSAGES[flag] in err


@pytest.mark.parametrize("argv, message", [
    (("gen", "planted", "--n", "64", "--eps", "0"), "eps must lie in (0, 1/4)"),
    (("gen", "planted", "--n", "8", "--eps", "1/8"), "ambient size must be >= 16"),
    (("gen", "gap", "--n", "1"), "need n >= 2"),
    (("lp", "check", "--n", "1"), "need n >= 2"),
    (("lp", "gap", "--n", "0"), "need n >= 2"),
    (("gen", "minrep", "--parts", "0"), "need parts >= 1"),
    (("gen", "minrep", "--part-size", "0"), "need parts >= 1 and part_size >= 1"),
    (("gen", "minrep", "--edge-prob", "2"), "probability 2.0 outside [0, 1]"),
    (("gen", "setcover-mcss", "--sets", "0"), "need num_sets >= 1"),
    (("gen", "setcover-mcss", "--prob", "2"), "probability 2.0 outside [0, 1]"),
    (("gen", "recursive", "--nvec", "3,5", "--pvec", "1/2,1/2"),
     "size vector must be strictly decreasing"),
    (("gen", "mis", "--n", "0"), "vertex count must be >= 1"),
    (("gen", "mis", "--n", "4", "--edge-prob", "2"), "probability 2.0 outside [0, 1]"),
    (("gen", "setcover-mcss", "--elems", "-1"), "need n_elems >= 0, got -1"),
    # p is checked even when no coin is drawn
    (("gen", "setcover-mcss", "--elems", "0", "--prob", "2"), "probability 2.0 outside [0, 1]"),
    (("gen", "mis", "--n", "1", "--edge-prob", "2"), "probability 2.0 outside [0, 1]"),
    (("gen", "recursive", "--nvec", "a", "--pvec", "1"),
     "argument --nvec: not a comma list of integers: 'a'"),
])
def test_flag_bounds_are_usage_errors(tmp_path, argv, message):
    # these bounds depend on no instance, so they fail before any file is written
    out = tmp_path / "out.dcs"
    if argv[0] == "gen":
        argv += ("--out", str(out))
    code, _, err = invoke(*argv)
    assert code == EXIT_USAGE and f"usage error: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("eval", "--set", ","), "argument --set: need a nonempty list of vertices >= 0, got ','"),
    (("eval", "--set", "0,-1"), "argument --set: need a nonempty list of vertices >= 0"),
    (("oracle", "--objective", "ma", "--k", "2"),
     "oracle --objective kma needs --k, and no other objective takes it"),
    (("oracle", "--objective", "mcss", "--k", "1"),
     "oracle --objective kma needs --k, and no other objective takes it"),
    (("eval", "--set", "a"), "argument --set: not a comma list of integers: 'a'"),
])
def test_instance_free_flag_errors_are_usage_errors(tiny_path, tmp_path, argv, message):
    # the flags alone are wrong, so the --in file, good or missing, is never read
    for path in (tiny_path, str(tmp_path / "missing.dcs")):
        code, _, err = invoke(*argv, "--in", path)
        assert code == EXIT_USAGE and f"usage error: {message}" in err


def test_vertex_outside_graph_is_invalid_instance(tiny_path):
    code, _, err = invoke("eval", "--in", tiny_path, "--set", "5")
    assert code == EXIT_INVALID
    assert err == "invalid instance: vertex 5 outside graph range [0, 3)\n"


def test_non_utf8_input_is_invalid_instance_naming_its_line(tmp_path):
    path = tmp_path / "bad.dcs"
    path.write_bytes(b"3 2\n0 0 1\n1 0 \xff\n")
    code, _, err = invoke("eval", "--in", str(path), "--set", "0")
    assert code == EXIT_INVALID
    assert err == ("invalid instance: line 3: byte 0xff is not valid UTF-8 "
                   "(invalid start byte)\n")


def test_internal_error_is_not_an_invalid_instance(tiny_path, monkeypatch):
    # a ValueError from inside a solver is a bug: it propagates, not exit 2
    def broken(g):
        raise ValueError("solver bug")

    monkeypatch.setattr(ma, "composite_ma", broken)
    with pytest.raises(ValueError, match="solver bug"):
        run(["solve", "--alg", "composite-ma", "--in", tiny_path],
            stdout=io.StringIO(), stderr=io.StringIO())


def test_k_above_frame_count_is_invalid_instance(tiny_path):
    code, _, err = invoke("eval", "--in", tiny_path, "--set", "0,1", "--k", "3")
    assert code == EXIT_INVALID and "invalid instance" in err
    code, _, err = invoke("oracle", "--objective", "kma", "--k", "3", "--in", tiny_path)
    assert code == EXIT_INVALID and "invalid instance" in err


def test_solve_out_writes_solution_files(tmp_path, tiny_path):
    vout = str(tmp_path / "sol.txt")
    code, _, _ = invoke("solve", "--alg", "composite-ma", "--in", tiny_path,
                        "--out", vout)
    assert code == EXIT_OK
    assert Path(vout).read_text() == "0\n1\n"
    conn = str(tmp_path / "conn.dcs")
    with open(conn, "w") as fh:
        fh.write("3 2\n0 0 1\n0 1 2\n0 0 2\n1 0 1\n1 1 2\n")
    eout = str(tmp_path / "edges.txt")
    code, _, _ = invoke("solve", "--alg", "mcss-greedy", "--in", conn,
                        "--out", eout)
    assert code == EXIT_OK
    assert Path(eout).read_text() == "0 1\n1 2\n"
