"""Import cost: `import dcs` loads no submodule, each CLI verb loads only
the library modules it runs, and the package's lazy exports resolve to the
objects their modules define."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import dcs

SRC = Path(__file__).resolve().parent.parent / "src"

# what `cli` itself loads: the package, the front end and the modules every
# verb reads its input and scores with
CLI_BASE = {"dcs", "dcs.cli", "dcs.errors", "dcs.objectives", "dcs.temporal"}

# every name the package exported when `__init__` imported its submodules
# eagerly, under the module that defines it
EAGER_EXPORTS = {
    "am": ["core", "exact_am", "fpt_approx_am", "threshold_grid"],
    "errors": [
        "BudgetExceeded", "CompleteGraph", "DcsError", "DomainMismatch", "DuplicateEdge",
        "EdgeNotInUnion", "EdgeOutOfRange", "EmptySolution", "FrameIndexOutOfRange",
        "InfeasibleFrame", "KOrderOutOfRange", "MalformedHeader", "NoSuperedges",
        "NotSingleFrame", "NotUniform", "NotUtf8", "ParseError", "SelfLoop", "Uncoverable",
        "VertexOutOfRange",
    ],
    "generators": [
        "MinRepInstance", "PlantedParams", "RecursiveParams", "SetCoverInstance",
        "ekvc_to_setcover", "gen_gap_instance", "gen_padded_sequence", "gen_planted_2frame",
        "planted_subset", "random_graph", "random_minrep", "random_set_cover",
        "reduce_minrep_to_ma", "reduce_mis_to_am", "reduce_setcover_to_mcss",
        "sample_recursive_planted",
    ],
    "lp": [
        "FractionalSolution", "GapReport", "LPModel", "build_lp", "check_feasible",
        "export_lp", "gap_report", "harmonic_solution",
    ],
    "ma": [
        "SolveReport", "best_with_all", "composite_ma", "greedy_cover", "partition_search",
        "subset_search",
    ],
    "mcss": ["EdgeSolution", "check_spanning", "mcss_greedy", "mcss_greedy_run", "potential"],
    "objectives": ["AA", "AM", "KMA", "MA", "MM", "ObjectiveKind", "Score", "score"],
    "oracle": [
        "OracleBudget", "exact_best", "exact_mcss", "exact_minrep", "exact_mis",
        "exact_setcover",
    ],
    "temporal": ["TemporalGraph", "VertexSet", "load", "parse", "save", "serialize"],
}

CONNECTED = "3 2\n0 0 1\n0 1 2\n0 0 2\n1 0 1\n1 1 2\n"


def loaded_after(code: str, *args: str) -> list:
    """Run `code` in a fresh interpreter and return what it prints, as JSON."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = 'sorted(m for m in sys.modules if m.partition(".")[0] == "dcs")'


def test_import_dcs_loads_no_submodule():
    assert loaded_after(f"import json, sys; import dcs; print(json.dumps({LOADED}))") == ["dcs"]


@pytest.mark.parametrize("argv, runs", [
    (["eval", "--set", "0,1"], set()),
    (["solve", "--alg", "exact-am"], {"dcs.am"}),
    (["solve", "--alg", "mcss-greedy"], {"dcs.mcss"}),
    (["lp", "export", "--out", "{out}"], {"dcs.lp"}),
    (["oracle", "--objective", "am"], {"dcs.oracle"}),
], ids=["eval", "exact-am", "mcss-greedy", "lp-export", "oracle-am"])
def test_each_verb_loads_only_the_modules_it_runs(tmp_path, argv, runs):
    path = tmp_path / "connected.dcs"
    path.write_text(CONNECTED)
    argv = [arg.format(out=tmp_path / "out") for arg in argv] + ["--in", str(path)]
    code, loaded = loaded_after(
        "import io, json, sys\n"
        "from dcs import cli\n"
        "code = cli.run(json.loads(sys.argv[1]), stdout=io.StringIO(), stderr=io.StringIO())\n"
        f"print(json.dumps([code, {LOADED}]))\n",
        json.dumps(argv))
    assert code == 0
    assert set(loaded) == CLI_BASE | runs


@pytest.mark.parametrize("module", sorted(EAGER_EXPORTS))
def test_every_eagerly_exported_name_is_still_exported(module):
    defining = import_module(f"dcs.{module}")
    for name in EAGER_EXPORTS[module]:
        assert name in dcs.__all__, name
        assert getattr(dcs, name) is getattr(defining, name), name


def test_every_export_is_its_modules_object():
    # in a fresh interpreter, so each name goes through the package's hook
    mismatched = loaded_after(
        "import json\n"
        "from importlib import import_module\n"
        "import dcs\n"
        "print(json.dumps([name for name, module in dcs._EXPORTS.items() if getattr(dcs, name)\n"
        "                  is not getattr(import_module(f'dcs.{module}'), name)]))\n")
    assert mismatched == []
    assert list(dcs._EXPORTS) == dcs.__all__


def test_all_names_resolve_and_are_listed():
    listed = set(dir(dcs))
    namespace: dict = {}
    exec("from dcs import *", namespace)
    for name in dcs.__all__:
        assert name in listed, name
        assert namespace[name] is getattr(dcs, name), name


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dcs.no_such_name


def test_every_error_class_is_exported():
    errors = import_module("dcs.errors")
    classes = {name: obj for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.DcsError)}
    assert "MalformedEdgeLine" in classes
    for name, cls in classes.items():
        assert name in dcs.__all__, name
        assert getattr(dcs, name) is cls, name
