"""The package's lazy export table and what ``import asuq`` loads."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import asuq

PUBLIC = {
    "ActiveSubspace", "BootstrapEnsemble", "CMatrixEstimate", "LinearFit",
    "SummaryData", "bootstrap_direction", "estimate_c_gradient_oracle",
    "fit_active_direction", "sensitivity_ranking", "summary_data",
    "Campaign", "CommandEvaluator", "EvalRequest", "RunRecord", "append_run",
    "evaluate_campaign", "load_campaign", "load_dataset", "new_campaign",
    "ridge_direction", "save_campaign", "save_dataset", "synthetic_ridge",
    "DataError", "DegeneracyError", "EvaluatorError", "ToolkitError",
    "UsageError",
    "ParameterSpace", "ParameterSpec", "hyshot_space", "sample_hypercube",
    "unit_space",
    "QuadraticSurrogate", "fit_quadratic",
    "CdfEstimate", "RangeEstimate", "SafeSetResult",
    "corner_extrema", "estimate_cdf", "estimate_range", "inscribed_box",
    "invert_safe_set",
}


def test_the_43_public_names_are_pinned():
    assert len(asuq.__all__) == len(PUBLIC) == 43
    assert set(asuq.__all__) == PUBLIC


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_name_is_its_submodules_object(name):
    obj = getattr(asuq, name)
    module = importlib.import_module(obj.__module__)
    assert module.__name__.rpartition(".")[0] == "asuq"
    assert getattr(module, name) is obj
    assert name in module.__all__
    assert name in dir(asuq)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        asuq.no_such_name
    assert not hasattr(asuq, "numpy")


def test_import_asuq_loads_no_numpy(fresh_python):
    code = ("import sys, asuq\n"
            "print('numpy' in sys.modules)\n"
            "from asuq import fit_quadratic, DataError\n"
            "print(asuq.fit_quadratic is fit_quadratic, asuq.hyshot.__name__,\n"
            "      asuq.cli.__name__, asuq.surrogate.__name__)\n")
    out = fresh_python("-c", code)
    assert out.split() == ["False", "True", "asuq.hyshot", "asuq.cli",
                           "asuq.surrogate"]


def test_star_import_gives_every_public_name(fresh_python):
    out = fresh_python("-c", "from asuq import *\n"
                       "import asuq\n"
                       "print(all(n in globals() for n in asuq.__all__))\n")
    assert out.split() == ["True"]


def test_cli_loads_hyshot_only_for_a_scenario_command(fresh_python):
    code = ("import sys, asuq.cli\n"
            "print('asuq.hyshot' in sys.modules)\n"
            "asuq.cli.main(['space', 'validate'])\n"
            "print('asuq.hyshot' in sys.modules)\n"
            "asuq.cli.main(['scenario', 'check'])\n"
            "print('asuq.hyshot' in sys.modules)\n")
    out = fresh_python("-c", code)
    flags = [ln for ln in out.splitlines() if ln in ("True", "False")]
    assert flags == ["False", "False", "True"]


LAYERS = {"asuq.param_space", "asuq.campaign", "asuq.active_subspace",
          "asuq.surrogate", "asuq.uq_analysis", "asuq.svgplot", "asuq.hyshot"}
ANALYSIS = {"asuq.active_subspace", "asuq.surrogate", "asuq.uq_analysis",
            "asuq.svgplot"}


def run_in_fresh_python(fresh_python, *argv):
    """``asuq.cli.main(argv)`` in a new interpreter: (status, loaded modules)."""
    code = ("import sys, asuq.cli\n"
            "status = asuq.cli.main(sys.argv[1:])\n"
            "print('modules:', status, *sorted(sys.modules))\n")
    out = fresh_python("-c", code, *argv)
    _, status, *modules = out.splitlines()[-1].split()
    return int(status), set(modules)


def test_cli_import_loads_no_layer_and_no_process_or_thread_machinery(
        fresh_python):
    out = fresh_python("-c", "import sys, asuq.cli\nprint(*sys.modules)")
    modules = set(out.split())
    assert "asuq.cli" in modules and "numpy" in modules
    assert modules.isdisjoint(LAYERS | {"subprocess", "concurrent.futures",
                                        "hashlib"})


def test_sample_and_help_load_no_analysis_layer(fresh_python, tmp_path):
    campaign = tmp_path / "c.json"
    for argv in (["sample", "-M", "12", "--seed", "7", "--out", str(campaign)],
                 ["--help"], ["analyze", "--help"]):
        status, modules = run_in_fresh_python(fresh_python, *argv)
        assert status == 0
        assert modules.isdisjoint(ANALYSIS)
    assert len(json.loads(campaign.read_text())["runs"]) == 12


def test_ridge_run_loads_no_analysis_layer_and_no_subprocess(fresh_python,
                                                             tmp_path):
    campaign = tmp_path / "c.json"
    run_in_fresh_python(fresh_python, "sample", "-M", "12", "--seed", "7",
                        "--out", str(campaign))
    status, modules = run_in_fresh_python(
        fresh_python, "run", "--campaign", str(campaign), "--evaluator",
        "ridge:linear", "--wtrue-seed", "3", "--max-concurrency", "2")
    assert status == 0
    assert modules.isdisjoint(ANALYSIS | {"subprocess"})
    runs = json.loads(campaign.read_text())["runs"]
    assert [r["status"] for r in runs] == ["done"] * 12


def test_command_run_works_at_concurrency_two(fresh_python, tmp_path):
    # subprocess loads when the evaluator is built, before the workers start.
    script = tmp_path / "index.py"
    script.write_text("import json, sys\n"
                      "req = json.load(sys.stdin)\n"
                      "print(json.dumps({'qoi': req['index']}))\n")
    campaign = tmp_path / "c.json"
    run_in_fresh_python(fresh_python, "sample", "-M", "12", "--seed", "7",
                        "--out", str(campaign))
    status, modules = run_in_fresh_python(
        fresh_python, "run", "--campaign", str(campaign), "--evaluator",
        f"{sys.executable} {script}", "--max-concurrency", "2")
    assert status == 0 and "subprocess" in modules
    runs = json.loads(campaign.read_text())["runs"]
    assert [(r["status"], r["f"]) for r in runs] == [
        ("done", float(i)) for i in range(12)]


# numpy.ma came with np.quantile and np.unique, concurrent.futures (and
# logging with it) with a thread pool; no command needs any of them.
NEVER_LOADED = {"numpy.ma", "concurrent.futures", "logging"}


def test_no_command_loads_numpy_ma_concurrent_futures_or_logging(
        fresh_python, tmp_path):
    script = tmp_path / "cubic.py"
    script.write_text("import json, sys\n"
                      "p = json.load(sys.stdin)['params'].values()\n"
                      "t = sum(p) / len(p)\n"
                      "print(json.dumps({'qoi': t ** 3 + t}))\n")
    command = ["--evaluator", f"{sys.executable} {script}"]
    ridge = ["--evaluator", "ridge:cubic-monotone", "--wtrue-seed", "3"]
    ridged, commanded, ranged = (str(tmp_path / f"{name}.json")
                                 for name in ("ridged", "commanded", "ranged"))
    full = ["--threshold", "0", "--corners", "--cdf", "--svg", "--seed", "1",
            "--bootstrap", "20", "--n", "500"]
    steps = [
        ["sample", "-M", "20", "--seed", "7", "--out", ridged],
        ["sample", "-M", "20", "--seed", "7", "--out", commanded],
        ["run", "--campaign", ridged, "--max-concurrency", "1", *ridge],
        ["run", "--campaign", commanded, "--max-concurrency", "2", *command],
        ["sample", "-M", "20", "--seed", "7", "--out", ranged],
        ["run", "--campaign", ranged, "--max-concurrency", "2", *ridge],
        ["range", "--campaign", ranged, "--out", str(tmp_path), *ridge],
        ["safeset", "--campaign", ranged, "--out", str(tmp_path),
         "--threshold", "0"],
        ["cdf", "--campaign", ranged, "--out", str(tmp_path), "--seed", "1"],
        ["analyze", "--campaign", ridged, "--out", str(tmp_path), *full,
         *ridge],
        ["analyze", "--campaign", commanded, "--out", str(tmp_path), *full,
         *command],
    ]
    loaded = []
    for argv in steps:
        status, modules = run_in_fresh_python(fresh_python, *argv)
        assert status == 0
        loaded += [(argv[0], name) for name in sorted(modules & NEVER_LOADED)]
    assert loaded == []
    for path in (ridged, commanded, ranged):
        runs = json.loads(Path(path).read_text())["runs"]
        assert [r["status"] for r in runs] == ["done"] * 22
