import re
import shlex
from pathlib import Path

import numpy as np

import asuq
from asuq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_python_api_example(evaluator) -> dict:
    """Execute the README's Python API block; return its namespace."""
    text = README.read_text()
    api = text[text.index("## Python API"):]
    code = re.search(r"```python\n(.*?)```", api, re.S).group(1)
    namespace = {"my_evaluator": evaluator}
    exec(compile(code, str(README), "exec"), namespace)
    return namespace


RIDGE = asuq.synthetic_ridge(asuq.ridge_direction(7, 3), "cubic-monotone")


def test_python_api_example_runs():
    namespace = run_python_api_example(RIDGE)
    campaign, rng, f = namespace["campaign"], namespace["rng"], namespace["f"]
    assert len(campaign.done_runs()) == 52
    assert [(r.role, r.error) for r in campaign.runs[50:]] == [
        ("corner", None), ("corner", None)]
    assert rng.f_min < rng.f_max and rng.validated
    assert np.all((rng.f_min <= f) & (f <= rng.f_max))
    assert namespace["safe"].feasible in ("empty", "partial", "full")
    assert len(namespace["cdf"].grid) == 513


def test_python_api_example_records_failed_corners():
    # The 50 design runs succeed; both corner runs (50 and 51) raise.
    def evaluator(req):
        if req.index >= 50:
            raise RuntimeError(f"solver diverged at run {req.index}")
        return RIDGE(req)

    namespace = run_python_api_example(evaluator)
    campaign, rng = namespace["campaign"], namespace["rng"]
    assert [(r.role, r.status, r.error) for r in campaign.runs[50:]] == [
        ("corner", "failed", "solver diverged at run 50"),
        ("corner", "failed", "solver diverged at run 51")]
    assert rng.f_min is None and rng.f_max is None and not rng.validated


def test_command_line_example_runs(tmp_path, monkeypatch):
    text = README.read_text()
    cli = text[text.index("## Command-line pipeline"):]
    block = re.search(r"```sh\n(.*?)```", cli, re.S).group(1)
    commands = [shlex.split(line)[1:]
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("asuq ") and "./solver.sh" not in line]
    assert [argv[0] for argv in commands] == ["sample", "run", "analyze"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == [
        "cdf.csv", "cdf.svg", "range.json", "results.json", "safeset.json",
        "summary.csv", "summary.svg", "surrogate.json"]
