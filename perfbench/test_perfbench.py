"""Tests of the benchmark's own parts: span arithmetic, the traced launcher's
counts and the evaluator protocol. Run with ``python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evaluator
import layers

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def test_metric_lists_match_benchmark_json():
    import run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def span(name, span_id, parent, start, end):
    return [name, span_id, parent, start, end, False, {}]


def test_union_length_merges_overlaps():
    assert layers.union_length([]) == 0.0
    assert layers.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert layers.union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        span("campaign.evaluate_campaign", 0, None, 0.0, 10.0),
        # Two worker threads overlap on [3, 4]; the third child runs past
        # its parent's end and is clipped.
        span("campaign.evaluator", 1, 0, 1.0, 4.0),
        span("campaign.evaluator", 2, 0, 3.0, 6.0),
        span("campaign.save_campaign", 3, 0, 9.0, 12.0),
        span("campaign.load_campaign", 4, 3, 9.5, 10.5),
    ]
    selfs = layers.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert selfs[3] == pytest.approx(3.0 - 1.0)
    totals = layers.stage_totals(spans)
    assert totals["campaign.evaluator.calls"] == 2
    assert totals["campaign.evaluator.s"] == pytest.approx(6.0)


def test_parse_importtime_reads_cumulative_microseconds():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |        120 |   asuq.errors\n"
              "import time:      2000 |    1500000 | asuq\n")
    assert layers.parse_importtime(stderr) == {"asuq.errors": 120e-6,
                                               "asuq": 1.5}


def traced_stage(tmp_path, *args):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launcher.py"), str(trace), *args],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == json.loads(trace.read_text())["exit_code"]
    return proc.returncode, layers.stage_totals(
        json.loads(trace.read_text())["spans"])


def test_traced_counts_match_the_seed_program(tmp_path):
    M = 12
    code, totals = traced_stage(tmp_path, "sample", "-M", str(M), "--seed",
                                "1", "--out", "c.json")
    assert code == 0
    assert totals["param_space.sample_hypercube.rows"] == M
    ridge = ["--evaluator", "ridge:linear", "--wtrue-seed", "2"]
    code, totals = traced_stage(tmp_path, "run", "--campaign", "c.json",
                                *ridge)
    assert code == 0
    assert totals["campaign.save_campaign.calls"] == M + 1
    assert totals["campaign.evaluator.calls"] == M
    code, totals = traced_stage(tmp_path, "analyze", "--campaign", "c.json",
                                "--seed", "3", "--bootstrap", "10",
                                "--out", "out")
    assert code == 0
    assert totals["active_subspace.summary_data.calls"] == 2
    assert totals["active_subspace.fit_active_direction.calls"] == 2
    assert totals["cli.main.calls"] == 1


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "evaluator.json"
    cfg = {"names": ["a", "b"], "mins": [0.0, 10.0], "maxs": [2.0, 30.0],
           "w": evaluator.unit_direction(2, 5), "fail": [3], "chatter": 100}
    path.write_text(json.dumps(cfg))
    return path, cfg


def call_evaluator(path, index):
    request = {"index": index, "params": {"a": 1.5, "b": 12.0},
               "condition": {}}
    return subprocess.run(
        [sys.executable, str(BENCH / "evaluator.py"), str(path)],
        input=json.dumps(request), capture_output=True, text=True, timeout=60)


def test_evaluator_speaks_the_stdin_stdout_protocol(config):
    path, cfg = config
    proc = call_evaluator(path, 0)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0
    assert len(lines) == cfg["chatter"] + 1
    expected = evaluator.ridge_value(cfg["w"], [0.5, -0.8])
    assert json.loads(lines[-1])["qoi"] == pytest.approx(expected)
    # asuq's own command evaluator parses the same reply past the chatter.
    sys.path.insert(0, str(SRC))
    try:
        from asuq.campaign import CommandEvaluator, EvalRequest
    finally:
        sys.path.remove(str(SRC))
    ev = CommandEvaluator([sys.executable, str(BENCH / "evaluator.py"),
                           str(path)])
    req = EvalRequest(index=0, x=None, params={"a": 1.5, "b": 12.0},
                      condition={})
    assert ev(req) == pytest.approx(expected)


def test_evaluator_fails_exactly_the_designed_indices(config):
    path, cfg = config
    assert call_evaluator(path, cfg["fail"][0]).returncode != 0
    assert call_evaluator(path, cfg["fail"][0] + 1).returncode == 0
    designed = evaluator.failing_indices(200, 7)
    assert len(designed) == 10 and designed == evaluator.failing_indices(200, 7)
