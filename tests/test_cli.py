import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import asuq
import asuq.cli
from asuq import load_campaign
from asuq.campaign import journal_path
from asuq.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def sampled(tmp_path):
    campaign = tmp_path / "campaign.json"
    assert run_cli("sample", "-M", "12", "--seed", "7",
                   "--out", str(campaign)) == 0
    return campaign


@pytest.fixture
def evaluated(sampled):
    assert run_cli("run", "--campaign", str(sampled),
                   "--evaluator", "ridge:cubic-monotone",
                   "--wtrue-seed", "3") == 0
    return sampled


class TestSpace:
    def test_validate_bundled(self, capsys):
        assert run_cli("space", "validate") == 0
        out = capsys.readouterr().out
        assert "m=7" in out
        assert "Stagnation Pressure" in out

    def test_validate_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert run_cli("space", "validate", "--space", str(bad)) == 2


class TestSample:
    def test_writes_pending_campaign(self, sampled):
        campaign = load_campaign(sampled)
        assert campaign.m == 7
        assert len(campaign.pending_runs()) == 12

    def test_zero_samples_is_usage_error(self, tmp_path):
        assert run_cli("sample", "-M", "0", "--seed", "1",
                       "--out", str(tmp_path / "c.json")) == 1

    def test_missing_seed_is_usage_error(self, tmp_path):
        assert run_cli("sample", "-M", "5",
                       "--out", str(tmp_path / "c.json")) == 1

    def test_same_flags_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("sample", "-M", "8", "--seed", "5", "--out", str(a))
        run_cli("sample", "-M", "8", "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_condition_recorded(self, tmp_path):
        c = tmp_path / "c.json"
        run_cli("sample", "-M", "2", "--seed", "1", "--out", str(c),
                "--condition", "P0_H2_bar=4.8")
        assert load_campaign(c).condition == {"P0_H2_bar": 4.8}


class TestRun:
    def test_ridge_evaluator_completes(self, evaluated):
        campaign = load_campaign(evaluated)
        assert len(campaign.done_runs()) == 12
        assert not campaign.pending_runs()

    def test_missing_external_command(self, sampled):
        assert run_cli("run", "--campaign", str(sampled),
                       "--evaluator", "definitely-not-a-real-binary") == 1

    def test_rerun_is_noop(self, evaluated, capsys):
        assert run_cli("run", "--campaign", str(evaluated),
                       "--evaluator", "ridge:linear", "--wtrue-seed", "3") == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_ridge_without_wtrue_seed(self, sampled):
        assert run_cli("run", "--campaign", str(sampled),
                       "--evaluator", "ridge:linear") == 1

    def test_partial_failure_exit_code(self, tmp_path, sampled):
        script = tmp_path / "flaky.py"
        script.write_text(
            "import json, sys\n"
            "req = json.load(sys.stdin)\n"
            "sys.exit(1) if req['index'] == 2 else "
            "print(json.dumps({'qoi': 1.0}))\n"
        )
        code = run_cli("run", "--campaign", str(sampled),
                       "--evaluator", f"{sys.executable} {script}")
        assert code == 5
        campaign = load_campaign(sampled)
        assert len(campaign.failed_runs()) == 1
        assert len(campaign.done_runs()) == 11

    def test_total_failure_exit_code(self, tmp_path, sampled):
        script = tmp_path / "broken.py"
        script.write_text("import sys\nsys.exit(2)\n")
        code = run_cli("run", "--campaign", str(sampled),
                       "--evaluator", f"{sys.executable} {script}")
        assert code == 4

    def test_retry_failed_reruns_failures(self, tmp_path, sampled):
        script = tmp_path / "flaky.py"
        script.write_text(
            "import json, sys\n"
            "req = json.load(sys.stdin)\n"
            "sys.exit(1) if req['index'] == 0 else "
            "print(json.dumps({'qoi': 1.0}))\n"
        )
        assert run_cli("run", "--campaign", str(sampled),
                       "--evaluator", f"{sys.executable} {script}") == 5
        good = tmp_path / "good.py"
        good.write_text(
            "import json, sys\n"
            "json.load(sys.stdin)\n"
            "print(json.dumps({'qoi': 2.0}))\n"
        )
        assert run_cli("run", "--campaign", str(sampled), "--retry-failed",
                       "--evaluator", f"{sys.executable} {good}") == 0
        campaign = load_campaign(sampled)
        assert not campaign.failed_runs()
        assert campaign.runs[0].f == 2.0
        assert campaign.runs[1].f == 1.0  # untouched on retry

    def test_timeout_fails_only_the_hanging_run(self, tmp_path, sampled):
        script = tmp_path / "hang.py"
        script.write_text(
            "import json, sys, time\n"
            "req = json.load(sys.stdin)\n"
            "if req['index'] == 4:\n"
            "    time.sleep(30)\n"
            "print(json.dumps({'qoi': 1.0}))\n"
        )
        code = run_cli("run", "--campaign", str(sampled), "--timeout", "0.5",
                       "--evaluator", f"{sys.executable} {script}")
        assert code == 5
        campaign = load_campaign(sampled)
        (failed,) = campaign.failed_runs()
        assert failed.index == 4
        assert "timed out" in failed.error
        assert len(campaign.done_runs()) == 11

    def test_unknown_campaign_path(self, tmp_path):
        assert run_cli("run", "--campaign", str(tmp_path / "nope.json"),
                       "--evaluator", "ridge:linear", "--wtrue-seed", "1") == 2


# Evaluator for the kill-and-resume tests: the first time it sees the run
# named by argv[1] (guarded by the marker file argv[2]) it SIGKILLs its
# parent, the `asuq run` process.
KILLER = """\
import json, os, signal, sys
kill_at, marker = int(sys.argv[1]), sys.argv[2]
req = json.load(sys.stdin)
if req["index"] == kill_at and not os.path.exists(marker):
    open(marker, "w").close()
    os.kill(os.getppid(), signal.SIGKILL)
    sys.exit(1)
values = list(req["params"].values())
print(json.dumps({"qoi": sum((i + 1) * v for i, v in enumerate(values))}))
"""


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir()
                  if p.suffix in (".journal", ".tmp"))


class TestJournal:
    RIDGE = ["--evaluator", "ridge:cubic-monotone", "--wtrue-seed", "3"]

    def uninterrupted(self, tmp_path, *flags):
        fresh = tmp_path / "fresh.json"
        assert run_cli("sample", "-M", "12", "--seed", "7",
                       "--out", str(fresh)) == 0
        assert run_cli("run", "--campaign", str(fresh), *flags) == 0
        return fresh.read_bytes()

    def killer_run(self, tmp_path, campaign, kill_at, concurrency="1"):
        """`asuq run` in a subprocess whose evaluator kills it at run kill_at."""
        script = tmp_path / "killer.py"
        script.write_text(KILLER)
        evaluator = f"{sys.executable} {script} {kill_at} {tmp_path / 'killed'}"
        argv = [sys.executable, "-m", "asuq.cli", "run", "--campaign",
                str(campaign), "--evaluator", evaluator,
                "--max-concurrency", concurrency]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(asuq.__file__).resolve().parents[1]))
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        return proc, evaluator

    @pytest.mark.parametrize("concurrency", ["1", "2"])
    def test_kill_and_resume_matches_uninterrupted(self, tmp_path, sampled,
                                                   concurrency):
        killed, evaluator = self.killer_run(tmp_path, sampled, 5, concurrency)
        assert killed.returncode == -9
        assert journal_path(sampled).exists()
        partial = load_campaign(sampled)
        assert 0 < len(partial.done_runs()) < 12
        assert partial.runs[5].status == "pending"

        resumed, _ = self.killer_run(tmp_path, sampled, 5, concurrency)
        assert resumed.returncode == 0, resumed.stderr
        assert leftovers(tmp_path) == []
        assert sampled.read_bytes() == self.uninterrupted(
            tmp_path, "--evaluator", evaluator)

    def test_torn_line_run_is_rerun(self, tmp_path, sampled):
        def same_as_killer(req):
            return sum((i + 1) * v for i, v in enumerate(req.params.values()))

        campaign = load_campaign(sampled)
        asuq.evaluate_campaign(campaign, same_as_killer,
                               runs=campaign.runs[:4],
                               checkpoint=lambda r: asuq.append_run(sampled, r))
        journal = journal_path(sampled)
        text = journal.read_text()
        journal.write_text(text[:len(text) - 30])
        assert len(load_campaign(sampled).done_runs()) == 3

        # A second kill must not leave the torn line inside the journal.
        killed, evaluator = self.killer_run(tmp_path, sampled, 8)
        assert killed.returncode == -9
        partial = load_campaign(sampled)
        assert [r.index for r in partial.done_runs()] == list(range(8))

        resumed, _ = self.killer_run(tmp_path, sampled, 8)
        assert resumed.returncode == 0, resumed.stderr
        assert leftovers(tmp_path) == []
        assert sampled.read_bytes() == self.uninterrupted(
            tmp_path, "--evaluator", evaluator)

    @pytest.mark.parametrize("command", ["run", "analyze"])
    def test_malformed_journal_line_exits_2(self, sampled, command, capsys):
        journal_path(sampled).write_text('{"index": 0, "x": [\n')
        extra = ["--seed", "1"] if command == "analyze" else []
        assert run_cli(command, "--campaign", str(sampled), *extra,
                       *self.RIDGE) == 2
        assert "journal" in capsys.readouterr().err

    def test_no_journal_or_temp_file_left(self, evaluated, tmp_path):
        assert leftovers(tmp_path) == []
        assert run_cli("range", "--campaign", str(evaluated),
                       "--out", str(tmp_path / "r"), *self.RIDGE) == 0
        assert leftovers(tmp_path) == []
        assert run_cli("analyze", "--campaign", str(evaluated),
                       "--out", str(tmp_path / "a"), "--seed", "2",
                       "--bootstrap", "5", "--corners", *self.RIDGE) == 0
        assert leftovers(tmp_path) == []

    def test_run_writes_the_manifest_at_most_twice(self, tmp_path,
                                                   monkeypatch):
        campaign = tmp_path / "c.json"
        assert run_cli("sample", "-M", "60", "--seed", "4",
                       "--out", str(campaign)) == 0
        # A killed earlier invocation left two journaled runs behind.
        partial = load_campaign(campaign)
        asuq.evaluate_campaign(partial, lambda req: 1.0,
                               runs=partial.runs[:2],
                               checkpoint=lambda r: asuq.append_run(campaign, r))
        calls = []
        save = asuq.cli.save_campaign
        monkeypatch.setattr(asuq.cli, "save_campaign",
                            lambda *a: calls.append(a) or save(*a))
        assert run_cli("run", "--campaign", str(campaign), *self.RIDGE) == 0
        assert len(calls) <= 2
        assert len(load_campaign(campaign).done_runs()) == 60

    def test_analyze_fits_each_stage_once(self, evaluated, tmp_path,
                                          monkeypatch):
        calls = []
        for name in ("summary_data", "fit_quadratic"):
            def counted(*a, _real=getattr(asuq.cli, name), _name=name, **kw):
                calls.append(_name)
                return _real(*a, **kw)
            monkeypatch.setattr(asuq.cli, name, counted)
        assert run_cli("analyze", "--campaign", str(evaluated),
                       "--out", str(tmp_path / "a"), "--seed", "2",
                       "--bootstrap", "5", "--threshold", "1", "--corners",
                       "--cdf", "--n", "300", "--svg", *self.RIDGE) == 0
        assert calls.count("summary_data") == 1
        assert calls.count("fit_quadratic") <= 1

    REPORTS = ["results.json", "summary.csv", "surrogate.json", "range.json",
               "safeset.json", "cdf.csv", "summary.svg", "cdf.svg"]

    @pytest.mark.parametrize("target", REPORTS)
    def test_failed_report_rename_keeps_the_old_report(self, evaluated,
                                                       tmp_path, monkeypatch,
                                                       target):
        out = tmp_path / "out"
        argv = ["analyze", "--campaign", str(evaluated), "--out", str(out),
                "--bootstrap", "5", "--threshold", "1", "--corners", "--cdf",
                "--n", "300", "--svg", *self.RIDGE]
        assert run_cli(*argv, "--seed", "2") == 0
        before = {name: (out / name).read_bytes() for name in self.REPORTS}

        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == target:
                raise OSError("injected rename failure")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="injected"):
            run_cli(*argv, "--seed", "3")
        assert (out / target).read_bytes() == before[target]
        assert leftovers(out) == [] and leftovers(tmp_path) == []


class TestAnalyze:
    def test_reports_written(self, evaluated, tmp_path, capsys):
        out = tmp_path / "reports"
        assert run_cli("analyze", "--campaign", str(evaluated),
                       "--out", str(out), "--seed", "11",
                       "--bootstrap", "20") == 0
        results = json.loads((out / "results.json").read_text())
        assert results["M"] == 12 and results["m"] == 7
        assert len(results["w"]) == 7
        assert len(results["bootstrap"]["replicates"]) == 20
        assert abs(np.linalg.norm(results["w"]) - 1) < 1e-12
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "y,f,source"
        assert sum(1 for ln in lines if ln.endswith(",sample")) == 12
        assert sum(1 for ln in lines if ln.endswith(",bootstrap")) == 20 * 12
        assert "Angle of Attack" in capsys.readouterr().out

    def test_ranking_matches_direction(self, evaluated, tmp_path):
        out = tmp_path / "r"
        run_cli("analyze", "--campaign", str(evaluated), "--out", str(out),
                "--seed", "1", "--bootstrap", "5")
        results = json.loads((out / "results.json").read_text())
        w = np.array(results["w"])
        top = results["ranking"][0]
        assert abs(top["w"]) == pytest.approx(np.max(np.abs(w)))

    def test_corners_appended_and_reused(self, evaluated, tmp_path):
        out = tmp_path / "c"
        args = ["analyze", "--campaign", str(evaluated), "--out", str(out),
                "--seed", "2", "--bootstrap", "5", "--corners",
                "--evaluator", "ridge:cubic-monotone", "--wtrue-seed", "3"]
        assert run_cli(*args) == 0
        campaign = load_campaign(evaluated)
        corners = [r for r in campaign.runs if r.role == "corner"]
        assert len(corners) == 2 and all(r.status == "done" for r in corners)
        report = json.loads((out / "range.json").read_text())
        assert report["validated"] is True
        assert report["f_min"] < report["f_max"]

        # idempotent: rerunning reuses the evaluated corners
        before = evaluated.read_bytes()
        assert run_cli(*args) == 0
        assert evaluated.read_bytes() == before
        assert len(load_campaign(evaluated).runs) == 14

    def test_threshold_writes_safeset(self, evaluated, tmp_path):
        out = tmp_path / "s"
        assert run_cli("analyze", "--campaign", str(evaluated),
                       "--out", str(out), "--seed", "3", "--bootstrap", "5",
                       "--threshold", "0.5") == 0
        safe = json.loads((out / "safeset.json").read_text())
        assert safe["threshold"] == 0.5
        assert safe["feasible"] in {"empty", "partial", "full"}
        assert (out / "surrogate.json").exists()

    def test_cdf_written_and_monotone(self, evaluated, tmp_path):
        out = tmp_path / "cdf"
        assert run_cli("analyze", "--campaign", str(evaluated),
                       "--out", str(out), "--seed", "4", "--bootstrap", "5",
                       "--cdf", "--n-cdf", "500") == 0
        rows = (out / "cdf.csv").read_text().splitlines()
        assert rows[0] == "q,cdf"
        values = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.all(np.diff(values[:, 1]) >= -1e-15)
        assert values[-1, 1] >= 0.999

    def test_svg_rendering(self, evaluated, tmp_path):
        out = tmp_path / "svg"
        assert run_cli("analyze", "--campaign", str(evaluated),
                       "--out", str(out), "--seed", "5", "--bootstrap", "5",
                       "--cdf", "--n-cdf", "200", "--svg") == 0
        assert (out / "summary.svg").read_text().startswith("<svg")
        assert (out / "cdf.svg").exists()

    def test_insufficient_runs_is_degeneracy(self, tmp_path, capsys):
        campaign = tmp_path / "small.json"
        run_cli("sample", "-M", "4", "--seed", "1", "--out", str(campaign))
        run_cli("run", "--campaign", str(campaign),
                "--evaluator", "ridge:linear", "--wtrue-seed", "2")
        code = run_cli("analyze", "--campaign", str(campaign),
                       "--out", str(tmp_path / "o"), "--seed", "1")
        assert code == 3
        err = capsys.readouterr().err
        assert "M >= 8" in err or "m+1" in err


class TestStandaloneReports:
    def test_range_command(self, evaluated, tmp_path):
        out = tmp_path / "rr"
        assert run_cli("range", "--campaign", str(evaluated), "--out", str(out),
                       "--evaluator", "ridge:cubic-monotone",
                       "--wtrue-seed", "3") == 0
        assert (out / "range.json").exists()

    def test_range_command_corner_failure(self, evaluated, tmp_path):
        script = tmp_path / "dead.py"
        script.write_text("import sys\nsys.exit(1)\n")
        out = tmp_path / "rf"
        assert run_cli("range", "--campaign", str(evaluated), "--out", str(out),
                       "--evaluator", f"{sys.executable} {script}") == 4
        report = json.loads((out / "range.json").read_text())
        assert report["f_min"] is None and report["f_max"] is None
        assert report["corner_errors"]

    def test_failed_corners_are_retried_in_place(self, evaluated, tmp_path):
        script = tmp_path / "no_corners.py"
        script.write_text(
            "import json, sys\n"
            "req = json.load(sys.stdin)\n"
            "sys.exit(1) if req['index'] >= 12 else "
            "print(json.dumps({'qoi': 1.0}))\n"
        )
        failing = ["--evaluator", f"{sys.executable} {script}"]
        for _ in range(3):
            assert run_cli("range", "--campaign", str(evaluated),
                           "--out", str(tmp_path / "rf"), *failing) == 4
        campaign = load_campaign(evaluated)
        assert len(campaign.runs) == 12 + 2
        assert [r.index for r in campaign.failed_runs()] == [12, 13]

        assert run_cli("range", "--campaign", str(evaluated),
                       "--out", str(tmp_path / "rr"),
                       "--evaluator", "ridge:cubic-monotone",
                       "--wtrue-seed", "3") == 0
        campaign = load_campaign(evaluated)
        assert len(campaign.runs) == 12 + 2
        assert [r.role for r in campaign.done_runs()[12:]] == ["corner"] * 2

    def test_safeset_command(self, evaluated, tmp_path, capsys):
        out = tmp_path / "ss"
        assert run_cli("safeset", "--campaign", str(evaluated),
                       "--threshold", "1.0", "--out", str(out)) == 0
        assert (out / "safeset.json").exists()
        assert "feasible=" in capsys.readouterr().out

    def test_cdf_command(self, evaluated, tmp_path):
        out = tmp_path / "cc"
        assert run_cli("cdf", "--campaign", str(evaluated), "--n", "300",
                       "--seed", "9", "--out", str(out)) == 0
        rows = (out / "cdf.csv").read_text().splitlines()
        assert len(rows) == 514

    @pytest.mark.parametrize("grid_size", ["-1", "0", "1"])
    def test_cdf_too_small_grid_is_data_error(self, evaluated, tmp_path,
                                              grid_size, capsys):
        out = tmp_path / "cc"
        assert run_cli("cdf", "--campaign", str(evaluated), "--n", "300",
                       "--seed", "9", "--grid-size", grid_size,
                       "--out", str(out)) == 2
        assert "grid_size must be >= 2" in capsys.readouterr().err
        assert not (out / "cdf.csv").exists()


class TestScenario:
    def test_shots_fit(self, capsys):
        assert run_cli("scenario", "shots-fit") == 0
        out = capsys.readouterr().out
        assert "508.1386" in out
        assert "9 shots used" in out

    def test_shots_fit_all(self, capsys):
        assert run_cli("scenario", "shots-fit", "--all") == 0
        assert "13 shots used" in capsys.readouterr().out

    def test_inflow_nominal(self, capsys):
        assert run_cli("scenario", "inflow", "--nominal") == 0
        params = json.loads(capsys.readouterr().out)
        assert set(params) == {"P_Pa", "T_K", "Ux_ms", "Uy_ms", "k_m2s2",
                               "omega_1s", "xt_ramp_m", "xt_cowl_m"}
        assert params["P_Pa"] == pytest.approx(2056.68, abs=0.1)

    def test_inflow_explicit_point(self, capsys):
        assert run_cli("scenario", "inflow", "--x", "0,0,1,0,0,0,0") == 0
        params = json.loads(capsys.readouterr().out)
        assert params["Uy_ms"] < 0

    def test_inflow_requires_point(self):
        assert run_cli("scenario", "inflow") == 1

    def test_check_runs_clean(self, capsys):
        assert run_cli("scenario", "check") == 0
        out = capsys.readouterr().out
        assert "area ratio" in out
        assert "transition range" in out


class TestEndToEnd:
    def test_pipeline_byte_identical(self, tmp_path):
        digests = []
        for tag in ("one", "two"):
            work = tmp_path / tag
            work.mkdir()
            campaign = work / "campaign.json"
            assert run_cli("sample", "-M", "10", "--seed", "21",
                           "--out", str(campaign)) == 0
            assert run_cli("run", "--campaign", str(campaign),
                           "--evaluator", "ridge:cubic-monotone",
                           "--wtrue-seed", "6") == 0
            assert run_cli("analyze", "--campaign", str(campaign),
                           "--out", str(work), "--seed", "13",
                           "--bootstrap", "10", "--corners",
                           "--evaluator", "ridge:cubic-monotone",
                           "--wtrue-seed", "6", "--threshold", "1.5",
                           "--cdf", "--n-cdf", "400") == 0
            digests.append({
                p.name: p.read_bytes() for p in sorted(work.iterdir())
                if p.is_file()
            })
        assert digests[0].keys() == digests[1].keys()
        for name in digests[0]:
            assert digests[0][name] == digests[1][name], name

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_no_command_prints_help(self, capsys):
        assert run_cli() == 1
        assert "subcommand" in capsys.readouterr().out.lower() or True


def test_import_leaves_scipy_special_unloaded():
    # `sample` and `run` never need it, and it is most of the import time.
    code = "import sys, asuq.cli; print('scipy.special' in sys.modules)"
    env = dict(os.environ,
               PYTHONPATH=str(Path(asuq.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
