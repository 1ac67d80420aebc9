import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import openblas_thread_controls
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asuq
import asuq.active_subspace
import asuq.campaign
import asuq.cli
import asuq.surrogate
import asuq.svgplot
import asuq.uq_analysis
from asuq import load_campaign
from asuq._fileio import write_json
from asuq.campaign import evaluate_campaign, journal_path
from asuq.cli import main
from asuq.param_space import unit_space


def run_cli(*argv):
    return main(list(argv))


def sample(campaign):
    assert run_cli("sample", "-M", "12", "--seed", "7",
                   "--out", str(campaign)) == 0
    return campaign


@pytest.fixture
def sampled(tmp_path):
    return sample(tmp_path / "campaign.json")


@pytest.fixture
def evaluated(sampled):
    assert run_cli("run", "--campaign", str(sampled),
                   "--evaluator", "ridge:cubic-monotone",
                   "--wtrue-seed", "3") == 0
    return sampled


# Space entries that are not an object with a non-empty string name,
# string units and JSON-number min, nominal and max; key None replaces
# the whole entry.
BAD_SPACE_ENTRIES = [
    ("name", None), ("name", 5), ("name", ""), ("units", None),
    ("units", 3), ("min", "0.5"), ("min", False), ("max", True),
    ("nominal", None), ("max", 10 ** 400), (None, 5),
    (None, ["x", 0, 0.5, 1]),
]
BAD_SPACE_ENTRY_IDS = [
    "name-null", "name-int", "name-empty", "units-null", "units-int",
    "min-str", "min-false", "max-true", "nominal-null", "max-huge-int",
    "entry-int", "entry-array",
]


def bad_space_entry(entry, key, value):
    return value if key is None else {**entry, key: value}


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

    def test_infinite_range_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"name": "p", "min": -Infinity, "nominal": 0, '
                       '"max": Infinity}]')
        assert run_cli("space", "validate", "--space", str(bad)) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", BAD_SPACE_ENTRIES,
                             ids=BAD_SPACE_ENTRY_IDS)
    def test_malformed_entry_exits_2(self, tmp_path, key, value, capsys):
        good = {"name": "p", "min": 0, "nominal": 0.5, "max": 1, "units": "m"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{**good, "name": "q"},
                                   bad_space_entry(good, key, value)]))
        campaign = tmp_path / "campaign.json"
        assert run_cli("space", "validate", "--space", str(bad)) == 2
        assert run_cli("sample", "--space", str(bad), "-M", "3", "--seed", "1",
                       "--out", str(campaign)) == 2
        assert capsys.readouterr().err.count("bad parameter entry 1") == 2
        assert not campaign.exists()


class TestSample:
    def test_writes_pending_campaign(self, sampled):
        campaign = load_campaign(sampled)
        assert campaign.m == 7
        assert len(campaign.pending_runs()) == 12

    def test_zero_samples_is_usage_error(self, tmp_path, capsys):
        assert run_cli("sample", "-M", "0", "--seed", "1",
                       "--out", str(tmp_path / "c.json")) == 1
        assert ("argument -M: must be an integer >= 1, got '0'"
                in capsys.readouterr().err)
        assert not (tmp_path / "c.json").exists()

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

    def test_text_condition_stays_a_string_and_reaches_the_evaluator(
            self, tmp_path):
        c = tmp_path / "c.json"
        assert run_cli("sample", "-M", "2", "--seed", "1", "--out", str(c),
                       "--condition", "fuel=H2", "--condition", "P=4.8") == 0
        assert load_campaign(c).condition == {"fuel": "H2", "P": 4.8}
        seen = tmp_path / "seen.jsonl"
        script = tmp_path / "echo.py"
        script.write_text(
            "import json, sys\n"
            "req = json.load(sys.stdin)\n"
            f"open({str(seen)!r}, 'a').write(json.dumps(req['condition']) + '\\n')\n"
            "print(json.dumps({'qoi': 1.0}))\n")
        assert run_cli("run", "--campaign", str(c),
                       "--evaluator", f"{sys.executable} {script}") == 0
        assert [json.loads(ln) for ln in seen.read_text().splitlines()] == \
            [{"P": 4.8, "fuel": "H2"}] * 2

    def test_missing_output_directory_is_a_one_line_error(self, tmp_path,
                                                          capsys):
        out = tmp_path / "nodir" / "c.json"
        assert run_cli("sample", "-M", "3", "--seed", "1",
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_condition_is_usage_error(self, tmp_path, capsys, value):
        # NaN and Infinity are not JSON; every evaluator reads the condition.
        c = tmp_path / "c.json"
        assert run_cli("sample", "-M", "2", "--seed", "1", "--out", str(c),
                       "--condition", "T=300", "--condition", f"P={value}") == 1
        assert "finite" in capsys.readouterr().err
        assert not c.exists()


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

    @pytest.mark.parametrize("command", ["run", "analyze", "range"])
    def test_record_timing_is_gone(self, evaluated, command, monkeypatch):
        # Wall times would break byte-identical reruns of the manifest.
        monkeypatch.chdir(evaluated.parent)
        seed = ["--seed", "1"] if command == "analyze" else []
        argv = [command, "--campaign", str(evaluated), *seed,
                "--evaluator", "ridge:linear", "--wtrue-seed", "3"]
        assert run_cli(*argv) == 0
        assert run_cli(*argv, "--record-timing") == 1

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

    def test_total_failure_exit_code(self, tmp_path, sampled, capsys):
        script = tmp_path / "broken.py"
        script.write_text("import sys\nsys.exit(2)\n")
        capsys.readouterr()
        code = run_cli("run", "--campaign", str(sampled),
                       "--evaluator", f"{sys.executable} {script}")
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: all 12 attempted runs failed (first "
                       "diagnostic: run 0: evaluator exited 2: )\n")
        campaign = load_campaign(sampled)
        assert [(r.status, r.f) for r in campaign.runs] == [("failed", None)] * 12
        assert not journal_path(sampled).exists()

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

    @pytest.mark.parametrize("flags", [
        ["--evaluator", "ridge:linear", "--wtrue-seed", "1", "--noise", bad]
        for bad in ("nan", "inf", "-1")
    ] + [
        ["--evaluator", f"{sys.executable} -c pass", "--timeout", bad]
        for bad in ("0", "-1", "nan", "inf")
    ], ids=["noise-nan", "noise-inf", "noise-neg", "timeout-0", "timeout-neg",
            "timeout-nan", "timeout-inf"])
    def test_bad_noise_or_timeout_exits_1_before_any_run(self, sampled, flags,
                                                         capsys):
        before = sampled.read_bytes()
        assert run_cli("run", "--campaign", str(sampled), *flags) == 1
        assert flags[-2].lstrip("-") in capsys.readouterr().err
        assert sampled.read_bytes() == before

    @pytest.mark.parametrize("field, value", [
        ("space", 5), ("space", None), ("space", "x"), ("space", {"a": 1}),
        ("seed", "x"), ("seed", None), ("seed", 1.5), ("seed", True),
        ("condition", [1, 2]), ("condition", None), ("runs", 5),
        ("runs", {"0": {}}),
    ], ids=["space-int", "space-null", "space-str", "space-object",
            "seed-str", "seed-null", "seed-float", "seed-bool",
            "condition-array", "condition-null", "runs-int", "runs-object"])
    def test_malformed_manifest_exits_2_unchanged(self, sampled, field, value,
                                                  capsys):
        manifest = json.loads(sampled.read_text())
        manifest[field] = value
        sampled.write_text(json.dumps(manifest))
        before = sampled.read_bytes()
        assert run_cli("run", "--campaign", str(sampled),
                       "--evaluator", "ridge:linear", "--wtrue-seed", "1") == 2
        assert f"campaign {field} must be" in capsys.readouterr().err
        assert sampled.read_bytes() == before

    @pytest.mark.parametrize("key, value", BAD_SPACE_ENTRIES,
                             ids=BAD_SPACE_ENTRY_IDS)
    def test_malformed_space_entry_exits_2_unchanged(self, sampled, key,
                                                     value, capsys):
        manifest = json.loads(sampled.read_text())
        manifest["space"][1] = bad_space_entry(manifest["space"][1], key,
                                               value)
        sampled.write_text(json.dumps(manifest))
        before = sampled.read_bytes()
        assert run_cli("run", "--campaign", str(sampled),
                       "--evaluator", "ridge:linear", "--wtrue-seed", "1") == 2
        assert "bad parameter entry 1" in capsys.readouterr().err
        assert sampled.read_bytes() == before

    @pytest.mark.parametrize("key, value", [
        ("index", 0.9), ("index", True), ("index", "0"), ("f", "2.5"),
        ("f", True), ("error", 7),
    ], ids=["index-float", "index-bool", "index-str", "f-str", "f-bool",
            "error-int"])
    def test_malformed_run_record_exits_2_unchanged(self, evaluated, key,
                                                    value, capsys):
        manifest = json.loads(evaluated.read_text())
        manifest["runs"][0][key] = value
        evaluated.write_text(json.dumps(manifest))
        before = evaluated.read_bytes()
        assert run_cli("run", "--campaign", str(evaluated), "--retry-failed",
                       "--evaluator", "ridge:linear", "--wtrue-seed", "1") == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert evaluated.read_bytes() == before

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_manifest_condition_exits_2_unchanged(
            self, sampled, tmp_path, value, capsys):
        # json.dumps writes float("NaN") as the bare token NaN, which
        # Python's json reads back; --condition would have refused it.
        manifest = json.loads(sampled.read_text())
        manifest["condition"] = {"T": 300.0, "a": float(value)}
        sampled.write_text(json.dumps(manifest))
        before = sampled.read_bytes()
        assert value in before.decode()
        marker = tmp_path / "evaluated"
        script = tmp_path / "mark.py"
        script.write_text(f"open({str(marker)!r}, 'w').close()\n"
                          "print('{\"qoi\": 1.0}')\n")
        assert run_cli("run", "--campaign", str(sampled),
                       "--evaluator", f"{sys.executable} {script}") == 2
        assert "campaign condition must hold finite numbers" in \
            capsys.readouterr().err
        assert sampled.read_bytes() == before
        assert not marker.exists() and not journal_path(sampled).exists()

    @pytest.mark.parametrize("key", ["space", "seed", "runs"])
    def test_manifest_missing_a_key_exits_2_unchanged(self, sampled, key,
                                                      capsys):
        manifest = json.loads(sampled.read_text())
        del manifest[key]
        sampled.write_text(json.dumps(manifest))
        before = sampled.read_bytes()
        assert run_cli("run", "--campaign", str(sampled),
                       "--evaluator", "ridge:linear", "--wtrue-seed", "1") == 2
        assert f"campaign manifest missing '{key}'" in capsys.readouterr().err
        assert sampled.read_bytes() == before

    @pytest.mark.parametrize("field, value", [("status", "Done"),
                                              ("role", "bogus")])
    def test_unknown_status_or_role_exits_2(self, sampled, field, value,
                                            capsys):
        manifest = json.loads(sampled.read_text())
        manifest["runs"][3][field] = value
        sampled.write_text(json.dumps(manifest))
        assert run_cli("run", "--campaign", str(sampled),
                       "--evaluator", "ridge:linear", "--wtrue-seed", "1") == 2
        assert repr(value) in capsys.readouterr().err

    def test_unknown_campaign_path(self, tmp_path):
        assert run_cli("run", "--campaign", str(tmp_path / "nope.json"),
                       "--evaluator", "ridge:linear", "--wtrue-seed", "1") == 2


class TestMalformedRunPoints:
    """A run's x or p that is not m finite numbers is exit 2 on load.

    So is an x outside [-1, 1]. In the manifest or in a journal line, the
    command stops before any evaluator runs or any report or campaign
    file is written.
    """

    CASES = {
        "done-x-cut": ("done", "x", lambda v: v[:3]),
        "pending-x-cut": ("pending", "x", lambda v: v[:3]),
        "pending-p-cut": ("pending", "p", lambda v: v[:3]),
        "pending-x-nan": ("pending", "x", lambda v: [math.nan, *v[1:]]),
        "pending-p-nan": ("pending", "p", lambda v: [math.nan, *v[1:]]),
        "pending-x-string": ("pending", "x", lambda v: ["0.5", *v[1:]]),
        "pending-p-nested": ("pending", "p", lambda v: [v]),
        "done-x-outside": ("done", "x", lambda v: [-1.5, *v[1:]]),
        "pending-x-outside": ("pending", "x", lambda v: [*v[:6], 1.0001]),
    }

    @pytest.mark.parametrize("where", ["manifest", "journal"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_2_before_any_evaluation_or_report(self, request, tmp_path,
                                                     case, where, capsys):
        status, key, cut = self.CASES[case]
        campaign = request.getfixturevalue(
            "evaluated" if status == "done" else "sampled")
        work = tmp_path / "work"
        work.mkdir()
        marker = work / "evaluated"
        script = work / "mark.py"
        script.write_text(f"open({str(marker)!r}, 'w').close()\n"
                          "print('{\"qoi\": 1.0}')\n")
        manifest = json.loads(campaign.read_text())
        record = manifest["runs"][3]
        record[key] = cut(record[key])
        if where == "manifest":
            campaign.write_text(json.dumps(manifest))
        else:
            journal_path(campaign).write_text(json.dumps(record) + "\n")
        files = {p: p.read_bytes() for p in campaign.parent.iterdir()
                 if p.is_file()}
        evaluator = ["--evaluator", f"{sys.executable} {script}"]
        if status == "done":
            argv = ["analyze", "--campaign", str(campaign), "--seed", "1",
                    "--out", str(work / "out"), "--corners", *evaluator]
        else:
            argv = ["run", "--campaign", str(campaign), *evaluator]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert f"run 3: {key} must hold 7 finite numbers" in err
        if where == "journal":
            assert f"{journal_path(campaign)}:1: bad journal line" in err
        assert {p: p.read_bytes() for p in campaign.parent.iterdir()
                if p.is_file()} == files
        assert sorted(p.name for p in work.iterdir()) == ["mark.py"]


# Evaluator for the kill-and-resume tests: the first time it sees the run
# named by argv[1] (guarded by the marker file argv[2]) it either SIGKILLs
# its parent, the `asuq run` process, or, like a terminal Ctrl-C, sends
# SIGINT to the whole process group (argv[3] is "kill" or "sigint").
KILLER = """\
import json, os, signal, sys
kill_at, marker, how = int(sys.argv[1]), sys.argv[2], sys.argv[3]
req = json.load(sys.stdin)
if req["index"] == kill_at and not os.path.exists(marker):
    open(marker, "w").close()
    if how == "sigint":
        os.killpg(0, signal.SIGINT)
    else:
        os.kill(os.getppid(), signal.SIGKILL)
    sys.exit(1)
values = list(req["params"].values())
print(json.dumps({"qoi": sum((i + 1) * v for i, v in enumerate(values))}))
"""


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir()
                  if p.suffix in (".journal", ".tmp"))


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The manifest an uninterrupted `asuq run` with KILLER writes.

    No run has index -1, so this evaluator kills nothing.
    """
    tmp_path = tmp_path_factory.mktemp("uninterrupted")
    script = tmp_path / "killer.py"
    script.write_text(KILLER)
    fresh = sample(tmp_path / "fresh.json")
    assert run_cli("run", "--campaign", str(fresh), "--evaluator",
                   f"{sys.executable} {script} -1 {tmp_path / 'killed'} "
                   f"kill") == 0
    return fresh.read_bytes()


class TestJournal:
    RIDGE = ["--evaluator", "ridge:cubic-monotone", "--wtrue-seed", "3"]

    def killer_run(self, tmp_path, campaign, kill_at, concurrency="1",
                   how="kill"):
        """`asuq run` in a subprocess whose evaluator kills it at run kill_at.

        The subprocess leads its own process group, so a group SIGINT
        reaches it and its evaluators but not the test runner.
        """
        script = tmp_path / "killer.py"
        script.write_text(KILLER)
        evaluator = (f"{sys.executable} {script} {kill_at} "
                     f"{tmp_path / 'killed'} {how}")
        argv = [sys.executable, "-m", "asuq.cli", "run", "--campaign",
                str(campaign), "--evaluator", evaluator,
                "--max-concurrency", concurrency]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(asuq.__file__).resolve().parents[1]))
        # SIGINT at its default action, so that `asuq run` turns it into
        # KeyboardInterrupt even when the test runner itself ignores it (a
        # background job of a non-interactive shell does).
        return subprocess.run(argv, env=env, capture_output=True, timeout=120,
                              start_new_session=True,
                              preexec_fn=lambda: signal.signal(
                                  signal.SIGINT, signal.SIG_DFL))

    # Hypothesis draws the run at which the evaluator kills `asuq run`; both
    # concurrencies and both signals run on every draw. Each example costs
    # two `asuq run` processes and up to 24 evaluator processes, about 1.3 s.
    @pytest.mark.parametrize("concurrency", ["1", "2"])
    @settings(max_examples=4, deadline=None)
    @given(kill_at=st.integers(0, 11))
    def test_kill_and_resume_matches_uninterrupted(self, uninterrupted,
                                                   concurrency, kill_at):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            sampled = sample(tmp_path / "campaign.json")
            killed = self.killer_run(tmp_path, sampled, kill_at, concurrency)
            assert killed.returncode == -9
            partial = load_campaign(sampled)
            done = len(partial.done_runs())
            assert done < 12 and partial.runs[kill_at].status == "pending"
            # A kill before the first recorded run leaves no journal.
            assert journal_path(sampled).exists() == (done > 0)

            resumed = self.killer_run(tmp_path, sampled, kill_at, concurrency)
            assert resumed.returncode == 0, resumed.stderr
            assert leftovers(tmp_path) == []
            assert sampled.read_bytes() == uninterrupted

    @pytest.mark.parametrize("concurrency", ["1", "2"])
    @settings(max_examples=4, deadline=None)
    @given(kill_at=st.integers(0, 11))
    def test_ctrl_c_leaves_unfinished_runs_pending(self, uninterrupted,
                                                   concurrency, kill_at):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            sampled = sample(tmp_path / "campaign.json")
            interrupted = self.killer_run(tmp_path, sampled, kill_at,
                                          concurrency, how="sigint")
            assert interrupted.returncode == -signal.SIGINT
            partial = load_campaign(sampled)
            assert partial.failed_runs() == []
            assert partial.runs[kill_at].status == "pending"
            done = len(partial.done_runs())
            assert b"Traceback" not in interrupted.stderr
            assert f"{done} done, 0 failed, {12 - done} pending".encode() \
                in interrupted.stderr

            resumed = self.killer_run(tmp_path, sampled, kill_at,
                                      concurrency, how="sigint")
            assert resumed.returncode == 0, resumed.stderr
            assert leftovers(tmp_path) == []
            assert sampled.read_bytes() == uninterrupted

    def test_torn_line_run_is_rerun(self, tmp_path, sampled, uninterrupted):
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
        killed = self.killer_run(tmp_path, sampled, 8)
        assert killed.returncode == -9
        partial = load_campaign(sampled)
        assert [r.index for r in partial.done_runs()] == list(range(8))

        resumed = self.killer_run(tmp_path, sampled, 8)
        assert resumed.returncode == 0, resumed.stderr
        assert leftovers(tmp_path) == []
        assert sampled.read_bytes() == uninterrupted

    @pytest.mark.parametrize("command", ["run", "analyze"])
    def test_malformed_journal_line_exits_2(self, sampled, command, capsys):
        journal_path(sampled).write_text('{"index": 0, "x": [\n')
        extra = ["--seed", "1"] if command == "analyze" else []
        assert run_cli(command, "--campaign", str(sampled), *extra,
                       *self.RIDGE) == 2
        assert "journal" in capsys.readouterr().err

    def test_usage_error_leaves_the_journal_unfolded(self, sampled, capsys):
        campaign = load_campaign(sampled)
        rec = campaign.runs[0]
        rec.status, rec.f = "done", 1.0
        asuq.campaign.append_run(sampled, rec)
        files = {p: p.read_bytes() for p in sampled.parent.iterdir()}
        assert run_cli("run", "--campaign", str(sampled)) == 1
        assert "an --evaluator is required" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in sampled.parent.iterdir()} == files

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
        save = asuq.campaign.save_campaign
        monkeypatch.setattr(asuq.campaign, "save_campaign",
                            lambda *a: calls.append(a) or save(*a))
        assert run_cli("run", "--campaign", str(campaign), *self.RIDGE) == 0
        assert len(calls) <= 2
        assert len(load_campaign(campaign).done_runs()) == 60

    def test_analyze_fits_each_stage_once(self, evaluated, tmp_path,
                                          monkeypatch):
        calls = []
        # Patched in the layer modules, so a refit inside
        # bootstrap_direction is counted too.
        for module, name in ((asuq.active_subspace, "fit_active_direction"),
                             (asuq.active_subspace, "summary_data"),
                             (asuq.surrogate, "fit_quadratic")):
            def counted(*a, _real=getattr(module, name), _name=name, **kw):
                calls.append(_name)
                return _real(*a, **kw)
            monkeypatch.setattr(module, name, counted)
        assert run_cli("analyze", "--campaign", str(evaluated),
                       "--out", str(tmp_path / "a"), "--seed", "2",
                       "--bootstrap", "5", "--threshold", "1", "--corners",
                       "--cdf", "--n", "300", "--svg", *self.RIDGE) == 0
        assert calls.count("fit_active_direction") == 1
        assert calls.count("summary_data") == 1
        assert calls.count("fit_quadratic") <= 1

    REPORTS = ["results.json", "summary.csv", "surrogate.json", "range.json",
               "safeset.json", "cdf.csv", "summary.svg", "cdf.svg"]

    @pytest.mark.parametrize("target", REPORTS)
    def test_failed_report_rename_keeps_the_old_report(self, evaluated,
                                                       tmp_path, monkeypatch,
                                                       capsys, target):
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
        capsys.readouterr()
        assert run_cli(*argv, "--seed", "3") == 2
        assert capsys.readouterr().err == "error: injected rename failure\n"
        assert (out / target).read_bytes() == before[target]
        assert leftovers(out) == [] and leftovers(tmp_path) == []

    # The sample rows do not depend on --seed, so the csv writer fails in
    # its bootstrap rows; the plot's first scatter call is the cloud.
    @pytest.mark.parametrize("module, formatter, target, fails", [
        (asuq.cli, "_summary_rows", "summary.csv",
         lambda ys, f, source: source == "bootstrap"),
        (asuq.svgplot, "_circles", "summary.svg", lambda *args: True),
    ], ids=["csv", "svg"])
    def test_formatter_failure_mid_write_keeps_the_old_report(
            self, evaluated, tmp_path, monkeypatch, module, formatter, target,
            fails):
        # The streamed reports are formatted inside atomic_open: a formatter
        # that fails after its first chunk leaves the old file and no .tmp.
        out = tmp_path / "out"
        argv = ["analyze", "--campaign", str(evaluated), "--out", str(out),
                "--bootstrap", "5", "--svg", *self.RIDGE]
        assert run_cli(*argv, "--seed", "2") == 0
        before = {name: (out / name).read_bytes()
                  for name in ("summary.csv", "summary.svg")}
        real = getattr(module, formatter)
        written = []

        def fails_after_one_chunk(*args, **kwargs):
            chunks = real(*args, **kwargs)
            if not fails(*args, **kwargs):
                yield from chunks
                return
            written.append(next(chunks))
            yield written[-1]
            raise RuntimeError("injected formatter failure")

        monkeypatch.setattr(module, formatter, fails_after_one_chunk)
        with pytest.raises(RuntimeError, match="injected"):
            run_cli(*argv, "--seed", "3")
        assert written and written[0] not in before[target].decode()
        assert (out / target).read_bytes() == before[target]
        if target == "summary.csv":  # the plot comes after the table
            assert (out / "summary.svg").read_bytes() == before["summary.svg"]
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

    def test_out_naming_a_file_is_a_one_line_error(self, evaluated, tmp_path,
                                                   capsys):
        out = tmp_path / "reports"
        out.write_text("not a directory\n")
        before = evaluated.read_bytes()
        assert run_cli("analyze", "--campaign", str(evaluated),
                       "--out", str(out), "--seed", "11") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 17] ")
        assert captured.err.count("\n") == 1
        assert out.read_text() == "not a directory\n"
        assert evaluated.read_bytes() == before

    def test_summary_csv_equals_the_one_shot_writer(self, evaluated, tmp_path,
                                                    monkeypatch):
        # 40 replicates of 12 samples: the row writer against the loop over
        # the whole (N*M, 2) cloud it replaced.
        captured = []
        bootstrap = asuq.active_subspace.bootstrap_direction

        def capture(*args, **kwargs):
            captured.append(bootstrap(*args, **kwargs))
            return captured[-1]

        monkeypatch.setattr(asuq.active_subspace, "bootstrap_direction",
                            capture)
        out = tmp_path / "out"
        assert run_cli("analyze", "--campaign", str(evaluated), "--out",
                       str(out), "--seed", "4", "--bootstrap", "40") == 0
        (replicates,) = captured
        X, f = load_campaign(evaluated).design_arrays()
        summary = asuq.summary_data(X, f, asuq.fit_active_direction(X, f))
        ys = X @ replicates.T
        cloud = np.column_stack([ys.ravel(order="F"),
                                 np.tile(f, len(replicates))])
        reference = ["y,f,source\n"]
        for yv, fv in zip(summary.y.tolist(), f.tolist()):
            reference.append(f"{yv!r},{fv!r},sample\n")
        for yv, fv in zip(cloud[:, 0].tolist(), cloud[:, 1].tolist()):
            reference.append(f"{yv!r},{fv!r},bootstrap\n")
        assert len(cloud) == 40 * 12
        assert (out / "summary.csv").read_text() == "".join(reference)

    def test_summary_rows_hold_one_row_at_a_time(self):
        # A (1000, 200) cloud, transposed as cmd_analyze forms it. Its
        # 200 000 projections as Python floats, a whole-matrix tolist(),
        # peak at 6.2 MiB; one row's text is about 10 kB.
        rng = np.random.default_rng(5)
        ys, f = rng.normal(size=(200, 1000)).T, rng.normal(size=200)
        tracemalloc.start()
        try:
            rows = sum(1 for _ in asuq.cli._summary_rows(ys, f, "bootstrap"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 1000
        assert peak < 2 ** 20

    def test_summary_rows_peak_of_a_long_row(self):
        # One row of 200 000 projections is formatted in one call: its
        # floats, their tuple and the row's text, 23 MiB here. A repr and
        # a concatenated string per point, with the joined row, took
        # 46 MiB.
        rng = np.random.default_rng(6)
        ys, f = rng.normal(size=(1, 200_000)), rng.normal(size=200_000)
        tracemalloc.start()
        try:
            rows = sum(1 for _ in asuq.cli._summary_rows(ys, f, "bootstrap"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 1
        assert peak < 32 * 2 ** 20

    # A signed zero, the least subnormal, reprs in exponent form at 1e-05
    # and 1e16, an even integer beyond 2**53 and a 17-digit fraction.
    EDGE_ROW = [-0.0, 5e-324, 1e-05, 1e16, 2.0 ** 53 + 2, 1 / 3]

    @settings(max_examples=200, deadline=None)
    @given(cloud=st.integers(1, 6).flatmap(lambda m: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=m, max_size=m), min_size=2, max_size=4)))
    @example(cloud=[EDGE_ROW, EDGE_ROW[::-1], EDGE_ROW])
    def test_summary_rows_of_edge_floats_equal_the_per_point_text(self,
                                                                  cloud):
        f, ys = cloud[0], cloud[1:]
        reference = "".join(f"{y!r},{fv!r},bootstrap\n"
                            for row in ys for y, fv in zip(row, f))
        text = "".join(asuq.cli._summary_rows(np.array(ys), np.array(f),
                                              "bootstrap"))
        assert text == reference

    @pytest.mark.parametrize("flags, module, first_stage", [
        (["--corners", "--threshold", "0.5", "--cdf", "--svg",
          "--evaluator", "ridge:cubic-monotone", "--wtrue-seed", "3"],
         asuq.campaign, "evaluate_campaign"),
        (["--threshold", "0.5", "--cdf"], asuq.uq_analysis,
         "invert_safe_set"),
    ], ids=["corners-svg", "threshold"])
    def test_bootstrap_freed_before_the_stages(self, evaluated, tmp_path,
                                               monkeypatch, flags, module,
                                               first_stage):
        # No gc.collect(): reference counting alone must have freed the
        # ensemble (and the cloud and results built from it) once its
        # reports are written, before the first stage runs.
        ensembles = []
        bootstrap = asuq.active_subspace.bootstrap_direction

        def keep_weakref(*args, **kwargs):
            ensemble = bootstrap(*args, **kwargs)
            ensembles.append(weakref.ref(ensemble))
            return ensemble

        out = tmp_path / "out"
        seen = []
        stage = getattr(module, first_stage)

        def check_freed(*args, **kwargs):
            seen.append((ensembles[0]() is None,
                         (out / "summary.svg").exists()))
            return stage(*args, **kwargs)

        monkeypatch.setattr(asuq.active_subspace, "bootstrap_direction",
                            keep_weakref)
        monkeypatch.setattr(module, first_stage, check_freed)
        assert run_cli("analyze", "--campaign", str(evaluated), "--out",
                       str(out), "--seed", "4", "--bootstrap", "40",
                       "--n", "300", *flags) == 0
        assert len(ensembles) == 1
        assert seen[0] == (True, "--svg" in flags)

    def test_output_dir_from_environment(self, evaluated, tmp_path,
                                         monkeypatch):
        out = tmp_path / "from-env"
        monkeypatch.setenv("ASUQ_OUTPUT_DIR", str(out))
        monkeypatch.chdir(tmp_path)
        assert run_cli("analyze", "--campaign", str(evaluated),
                       "--seed", "1", "--bootstrap", "5") == 0
        assert json.loads((out / "results.json").read_text())["M"] == 12
        assert not (tmp_path / "results.json").exists()

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

    def test_no_completed_runs_is_data_error(self, sampled, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("analyze", "--campaign", str(sampled),
                       "--out", str(out), "--seed", "1") == 2
        assert "campaign has no completed runs" in capsys.readouterr().err
        assert not out.exists()

    def test_insufficient_runs_is_degeneracy(self, tmp_path, capsys):
        campaign = tmp_path / "small.json"
        run_cli("sample", "-M", "4", "--seed", "1", "--out", str(campaign))
        run_cli("run", "--campaign", str(campaign),
                "--evaluator", "ridge:linear", "--wtrue-seed", "2")
        capsys.readouterr()
        # The fit's DegeneracyError is the one report: no warning precedes
        # it, and no output directory is left behind.
        out = tmp_path / "o"
        code = run_cli("analyze", "--campaign", str(campaign),
                       "--out", str(out), "--seed", "1")
        assert code == 3
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: M=4 samples cannot determine ")
        assert "M >= m+1 = 8" in line


class TestStandaloneReports:
    def test_range_command(self, evaluated, tmp_path):
        out = tmp_path / "rr"
        assert run_cli("range", "--campaign", str(evaluated), "--out", str(out),
                       "--evaluator", "ridge:cubic-monotone",
                       "--wtrue-seed", "3") == 0
        assert (out / "range.json").exists()

    def test_range_command_reports_a_discordant_ordering(self, tmp_path,
                                                        capsys):
        # A quadratic ridge is not monotone in the active variable, so its
        # summary ordering has discordant pairs.
        campaign = tmp_path / "quadratic.json"
        ridge = ["--evaluator", "ridge:quadratic", "--wtrue-seed", "1"]
        run_cli("sample", "-M", "30", "--seed", "2", "--out", str(campaign))
        run_cli("run", "--campaign", str(campaign), *ridge)
        capsys.readouterr()
        out = tmp_path / "rq"
        assert run_cli("range", "--campaign", str(campaign), *ridge,
                       "--out", str(out)) == 0
        report = json.loads((out / "range.json").read_text())
        assert report["monotone_caveat"] is True
        assert report["corner_errors"] is None
        assert "monotone_caveat=True" in capsys.readouterr().out

    def test_range_command_corner_failure(self, evaluated, tmp_path):
        script = tmp_path / "dead.py"
        script.write_text("import sys\nsys.exit(1)\n")
        out = tmp_path / "rf"
        assert run_cli("range", "--campaign", str(evaluated), "--out", str(out),
                       "--evaluator", f"{sys.executable} {script}") == 4
        report = json.loads((out / "range.json").read_text())
        assert report["f_min"] is None and report["f_max"] is None
        assert report["corner_errors"]

    def test_analyze_corner_failure_exits_4_after_every_stage(
            self, evaluated, tmp_path, capsys):
        script = tmp_path / "dead.py"
        script.write_text("import sys\nsys.exit(1)\n")
        out = tmp_path / "af"
        assert run_cli("analyze", "--campaign", str(evaluated), "--out",
                       str(out), "--seed", "2", "--bootstrap", "5",
                       "--corners", "--evaluator", f"{sys.executable} {script}",
                       "--threshold", "1.0", "--cdf", "--n", "300") == 4
        assert "corner evaluation failed" in capsys.readouterr().err
        for name in ("range.json", "safeset.json", "cdf.csv"):
            assert (out / name).is_file(), name

    @pytest.mark.parametrize("failing, errors", [
        ([13], {"at_x_max": "run 13"}),
        ([12, 13], {"at_x_min": "run 12", "at_x_max": "run 13"}),
    ], ids=["one", "both"])
    def test_corner_failures_keep_their_own_diagnostic(
            self, evaluated, tmp_path, monkeypatch, failing, errors):
        # Both corners (runs 12 and 13) go to the evaluator in one call; each
        # failed one reports what evaluating it alone reported.
        script = tmp_path / "corners.py"
        script.write_text(
            "import json, sys\n"
            "req = json.load(sys.stdin)\n"
            f"if req['index'] in {failing}:\n"
            "    sys.exit(f\"no qoi for run {req['index']}\")\n"
            "print(json.dumps({'qoi': 1.0}))\n"
        )
        calls = []

        def counted(campaign, evaluator, **kw):
            calls.append((kw["max_concurrency"], [r.index for r in kw["runs"]]))
            return evaluate_campaign(campaign, evaluator, **kw)

        monkeypatch.setattr(asuq.campaign, "evaluate_campaign", counted)
        out = tmp_path / "rf"
        assert run_cli("range", "--campaign", str(evaluated), "--out", str(out),
                       "--evaluator", f"{sys.executable} {script}") == 4
        assert calls == [(2, [12, 13])]
        report = json.loads((out / "range.json").read_text())
        assert report["corner_errors"] == {
            key: f"all 1 attempted runs failed (first diagnostic: {run}: "
                 f"evaluator exited 1: no qoi for {run})"
            for key, run in errors.items()}
        assert report["f_min"] == (1.0 if len(failing) == 1 else None)
        assert report["f_max"] is None
        assert report["validated"] is False and report["inverted"] is False
        corners = load_campaign(evaluated).runs[12:]
        assert [(r.index, r.role, r.status) for r in corners] == [
            (12, "corner", "failed" if 12 in failing else "done"),
            (13, "corner", "failed")]

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

    def test_analyze_prints_the_standalone_stage_lines(self, evaluated,
                                                       tmp_path, capsys):
        # One --out for all, so the cdf line names the same file.
        common = ["--campaign", str(evaluated), "--out", str(tmp_path / "o")]
        ridge = ["--evaluator", "ridge:cubic-monotone", "--wtrue-seed", "3"]
        standalone = ""
        for argv in (["range", *ridge], ["safeset", "--threshold", "1.0"],
                     ["cdf", "--n", "300", "--seed", "9"]):
            assert run_cli(*argv, *common) == 0
            standalone += capsys.readouterr().out
        assert standalone.count("\n") > 3
        assert run_cli("analyze", *common, "--seed", "9", "--bootstrap", "10",
                       "--corners", *ridge, "--threshold", "1.0",
                       "--cdf", "--n", "300") == 0
        assert capsys.readouterr().out.endswith(
            "discordant pairs in summary ordering: 0\n" + standalone)

    @pytest.mark.parametrize("grid_size", ["-1", "0", "1"])
    def test_cdf_too_small_grid_is_usage_error(self, evaluated, tmp_path,
                                               grid_size, capsys):
        out = tmp_path / "cc"
        assert run_cli("cdf", "--campaign", str(evaluated), "--n", "300",
                       "--seed", "9", "--grid-size", grid_size,
                       "--out", str(out)) == 1
        assert ("argument --grid-size: must be an integer >= 2, got "
                f"'{grid_size}'") in capsys.readouterr().err
        assert not out.exists()


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

    def test_negative_first_coordinate_takes_the_equals_form(self, capsys):
        # "--x -1,..." reads as a flag; "--x=-1,..." is the point.
        from asuq.hyshot import build_inflow

        assert run_cli("scenario", "inflow", "--x=-1,0,0,0,0,0,0") == 0
        params = json.loads(capsys.readouterr().out)
        space = asuq.hyshot_space()
        low = build_inflow([-1.0, 0, 0, 0, 0, 0, 0], space)
        assert params == low.to_params()
        assert params["P_Pa"] == pytest.approx(
            1.16e-4 * space.params[0].min * 1e6, rel=1e-12)

    def test_inflow_point_outside_the_cube_is_data_error(self, capsys):
        assert run_cli("scenario", "inflow", "--x", "1.5,0,0,0,0,0,0") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: normalized coordinate Stagnation Pressure = "
                       "1.5 must lie in [-1, 1]\n")

    def test_inflow_requires_point(self):
        assert run_cli("scenario", "inflow") == 1

    def test_shots_fit_refuses_a_nan_row(self, tmp_path, capsys):
        shots = tmp_path / "shots.csv"
        shots.write_text("id,P0_bar,T0_K,H0_MJkg,PH2_bar,phi,excluded\n"
                         "1,178.0,2742,3.25,,,0\n2,181.0,nan,3.30,,,0\n"
                         "3,175.0,2716,3.21,,,0\n")
        assert run_cli("scenario", "shots-fit", "--shots", str(shots)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "shot 2: P0, T0, H0 must be finite and positive" in err

    def test_shots_fit_refuses_an_excluded_flag_other_than_0_or_1(
            self, tmp_path, capsys):
        shots = tmp_path / "shots.csv"
        shots.write_text("id,P0_bar,T0_K,H0_MJkg,PH2_bar,phi,excluded\n"
                         "1,178.0,2742,3.25,,,0\n2,181.0,2780,3.30,,,2\n"
                         "3,175.0,2716,3.21,,,0\n4,179.0,2760,3.28,,,-1\n")
        assert run_cli("scenario", "shots-fit", "--shots", str(shots)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "row 3: excluded must be 0 or 1, got 2" in err

    def test_check_runs_clean(self, capsys):
        assert run_cli("scenario", "check") == 0
        out = capsys.readouterr().out
        assert "area ratio" in out
        assert "transition range" in out


class TestEndToEnd:
    def test_pipeline_byte_identical(self, tmp_path):
        digests = []
        for tag, concurrency in (("one", "1"), ("two", "2")):
            work = tmp_path / tag
            work.mkdir()
            campaign = work / "campaign.json"
            assert run_cli("sample", "-M", "10", "--seed", "21",
                           "--out", str(campaign)) == 0
            assert run_cli("run", "--campaign", str(campaign),
                           "--max-concurrency", concurrency,
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

    @pytest.mark.parametrize("argv", [
        ["sample", "-M", "12", "--out", "{tmp}/new.json", "--seed"],
        ["run", "--campaign", "{campaign}", "--retry-failed",
         "--evaluator", "ridge:linear", "--wtrue-seed"],
        ["analyze", "--campaign", "{campaign}", "--out", "{tmp}/out",
         "--cdf", "--seed"],
        ["analyze", "--campaign", "{campaign}", "--out", "{tmp}/out",
         "--seed", "5", "--corners", "--evaluator", "ridge:linear",
         "--wtrue-seed"],
        ["range", "--campaign", "{campaign}", "--out", "{tmp}/out",
         "--evaluator", "ridge:linear", "--wtrue-seed"],
        ["cdf", "--campaign", "{campaign}", "--out", "{tmp}/out", "--seed"],
    ], ids=["sample", "run-wtrue", "analyze", "analyze-wtrue", "range-wtrue",
            "cdf"])
    def test_negative_seed_is_usage_error(self, evaluated, tmp_path, capsys,
                                          argv):
        argv = [a.format(tmp=tmp_path, campaign=evaluated) for a in argv]
        files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run_cli(*argv, "-1") == 1
        err = capsys.readouterr().err
        assert (f"argument {argv[-1]}: a seed must be a non-negative "
                f"integer, got '-1'") in err
        assert "Traceback" not in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == files

    @pytest.mark.parametrize("argv", [
        ["analyze", "--seed", "5", "--level", "1.5"],
        ["analyze", "--seed", "5", "--threshold", "1", "--level", "nan"],
        ["analyze", "--seed", "5", "--level", "0.5"],
        ["analyze", "--seed", "5", "--level", "1"],
        ["analyze", "--seed", "5", "--threshold", "inf"],
        ["analyze", "--seed", "5", "--threshold", "nan"],
        ["analyze", "--seed", "5", "--threshold=-inf"],
        ["analyze", "--seed", "5", "--cdf", "--n", "1"],
        ["analyze", "--seed", "5", "--cdf", "--n-cdf", "0"],
        ["analyze", "--seed", "5", "--bootstrap", "0"],
        ["analyze", "--seed", "5", "--bootstrap", "2.5"],
        ["safeset", "--threshold", "1", "--level", "nan"],
        ["safeset", "--threshold", "inf"],
        ["cdf", "--seed", "9", "--n", "1"],
        ["cdf", "--seed", "9", "--grid-size", "x"],
    ] + [
        ["analyze", "--seed", "5", "--corners", "--evaluator", "ridge:linear",
         "--wtrue-seed", "1", "--noise", bad] for bad in ("nan", "inf", "-1")
    ] + [
        ["range", "--evaluator", f"{sys.executable} -c pass", "--timeout", bad]
        for bad in ("0", "-1", "nan", "inf")
    ] + [
        # No run is pending, so the command would do nothing but succeed.
        ["run", "--evaluator", "ridge:linear", "--wtrue-seed", "1",
         "--max-concurrency", bad] for bad in ("0", "-2", "1.5")
    ], ids=lambda argv: "_".join(argv[:1] + argv[-2:]).replace("=", "_"))
    def test_out_of_range_flag_is_usage_error(self, evaluated, tmp_path,
                                              capsys, argv):
        # Refused while parsing: no report is written before the error,
        # and the campaign is left as it was.
        files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        out = [] if argv[0] == "run" else ["--out", str(tmp_path / "out")]
        assert run_cli(*argv, "--campaign", str(evaluated), *out) == 1
        err = capsys.readouterr().err
        flag = next(a for a in reversed(argv)
                    if a.startswith("--")).split("=")[0]
        assert "Traceback" not in err
        assert flag in err.split("argument ")[1].split(": ")[0].split("/")
        assert not (tmp_path / "out").exists()
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == files

    @pytest.mark.parametrize("argv", [
        ["sample", "--space", "missing.json", "--condition", "bad", "-M", "2",
         "--seed", "1", "--out", "c.json"],
        ["sample", "--condition", "=5", "-M", "2", "--seed", "1",
         "--out", "c.json"],
        ["sample", "--condition", "=", "-M", "2", "--seed", "1",
         "--out", "c.json"],
        ["scenario", "inflow", "--x", "nan,0,0,0,0,0,0"],
        ["scenario", "inflow", "--nominal", "--x", "0,0,0,0,0,0,0"],
        ["scenario", "inflow", "--space", "missing.json", "--x", "a,b"],
    ], ids=["condition", "condition-empty-key", "condition-empty",
            "x-nan", "nominal-and-x", "x-text"])
    def test_bad_point_or_condition_is_refused_while_parsing(
            self, tmp_path, monkeypatch, capsys, argv):
        # Exit 1 before any file is read: missing.json is never opened.
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: asuq ") and ": argument --" in err
        assert list(tmp_path.iterdir()) == []

    def test_unbalanced_quote_in_evaluator_is_usage_error(self, sampled,
                                                          tmp_path, capsys):
        bad = ["--evaluator", f"{sys.executable} 'oops"]
        before = sampled.read_bytes()
        assert run_cli("run", "--campaign", str(sampled), *bad) == 1
        assert "No closing quotation" in capsys.readouterr().err
        assert sampled.read_bytes() == before
        assert not journal_path(sampled).exists()
        assert run_cli("run", "--campaign", str(sampled), "--evaluator",
                       "ridge:linear", "--wtrue-seed", "1") == 0
        before = sampled.read_bytes()
        out = tmp_path / "out"
        assert run_cli("analyze", "--campaign", str(sampled), "--out", str(out),
                       "--seed", "5", "--corners", *bad) == 1
        err = capsys.readouterr().err
        assert "No closing quotation" in err and "Traceback" not in err
        assert sampled.read_bytes() == before
        assert not out.exists()
        assert not journal_path(sampled).exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("analyze", ["--seed", "5", "--corners"], "an --evaluator is required"),
        ("analyze", ["--seed", "5", "--corners", "--evaluator",
                     "ridge:linear"], "--wtrue-seed is required"),
        ("range", [], "an --evaluator is required"),
        ("range", ["--evaluator", "ridge:linear"], "--wtrue-seed is required"),
    ], ids=["analyze-evaluator", "analyze-wtrue", "range-evaluator",
            "range-wtrue"])
    def test_missing_evaluator_flag_writes_no_report(self, evaluated, tmp_path,
                                                     capsys, command, flags,
                                                     message):
        before = evaluated.read_bytes()
        out = tmp_path / "out"
        assert run_cli(command, "--campaign", str(evaluated), "--out",
                       str(out), *flags) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert evaluated.read_bytes() == before

    @pytest.mark.parametrize("python_flags", [[], ["-u"]],
                             ids=["buffered", "unbuffered"])
    def test_closed_stdout_changes_no_report(self, evaluated, tmp_path,
                                             python_flags):
        # `asuq analyze ... | head -2` once head has exited: standard output
        # is a pipe whose read end is closed. Unbuffered, the first line
        # fails; buffered, a later flush does.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(asuq.__file__).resolve().parents[1]))

        def analyze(name, stdout):
            campaign = tmp_path / f"{name}.json"
            campaign.write_bytes(evaluated.read_bytes())
            proc = subprocess.run(
                [sys.executable, *python_flags, "-m", "asuq.cli", "analyze",
                 "--campaign", str(campaign), "--out", str(tmp_path / name),
                 "--seed", "5", "--bootstrap", "20", "--threshold", "0",
                 "--cdf", "--n", "300", "--svg", "--corners", "--evaluator",
                 "ridge:cubic-monotone", "--wtrue-seed", "3"],
                stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120)
            files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
            return proc, files, campaign.read_bytes()

        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            closed, closed_files, closed_campaign = analyze("closed", write_end)
        finally:
            os.close(write_end)
        read, files, campaign = analyze("read", subprocess.PIPE)
        assert read.stdout.count("\n") > 10
        assert closed.returncode == read.returncode == 0
        assert "Traceback" not in closed.stderr
        assert "BrokenPipe" not in closed.stderr
        assert len(files) == 8 and closed_files == files
        assert closed_campaign == campaign

    def test_every_subcommand_keeps_its_options(self):
        # Each option as "strings[!][=default]", "!" marking a required one.
        def subcommands(parser, prefix=""):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        yield f"{prefix}{name}", sub
                        yield from subcommands(sub, f"{prefix}{name} ")

        def describe(action):
            default = action.default
            return ("/".join(action.option_strings)
                    + ("!" if action.required else "")
                    + ("" if default in (None, argparse.SUPPRESS)
                       else f"={default}"))

        options = {name: sorted(describe(a) for a in sub._actions
                                if a.option_strings)
                   for name, sub in subcommands(asuq.cli.build_parser())}
        evaluator = ["--evaluator", "--noise=0.0", "--timeout", "--wtrue-seed"]
        assert options == {
            "space": ["-h/--help"],
            "space validate": ["--space", "-h/--help"],
            "sample": ["--condition", "--out!", "--seed!", "--space", "-M!",
                       "-h/--help"],
            "run": sorted(["--campaign!", "--max-concurrency=1",
                           "--retry-failed=False", "-h/--help", *evaluator]),
            "analyze": sorted([
                "--bootstrap=100", "--campaign!", "--cdf=False",
                "--corners=False", "--level=0.99", "--n/--n-cdf=5000",
                "--out", "--seed!", "--svg=False", "--threshold",
                "-h/--help", *evaluator]),
            "range": sorted(["--campaign!", "--out", "-h/--help", *evaluator]),
            "safeset": ["--campaign!", "--level=0.99", "--out", "--threshold!",
                        "-h/--help"],
            "cdf": ["--campaign!", "--grid-size=513", "--n=5000", "--out",
                    "--seed!", "-h/--help"],
            "scenario": ["-h/--help"],
            "scenario shots-fit": ["--all=False", "--shots", "-h/--help"],
            "scenario inflow": ["--nominal=False", "--space", "--x",
                                "-h/--help"],
            "scenario check": ["-h/--help"],
        }

    def test_every_option_value_is_checked_while_parsing(self):
        # Only paths, and --evaluator, whose checks need the campaign,
        # reach a command unchecked.
        unchecked = {"--space", "--campaign", "--out", "--shots", "--evaluator"}

        def parsers(parser):
            yield parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from parsers(sub)

        untyped = {(p.prog, a.option_strings[-1])
                   for p in parsers(asuq.cli.build_parser())
                   for a in p._actions
                   if a.option_strings and a.nargs != 0 and a.type is None
                   and a.option_strings[-1] not in unchecked}
        assert untyped == set()

    def test_no_command_prints_help(self, capsys):
        assert run_cli() == 1
        out = capsys.readouterr().out
        assert out.startswith("usage: asuq ")
        for command in ("space", "sample", "run", "analyze", "range",
                        "safeset", "cdf", "scenario"):
            assert f"\n    {command} " in out, command


# m = 20 is wide enough that products split across BLAS threads sum in
# another order than on one thread; at m = 7 (and m = 12, M = 40) they do not.
WIDE_ANALYZE = ["--seed", "5", "--bootstrap", "200", "--cdf"]


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """An evaluated campaign with m = 20 parameters and M = 60 runs."""
    work = tmp_path_factory.mktemp("wide")
    write_json(work / "space.json", unit_space(20).params)
    campaign = work / "campaign.json"
    assert run_cli("sample", "--space", str(work / "space.json"), "-M", "60",
                   "--seed", "4", "--out", str(campaign)) == 0
    assert run_cli("run", "--campaign", str(campaign), "--evaluator",
                   "ridge:cubic-monotone", "--wtrue-seed", "3") == 0
    return campaign


class TestOneBlasThread:
    def test_finds_numpys_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in blas["name"]:
            pytest.skip(f"numpy is built with {blas['name']}")
        assert openblas_thread_controls()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="on one core OpenBLAS runs one thread anyway")
    def test_outputs_do_not_depend_on_the_thread_count(self, fresh_python,
                                                        wide, tmp_path):
        outputs = []
        for tag, threads in (("default", {}),
                             ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            fresh_python("-m", "asuq.cli", "analyze", "--campaign", str(wide),
                         "--out", str(tmp_path / tag), *WIDE_ANALYZE,
                         **threads)
            outputs.append({p.name: p.read_bytes()
                            for p in (tmp_path / tag).iterdir()})
        assert sorted(outputs[0]) == ["cdf.csv", "results.json",
                                      "summary.csv", "surrogate.json"]
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="on one core OpenBLAS starts one thread anyway")
    def test_cli_loads_numpy_with_one_thread(self, fresh_python):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task")
        # The thread count of each loaded OpenBLAS, then the process's
        # thread count: numpy loaded first is the control.
        probe = ("import os, sys, {first}, asuq.cli\n"
                 f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                 "from conftest import openblas_thread_controls\n"
                 "print(*(get() for get, _ in openblas_thread_controls()), "
                 "len(os.listdir('/proc/self/task')))")
        control = fresh_python("-c", probe.format(first="numpy")).split()
        if len(control) < 2:
            pytest.skip("no OpenBLAS is loaded")
        if control[0] == "1":
            pytest.skip("OpenBLAS starts one thread on this host")
        assert int(control[-1]) > 1
        assert fresh_python("-c", probe.format(first="asuq")).split() == [
            "1", "1"]

    @pytest.mark.parametrize("value", [None, "3"], ids=["unset", "set"])
    def test_cli_import_keeps_the_users_thread_variable(self, fresh_python,
                                                        value):
        env = {} if value is None else {"OPENBLAS_NUM_THREADS": value}
        out = fresh_python("-c", "import os, asuq.cli\n"
                           "print(os.environ.get('OPENBLAS_NUM_THREADS'))",
                           **env)
        assert out.split() == [str(value)]

    @pytest.mark.parametrize("value", [None, "3"], ids=["unset", "set"])
    def test_evaluators_see_the_users_thread_variable(self, fresh_python,
                                                      sampled, tmp_path,
                                                      value):
        script = tmp_path / "threads.py"
        script.write_text(
            "import json, os, sys\n"
            "json.load(sys.stdin)\n"
            "n = float(os.environ.get('OPENBLAS_NUM_THREADS', 0))\n"
            "print(json.dumps({'qoi': n}))\n")
        env = {} if value is None else {"OPENBLAS_NUM_THREADS": value}
        fresh_python("-m", "asuq.cli", "run", "--campaign", str(sampled),
                     "--evaluator", f"{sys.executable} {script}", **env)
        _, f = load_campaign(sampled).design_arrays()
        assert f.tolist() == [float(value or 0)] * 12

    def test_replicates_equal_the_library_call(self, wide, tmp_path):
        # In one process the CLI and the library run at one thread count.
        assert run_cli("analyze", "--campaign", str(wide), "--out",
                       str(tmp_path), *WIDE_ANALYZE) == 0
        results = json.loads((tmp_path / "results.json").read_text())
        got = np.array(results["bootstrap"]["replicates"])
        X, f = load_campaign(wide).design_arrays()
        ref = asuq.bootstrap_direction(X, f, N=200, seed=5)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("argv, code", [
        (["sample", "-M", "0", "--seed", "1", "--out", "x.json"], 1),
        (["space", "validate", "--space", "missing.json"], 2),
        (["--help"], 0),
    ], ids=["usage", "data", "help"])
    def test_thread_count_restored_after_an_error(self, blas_threads,
                                                  tmp_path, argv, code):
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert run_cli(*argv) == code
        assert blas_threads() == 2

    def test_thread_count_restored_after_a_crash(self, blas_threads,
                                                 monkeypatch):
        def crash(args):
            raise RuntimeError("boom")
        monkeypatch.setattr(asuq.cli, "cmd_space_validate", crash)
        with pytest.raises(RuntimeError, match="boom"):
            run_cli("space", "validate")
        assert blas_threads() == 2


def test_analyze_runs_without_scipy(evaluated, tmp_path):
    # scipy is a test-only reference: a whole analysis, with the safe set,
    # the corners, the CDF and the plots, never imports it.
    code = (
        "import sys; from asuq.cli import main; "
        "code = main(sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ,
               PYTHONPATH=str(Path(asuq.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "analyze", "--campaign", str(evaluated),
         "--out", str(tmp_path / "out"), "--seed", "3", "--bootstrap", "20",
         "--threshold", "1.5", "--corners", "--evaluator",
         "ridge:cubic-monotone", "--wtrue-seed", "3", "--cdf", "--n", "500",
         "--svg"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    for name in ("safeset.json", "range.json", "cdf.csv", "cdf.svg"):
        assert (tmp_path / "out" / name).is_file(), name
