import json
import os
import stat
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asuq.campaign
from asuq import (
    Campaign,
    CommandEvaluator,
    DataError,
    EvaluatorError,
    ParameterSpace,
    UsageError,
    append_run,
    evaluate_campaign,
    hyshot_space,
    load_campaign,
    new_campaign,
    ridge_direction,
    save_campaign,
    synthetic_ridge,
    unit_space,
)
from asuq._fileio import write_json
from asuq.campaign import EvalRequest, RunRecord, journal_path
from asuq.param_space import SAMPLER_VERSION, ParameterSpec


def constant_evaluator(value):
    return lambda req: value


@pytest.fixture
def small_campaign():
    return new_campaign(unit_space(2), 5, seed=3)


FAIL_ON_INDEX_2 = """\
import json, sys
req = json.load(sys.stdin)
if req["index"] == 2:
    sys.stderr.write("synthetic failure")
    sys.exit(3)
print(json.dumps({"qoi": 2.0 * req["params"]["x1"]}))
"""


@pytest.fixture
def failing_script(tmp_path):
    script = tmp_path / "eval.py"
    script.write_text(FAIL_ON_INDEX_2)
    return script


class TestEvaluate:
    def test_constant_evaluator_marks_all_done(self, small_campaign):
        evaluate_campaign(small_campaign, constant_evaluator(3.0))
        done = small_campaign.done_runs()
        assert len(done) == 5
        assert all(r.f == 3.0 for r in done)

    def test_failed_run_is_isolated(self, small_campaign, failing_script):
        ev = CommandEvaluator([sys.executable, str(failing_script)])
        evaluate_campaign(small_campaign, ev)
        statuses = [r.status for r in small_campaign.runs]
        assert statuses == ["done", "done", "failed", "done", "done"]
        assert "synthetic failure" in small_campaign.runs[2].error
        assert small_campaign.runs[2].f is None

    @pytest.mark.parametrize("max_concurrency", [1, 4])
    def test_all_failures_are_recorded(self, small_campaign, max_concurrency,
                                       tmp_path, monkeypatch):
        # A failure is an outcome: even when every run fails, each is
        # recorded with its own error, journaled and saved, and nothing
        # raises.
        def boom(req):
            raise RuntimeError(f"nope {req.index}")

        path = tmp_path / "c.json"
        save_campaign(small_campaign, path)
        journaled, append = [], asuq.campaign.append_run
        monkeypatch.setattr(asuq.campaign, "append_run", lambda *a:
                            journaled.append(a[1].index) or append(*a))
        assert evaluate_campaign(small_campaign, boom,
                                 max_concurrency=max_concurrency,
                                 path=path) is None
        expected = [("failed", None, f"nope {i}") for i in range(5)]
        assert [(r.status, r.f, r.error) for r in small_campaign.runs] == expected
        assert sorted(journaled) == list(range(5))
        assert [(r.status, r.f, r.error)
                for r in load_campaign(path).runs] == expected
        assert not journal_path(path).exists()

    def test_concurrency_does_not_change_results(self, tmp_path):
        w = ridge_direction(3, 5)
        paths = []
        for conc in (1, 8):
            campaign = new_campaign(unit_space(3), 20, seed=9)
            evaluate_campaign(campaign, synthetic_ridge(w, "cubic-monotone"),
                              max_concurrency=conc)
            path = tmp_path / f"c{conc}.json"
            save_campaign(campaign, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_done_runs_untouched_on_resume(self, small_campaign):
        evaluate_campaign(small_campaign, constant_evaluator(1.0))
        evaluate_campaign(small_campaign, constant_evaluator(2.0))
        assert all(r.f == 1.0 for r in small_campaign.done_runs())

    def test_resume_after_interruption_matches_uninterrupted(self, tmp_path):
        def flaky_factory(fail_after):
            calls = {"n": 0}

            def ev(req):
                calls["n"] += 1
                if calls["n"] > fail_after:
                    raise KeyboardInterrupt
                return float(req.x[0])

            return ev

        path_a = tmp_path / "a.json"
        save_campaign(new_campaign(unit_space(2), 6, seed=1), path_a)
        with pytest.raises(KeyboardInterrupt):
            evaluate_campaign(load_campaign(path_a), flaky_factory(3),
                              path=path_a)
        resumed = load_campaign(path_a)
        assert len(resumed.done_runs()) == 3
        evaluate_campaign(resumed, lambda req: float(req.x[0]), path=path_a)

        fresh = new_campaign(unit_space(2), 6, seed=1)
        evaluate_campaign(fresh, lambda req: float(req.x[0]))
        path_b = tmp_path / "b.json"
        save_campaign(fresh, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_interrupt_starts_no_queued_run_and_joins_the_workers(self):
        # The third evaluation raises while the fourth is in flight on the
        # other worker; that one returns only after the interrupt.
        campaign = new_campaign(unit_space(2), 20, seed=1)
        calls, lock = [], threading.Lock()
        fourth_started, interrupted = threading.Event(), threading.Event()

        def ev(req):
            with lock:
                calls.append((req.index, interrupted.is_set()))
                n = len(calls)
            if n == 3:
                assert fourth_started.wait(10)
                interrupted.set()
                raise KeyboardInterrupt
            if n == 4:
                fourth_started.set()
                assert interrupted.wait(10)
                time.sleep(0.1)
            return float(req.index)

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            evaluate_campaign(campaign, ev, max_concurrency=2)
        assert threading.active_count() == before
        assert [after for _, after in calls] == [False] * 4
        started = [index for index, _ in calls]
        assert [r.status for r in campaign.runs] == [
            "done" if r.index in started[:2] else "pending"
            for r in campaign.runs]

    @pytest.mark.parametrize("max_concurrency", [1, 2, 7, 40])
    def test_workers_are_joined_on_return(self, max_concurrency):
        campaign = new_campaign(unit_space(2), 20, seed=1)
        threads = set()
        before = threading.active_count()
        evaluate_campaign(campaign, lambda req: threads.add(
            threading.current_thread()) or 1.0,
            max_concurrency=max_concurrency)
        assert threading.active_count() == before
        assert threading.main_thread() not in threads
        assert 1 <= len(threads) <= min(max_concurrency, 20)
        assert len(campaign.done_runs()) == 20

    def test_given_runs_are_attempted_unless_done(self, small_campaign):
        evaluate_campaign(small_campaign,
                          lambda req: 1 / 0 if req.index == 2 else 1.0)
        seen = []
        evaluate_campaign(small_campaign,
                          lambda req: seen.append(req.index) or 2.0,
                          runs=small_campaign.runs)
        assert seen == [2]
        assert [r.f for r in small_campaign.runs] == [1.0, 1.0, 2.0, 1.0, 1.0]
        assert small_campaign.runs[2].error is None

    def test_invalid_concurrency(self, small_campaign):
        with pytest.raises(UsageError):
            evaluate_campaign(small_campaign, constant_evaluator(0.0),
                              max_concurrency=0)

    def test_non_finite_result_marks_failed(self, small_campaign):
        evaluate_campaign(small_campaign,
                          lambda req: float("nan") if req.index == 1 else 0.5)
        assert small_campaign.runs[1].status == "failed"
        assert len(small_campaign.done_runs()) == 4


class TestPersistence:
    def test_write_json_encodes_numpy_values_and_dataclass_fields(self,
                                                                 tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"x": np.array([[0.5, -1.0]]), "n": np.int64(3),
                          "ok": np.bool_(True),
                          "spec": ParameterSpec("a", 0.0, 0.5, 1.0, "m")})
        assert path.read_text() == json.dumps({
            "x": [[0.5, -1.0]], "n": 3, "ok": True,
            "spec": {"name": "a", "min": 0.0, "nominal": 0.5, "max": 1.0,
                     "units": "m"}}, indent=2) + "\n"

    @pytest.mark.parametrize("value", [object(), ParameterSpec, {1, 2}])
    def test_write_json_refuses_anything_else(self, tmp_path, value):
        path = tmp_path / "r.json"
        path.write_text("old\n")
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_json(path, value)
        assert path.read_text() == "old\n"

    def test_save_load_save_byte_identical(self, tmp_path, small_campaign):
        evaluate_campaign(small_campaign, constant_evaluator(4.5))
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        save_campaign(small_campaign, p1)
        save_campaign(load_campaign(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_condition_metadata_round_trip(self, tmp_path):
        campaign = new_campaign(unit_space(2), 2, seed=0,
                                condition={"P0_H2_bar": 4.8})
        path = tmp_path / "c.json"
        save_campaign(campaign, path)
        assert load_campaign(path).condition == {"P0_H2_bar": 4.8}

    def test_new_campaign_records_current_sampler(self, tmp_path):
        path = tmp_path / "c.json"
        save_campaign(new_campaign(unit_space(2), 3, seed=0), path)
        assert json.loads(path.read_text())["sampler"] == SAMPLER_VERSION == 2
        assert load_campaign(path).sampler == 2

    def test_unversioned_manifest_keeps_sampler_1(self, tmp_path, small_campaign):
        # Manifests from before the sampler was versioned have no key; their
        # points came from the per-row PCG64 streams of sampler 1.
        path = tmp_path / "c.json"
        save_campaign(small_campaign, path)
        manifest = json.loads(path.read_text())
        del manifest["sampler"]
        path.write_text(json.dumps(manifest, indent=2) + "\n")
        loaded = load_campaign(path)
        assert loaded.sampler == 1
        evaluate_campaign(loaded, constant_evaluator(1.0))
        save_campaign(loaded, path)
        assert json.loads(path.read_text())["sampler"] == 1
        assert load_campaign(path).sampler == 1

    @pytest.mark.parametrize("bad", ["2", 2.0, None, True])
    def test_non_integer_sampler_rejected(self, tmp_path, small_campaign, bad):
        path = tmp_path / "c.json"
        save_campaign(small_campaign, path)
        manifest = json.loads(path.read_text())
        manifest["sampler"] = bad
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="sampler"):
            load_campaign(path)

    @pytest.mark.parametrize("manifest", ["5", "[]"])
    def test_manifest_that_is_not_an_object_rejected(self, tmp_path, manifest):
        path = tmp_path / "c.json"
        path.write_text(manifest)
        with pytest.raises(DataError):
            load_campaign(path)

    def test_noncontiguous_indices_rejected(self):
        sp = unit_space(1)
        recs = [RunRecord(index=1, x=np.zeros(1))]
        with pytest.raises(DataError):
            Campaign(sp, 0, None, recs)

    def test_done_without_result_rejected_on_load(self, tmp_path, small_campaign):
        path = tmp_path / "c.json"
        save_campaign(small_campaign, path)
        manifest = json.loads(path.read_text())
        manifest["runs"][0]["status"] = "done"
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError):
            load_campaign(path)


    def test_running_status_loads_as_pending(self, tmp_path, small_campaign):
        # Older versions wrote "running" for a run in flight; it is retried.
        path = tmp_path / "c.json"
        save_campaign(small_campaign, path)
        manifest = json.loads(path.read_text())
        manifest["runs"][1]["status"] = "running"
        path.write_text(json.dumps(manifest))
        record = dict(manifest["runs"][3], status="running")
        journal_path(path).write_text(json.dumps(record) + "\n")
        campaign = load_campaign(path)
        assert [r.status for r in campaign.runs] == ["pending"] * 5
        save_campaign(campaign, path)
        assert '"running"' not in path.read_text()
        evaluate_campaign(campaign, constant_evaluator(1.0))
        assert [r.status for r in campaign.runs] == ["done"] * 5

    def test_space_whose_image_overflows_is_refused_on_load(self, tmp_path):
        # A span max - min that overflows would map x to inf, so no run's
        # p could be finite; the space itself is refused, with no warning.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "space": [{"name": "a", "min": -1e308, "nominal": 0.0,
                       "max": 1e308}],
            "seed": 0,
            "runs": [{"index": 0, "x": [0.5], "p": [float("inf")],
                      "status": "pending"}]}))
        with pytest.raises(DataError, match=r"^a: the range \[-1e\+308, "
                           r"1e\+308\] maps x = 1 to inf"):
            load_campaign(path)

    # Ranges within 1e300 of 0, so that every span max - min is finite.
    @settings(max_examples=200, deadline=None)
    @given(ranges=st.lists(st.lists(st.floats(-1e300, 1e300), min_size=2,
                                    max_size=2, unique=True).map(sorted),
                           min_size=1, max_size=5),
           data=st.data())
    @example(ranges=[[-1e300, 1e300], [0.1, 0.3], [-5e-324, 5e-324]],
             data=None)
    def test_every_written_p_reloads_and_resaves_the_same_bytes(self, ranges,
                                                                data):
        # The stored p must equal the space's image of x exactly; the repr
        # round trip of x, min and max keeps that true of every file asuq
        # writes, manifest or journal.
        space = ParameterSpace([ParameterSpec(f"q{i}", lo, lo, hi)
                                for i, (lo, hi) in enumerate(ranges)])
        coordinate = st.floats(-1.0, 1.0)
        X = ([[-0.0, 5e-324, 1.0], [-1.0, 1 / 3, -5e-324]] if data is None
             else data.draw(st.lists(st.lists(coordinate, min_size=space.m,
                                              max_size=space.m),
                                     min_size=1, max_size=4)))
        campaign = Campaign(space, 0, None,
                            [RunRecord(index=j, x=x) for j, x in enumerate(X)])
        with tempfile.TemporaryDirectory() as tmp:
            path, direct = Path(tmp) / "c.json", Path(tmp) / "direct.json"
            save_campaign(campaign, path)
            written = path.read_bytes()
            save_campaign(load_campaign(path), path)
            assert path.read_bytes() == written
            rec = campaign.runs[-1]
            rec.status, rec.f = "done", 1.0
            append_run(path, rec, space)
            save_campaign(load_campaign(path), path)
            save_campaign(campaign, direct)
            assert path.read_bytes() == direct.read_bytes()


class TestJournal:
    @pytest.fixture
    def saved(self, tmp_path, small_campaign):
        path = tmp_path / "c.json"
        save_campaign(small_campaign, path)
        return path

    @staticmethod
    def journaled(path, evaluator, n=None):
        """Evaluate the first ``n`` runs of the campaign at ``path`` in
        memory, then append each to its journal in completion order (index
        order at concurrency 1), as a run killed before its save leaves it."""
        campaign = load_campaign(path)
        runs = campaign.runs[:n]
        evaluate_campaign(campaign, evaluator, runs=runs)
        for rec in runs:
            append_run(path, rec, campaign.space)
        return campaign

    def test_journal_folds_over_manifest(self, saved):
        campaign = self.journaled(saved, lambda req: float(req.index))
        assert len(journal_path(saved).read_text().splitlines()) == 5
        reloaded = load_campaign(saved)
        assert [r.f for r in reloaded.runs] == [0.0, 1.0, 2.0, 3.0, 4.0]
        for a, b in zip(reloaded.runs, campaign.runs):
            assert np.array_equal(a.x, b.x)

    def test_last_line_for_an_index_wins(self, saved):
        campaign = load_campaign(saved)
        rec = campaign.runs[1]
        rec.status, rec.error = "failed", "first try"
        append_run(saved, rec, campaign.space)
        rec.status, rec.error, rec.f = "done", None, 7.5
        append_run(saved, rec, campaign.space)
        reloaded = load_campaign(saved)
        assert reloaded.runs[1].status == "done"
        assert reloaded.runs[1].f == 7.5
        assert reloaded.runs[1].error is None

    def test_torn_last_line_is_ignored(self, saved):
        self.journaled(saved, constant_evaluator(1.5), 3)
        journal = journal_path(saved)
        text = journal.read_text()
        journal.write_text(text[:len(text) - 40])  # kill inside the third line
        reloaded = load_campaign(saved)
        assert [r.status for r in reloaded.runs] == \
            ["done", "done", "pending", "pending", "pending"]

    def test_whole_line_without_newline_is_still_torn(self, saved):
        self.journaled(saved, constant_evaluator(2.0), 1)
        journal = journal_path(saved)
        journal.write_text(journal.read_text().rstrip("\n"))
        assert load_campaign(saved).runs[0].status == "pending"

    @pytest.mark.parametrize("line", [
        '{"index": 0, "x": [0.1',
        "not json at all",
        "",
        '{"index": 0}',
        '{"index": 1, "x": [0, 0], "p": [0, 0], "status": "done"}',
        '{"index": 1, "x": [0, 0], "p": [0, 0], "status": "Done", "f": 1.0}',
        '{"index": 1, "x": [0, 0], "p": [0, 0], "status": "bogus"}',
        '{"index": 1, "x": [0, 0], "p": [0, 0], "status": "pending", '
        '"role": "validation"}',
        '{"index": 1, "x": [0], "p": [0, 0], "status": "pending"}',
        '{"index": 1, "x": [0, 0], "p": [0, NaN], "status": "pending"}',
        '{"index": 0.9, "x": [0, 0], "p": [0, 0], "status": "pending"}',
        '{"index": true, "x": [0, 0], "p": [0, 0], "status": "pending"}',
        '{"index": "0", "x": [0, 0], "p": [0, 0], "status": "pending"}',
        '{"index": 1, "x": [0, 0], "p": [0, 0], "status": "done", "f": "2.5"}',
        '{"index": 1, "x": [0, 0], "p": [0, 0], "status": "done", "f": true}',
        '{"index": 1, "x": [0, 0], "p": [0, 0], "status": "failed", '
        '"error": 7}',
        pytest.param('{"index": 1, "x": [0, 1%s], "p": [0, 0], '
                     '"status": "pending"}' % ("0" * 400), id="huge-int"),
        pytest.param('{"index": Infinity, "x": [0, 0], "p": [0, 0], '
                     '"status": "pending"}', id="infinite-index"),
    ])
    def test_malformed_complete_line_rejected(self, saved, line):
        journal_path(saved).write_text(line + "\n")
        with pytest.raises(DataError, match=":1"):
            load_campaign(saved)

    @pytest.mark.parametrize("index", [5, -1])
    def test_out_of_range_index_rejected(self, saved, index):
        rec = RunRecord(index=index, x=np.zeros(2), status="done", f=1.0)
        append_run(saved, rec, unit_space(2))
        with pytest.raises(DataError, match="outside"):
            load_campaign(saved)

    def test_save_compacts_and_removes_journal(self, saved, tmp_path):
        campaign = load_campaign(saved)
        evaluate_campaign(campaign, constant_evaluator(3.0), path=saved)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        direct = tmp_path / "direct.json"
        save_campaign(campaign, direct)
        assert saved.read_bytes() == direct.read_bytes()

    def test_save_syncs_the_rename_before_the_journal_unlink(self, saved,
                                                              monkeypatch):
        # Power loss cannot be simulated here, so this checks the order of
        # the calls that make the save durable: the directory is fsynced
        # after the rename, before the journal is unlinked.
        campaign = load_campaign(saved)
        append_run(saved, campaign.runs[0], campaign.space)
        calls = []
        real_fsync, real_replace, real_unlink = os.fsync, os.replace, Path.unlink

        def fsync(fd):
            calls.append(("fsync", "dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                          else "file"))
            return real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", Path(dst).name))
            return real_replace(src, dst)

        def unlink(path, missing_ok=False):
            if path.name.endswith(".journal"):
                calls.append(("unlink", path.name))
            return real_unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(Path, "unlink", unlink)
        save_campaign(load_campaign(saved), saved)
        assert calls == [("fsync", "file"), ("replace", "c.json"),
                         ("fsync", "dir"), ("unlink", "c.json.journal")]
        assert not journal_path(saved).exists()

    def test_old_wall_time_keys_load_and_vanish_on_save(self, saved, tmp_path,
                                                        small_campaign):
        # Older versions could write wall times into the manifest and journal.
        evaluate_campaign(small_campaign, constant_evaluator(3.0),
                          runs=small_campaign.runs[:4])
        save_campaign(small_campaign, saved)
        manifest = json.loads(saved.read_text())
        manifest["runs"][0]["wall_time"] = 0.25
        saved.write_text(json.dumps(manifest, indent=2) + "\n")
        line = dict(manifest["runs"][4], status="done", f=3.0, wall_time=0.5)
        journal_path(saved).write_text(json.dumps(line) + "\n")

        loaded = load_campaign(saved)
        assert [r.status for r in loaded.runs] == ["done"] * 5
        save_campaign(loaded, saved)
        assert all("wall_time" not in rd
                   for rd in json.loads(saved.read_text())["runs"])
        evaluate_campaign(small_campaign, constant_evaluator(3.0))
        direct = tmp_path / "direct.json"
        save_campaign(small_campaign, direct)
        assert saved.read_bytes() == direct.read_bytes()

    def test_torn_leftover_journal_is_folded_before_the_first_append(
            self, saved, tmp_path, monkeypatch):
        self.journaled(saved, lambda req: float(req.index), 2)
        journal = journal_path(saved)
        journal.write_text(journal.read_text()[:-20])  # torn inside run 1
        # A kill after any append must leave files that load; an append
        # after the torn line would merge the two into one bad line.
        loads = []
        append = asuq.campaign.append_run

        def append_and_load(*args):
            append(*args)
            loads.append([r.status for r in load_campaign(saved).runs])

        monkeypatch.setattr(asuq.campaign, "append_run", append_and_load)
        campaign = load_campaign(saved)
        evaluate_campaign(campaign, lambda req: float(req.index), path=saved)
        assert loads == [["done"] * k + ["pending"] * (5 - k)
                         for k in range(2, 6)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        assert [r.f for r in load_campaign(saved).runs] == [0.0, 1.0, 2.0,
                                                            3.0, 4.0]

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_interrupt_saves_exactly_the_runs_recorded_before_it(
            self, saved, tmp_path, k):
        def ev(req):
            if req.index == k:
                raise KeyboardInterrupt
            return float(req.index)

        with pytest.raises(KeyboardInterrupt):
            evaluate_campaign(load_campaign(saved), ev, path=saved)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        assert [(r.status, r.f) for r in load_campaign(saved).runs] == \
            [("done", float(i)) for i in range(k)] + [("pending", None)] * (5 - k)

    def test_no_runs_and_no_journal_write_nothing(self, saved, tmp_path):
        def never(req):
            raise AssertionError("evaluated")

        files = {p: (p.read_bytes(), p.stat().st_ino) for p in tmp_path.iterdir()}
        evaluate_campaign(load_campaign(saved), never, runs=[], path=saved)
        assert {p: (p.read_bytes(), p.stat().st_ino)
                for p in tmp_path.iterdir()} == files


class TestSyntheticRidge:
    def test_linear_link_dot_product(self):
        ev = synthetic_ridge(np.array([0.6, -0.8]), "linear")
        req = EvalRequest(0, np.array([1.0, 1.0]), {}, {})
        assert ev(req) == pytest.approx(-0.2)

    def test_logistic_midpoint(self):
        ev = synthetic_ridge(np.array([1.0]), "logistic")
        req = EvalRequest(0, np.zeros(1), {}, {})
        assert ev(req) == pytest.approx(0.5)

    def test_deterministic_with_noise(self):
        ev = synthetic_ridge(np.array([1.0, 0.0]), "linear", noise=0.1)
        req = EvalRequest(0, np.array([0.3, -0.2]), {}, {})
        assert ev(req) == ev(req)
        assert ev(req) != pytest.approx(0.3)  # noise actually applied

    def test_unknown_link_rejected(self):
        with pytest.raises(UsageError):
            synthetic_ridge(np.array([1.0]), "septic")

    def test_non_unit_direction_rejected(self):
        with pytest.raises(DataError):
            synthetic_ridge(np.array([1.0, 1.0]), "linear")


class TestCommandEvaluator:
    def test_protocol_round_trip(self, tmp_path):
        script = tmp_path / "ok.py"
        script.write_text(
            "import json, sys\n"
            "req = json.load(sys.stdin)\n"
            "print('solver log line')\n"
            "print(json.dumps({'qoi': req['params']['x1'] + "
            "req['condition']['offset']}))\n"
        )
        campaign = new_campaign(unit_space(1), 3, seed=4,
                                condition={"offset": 10.0})
        ev = CommandEvaluator([sys.executable, str(script)])
        evaluate_campaign(campaign, ev)
        for rec in campaign.done_runs():
            assert rec.f == pytest.approx(10.0 + rec.x[0])  # unit space

    def test_unparseable_output_is_failure(self, tmp_path):
        script = tmp_path / "junk.py"
        script.write_text("print('no json here')\n")
        ev = CommandEvaluator([sys.executable, str(script)])
        req = EvalRequest(0, np.zeros(1), {"x1": 0.0}, {})
        with pytest.raises(EvaluatorError):
            ev(req)

    def test_timeout_is_failure(self, tmp_path):
        script = tmp_path / "slow.py"
        script.write_text("import time\ntime.sleep(30)\n")
        ev = CommandEvaluator([sys.executable, str(script)], timeout=0.5)
        req = EvalRequest(0, np.zeros(1), {"x1": 0.0}, {})
        with pytest.raises(EvaluatorError):
            ev(req)

    @pytest.mark.parametrize("qoi", ["true", '"2.5"', "null"])
    def test_non_number_qoi_is_failure(self, tmp_path, qoi):
        script = tmp_path / "typed.py"
        script.write_text(f"print('{{\"qoi\": {qoi}}}')\n")
        ev = CommandEvaluator([sys.executable, str(script)])
        req = EvalRequest(0, np.zeros(1), {"x1": 0.0}, {})
        with pytest.raises(EvaluatorError, match="non-numeric qoi"):
            ev(req)

    def test_nonzero_exit_after_a_qoi_is_failure(self, tmp_path):
        script = tmp_path / "late_exit.py"
        script.write_text("import sys\nprint('{\"qoi\": 1.5}')\nsys.exit(3)\n")
        ev = CommandEvaluator([sys.executable, str(script)])
        req = EvalRequest(0, np.zeros(1), {"x1": 0.0}, {})
        with pytest.raises(EvaluatorError, match="exited 3"):
            ev(req)

    def test_nan_qoi_fails_as_non_finite(self, tmp_path):
        script = tmp_path / "nan.py"
        script.write_text(
            "import json, sys\n"
            "req = json.load(sys.stdin)\n"
            "print('{\"qoi\": NaN}' if req['index'] == 1 else '{\"qoi\": 1.0}')\n"
        )
        campaign = new_campaign(unit_space(1), 2, seed=4)
        evaluate_campaign(campaign, CommandEvaluator([sys.executable, str(script)]))
        assert [r.status for r in campaign.runs] == ["done", "failed"]
        assert "non-finite" in campaign.runs[1].error

    def test_long_chatter_before_the_qoi(self, tmp_path):
        script = tmp_path / "chatty.py"
        script.write_text(
            "import json, sys\n"
            "req = json.load(sys.stdin)\n"
            "for i in range(20000):\n"
            "    print('solver iteration', i, 'residual', '.' * 80)\n"
            "print(json.dumps({'qoi': 3.0 * req['params']['x1']}))\n"
        )
        campaign = new_campaign(unit_space(1), 1, seed=4)
        evaluate_campaign(campaign, CommandEvaluator([sys.executable, str(script)]))
        (rec,) = campaign.runs
        assert rec.status == "done"
        assert rec.f == pytest.approx(3.0 * rec.x[0])  # unit space

    def test_chatter_that_is_not_utf8_fails_no_run(self, tmp_path):
        script = tmp_path / "latin1.py"
        script.write_text(
            "import sys\n"
            "sys.stdout.buffer.write(b'T0 = 2742 \\xb0K\\n')\n"
            "sys.stderr.buffer.write(b'\\xb0\\n')\n"
            "print('{\"qoi\": 1.5}')\n"
        )
        campaign = new_campaign(unit_space(1), 1, seed=4)
        evaluate_campaign(campaign, CommandEvaluator([sys.executable, str(script)]))
        (rec,) = campaign.runs
        assert (rec.status, rec.f, rec.error) == ("done", 1.5, None)

    def test_failure_keeps_the_tail_of_stderr(self, tmp_path):
        script = tmp_path / "fatal.py"
        script.write_text(
            "import sys\n"
            "sys.stderr.write('log line ' * 50 + 'FATAL: mesh not found\\n')\n"
            "sys.exit(1)\n"
        )
        ev = CommandEvaluator([sys.executable, str(script)])
        req = EvalRequest(7, np.zeros(1), {"x1": 0.0}, {})
        with pytest.raises(EvaluatorError) as info:
            ev(req)
        tail = ("log line " * 50 + "FATAL: mesh not found")[-200:]
        assert str(info.value) == f"run 7: evaluator exited 1: {tail}"


def test_corner_runs_excluded_from_design():
    sp = hyshot_space()
    campaign = new_campaign(sp, 10, seed=1)
    evaluate_campaign(campaign, constant_evaluator(1.0))
    rec = campaign.append_point(np.ones(7), role="corner")
    evaluate_campaign(campaign, constant_evaluator(9.0), runs=[rec])
    X, f = campaign.design_arrays()
    assert len(f) == 10
    assert 9.0 not in f


def test_undersampled_campaign_returns_its_rows_without_warning():
    # Fewer than m+1 rows are the direction fit's to refuse (DegeneracyError).
    campaign = new_campaign(hyshot_space(), 4, seed=1)
    evaluate_campaign(campaign, lambda req: float(req.x[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, f = campaign.design_arrays()
    assert X.shape == (4, 7)
    np.testing.assert_array_equal(f, X[:, 0])


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: load_campaign(tmp / "c.json"), DataError,
     "cannot read journal"),
    (lambda tmp: synthetic_ridge(np.array([1.0, 0.0]), noise=float("nan")),
     UsageError, "noise must be a finite number >= 0"),
    (lambda tmp: CommandEvaluator(""), UsageError, "empty evaluator command"),
    (lambda tmp: CommandEvaluator("python 'oops"), UsageError,
     "No closing quotation"),
    (lambda tmp: CommandEvaluator(["true"], timeout=0.0), UsageError,
     "timeout must be a finite number of seconds > 0"),
    (lambda tmp: CommandEvaluator([str(tmp / "no-such-program")])(
        EvalRequest(index=0, x=np.zeros(1), params={}, condition={})),
     EvaluatorError, "run 0: cannot launch evaluator"),
], ids=["journal", "noise", "empty-command", "unbalanced-quote", "timeout",
        "launch"])
def test_input_check_raises(tmp_path, call, error, message):
    save_campaign(new_campaign(unit_space(1), 2, seed=1), tmp_path / "c.json")
    journal_path(tmp_path / "c.json").mkdir()  # unreadable as a file
    with pytest.raises(error, match=message):
        call(tmp_path)
