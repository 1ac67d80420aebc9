"""Benchmark of the asuq ``sample -> run -> analyze`` CLI pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every stage runs as users run it: a fresh ``python -m asuq.cli <stage>``
process with ``src`` on PYTHONPATH. With ``--trace 0`` the benchmark times
the pipeline, repeated while ``--seconds`` allows, and reports the
end-to-end metrics. With ``--trace 1`` it runs the pipeline once untraced
and once through ``launcher.py``, which wraps the layers from outside,
and reports the per-layer metrics. Both modes check the outputs. The
last line of standard output is one JSON object; the lines before it are
a readable table. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import evaluator
import layers

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
PY = sys.executable

END_TO_END = [("setup_s", "s"), ("pipeline_s", "s"), ("analyze_s", "s"),
              ("pipeline_cpu_s", "s"), ("peak_rss_mb", "MiB")]
SETUP_REPEATS = 3
ANALYZE_REPEATS = 3      # per pipeline repetition, when there is a run stage
STAGE_LIMIT_S = 150.0    # a stage still running after this is killed
COS_TOLERANCE = 0.95     # lowest seen over seeds 0-199: 0.985 (m=50)
COMPARED_OUTPUTS = ("results.json", "summary.csv", "cdf.csv", "safeset.json")


@dataclass
class Proc:
    """One finished stage process, as ``os.wait4`` reports it."""
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def spawn(stage, argv, cwd, log_path) -> Proc:
    """Run argv to completion; time it from spawn to exit and reap it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        killer = threading.Timer(STAGE_LIMIT_S, os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(stage, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, proc.returncode)


# -- workloads ---------------------------------------------------------------


def asuq_ridge_direction(m: int, seed: int) -> list[float]:
    """The true direction of asuq's ``ridge:`` evaluators.

    Mirrors ``asuq.campaign.ridge_direction``; if the two drift apart the
    cosine gate fails.
    """
    import numpy as np
    g = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0xA5,))).standard_normal(m)
    return [float(v) for v in g / np.linalg.norm(g)]


@dataclass
class Workload:
    """Derived seeds, sizes and expectations of one workload instance."""
    name: str
    seed: int
    work: Path
    stages: tuple = ("sample", "run", "analyze")
    M: int = 0
    m: int = 7
    w_true: list = field(default_factory=list)
    threshold: float = 0.0
    fail: list = field(default_factory=list)
    eval_config: dict | None = None   # for evaluator.py, less the ranges
    run_exit: int = 0
    sample_args: list = field(default_factory=list)
    run_args: list = field(default_factory=list)
    analyze_args: list = field(default_factory=list)

    def rng(self):
        return random.Random(f"{self.name}:{self.seed}")


def campaign_ridge(wl: Workload) -> None:
    rng = wl.rng()
    sample_seed, analyze_seed = rng.randrange(2**31), rng.randrange(2**31)
    wtrue_seed = rng.randrange(2**31)
    while not evaluator.leads_positive(asuq_ridge_direction(wl.m, wtrue_seed)):
        wtrue_seed += 1
    wl.M = 400
    wl.w_true = asuq_ridge_direction(wl.m, wtrue_seed)
    wl.threshold = 0.0   # cubic-monotone at the centre: 0**3 + 0
    ridge = ["--evaluator", "ridge:cubic-monotone",
             "--wtrue-seed", str(wtrue_seed)]
    wl.sample_args = ["sample", "-M", str(wl.M), "--seed", str(sample_seed)]
    wl.run_args = ["run"] + ridge
    wl.analyze_args = ["analyze", "--seed", str(analyze_seed),
                       "--bootstrap", "100", "--threshold", repr(wl.threshold),
                       "--corners", "--cdf", "--n", "1000", "--svg"] + ridge


def command_dispatch(wl: Workload) -> None:
    rng = wl.rng()
    sample_seed, analyze_seed = rng.randrange(2**31), rng.randrange(2**31)
    wl.M = 200
    wl.w_true = evaluator.unit_direction(wl.m, rng.randrange(2**31))
    wl.fail = evaluator.failing_indices(wl.M, rng.randrange(2**31))
    wl.threshold = evaluator.ridge_link(0.0)
    wl.eval_config = {"w": wl.w_true, "fail": wl.fail, "chatter": 100}
    wl.run_exit = 5   # partial evaluator failure, by design
    wl.sample_args = ["sample", "-M", str(wl.M), "--seed", str(sample_seed)]
    wl.run_args = ["run", "--max-concurrency", str(min(2, os.cpu_count())),
                   "--timeout", "60"]
    wl.analyze_args = ["analyze", "--seed", str(analyze_seed),
                       "--bootstrap", "100", "--threshold", repr(wl.threshold),
                       "--corners", "--cdf", "--n", "1000", "--svg",
                       "--timeout", "60"]


def analysis_heavy(wl: Workload) -> None:
    """Write a done M=200 campaign on an m=50 space, and the evaluator config.

    This is untimed preparation; every repetition analyzes a fresh copy
    of the prepared campaign, because ``--corners`` appends to it.
    """
    rng = wl.rng()
    wl.stages = ("analyze",)
    wl.m, wl.M = 50, 200
    analyze_seed = rng.randrange(2**31)
    wl.w_true = evaluator.unit_direction(wl.m, rng.randrange(2**31))
    space = []
    for i in range(wl.m):
        lo = round(rng.uniform(0.1, 10.0), 4)
        hi = round(lo * rng.uniform(1.1, 3.0), 4)
        space.append({"name": f"p{i + 1:02d}", "min": lo,
                      "nominal": round((lo + hi) / 2, 4), "max": hi,
                      "units": ""})
    runs = []
    for j in range(wl.M):
        x = [rng.uniform(-1.0, 1.0) for _ in range(wl.m)]
        p = [s["min"] + (xi + 1.0) * (s["max"] - s["min"]) / 2.0
             for xi, s in zip(x, space)]
        runs.append({"index": j, "x": x, "p": p, "status": "done",
                     "f": evaluator.ridge_value(wl.w_true, x)})
    manifest = {"space": space, "seed": wl.seed, "condition": {}, "runs": runs}
    (wl.work / "prepared.json").write_text(json.dumps(manifest, indent=2) + "\n")
    wl.threshold = evaluator.ridge_link(0.0)
    wl.eval_config = {"w": wl.w_true, "fail": [], "chatter": 100}
    wl.analyze_args = ["analyze", "--seed", str(analyze_seed),
                       "--bootstrap", "1000", "--threshold", repr(wl.threshold),
                       "--corners", "--cdf", "--n", "50000", "--svg",
                       "--timeout", "60"]


def evaluator_args(wl: Workload, campaign_path: Path) -> list[str]:
    """``--evaluator`` for evaluator.py, given the campaign's parameter ranges."""
    if wl.eval_config is None:
        return []
    space = json.loads(campaign_path.read_text())["space"]
    config_path = wl.work / "evaluator.json"
    config_path.write_text(json.dumps(dict(
        wl.eval_config, names=[p["name"] for p in space],
        mins=[p["min"] for p in space], maxs=[p["max"] for p in space])))
    return ["--evaluator", " ".join(shlex.quote(s) for s in (
        PY, str(BENCH / "evaluator.py"), str(config_path)))]


WORKLOADS = {"campaign-ridge": campaign_ridge,
             "analysis-heavy": analysis_heavy,
             "command-dispatch": command_dispatch}


# -- one pipeline repetition ---------------------------------------------------


@dataclass
class Rep:
    procs: list = field(default_factory=list)
    analyzes: list = field(default_factory=list)   # (out dir, campaign)
    traces: list = field(default_factory=list)
    post_run: bytes = b""


def run_rep(wl: Workload, rep_dir: Path, analyzes: int,
            traced: bool) -> Rep:
    """sample -> run -> analyze (``analyzes`` times, each on a fresh copy)."""
    rep_dir.mkdir(parents=True)
    rep = Rep()
    log = rep_dir / "stages.log"

    def stage(name, args):
        if traced:
            trace = rep_dir / f"trace-{len(rep.procs)}.json"
            argv = [PY, str(BENCH / "launcher.py"), str(trace)] + args
        else:
            argv = [PY, "-m", "asuq.cli"] + args
        proc = spawn(name, argv, rep_dir, log)
        rep.procs.append(proc)
        if traced:
            rep.traces.append(json.loads(trace.read_text())["spans"]
                              if trace.exists() else [])
        return proc

    campaign, post_run = rep_dir / "campaign.json", rep_dir / "post_run.json"
    if "sample" in wl.stages:
        stage("sample", wl.sample_args + ["--out", str(campaign)])
        eval_args = evaluator_args(wl, campaign)
        stage("run", wl.run_args + eval_args + ["--campaign", str(campaign)])
        shutil.copyfile(campaign, post_run)
    else:
        shutil.copyfile(wl.work / "prepared.json", post_run)
        eval_args = evaluator_args(wl, post_run)
    rep.post_run = post_run.read_bytes()
    for k in range(analyzes):
        target = rep_dir / f"campaign-{k}.json"
        shutil.copyfile(post_run, target)
        out = rep_dir / f"out-{k}"
        stage("analyze", wl.analyze_args + eval_args +
              ["--campaign", str(target), "--out", str(out)])
        rep.analyzes.append((out, target))
    return rep


# -- correctness gate ----------------------------------------------------------


class Gate:
    """Counts operations and unexpected failures; collects gate failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def check_rep(self, wl: Workload, rep: Rep) -> None:
        expected = {"sample": 0, "run": wl.run_exit, "analyze": 0}
        for p in rep.procs:
            self.attempted += 1
            if p.code != expected[p.stage]:
                self.failed += 1
                self.problems.append(
                    f"{p.stage} exited {p.code}, expected {expected[p.stage]}")
        runs = json.loads(rep.post_run)["runs"]
        if "run" in wl.stages:
            failed_idx = [r["index"] for r in runs if r["status"] == "failed"]
            self.attempted += len(runs)
            self.failed += len(set(failed_idx) ^ set(wl.fail))
            self.require(failed_idx == wl.fail,
                         f"failed runs {failed_idx} != designed {wl.fail}")
        for out, campaign in rep.analyzes:
            self.check_analyze(wl, out, campaign, len(runs))

    def check_analyze(self, wl: Workload, out: Path, campaign: Path,
                      n_runs: int) -> None:
        corners = json.loads(campaign.read_text())["runs"][n_runs:]
        self.attempted += len(corners)
        self.failed += sum(r["status"] != "done" for r in corners)
        self.require(len(corners) == 2, f"{out.name}: {len(corners)} corners")
        try:
            w = json.loads((out / "results.json").read_text())["w"]
            safe = json.loads((out / "safeset.json").read_text())
            cdf = [float(line.split(",")[1]) for line in
                   (out / "cdf.csv").read_text().splitlines()[1:]]
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"{out.name}: unreadable output: {exc}")
            return
        cos = sum(a * b for a, b in zip(w, wl.w_true))
        self.require(cos > COS_TOLERANCE,
                     f"{out.name}: cos(w, w_true) {cos:.4f} <= {COS_TOLERANCE}")
        self.require(safe["feasible"] == "partial",
                     f"{out.name}: safe set is {safe['feasible']}, not partial")
        self.require(all(0.0 <= c <= 1.0 for c in cdf)
                     and all(a <= b for a, b in zip(cdf, cdf[1:])),
                     f"{out.name}: cdf.csv not nondecreasing within [0, 1]")

    def check_same(self, reps: list[Rep]) -> None:
        """Equal seeds must give byte-identical outputs across repetitions."""
        outs = [out for rep in reps for out, _ in rep.analyzes]
        for name in COMPARED_OUTPUTS:
            try:
                contents = {(out / name).read_bytes() for out in outs}
            except OSError as exc:
                self.problems.append(f"{name}: {exc}")
                continue
            self.require(len(contents) == 1,
                         f"{name} differs between repetitions")
        self.require(len({rep.post_run for rep in reps}) == 1,
                     "campaign after run differs between repetitions")


# -- metrics -------------------------------------------------------------------


def time_setup(work: Path, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import asuq.cli and exit."""
    argv = [PY, "-c", "import asuq.cli"]
    spawn("setup", argv, work, work / "setup.log")   # warm the bytecode cache
    return [spawn("setup", argv, work, work / "setup.log").wall_s
            for _ in range(repeats)]


def end_to_end(wl: Workload, reps: list[Rep], setup: list[float]) -> dict:
    procs = [p for rep in reps for p in rep.procs]

    def med(stage, attr="wall_s"):
        return statistics.median(getattr(p, attr) for p in procs
                                 if p.stage == stage)

    metrics = {
        "setup_s": statistics.median(setup),
        "pipeline_s": sum(med(s) for s in wl.stages),
        "analyze_s": med("analyze"),
        "pipeline_cpu_s": sum(med(s, "cpu_s") for s in wl.stages),
        "peak_rss_mb": max(p.rss_mb for p in procs),
    }
    if "run" in wl.stages:   # printed only: analysis-heavy has no such stage
        metrics.update(sample_s=med("sample"), runs_per_s=wl.M / med("run"))
    return metrics


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, all CPUs (Linux only).

    Printed with the results: on a shared virtual machine, runs that met
    heavy steal are the slow outliers.
    """
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def import_times(work: Path) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([PY, "-X", "importtime", "-c", "import asuq.cli"],
                          cwd=work, env=env, capture_output=True, text=True,
                          timeout=STAGE_LIMIT_S)
    return layers.parse_importtime(proc.stderr)


def cli_bytes(rep: Rep) -> int:
    """Bytes of the reports the CLI writes itself (plots are svgplot's)."""
    return sum(f.stat().st_size for out, _ in rep.analyzes
               for f in out.iterdir() if f.suffix != ".svg")


def print_table(wl, reps, metrics, units, gate, extra_lines) -> None:
    print(f"workload {wl.name}: seed {wl.seed}, m={wl.m}, M={wl.M}, "
          f"{len(reps)} repetition(s), stages {' -> '.join(wl.stages)}")
    for stage in wl.stages:
        values = [p.wall_s for rep in reps for p in rep.procs
                  if p.stage == stage]
        print(f"  stage {stage:<8} n={len(values):<2} wall s: "
              + " ".join(f"{v:.4f}" for v in values))
    for line in extra_lines:
        print("  " + line)
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units.get(name, '')}")
    share = gate.failed / max(gate.attempted, 1)
    print(f"  failed_share {share:.6g} ({gate.failed} of {gate.attempted} "
          f"operations)")
    for problem in gate.problems:
        print(f"  GATE FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "asuq" / "cli.py").is_file():
        print(f"error: no asuq sources under {SRC}; run from the repository "
              f"root", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = Workload(args.workload, args.seed, work)
        WORKLOADS[args.workload](wl)
        gate = Gate()
        start, steal = time.perf_counter(), host_steal_s()
        if args.trace:
            metrics, units, reps, lines = traced_run(wl, gate)
        else:
            metrics, units, reps, lines = timed_run(wl, gate, args.seconds)
        lines.append(f"host steal {host_steal_s() - steal:.2f} s (all CPUs) "
                     f"in {time.perf_counter() - start:.1f} s")
        print_table(wl, reps, metrics, units, gate, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not gate.problems and gate.failed == 0
    names = [n for n, _ in (layers.PER_LAYER if args.trace else END_TO_END)]
    print(json.dumps({
        "correct": correct, "attempted": gate.attempted, "failed": gate.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0 if correct else 1


def timed_run(wl, gate, seconds):
    """Untraced repetitions for as long as ``seconds`` allows (at least one)."""
    setup = time_setup(wl.work, SETUP_REPEATS)
    analyzes = ANALYZE_REPEATS if "run" in wl.stages else 1
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = run_rep(wl, wl.work / f"rep-{len(reps)}", analyzes, traced=False)
        reps.append(rep)
        gate.check_rep(wl, rep)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    gate.check_same(reps)
    metrics = end_to_end(wl, reps, setup)
    units = dict(END_TO_END, sample_s="s", runs_per_s="1/s")
    lines = [f"setup n={len(setup)} wall s: "
             + " ".join(f"{v:.4f}" for v in setup)]
    return metrics, units, reps, lines


def traced_run(wl, gate):
    """One untraced and one traced repetition; per-layer metrics."""
    time_setup(wl.work, 0)
    plain = run_rep(wl, wl.work / "plain", 1, traced=False)
    traced = run_rep(wl, wl.work / "traced", 1, traced=True)
    for rep in (plain, traced):
        gate.check_rep(wl, rep)
    gate.check_same([plain, traced])
    overheads = [t.wall_s - p.wall_s for p, t in zip(plain.procs, traced.procs)]
    metrics = layers.layer_metrics(traced.traces, cli_bytes(traced),
                                   sum(overheads), import_times(wl.work))
    lines = [f"traced {p.stage}: overhead {o:+.4f} s over untraced "
             f"{p.wall_s:.4f} s; cli.self_s "
             f"{layers.stage_totals(spans)['cli.main.self_s']:.4f} s"
             for p, o, spans in zip(plain.procs, overheads, traced.traces)]
    return metrics, dict(layers.PER_LAYER), [plain, traced], lines


if __name__ == "__main__":
    sys.exit(main())
