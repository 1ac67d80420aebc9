"""Command-line front end binding the pipeline.

Subcommands: space validate, sample, run, analyze, range, safeset, cdf,
and the scenario group (shots-fit, inflow, check). Exit codes: 0 success,
1 usage, 2 data/schema or unwritable file, 3 numerical degeneracy, 4 evaluator
failure, 5 partial evaluator failure (some runs done, some failed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
from collections.abc import Iterator
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

# numpy's OpenBLAS starts its worker threads as it loads, and each spins a
# while before it sleeps. Loaded here on one thread, it starts none. The
# user's value is put back at once: the evaluators this process runs see it.
_user_blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _user_blas_threads is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = _user_blas_threads

from ._fileio import atomic_open, write_json
from .errors import DataError, EvaluatorError, ToolkitError, UsageError

# Each command imports the layers it runs, so `sample` loads and compiles
# no analysis code.
if TYPE_CHECKING:
    from .param_space import ParameterSpace
    from .surrogate import QuadraticSurrogate

EXIT_PARTIAL_FAILURE = 5


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures follow the exit-code contract."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# -- shared helpers -----------------------------------------------------------


def _load_space(path: str | None) -> ParameterSpace:
    from .param_space import ParameterSpace, hyshot_space

    return hyshot_space() if path is None else ParameterSpace.from_json(path)


def _build_evaluator(args, m: int):
    from .campaign import CommandEvaluator, ridge_direction, synthetic_ridge

    spec = args.evaluator
    if spec is None:
        raise UsageError("an --evaluator is required for this command")
    if spec.startswith("ridge:"):
        link = spec.split(":", 1)[1]
        if args.wtrue_seed is None:
            raise UsageError("--wtrue-seed is required with a ridge evaluator")
        w_true = ridge_direction(m, args.wtrue_seed)
        return synthetic_ridge(w_true, link=link, noise=args.noise)
    evaluator = CommandEvaluator(spec, timeout=args.timeout)
    program = evaluator.argv[0]
    if shutil.which(program) is None and not Path(program).exists():
        raise UsageError(f"evaluator command not found: {program}")
    return evaluator


class _FittedCampaign:
    """A loaded campaign with its direction, summary data and surrogate.

    Shared by ``analyze``, ``range``, ``safeset`` and ``cdf``; the
    surrogate is fitted on first use, at most once. Each stage method is
    the whole stage for both ``analyze`` and the standalone command: it
    writes its report into ``out``, prints its summary lines and returns
    its exit status (4 when a corner evaluation failed).
    """

    def __init__(self, args):
        from .active_subspace import fit_active_direction, summary_data
        from .campaign import load_campaign

        self.args = args
        self.campaign = load_campaign(args.campaign)
        # Built, and the direction fitted, before anything is written, so
        # that a bad evaluator flag or a failed fit leaves no report behind.
        self.evaluator = (_build_evaluator(args, self.campaign.m)
                          if args.corners else None)
        self.X, self.f = self.campaign.design_arrays()
        self.asub = fit_active_direction(self.X, self.f)
        self.summary = summary_data(self.X, self.f, self.asub)
        self.out = Path(args.out or os.environ.get("ASUQ_OUTPUT_DIR", "."))
        self.out.mkdir(parents=True, exist_ok=True)

    @cached_property
    def surrogate(self) -> QuadraticSurrogate:
        from .surrogate import fit_quadratic

        l1 = float(np.abs(self.asub.w).sum())
        return fit_quadratic(self.summary.y, self.f, y_domain=(-l1, l1))

    def range(self) -> int:
        """Evaluate the two corners; write range.json and the campaign.

        A done corner run is reused; a failed one is evaluated again in
        place. Both corners are evaluated at once; each failed corner
        reports its own run's error.
        """
        from .campaign import evaluate_campaign, save_campaign
        from .uq_analysis import corner_extrema, estimate_range

        campaign = self.campaign
        x_min, x_max = corner_extrema(self.asub.w)
        recs = []
        for x_corner in (x_min, x_max):
            rec = next((r for r in campaign.runs if r.role == "corner"
                        and np.array_equal(r.x, x_corner)), None)
            recs.append(rec or campaign.append_point(x_corner, role="corner"))
        evaluate_campaign(campaign, self.evaluator, max_concurrency=2,
                          runs=recs)
        rng = estimate_range([r.f for r in recs], self.f)
        caveat = self.summary.discordant_pairs > 0
        errors = {key: "all 1 attempted runs failed (first diagnostic: "
                       f"{r.error})"
                  for key, r in zip(("at_x_min", "at_x_max"), recs)
                  if r.error is not None} or None
        save_campaign(campaign, self.args.campaign)
        write_json(self.out / "range.json", {
            "x_min": x_min, "x_max": x_max,
            "p_min": campaign.space.denormalize(x_min),
            "p_max": campaign.space.denormalize(x_max),
            "f_min": rng.f_min, "f_max": rng.f_max,
            "validated": rng.validated, "inverted": rng.inverted,
            "monotone_caveat": caveat, "corner_errors": errors,
        })
        print(f"range: [{rng.f_min}, {rng.f_max}] validated={rng.validated} "
              f"monotone_caveat={caveat}")
        if errors is None:
            return 0
        print(f"corner evaluation failed: {errors}", file=sys.stderr)
        return EvaluatorError.exit_code

    def safeset(self) -> int:
        """Invert ``args.threshold`` at ``args.level``; write safeset.json."""
        from .uq_analysis import invert_safe_set

        safe = invert_safe_set(self.surrogate, self.asub.w, self.args.threshold,
                               level=self.args.level, space=self.campaign.space)
        write_json(self.out / "safeset.json", safe)
        print(f"threshold {self.args.threshold} at level {self.args.level}: "
              f"feasible={safe.feasible} y_max={safe.y_max}")
        for entry in safe.safe_ranges:
            if entry["restricted"]:
                units = f" {entry['units']}" if entry["units"] else ""
                print(f"  {entry['name']}: [{entry['min']:.6g}, "
                      f"{entry['max']:.6g}]{units}")
        return 0

    def cdf(self) -> int:
        """Estimate the output CDF; write cdf.csv, and cdf.svg with ``--svg``."""
        from .uq_analysis import estimate_cdf

        args = self.args
        cdf = estimate_cdf(self.surrogate, self.asub.w, n_samples=args.n,
                           seed=args.seed, grid_size=args.grid_size)
        path = self.out / "cdf.csv"
        with atomic_open(path) as fh:
            fh.write("q,cdf\n")
            fh.writelines(f"{q!r},{c!r}\n" for q, c in
                          zip(cdf.grid.tolist(), cdf.cdf.tolist()))
        if args.svg:
            from .svgplot import SvgPlot

            plot = SvgPlot(xlabel="quantity of interest", ylabel="CDF",
                           title="estimated CDF")
            plot.line(cdf.grid, cdf.cdf, color="#117733")
            plot.save(self.out / "cdf.svg")
        print(f"wrote {path}: {len(cdf.grid)} grid points, "
              f"bandwidth {cdf.bandwidth:.6g}")
        return 0


def _print_ranking(ranking) -> None:
    width = max(len(name) for name, _, _ in ranking)
    print(f"{'rank':>4}  {'parameter':<{width}}  {'w_i':>10}  {'|w_i|':>10}")
    for i, (name, wi, awi) in enumerate(ranking, start=1):
        print(f"{i:>4}  {name:<{width}}  {wi:>10.4f}  {awi:>10.4f}")


# -- subcommand implementations -------------------------------------------------


def cmd_space_validate(args) -> int:
    space = _load_space(args.space)
    print(f"valid parameter space with m={space.m} parameters")
    for i, spec in enumerate(space.params):
        units = f" [{spec.units}]" if spec.units else ""
        print(f"  {i}: {spec.name}{units}: "
              f"min={spec.min:g} nominal={spec.nominal:g} max={spec.max:g}")
    return 0


def cmd_sample(args) -> int:
    from .campaign import new_campaign, save_campaign

    space = _load_space(args.space)
    campaign = new_campaign(space, args.M, args.seed,
                            condition=dict(args.condition or ()))
    save_campaign(campaign, args.campaign)
    print(f"wrote {args.campaign}: {args.M} pending runs, m={space.m}, "
          f"seed={args.seed}")
    return 0


def cmd_run(args) -> int:
    from .campaign import evaluate_campaign, load_campaign

    campaign = load_campaign(args.campaign)
    evaluator = _build_evaluator(args, campaign.m)
    wanted = ("pending", "failed") if args.retry_failed else ("pending",)
    todo = [rec for rec in campaign.runs if rec.status in wanted]
    interrupted = False
    try:
        # Also with nothing to do, so that a leftover journal is folded.
        evaluate_campaign(campaign, evaluator, args.max_concurrency, todo,
                          path=args.campaign)
    except KeyboardInterrupt:
        interrupted = True
    done = len(campaign.done_runs())
    failed = len(campaign.failed_runs())
    if interrupted:
        print(f"interrupted: {done} done, {failed} failed, "
              f"{len(campaign.pending_runs())} pending; rerun `asuq run` "
              f"to evaluate the pending runs", file=sys.stderr, flush=True)
        # End by SIGINT, as an uncaught Ctrl-C would, so calling scripts stop.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    if not todo:
        print("no pending runs; nothing to do")
        return 0
    if all(rec.status == "failed" for rec in todo):
        raise EvaluatorError(f"all {len(todo)} attempted runs failed "
                             f"(first diagnostic: {todo[0].error})")
    print(f"{done} done, {failed} failed ({len(todo)} attempted this invocation)")
    return 0 if failed == 0 else EXIT_PARTIAL_FAILURE


def cmd_analyze(fitted: _FittedCampaign) -> int:
    args = fitted.args
    _bootstrap_reports(fitted)
    if args.threshold is not None or args.cdf or args.svg:
        write_json(fitted.out / "surrogate.json", fitted.surrogate)

    stages = ((args.corners, fitted.range),
              (args.threshold is not None, fitted.safeset),
              (args.cdf, fitted.cdf))
    return max((stage() for wanted, stage in stages if wanted), default=0)


def _bootstrap_reports(fitted: _FittedCampaign) -> None:
    """Bootstrap the direction; write results.json, summary.csv, summary.svg.

    Also prints the ranking and the discordant-pairs line. The replicates,
    their (N, M) cloud and the results lists are local here, so they are
    freed before ``analyze`` runs its range, safe-set and CDF stages.
    """
    from .active_subspace import (bootstrap_direction, bootstrap_quantiles,
                                  sensitivity_ranking)

    args, asub, summary = fitted.args, fitted.asub, fitted.summary
    replicates = bootstrap_direction(fitted.X, fitted.f, N=args.bootstrap,
                                     seed=args.seed, asub=asub)
    # Every sample projected onto every replicate direction: row k holds
    # the M points of replicate k.
    cloud = (fitted.X @ replicates.T).T
    ranking = sensitivity_ranking(asub, names=fitted.campaign.space.names)

    results = {
        "M": len(fitted.f),
        "m": fitted.campaign.m,
        "w": asub.w,
        "u_hat": asub.u_hat,
        "residual_norm": asub.residual_norm,
        "cond_estimate": asub.cond_estimate,
        "ranking": [
            {"name": n, "w": wi, "abs_w": awi} for n, wi, awi in ranking
        ],
        "discordant_pairs": summary.discordant_pairs,
        "bootstrap": {
            "N": args.bootstrap,
            "seed": args.seed,
            "quantiles": bootstrap_quantiles(replicates),
            "replicates": replicates,
        },
    }
    write_json(fitted.out / "results.json", results)

    with atomic_open(fitted.out / "summary.csv") as fh:
        fh.write("y,f,source\n")
        fh.writelines(_summary_rows(summary.y[None], fitted.f, "sample"))
        fh.writelines(_summary_rows(cloud, fitted.f, "bootstrap"))

    _print_ranking(ranking)
    print(f"discordant pairs in summary ordering: {summary.discordant_pairs}")
    if args.svg:
        _render_summary_svg(fitted, cloud)


def _summary_rows(ys, f, source: str) -> Iterator[str]:
    """Yield summary.csv rows ``y,f,source``, one string per row of ys.

    Each row of ys runs through the M samples, so the M ``,f,source``
    suffixes are formatted once into one %-template, which each row's
    projections fill in one call: one row is held at a time.
    """
    template = "".join([f"%r,{fv!r},{source}\n" for fv in f.tolist()])
    for row in ys:
        yield template % tuple(row.tolist())


def _render_summary_svg(fitted: _FittedCampaign, cloud) -> None:
    """Write summary.svg: the bootstrap cloud, the samples and the surrogate."""
    from .svgplot import SvgPlot

    summary, surr, args = fitted.summary, fitted.surrogate, fitted.args
    plot = SvgPlot(xlabel="active variable y = w . x",
                   ylabel="quantity of interest", title="summary plot")
    plot.scatter(cloud, fitted.f, radius=1.5, color="#999999", opacity=0.35)
    ys = np.linspace(surr.y_domain[0], surr.y_domain[1], 200)
    plot.line(ys, surr.predict(ys), color="#1166cc")
    if surr.sigma2_hat is not None:
        plot.line(ys, surr.upper_confidence(ys, args.level),
                  color="#1166cc", dashed=True)
    plot.scatter(summary.y, fitted.f, radius=3.0, color="#111111")
    if args.threshold is not None:
        plot.hline(args.threshold)
    plot.save(fitted.out / "summary.svg")


def cmd_scenario_shots_fit(args) -> int:
    from . import hyshot

    shots = hyshot.load_shots(args.shots)
    intercept, slope = hyshot.fit_T0_H0(shots, include_excluded=args.all)
    used = [s for s in shots if args.all or not s.excluded]
    print(f"T0 = {intercept:.4f} K + {slope:.6e} K/(J/kg) * H0 "
          f"({len(used)} shots used)")
    return 0


def cmd_scenario_inflow(args) -> int:
    from . import hyshot

    space = _load_space(args.space)
    x = np.zeros(space.m) if args.nominal else np.array(args.x)
    cond = hyshot.build_inflow(x, space)
    print(json.dumps(cond.to_params(), indent=2))
    return 0


def cmd_scenario_check(args) -> int:
    from . import hyshot
    from .param_space import hyshot_space

    intercept, slope = hyshot.fit_T0_H0(hyshot.load_shots())
    print(f"shot regression: T0 = {intercept:.4f} + {slope:.6e} * H0  "
          f"[K, H0 in J/kg]")

    ar = hyshot.area_mach_ratio(hyshot.NOMINAL_MACH)
    minv = hyshot.mach_from_area_ratio(ar)
    print(f"area ratio at Mach {hyshot.NOMINAL_MACH}: {ar:.2f} "
          f"(inverse solve: M = {minv:.6f})")

    growth = hyshot.eddy_growth_ratio()
    L0 = hyshot.nominal_dissipation_length()
    print(f"eddy growth ratio: {growth:.4f}; nominal dissipation length "
          f"{L0 * 1000:.1f} mm")

    for label, x_t0 in (("ramp", 0.145), ("cowl", 0.050)):
        lo, hi = hyshot.transition_range(x_t0)
        print(f"{label} transition range: [{lo:.3f}, {hi:.3f}] m")

    cond = hyshot.build_inflow(np.zeros(7), hyshot_space())
    print(f"nominal inflow: P={cond.P:.2f} Pa, T={cond.T:.2f} K, "
          f"U={cond.U_mag:.1f} m/s, k={cond.k:.2f} m2/s2, "
          f"omega={cond.omega:.2f} 1/s, "
          f"x_t=({cond.x_t_ramp:.3f}, {cond.x_t_cowl:.3f}) m")
    return 0


# -- parser construction ---------------------------------------------------------


def _flag_type(convert, accept, rule: str):
    """An argparse type: ``convert(text)`` when ``accept`` holds for it.

    Anything else is a usage error (exit 1) that names the flag and
    ``rule``, raised while parsing, before any file is read or written.
    """
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


_seed = _flag_type(int, lambda v: v >= 0,
                   "a seed must be a non-negative integer")
_finite = _flag_type(float, math.isfinite, "must be a finite number")
# NaN fails every comparison.
_level = _flag_type(float, lambda v: 0.5 < v < 1, "must lie in (0.5, 1)")
_noise = _flag_type(float, lambda v: 0 <= v < math.inf,
                    "must be a finite number >= 0")
_timeout = _flag_type(float, lambda v: 0 < v < math.inf,
                      "must be a finite number > 0")


def _key_value(text: str):
    """``KEY=VALUE`` as (key, value), the value a float when it parses as one."""
    key, value = text.split("=", 1)  # ValueError without a "="
    try:
        return key, float(value)
    except ValueError:
        return key, value


# A number must be finite: NaN and Infinity are not JSON.
_condition = _flag_type(
    _key_value,
    lambda kv: kv[0] and (not isinstance(kv[1], float) or math.isfinite(kv[1])),
    "must be KEY=VALUE with a non-empty KEY, and a number must be finite")
_point = _flag_type(lambda text: [float(v) for v in text.split(",")],
                    lambda x: all(map(math.isfinite, x)),
                    "must be comma-separated finite numbers")


def _count(floor: int):
    return _flag_type(int, lambda v: v >= floor,
                      f"must be an integer >= {floor}")


def _add_evaluator_flags(p) -> None:
    p.add_argument("--evaluator",
                   help="'ridge:<link>' builtin or an external command string")
    p.add_argument("--wtrue-seed", type=_seed, default=None,
                   help="seed deriving the true direction of a ridge evaluator")
    p.add_argument("--noise", type=_noise, default=0.0,
                   help="deterministic pseudo-noise amplitude for ridge evaluators")
    p.add_argument("--timeout", type=_timeout, default=None,
                   help="per-evaluation timeout in seconds (external commands)")


def _add_stage(sub, name: str, help: str, run):
    """A subcommand that fits ``--campaign`` and returns ``run(fitted)``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--campaign", required=True)
    p.add_argument("--out", help="output directory "
                   "(default: $ASUQ_OUTPUT_DIR or '.')")
    p.set_defaults(func=lambda args: run(_FittedCampaign(args)), corners=False)
    return p


def _add_threshold_flags(p, required: bool) -> None:
    p.add_argument("--threshold", type=_finite, required=required,
                   help="QoI safety threshold to invert")
    p.add_argument("--level", type=_level, default=0.99,
                   help="confidence level for the upper bound")


def _add_sampling_flags(p, *n_aliases: str) -> None:
    p.add_argument("--seed", type=_seed, required=True,
                   help="seed of the command's random draws")
    p.add_argument("--n", *n_aliases, type=_count(2), default=5000,
                   help="CDF sample count (default 5000)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="asuq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_space = sub.add_parser("space",
                             help="parameter-space utilities")
    space_sub = p_space.add_subparsers(dest="space_command", parser_class=_Parser)
    p_validate = space_sub.add_parser("validate",
                                      help="check a space definition file")
    p_validate.add_argument("--space", help="space JSON (default: bundled HyShot)")
    p_validate.set_defaults(func=cmd_space_validate)

    p_sample = sub.add_parser("sample",
                              help="draw a campaign of uniform samples")
    p_sample.add_argument("--space", help="space JSON (default: bundled HyShot)")
    p_sample.add_argument("-M", type=_count(1), required=True,
                          help="sample count")
    p_sample.add_argument("--seed", type=_seed, required=True)
    p_sample.add_argument("--out", dest="campaign", required=True,
                          help="campaign manifest to write")
    p_sample.add_argument("--condition", action="append", type=_condition,
                          metavar="KEY=VALUE",
                          help="condition metadata (repeatable)")
    p_sample.set_defaults(func=cmd_sample)

    p_run = sub.add_parser("run",
                           help="evaluate pending campaign runs")
    p_run.add_argument("--campaign", required=True)
    p_run.add_argument("--max-concurrency", type=_count(1), default=1)
    p_run.add_argument("--retry-failed", action="store_true",
                       help="evaluate failed runs again as well")
    _add_evaluator_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_analyze = _add_stage(sub, "analyze", "fit, bootstrap, and export reports",
                           cmd_analyze)
    _add_sampling_flags(p_analyze, "--n-cdf")
    p_analyze.add_argument("--bootstrap", type=_count(1), default=100,
                           metavar="N",
                           help="bootstrap replicate count (default 100)")
    _add_threshold_flags(p_analyze, required=False)
    p_analyze.add_argument("--corners", action="store_true",
                           help="evaluate the two extremizing corners")
    p_analyze.add_argument("--cdf", action="store_true",
                           help="estimate the output CDF")
    p_analyze.add_argument("--svg", action="store_true",
                           help="render summary/CDF SVG plots")
    p_analyze.set_defaults(grid_size=513)  # the cdf command's --grid-size
    _add_evaluator_flags(p_analyze)

    p_range = _add_stage(sub, "range", "corner-evaluation output range",
                         _FittedCampaign.range)
    _add_evaluator_flags(p_range)
    p_range.set_defaults(corners=True)  # the stage analyze --corners runs

    p_safe = _add_stage(sub, "safeset",
                        "invert a threshold into safe input ranges",
                        _FittedCampaign.safeset)
    _add_threshold_flags(p_safe, required=True)

    p_cdf = _add_stage(sub, "cdf", "estimate the output CDF from the surrogate",
                       _FittedCampaign.cdf)
    _add_sampling_flags(p_cdf)
    p_cdf.add_argument("--grid-size", type=_count(2), default=513)
    p_cdf.set_defaults(svg=False)  # cdf.svg comes with analyze --svg

    p_scen = sub.add_parser("scenario",
                            help="HyShot II characterization arithmetic")
    scen_sub = p_scen.add_subparsers(dest="scenario_command", parser_class=_Parser)

    p_shots = scen_sub.add_parser("shots-fit",
                                  help="stagnation temperature regression")
    p_shots.add_argument("--shots", help="shots CSV (default: bundled table)")
    p_shots.add_argument("--all", action="store_true",
                         help="include shots flagged excluded")
    p_shots.set_defaults(func=cmd_scenario_shots_fit)

    p_inflow = scen_sub.add_parser("inflow",
                                   help="solver boundary conditions for a point")
    p_inflow.add_argument("--space", help="space JSON (default: bundled HyShot)")
    point = p_inflow.add_mutually_exclusive_group(required=True)
    point.add_argument("--nominal", action="store_true",
                       help="use the nominal point x = 0")
    point.add_argument("--x", type=_point,
                       help="comma-separated normalized coordinates; "
                       "write --x=-1,... when the first is negative")
    p_inflow.set_defaults(func=cmd_scenario_inflow)

    p_check = scen_sub.add_parser("check",
                                  help="print the characterization reproductions")
    p_check.set_defaults(func=cmd_scenario_check)

    return parser


class _Stdout:
    """``sys.stdout`` for one command, kept working when its reader goes.

    A write to a pipe whose reader has exited (``asuq analyze ... | head``)
    raises BrokenPipeError. The stream's file descriptor is then pointed
    at os.devnull and the call made again, so the command still writes
    every report and returns the status it would have returned, with no
    traceback; the rest of its output is discarded.
    """

    def __init__(self, stream):
        self.stream = stream

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def write(self, text):
        return self._call(self.stream.write, text)

    def flush(self):
        return self._call(self.stream.flush)

    def _call(self, method, *args):
        try:
            return method(*args)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, self.stream.fileno())
            os.close(devnull)
            return method(*args)


def main(argv=None) -> int:
    parser = build_parser()
    stdout, sys.stdout = sys.stdout, _Stdout(sys.stdout)
    try:
        args = parser.parse_args(argv)
        func = getattr(args, "func", None)
        if func is None:
            parser.print_help()
            return 1
        return int(func(args) or 0)
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (None, 0) else 1
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a report or campaign that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code
    finally:
        sys.stdout.flush()
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
