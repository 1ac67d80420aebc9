"""Evaluation campaigns: sampled points, black-box results, persistence.

A campaign records normalized sample points (their physical values are
their image under its parameter space) and the scalar an evaluator
returns at each. Evaluators take an :class:`EvalRequest`; synthetic
ridges and external subprocess commands are built in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ._fileio import jsonable, write_json
from .errors import DataError, EvaluatorError, UsageError
from .param_space import SAMPLER_VERSION, ParameterSpace, sample_hypercube

__all__ = [
    "RunRecord",
    "EvalRequest",
    "Campaign",
    "new_campaign",
    "evaluate_campaign",
    "save_campaign",
    "load_campaign",
    "append_run",
    "synthetic_ridge",
    "ridge_direction",
    "CommandEvaluator",
    "RIDGE_LINKS",
]


@dataclass
class RunRecord:
    """One evaluation of the quantity of interest at a sampled point.

    ``role`` distinguishes the original design samples from auxiliary
    corner validation runs, which never feed the direction fits.
    """

    index: int
    x: np.ndarray
    status: str = "pending"  # pending | done | failed
    f: float | None = None
    error: str | None = None
    role: str = "sample"     # sample | corner

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)


@dataclass(frozen=True)
class EvalRequest:
    """What an evaluator sees for a single run."""

    index: int
    x: np.ndarray
    params: dict[str, float]
    condition: dict


class Campaign:
    """A parameter space plus the ordered run records sampled from it.

    ``sampler`` is the version of :func:`~asuq.param_space.sample_hypercube`
    that drew the design points (see ``SAMPLER_VERSION``); equal seeds
    reproduce the points only within one version.
    """

    def __init__(self, space: ParameterSpace, seed: int,
                 condition: Mapping | None = None,
                 runs: Sequence[RunRecord] | None = None,
                 sampler: int = SAMPLER_VERSION):
        self.space = space
        self.seed = int(seed)
        self.sampler = int(sampler)
        self.condition = dict(condition or {})
        self.runs = list(runs or [])
        self._check_indices()

    def _check_indices(self):
        for i, rec in enumerate(self.runs):
            if rec.index != i:
                raise DataError(
                    f"run indices must be contiguous from 0; "
                    f"position {i} holds index {rec.index}"
                )

    @property
    def m(self) -> int:
        return self.space.m

    def done_runs(self) -> list[RunRecord]:
        return [r for r in self.runs if r.status == "done"]

    def pending_runs(self) -> list[RunRecord]:
        return [r for r in self.runs if r.status == "pending"]

    def failed_runs(self) -> list[RunRecord]:
        return [r for r in self.runs if r.status == "failed"]

    def design_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stack done design runs into (X, f); the fit checks M >= m+1.

        Failed runs never contribute (excluded, not imputed), and corner
        validation runs are excluded so re-analysis after a range
        estimate reproduces the original fit.
        """
        done = [r for r in self.done_runs() if r.role == "sample"]
        if not done:
            raise DataError("campaign has no completed runs")
        X = np.array([r.x for r in done])
        f = np.array([r.f for r in done], dtype=float)
        return X, f

    def append_point(self, x: np.ndarray, role: str = "sample") -> RunRecord:
        """Add one pending run at a caller-chosen normalized point."""
        rec = RunRecord(index=len(self.runs), x=x, role=role)
        self.runs.append(rec)
        return rec


def new_campaign(space: ParameterSpace, M: int, seed: int,
                 condition: Mapping | None = None) -> Campaign:
    """Create a campaign with M pending runs sampled uniformly.

    The manifest records ``sampler`` = ``SAMPLER_VERSION``, the version of
    the sampler that drew the points.
    """
    if M < 1:
        raise DataError(f"sample count must be >= 1, got {M}")
    X = sample_hypercube(space.m, M, seed)
    runs = [RunRecord(index=j, x=X[j]) for j in range(M)]
    return Campaign(space, seed, condition, runs, sampler=SAMPLER_VERSION)


# -- evaluation ------------------------------------------------------------

def evaluate_campaign(campaign: Campaign,
                      evaluator: Callable[[EvalRequest], float],
                      max_concurrency: int = 1,
                      runs: Sequence[RunRecord] | None = None,
                      *, path=None) -> None:
    """Run the evaluator on every pending run, or on the given runs.

    Given ``runs`` are attempted unless already done (resume semantics).
    Each result depends only on the run's own point, so the final table is
    independent of ``max_concurrency`` and of completion order. The
    evaluator runs on a worker thread at every concurrency; the calling
    thread alone records each outcome as it completes, a failure (even of
    every run) in the run's ``status`` and ``error``. After an interrupt,
    or any other ``BaseException`` from the evaluator, it records nothing
    more and re-raises it once the evaluations in flight return.

    Given the ``path`` of its manifest, it first folds a leftover journal
    in (:func:`save_campaign`), so no append follows a torn line, appends
    each recorded run (:func:`append_run`), and saves the manifest once the
    workers return, after an interrupt too, if it attempted any run.
    """
    if max_concurrency < 1:
        raise UsageError(f"max_concurrency must be >= 1, got {max_concurrency}")
    todo = campaign.pending_runs() if runs is None else \
        [r for r in runs if r.status != "done"]
    if path is not None and journal_path(path).exists():
        save_campaign(campaign, path)
    import queue
    import threading
    from collections import deque

    def _one(rec: RunRecord):
        req = EvalRequest(
            index=rec.index,
            x=rec.x.copy(),
            params=dict(zip(campaign.space.names,
                            campaign.space.denormalize(rec.x).tolist())),
            condition=dict(campaign.condition),
        )
        try:
            value = float(evaluator(req))
            if not math.isfinite(value):
                raise EvaluatorError(f"run {rec.index}: non-finite result {value}")
        except Exception as exc:
            return None, str(exc)
        return value, None

    # Workers take runs from the left of `queued`; clearing it (one atomic
    # call) stops every worker after its current run.
    queued = deque(todo)
    completed = queue.SimpleQueue()

    def _work():
        while True:
            try:
                rec = queued.popleft()
            except IndexError:
                return
            try:
                result = _one(rec)
            except BaseException as exc:  # re-raised by the calling thread
                queued.clear()
                result = exc
            completed.put((rec, result))

    workers = []
    try:
        for _ in range(min(max_concurrency, len(todo))):
            worker = threading.Thread(target=_work)
            worker.start()
            workers.append(worker)
        for _ in todo:
            rec, result = completed.get()
            if isinstance(result, BaseException):
                raise result
            rec.f, rec.error = result
            rec.status = "done" if rec.error is None else "failed"
            if path is not None:
                append_run(path, rec, campaign.space)
    finally:
        queued.clear()
        for worker in workers:
            worker.join()
        if path is not None and todo:
            save_campaign(campaign, path)


# -- persistence -----------------------------------------------------------

def _record_to_dict(rec: RunRecord, space: ParameterSpace) -> dict:
    d = {
        "index": rec.index,
        "x": rec.x,
        "p": space.denormalize(rec.x),
        "status": rec.status,
    }
    if rec.f is not None:
        d["f"] = float(rec.f)
    if rec.error is not None:
        d["error"] = rec.error
    if rec.role != "sample":
        d["role"] = rec.role
    return d


def _point(rd: dict, m: int) -> np.ndarray:
    """A run record's ``x``: m finite JSON numbers in [-1, 1]."""
    values = rd["x"]
    # type(), not isinstance(): a JSON true is a bool, not a number.
    if type(values) is list and len(values) == m and all(
            type(v) in (int, float) and math.isfinite(v) and abs(v) <= 1.0
            for v in values):
        return np.array(values, dtype=float)
    raise DataError(f"run {rd['index']}: x must hold {m} finite numbers "
                    f"in [-1, 1], got {values!r}")


def _record_from_dict(rd: dict, space: ParameterSpace) -> RunRecord:
    # Unknown keys, such as the run times older versions stored, are ignored.
    try:
        index, f, error = rd["index"], rd.get("f"), rd.get("error")
        # type(), not isinstance(): a JSON true is a bool, not a number.
        if type(index) is not int:
            raise DataError(f"bad run record: index must be an integer, "
                            f"got {index!r}")
        if f is not None and type(f) not in (int, float):
            raise DataError(f"run {index}: f must be a number or null, "
                            f"got {f!r}")
        if error is not None and type(error) is not str:
            raise DataError(f"run {index}: error must be a string or null, "
                            f"got {error!r}")
        # asuq derives p from x, so a stored p must be exactly the space's
        # image of x: the writer forms it so, and repr round-trips floats.
        x, p, m = _point(rd, space.m), rd["p"], space.m
        rule = f"run {index}: p must hold {m} finite numbers, the space's image of x"
        if type(p) is not list or len(p) != m:
            raise DataError(f"{rule}, got {p!r}")
        for i, (v, image) in enumerate(zip(p, space.denormalize(x).tolist())):
            if not (type(v) in (int, float) and math.isfinite(v) and v == image):
                raise DataError(f"{rule}; parameter {i} ({space.names[i]}) "
                                f"holds {v!r}, the space maps x to {image!r}")
        rec = RunRecord(
            index=index,
            x=x,
            status=str(rd["status"]),
            f=None if f is None else float(f),
            error=error,
            role=str(rd.get("role", "sample")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bad run record: {exc}") from exc
    if rec.status not in ("pending", "running", "done", "failed"):
        raise DataError(f"run {rec.index}: unknown status {rec.status!r}")
    if rec.role not in ("sample", "corner"):
        raise DataError(f"run {rec.index}: unknown role {rec.role!r}")
    if rec.status == "done" and (rec.f is None or not math.isfinite(rec.f)):
        raise DataError(f"run {rec.index} marked done without a finite result")
    if rec.status == "running":
        rec.status = "pending"  # written by older versions: retry on resume
    return rec


def journal_path(path) -> Path:
    """The run journal that sits next to the campaign manifest at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".journal")


def append_run(path, rec: RunRecord, space: ParameterSpace) -> None:
    """Append one finished run to the journal of the manifest at ``path``.

    One compact JSON line per call, not fsynced: a kill can at worst tear
    the last line, which :func:`load_campaign` ignores. Callers must
    serialise the calls, and compact a journal that may end in a torn line
    (:func:`save_campaign`) before appending to it, as
    ``evaluate_campaign`` does.
    """
    with open(journal_path(path), "a") as fh:
        fh.write(json.dumps(_record_to_dict(rec, space), default=jsonable) + "\n")


def save_campaign(campaign: Campaign, path) -> None:
    """Write the campaign manifest as JSON (deterministic formatting).

    The write is atomic: a temp file in the same directory is fsynced and
    renamed over the manifest, and the directory is fsynced. The run
    journal, now folded into the manifest, is then removed.
    """
    manifest = {
        "space": campaign.space.params,
        "seed": campaign.seed,
        "sampler": campaign.sampler,
        "condition": {k: campaign.condition[k] for k in sorted(campaign.condition)},
        "runs": [_record_to_dict(r, campaign.space) for r in campaign.runs],
    }
    write_json(path, manifest)
    journal_path(path).unlink(missing_ok=True)


def _fold_journal(runs: list[RunRecord], path: Path, space: ParameterSpace) -> None:
    """Replace manifest records by their journal lines; the last line wins."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        return
    except OSError as exc:
        raise DataError(f"cannot read journal {path}: {exc}") from exc
    # The final segment is empty after a clean write and a torn line after
    # a kill mid-write; either way it carries no finished run.
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        try:
            rec = _record_from_dict(json.loads(line), space)
        except (json.JSONDecodeError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: bad journal line: {exc}") from exc
        if not 0 <= rec.index < len(runs):
            raise DataError(
                f"{path}:{lineno}: run index {rec.index} outside the "
                f"manifest's {len(runs)} runs"
            )
        runs[rec.index] = rec


def load_campaign(path) -> Campaign:
    """Read a campaign manifest and fold in its run journal, if any."""
    try:
        manifest = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read campaign {path}: {exc}") from exc
    if type(manifest) is not dict:
        raise DataError(f"campaign {path} is not a JSON object")
    for key in ("space", "seed", "runs"):
        if key not in manifest:
            raise DataError(f"campaign manifest missing '{key}'")
    # Manifests written before the sampler was versioned hold version 1
    # points (one PCG64 stream per row); they keep that label on save.
    manifest.setdefault("sampler", 1)
    manifest.setdefault("condition", {})
    # type(), not isinstance(): a JSON true is a bool, not a seed.
    for key, kind, what in (("space", list, "an array"),
                            ("seed", int, "an integer"),
                            ("sampler", int, "an integer"),
                            ("condition", dict, "an object"),
                            ("runs", list, "an array")):
        if type(manifest[key]) is not kind:
            raise DataError(
                f"campaign {key} must be {what}, got {manifest[key]!r}")
    try:  # NaN and Infinity are not JSON; every evaluator reads the condition
        json.dumps(manifest["condition"], allow_nan=False)
    except ValueError:
        raise DataError(f"campaign condition must hold finite numbers, got "
                        f"{manifest['condition']!r}") from None
    space = ParameterSpace.from_dict(manifest["space"])
    campaign = Campaign(space, manifest["seed"], manifest["condition"],
                        [_record_from_dict(rd, space)
                         for rd in manifest["runs"]],
                        sampler=manifest["sampler"])
    _fold_journal(campaign.runs, journal_path(path), space)
    return campaign


# -- built-in synthetic evaluators ------------------------------------------

RIDGE_LINKS: dict[str, Callable[[float], float]] = {
    "linear": lambda t: t,
    "cubic-monotone": lambda t: t ** 3 + t,
    "logistic": lambda t: 1.0 / (1.0 + math.exp(-t)),
    "quadratic": lambda t: t ** 2,
}


def ridge_direction(m: int, seed: int) -> np.ndarray:
    """Deterministic random unit vector used as a synthetic true direction."""
    g = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xA5,))).standard_normal(m)
    return g / np.linalg.norm(g)


def _pseudo_noise(x: np.ndarray) -> float:
    """Standard-normal draw keyed deterministically by the point itself."""
    import hashlib

    digest = hashlib.blake2b(np.ascontiguousarray(x, dtype=float).tobytes(),
                             digest_size=8).digest()
    return float(np.random.default_rng(int.from_bytes(digest, "little")).standard_normal())


def synthetic_ridge(w_true: np.ndarray, link: str = "linear",
                    noise: float = 0.0) -> Callable[[EvalRequest], float]:
    """Evaluator computing g(w_true . x) for a monotone (or quadratic) link.

    Optional noise adds a deterministic pseudo-random perturbation keyed
    by x, so repeated evaluation of the same point is reproducible.
    """
    w_true = np.asarray(w_true, dtype=float)
    if abs(np.linalg.norm(w_true) - 1.0) > 1e-9:
        raise DataError("w_true must be a unit vector")
    if link not in RIDGE_LINKS:
        raise UsageError(
            f"unknown link {link!r}; choose from {sorted(RIDGE_LINKS)}"
        )
    if not (math.isfinite(noise) and noise >= 0):
        raise UsageError(f"noise must be a finite number >= 0, got {noise}")
    g = RIDGE_LINKS[link]

    def evaluator(req: EvalRequest) -> float:
        y = float(np.dot(w_true, req.x))
        value = g(y)
        if noise > 0:
            value += noise * _pseudo_noise(req.x)
        return value

    return evaluator


# -- external command evaluator ---------------------------------------------

@dataclass
class CommandEvaluator:
    """Run a user command per point via the JSON stdin/stdout protocol.

    The command receives ``{"index": n, "params": {...}, "condition": {...}}``
    on standard input and must print ``{"qoi": <JSON number>}`` and exit 0.
    Output is decoded with replacement; a failure keeps stderr's last 200
    characters.
    """

    argv: Sequence[str]
    timeout: float | None = None

    def __post_init__(self):
        # Loaded here, on the thread that builds the evaluator, so the
        # worker threads that call it find subprocess already loaded.
        import shlex
        import subprocess

        if isinstance(self.argv, str):
            try:
                self.argv = shlex.split(self.argv)
            except ValueError as exc:  # an unbalanced quote
                raise UsageError(f"cannot split evaluator command "
                                 f"{self.argv!r}: {exc}") from exc
        if not self.argv:
            raise UsageError("empty evaluator command")
        if self.timeout is not None and not (math.isfinite(self.timeout)
                                             and self.timeout > 0):
            raise UsageError(f"timeout must be a finite number of seconds "
                             f"> 0, got {self.timeout}")

    def __call__(self, req: EvalRequest) -> float:
        import subprocess

        payload = json.dumps({
            "index": req.index,
            "params": req.params,
            "condition": req.condition,
        })
        try:
            proc = subprocess.run(
                list(self.argv), input=payload, capture_output=True,
                text=True, errors="replace", timeout=self.timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise EvaluatorError(
                f"run {req.index}: evaluator timed out after {self.timeout}s"
            ) from exc
        except OSError as exc:
            raise EvaluatorError(f"run {req.index}: cannot launch evaluator: {exc}") from exc
        if proc.returncode != 0:
            raise EvaluatorError(
                f"run {req.index}: evaluator exited {proc.returncode}: "
                f"{proc.stderr.strip()[-200:]}"
            )
        # The qoi object may be preceded by solver chatter; use the last line
        # that parses as JSON.
        for line in reversed(proc.stdout.strip().splitlines()):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict) and "qoi" in obj:
                qoi = obj["qoi"]
                if type(qoi) not in (int, float):  # JSON numbers; bool is not one
                    raise EvaluatorError(f"run {req.index}: non-numeric qoi {qoi!r}")
                return float(qoi)
        raise EvaluatorError(
            f"run {req.index}: no {{\"qoi\": ...}} object on evaluator stdout"
        )
