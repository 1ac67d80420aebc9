"""Per-layer metrics from the spans the traced launcher writes.

A span is ``[name, id, parent, start, end, failed, extra]``. A span's
self time is its duration minus the union of its children's intervals,
clipped to the span; children on different threads may overlap.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("campaign.save_campaign.calls", "count"),
    ("campaign.save_campaign.s", "s"),
    ("campaign.save_campaign.bytes", "B"),
    ("campaign.load_campaign.s", "s"),
    ("campaign.evaluator.calls", "count"),
    ("campaign.evaluator.failed", "count"),
    ("campaign.evaluator.s", "s"),
    ("campaign.evaluator.p50_ms", "ms"),
    ("campaign.evaluator.p95_ms", "ms"),
    ("campaign.evaluate_campaign.self_s", "s"),
    ("param_space.sample_hypercube.calls", "count"),
    ("param_space.sample_hypercube.rows", "count"),
    ("param_space.sample_hypercube.s", "s"),
    ("active_subspace.fit_active_direction.calls", "count"),
    ("active_subspace.summary_data.calls", "count"),
    ("active_subspace.bootstrap_direction.s", "s"),
    ("surrogate.fit_quadratic.s", "s"),
    ("surrogate.upper_confidence.calls", "count"),
    ("uq_analysis.invert_safe_set.s", "s"),
    ("uq_analysis.inscribed_box.calls", "count"),
    ("uq_analysis.estimate_range.s", "s"),
    ("uq_analysis.estimate_cdf.self_s", "s"),
    ("uq_analysis.estimate_cdf.kernel_evals", "count"),
    ("uq_analysis.estimate_cdf.temp_bytes", "B"),
    ("svgplot.save.calls", "count"),
    ("svgplot.save.s", "s"),
    ("svgplot.save.bytes", "B"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"),
]

# Modules whose cumulative ``-X importtime`` is reported as setup.import_s.*
IMPORT_MODULES = ("asuq", "asuq.cli", "asuq.errors", "asuq.param_space",
                  "asuq.campaign", "asuq.active_subspace", "asuq.surrogate",
                  "asuq.uq_analysis", "asuq.svgplot", "asuq.hyshot",
                  "scipy.stats")
PER_LAYER += [(f"setup.import_s.{m}", "s") for m in IMPORT_MODULES]


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _, _, parent, start, end, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for _, span_id, _, start, end, _, _ in spans:
        clipped = [(max(lo, start), min(hi, end))
                   for lo, hi in children[span_id] if hi > start and lo < end]
        out[span_id] = (end - start) - union_length(clipped)
    return out


def stage_totals(spans) -> dict[str, float]:
    """Calls, busy seconds, self seconds, failures and extra counts by name."""
    selfs = self_times(spans)
    totals = defaultdict(float)
    for name, span_id, _, start, end, failed, extra in spans:
        totals[f"{name}.calls"] += 1
        totals[f"{name}.s"] += end - start
        totals[f"{name}.self_s"] += selfs[span_id]
        totals[f"{name}.failed"] += bool(failed)
        for key, value in extra.items():
            totals[f"{name}.{key}"] += value
    return totals


def percentile_ms(durations, q: int) -> float:
    """The q-th percentile (1..99) of durations in seconds, in ms."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1000.0 * durations[0]
    return 1000.0 * statistics.quantiles(durations, n=100)[q - 1]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        out.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
    return out


def layer_metrics(traces, cli_bytes: float, overhead_s: float,
                  imports: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pipeline's stage traces."""
    totals = defaultdict(float)
    evaluator_durations = []
    for spans in traces:
        for key, value in stage_totals(spans).items():
            totals[key] += value
        evaluator_durations += [end - start for name, _, _, start, end, _, _
                                in spans if name == "campaign.evaluator"]
    totals["campaign.evaluator.p50_ms"] = percentile_ms(evaluator_durations, 50)
    totals["campaign.evaluator.p95_ms"] = percentile_ms(evaluator_durations, 95)
    totals["cli.self_s"] = totals["cli.main.self_s"]
    totals["cli.bytes_written"] = cli_bytes
    totals["trace.overhead_s"] = overhead_s
    for module in IMPORT_MODULES:
        totals[f"setup.import_s.{module}"] = imports.get(module, 0.0)
    return {name: totals[name] for name, _ in PER_LAYER}
