"""Benchmark-owned black box for asuq's external-command protocol.

Usage: python evaluator.py CONFIG_JSON

Reads ``{"index": n, "params": {...}, "condition": {...}}`` on standard
input, prints solver chatter and then ``{"qoi": <real>}``, and exits 0.
Indices listed in the config's ``fail`` set exit 3 instead, so a workload
knows exactly which runs must come back failed. The quantity of interest
is a mildly cubic ridge ``y + 0.3 * y**3`` of ``y = w . x``, where ``x`` is the point
normalized to [-1, 1]^m with the config's parameter ranges.

Stdlib only, so each evaluation costs one bare interpreter start. The
benchmark imports the helpers below to build the same function in-process.
"""

from __future__ import annotations

import json
import math
import random
import sys


def ridge_link(y: float) -> float:
    # Mild enough that asuq's quadratic surrogate keeps a narrow band over
    # the whole active-variable domain, so the safe set stays partial.
    return y + 0.3 * y ** 3


def leads_positive(w, margin: float = 1.5) -> bool:
    """Largest component positive and ``margin`` times the runner-up.

    asuq's sign convention makes the fitted direction's largest component
    positive. With a clear, positive leader the fitted direction keeps
    the sign of ``w``, so the output rises along the fitted active
    variable and a threshold at the centre value gives a partial safe set.
    """
    first, second = sorted((abs(v) for v in w), reverse=True)[:2]
    return max(w, key=abs) > 0 and first >= margin * second


def unit_direction(m: int, seed: int) -> list[float]:
    """Random unit vector that ``leads_positive``."""
    rng = random.Random(seed)
    while True:
        g = [rng.gauss(0.0, 1.0) for _ in range(m)]
        norm = math.sqrt(sum(v * v for v in g))
        w = [v / norm for v in g]
        if max(w, key=abs) < 0:
            w = [-v for v in w]
        if leads_positive(w):
            return w


def ridge_value(w, x) -> float:
    return ridge_link(sum(wi * xi for wi, xi in zip(w, x)))


def failing_indices(M: int, seed: int, share: float = 0.05) -> list[int]:
    """The fixed subset of run indices the evaluator refuses (about 5 %)."""
    return sorted(random.Random(seed).sample(range(M), int(M * share)))


def evaluate(config: dict, request: dict) -> float:
    """QoI for one request; raises ValueError for a designed failure."""
    index = request["index"]
    if index in config["fail"]:
        raise ValueError(f"designed failure at index {index}")
    params = request["params"]
    x = [2.0 * (params[n] - lo) / (hi - lo) - 1.0
         for n, lo, hi in zip(config["names"], config["mins"], config["maxs"])]
    return ridge_value(config["w"], x)


def main(argv) -> int:
    with open(argv[1]) as fh:
        config = json.load(fh)
    request = json.loads(sys.stdin.read())
    for step in range(config.get("chatter", 0)):
        print(f"solver: step {step:4d} residual {10.0 ** (-step / 10):.3e}")
    try:
        value = evaluate(config, request)
    except ValueError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"qoi": value}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
