"""Traced launcher: run one ``asuq`` CLI stage with its layers wrapped.

Usage: python launcher.py TRACE_JSON ASUQ_ARGS...

Wraps, from outside the program, the public functions of each ``asuq``
module (and the few methods that do a layer's work), then calls
``asuq.cli.main(ASUQ_ARGS)``. Each call becomes a span ``[name, id,
parent, start, end, failed, extra]``; spans stay in memory and are
written to TRACE_JSON when the stage ends. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

LAYERS = ("param_space", "campaign", "active_subspace", "surrogate",
          "uq_analysis", "svgplot")

# (module, class, method) -> span name, for work done in methods.
METHODS = {
    ("campaign", "CommandEvaluator", "__call__"): "campaign.evaluator",
    ("surrogate", "QuadraticSurrogate", "upper_confidence"):
        "surrogate.upper_confidence",
    ("svgplot", "SvgPlot", "save"): "svgplot.save",
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(pos, name):
    def extra(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, pos, name))}
    return extra


def _cdf_extra(args, kwargs, result):
    evals = 0 if result.degenerate else len(result.grid) * result.n_samples
    return {"kernel_evals": evals, "temp_bytes": 8 * evals}


# span name -> hook returning extra counts from (args, kwargs, result).
EXTRAS = {
    "campaign.save_campaign": _file_bytes(1, "path"),
    "svgplot.save": _file_bytes(1, "path"),
    "param_space.sample_hypercube":
        lambda args, kwargs, result: {"rows": len(result)},
    "uq_analysis.estimate_cdf": _cdf_extra,
}

# span name -> span name for the callable the function returns.
RETURNS = {"campaign.synthetic_ridge": "campaign.evaluator"}


class Tracer:
    """In-memory span recorder shared by every wrapped call in the process.

    A span's parent is the innermost open span of its own thread; a span
    opened on a worker thread with nothing open attaches to the innermost
    open span of the main thread, the call that started the workers.
    """

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._next_id = 0

    def _open(self):
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and ident != self._main else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        return span_id, parent, stack

    def wrap(self, name, func, extra=None, returns=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id, parent, stack = self._open()
            failed = True
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = extra(args, kwargs, result) \
                    if extra is not None and not failed else {}
                self.spans.append(
                    [name, span_id, parent, start, end, failed, counts])
            return result if returns is None else self.wrap(returns, result)
        return traced

    def install(self):
        """Replace each public function everywhere asuq binds it by name."""
        import asuq
        import asuq.cli
        modules = [asuq, asuq.cli] + [
            importlib.import_module(f"asuq.{n}") for n in LAYERS]
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"asuq.{layer}")
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, EXTRAS.get(name),
                                             RETURNS.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for (layer, cls_name, method), name in METHODS.items():
            cls = getattr(importlib.import_module(f"asuq.{layer}"), cls_name)
            setattr(cls, method,
                    self.wrap(name, getattr(cls, method), EXTRAS.get(name)))


def main(argv) -> int:
    trace_path, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    import asuq.cli
    run_cli = tracer.wrap("cli.main", asuq.cli.main)
    code = 1
    try:
        code = run_cli(cli_args)
    finally:
        with open(trace_path, "w") as fh:
            json.dump({"exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
