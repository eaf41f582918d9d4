"""Per-layer spans around liemult's public functions, installed from outside.

The tracer wraps the functions and methods named in ``SPANS`` without
touching ``src/``.  Every module binding of a wrapped function is replaced,
so a name imported with ``from .additive import sample_additive`` is traced
wherever it is called.  Spans nest: a span's self time is its duration minus
the time of the spans it encloses.  Spans are aggregated in memory per name
(calls, self time, and one work count taken from the arguments or result at
the same boundary) and written out when the run ends.

Run as a script it executes one traced ``liemult run`` at ``--jobs 1``::

    python perfbench/tracer.py --config cfg.json --out reports --result trace.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(shape) -> int:
    """Number of group elements in an array of shape (..., dim)."""
    return math.prod(shape[:-1])


def _shape(value):
    return getattr(value, "shape", ())


@dataclass(frozen=True)
class Span:
    """One layer boundary: its targets, and an optional work counter."""

    name: str
    targets: tuple[tuple[str, str], ...]  # (module, "function" or "Class.method")
    work: str | None = None  # metric name of the work count
    count: Callable | None = None  # (args, kwargs, result) -> int


SPANS = (
    Span("additive.sample_additive", (("liemult.additive", "sample_additive"),),
         "additive.cells_sampled", lambda a, k, r: _arg(a, k, 1, "grid").n_cells),
    Span("additive.sample_times", (("liemult.additive", "PiecewiseConstantRate.sample_times"),)),
    Span("additive.refine", (("liemult.additive", "AdditivePath.refine"),)),
    Span("rng.substream", (("liemult.rng", "substream"),)),
    Span("groups.mul", (("liemult.groups", "HeisenbergGroup.mul"),
                        ("liemult.groups", "UnipotentGroup.mul")),
         "groups.mul.elements", lambda a, k, r: _rows(_shape(r))),
    Span("groups.norm", (("liemult.groups", "HeisenbergGroup.norm"),
                         ("liemult.groups", "UnipotentGroup.norm")),
         "groups.norm.elements", lambda a, k, r: math.prod(_shape(r))),
    Span("groups.exp", (("liemult.groups", "HeisenbergGroup.exp"),
                        ("liemult.groups", "UnipotentGroup.exp"))),
    Span("groups.log", (("liemult.groups", "HeisenbergGroup.log"),
                        ("liemult.groups", "UnipotentGroup.log"))),
    Span("groups.prefix_products", (("liemult.groups", "_NilpotentGroup.prefix_products"),
                                    ("liemult.groups", "HeisenbergGroup.prefix_products")),
         "groups.prefix_products.cells",
         lambda a, k, r: _rows(_shape(_arg(a, k, 1, "increments")))),
    Span("groups.pairwise_chart_norms",
         (("liemult.groups", "_NilpotentGroup.pairwise_chart_norms"),),
         "groups.pairwise_chart_norms.pairs", lambda a, k, r: math.prod(_shape(r))),
    Span("multiplicative.batch_prefixes", (("liemult.multiplicative", "batch_prefixes"),),
         "multiplicative.batch_prefixes.paths", lambda a, k, r: _arg(a, k, 3, "trials")),
    Span("multiplicative.product_exponential",
         (("liemult.multiplicative", "product_exponential"),)),
    Span("multiplicative.verify_multiplicative",
         (("liemult.multiplicative", "verify_multiplicative"),)),
    Span("multiplicative.convergence_study", (("liemult.multiplicative", "convergence_study"),)),
    # one DP state per (batch entry, chain end point)
    Span("regularity.oscillation_dp",
         (("liemult.regularity", "oscillation_counts_from_outside"),),
         "regularity.oscillation_dp.states",
         lambda a, k, r: math.prod(_shape(_arg(a, k, 0, "outside"))[:-1])),
    Span("regularity.exhaustive_reference",
         (("liemult.regularity", "exhaustive_count_reference"),)),
    Span("regularity.mc_batteries", (("liemult.regularity", "mc_maximum_oscillation"),
                                     ("liemult.regularity", "mc_largest_step"),
                                     ("liemult.regularity", "mc_expectation_bound"),
                                     ("liemult.regularity", "uniform_continuity_probe"),
                                     ("liemult.regularity", "oscillation_axioms_test"))),
    Span("geometry.step_count_upper", (("liemult.geometry", "step_count_upper"),)),
    Span("geometry.step_counts_batch", (("liemult.geometry", "step_counts_batch"),),
         "geometry.step_counts_batch.elements",
         lambda a, k, r: _rows(_shape(_arg(a, k, 1, "elements")))),
    Span("geometry.moment_batteries", (("liemult.geometry", "exp_moment_estimate"),
                                       ("liemult.geometry", "tail_decay_fit"),
                                       ("liemult.geometry", "metric_modulus_curve"))),
    Span("jumps.batteries", (("liemult.jumps", "detector_fidelity"),
                             ("liemult.jumps", "poisson_battery"),
                             ("liemult.jumps", "restart_probe"))),
    Span("stats.ks", (("liemult.stats", "batched_ks_exponential"),
                      ("liemult.stats", "batched_ks_two_sample")),
         "stats.ks.pvalues", lambda a, k, r: len(r["batch_pvalues"])),
    Span("config.build_context", (("liemult.config", "build_context"),)),
    Span("experiments.run_experiment", (("liemult.experiments", "run_experiment"),)),
    Span("reporting.dump_json", (("liemult.reporting", "dump_json"),),
         "reporting.bytes_written", lambda a, k, r: len(r)),
    Span("cli", (("liemult.cli", "main"),)),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    units = {}
    for span in SPANS:
        units[f"{span.name}.self_s"] = "s"
        units[f"{span.name}.calls"] = "count"
        if span.work:
            units[span.work] = "count"
    return {**units, "trace.overhead_s": "s", "trace.coverage": "ratio"}


class Tracer:
    """Installs the spans, aggregates them, and restores the originals."""

    def __init__(self):
        self.stats = {span.name: {"calls": 0, "self_s": 0.0, "work": 0} for span in SPANS}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, stats, count):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enclosed = [0.0]
            stack.append(enclosed)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats["calls"] += 1
                stats["self_s"] += elapsed - enclosed[0]
            if count is not None:
                stats["work"] += count(args, kwargs, result)
            return result

        return wrapper

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        importlib.import_module("liemult.cli")  # imports every other module
        modules = [m for n, m in sys.modules.items() if n == "liemult" or n.startswith("liemult.")]
        for span in SPANS:
            stats = self.stats[span.name]
            for module_name, qualname in span.targets:
                owner = sys.modules[module_name]
                *cls_path, attr = qualname.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                wrapper = self._wrap(original, stats, span.count)
                if cls_path:
                    self._replace(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self) -> dict[str, float]:
        out = {}
        for span in SPANS:
            stats = self.stats[span.name]
            out[f"{span.name}.self_s"] = stats["self_s"]
            out[f"{span.name}.calls"] = stats["calls"]
            if span.work:
                out[span.work] = stats["work"]
        return out


def traced_run(config: str, out: str) -> tuple[int, Tracer]:
    """One ``liemult run <config> --out <out> --jobs 1`` under the tracer."""
    tracer = Tracer()
    with tracer.installed():
        cli = sys.modules["liemult.cli"]
        code = cli.main(["run", config, "--out", out, "--jobs", "1"])
    return code, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True, help="where to write the span totals")
    args = parser.parse_args(argv)
    code, tracer = traced_run(args.config, args.out)
    with open(args.result, "w") as fh:
        json.dump({"exit_code": code, "missing": tracer.missing,
                   "metrics": tracer.metrics()}, fh, indent=2, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
