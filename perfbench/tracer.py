"""In-memory span tracer for the nvreadout layers, and its per-layer summary.

The tracer records spans from outside the package: it replaces the module
attributes through which one layer calls the next (``harness.window_expectation``,
``rabi.fit_sinusoid``, the ``expm`` bound in ``pumpsim``, ...) with wrappers
that push a span on entry and close it on exit.  No file of the package
changes; private per-segment steps (``pumpsim._step``, propagator cache hits)
are not visible from here.

A span is ``[name, start_ns, end_ns, parent_index]`` with ``parent_index``
-1 for the root.  The name is ``<layer>.<function>`` of the function called,
whatever module the call site sits in.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module whose attribute is replaced, attribute, span name)
PATCHES = (
    ("cli", "run_sweep", "harness.run_sweep"),
    ("cli", "run_olo", "harness.run_olo"),
    ("cli", "compare_schemes", "rabi.compare_schemes"),
    ("cli", "simulate_pair", "pumpsim.simulate_pair"),
    ("cli", "read_waveform_csv", "io.read_waveform_csv"),
    ("cli", "write_json", "io.write_json"),
    ("cli", "write_optimizer_log", "io.write_optimizer_log"),
    ("cli", "write_pair_trace_csv", "io.write_pair_trace_csv"),
    ("cli", "write_rabi_curve_csv", "io.write_rabi_curve_csv"),
    ("cli", "write_sweep_grid_csv", "io.write_sweep_grid_csv"),
    ("cli", "write_sweep_projection_csv", "io.write_sweep_projection_csv"),
    ("cli", "write_waveform_csv", "io.write_waveform_csv"),
    ("harness", "pair_window_counts", "pumpsim.pair_window_counts"),
    ("harness", "prepared_states", "pumpsim.prepared_states"),
    ("harness", "window_expectation", "pumpsim.window_expectation"),
    ("harness", "simulate_pump", "pumpsim.simulate_pump"),
    ("harness", "sample_counts", "pumpsim.sample_counts"),
    ("pumpsim", "expm", "pumpsim.expm"),
    ("pumpsim", "prepared_states", "pumpsim.prepared_states"),
    ("pumpsim", "propagate_waveform", "pumpsim.propagate_waveform"),
    ("pumpsim", "window_expectation", "pumpsim.window_expectation"),
    ("pumpsim", "simulate_pump", "pumpsim.simulate_pump"),
    ("rabi", "simulate_rabi", "rabi.simulate_rabi"),
    ("rabi", "rabi_expectations", "rabi.rabi_expectations"),
    ("rabi", "realize_curve", "rabi.realize_curve"),
    ("rabi", "propagate_waveform", "pumpsim.propagate_waveform"),
    ("rabi", "window_expectation", "pumpsim.window_expectation"),
    ("rabi", "sample_counts", "pumpsim.sample_counts"),
    ("rabi", "fit_sinusoid", "metrics.fit_sinusoid"),
    ("rabi", "mean_deviation", "metrics.mean_deviation"),
)

LAYERS = ("cli", "harness", "optimizer", "pumpsim", "rabi", "metrics", "io")

# Counts that must repeat exactly across the invocations of one run.
EXACT_COUNTS = (
    "harness.sweep_cells",
    "harness.init_scan_cells",
    "harness.objective_queries",
    "pumpsim.window_integrals",
    "pumpsim.propagators_built",
    "rabi.curves",
    "metrics.fits",
)


def clock_ns() -> int:
    """CLOCK_MONOTONIC is system-wide, so parent and child stamps compare."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock_ns(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock_ns()
        return traced

    def wrap_optimizer(self, hj_optimize):
        """Span the search, and each objective query the search makes."""
        @functools.wraps(hj_optimize)
        def search(objective, *args, **kwargs):
            return hj_optimize(self.wrap("harness.objective", objective),
                               *args, **kwargs)
        return self.wrap("optimizer.hj_optimize", search)

    def install(self) -> None:
        """Replace every call-site attribute in PATCHES with a traced wrapper."""
        modules = {name: importlib.import_module(f"nvreadout.{name}")
                   for name in ("cli", "harness", "pumpsim", "rabi")}
        for module, attr, span in PATCHES:
            setattr(modules[module], attr,
                    self.wrap(span, getattr(modules[module], attr)))
        harness = modules["harness"]
        harness.hj_optimize = self.wrap_optimizer(harness.hj_optimize)


def summarise(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced invocation.

    ``spans[0]`` must be the root ``cli.main`` span; shares are taken
    against its duration, the traced ``compute_s``.
    """
    n = len(spans)
    dur = [end - start for _, start, end, _ in spans]
    child_ns = [0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    layer_self = dict.fromkeys(LAYERS, 0)
    by_name: dict[str, list[int]] = {}
    for i, (name, _, _, _) in enumerate(spans):
        layer_self[name.split(".", 1)[0]] += dur[i] - child_ns[i]
        by_name.setdefault(name, []).append(i)

    def picked(name, parent=None):
        return [i for i in by_name.get(name, ())
                if parent is None or spans[spans[i][3]][0] == parent]

    def total(idx):
        return sum(dur[i] for i in idx)

    def mean(idx):
        return total(idx) / len(idx) if idx else 0.0

    compute = dur[0]
    sweeps = picked("harness.run_sweep")
    cells = picked("pumpsim.pair_window_counts", parent="harness.run_sweep")
    queries = picked("harness.objective")
    windows = picked("pumpsim.window_expectation")
    builds = picked("pumpsim.expm")
    curves = picked("rabi.rabi_expectations")
    fits = picked("metrics.fit_sinusoid")
    writes = [i for name, idx in by_name.items()
              if name.startswith("io.write") for i in idx]
    out = {
        "cli.self_ms": layer_self["cli"] / 1e6,
        "harness.sweep_cells": len(cells),
        "harness.sweep_cell_us": mean(cells) / 1e3,
        "harness.sweep_self_ms": sum(dur[i] - child_ns[i] for i in sweeps) / 1e6,
        "harness.init_scan_cells": len(picked("pumpsim.pair_window_counts",
                                              parent="harness.run_olo")),
        "harness.objective_queries": len(queries),
        "harness.objective_query_us": mean(queries) / 1e3,
        "optimizer.self_ms": layer_self["optimizer"] / 1e6,
        "pumpsim.window_integrals": len(windows),
        "pumpsim.window_integral_us": mean(windows) / 1e3,
        "pumpsim.propagators_built": len(builds),
        "pumpsim.propagator_build_us": mean(builds) / 1e3,
        "pumpsim.propagator_build_share": total(builds) / compute,
        "pumpsim.trace_ms": total(picked("pumpsim.simulate_pump")) / 1e6,
        "pumpsim.sampling_ms": total(picked("pumpsim.sample_counts")) / 1e6,
        "rabi.curves": len(curves),
        "rabi.curve_ms": mean(curves) / 1e6,
        "metrics.fits": len(fits),
        "metrics.fit_ms": mean(fits) / 1e6,
        "metrics.fit_share": total(fits) / compute,
        "io.write_ms": total(writes) / 1e6,
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / compute
    return out
