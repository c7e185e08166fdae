"""Smoke test of the benchmark's own code.

    python3 perfbench/selftest.py          (from the root of the checkout)

Runs one traced ``sweep`` on a 3x2 grid through the launcher, in a fresh
process so the propagator cache starts empty, and checks that no child span
outlasts its parent and that the layer counts come out exact.  It also checks
the self-time arithmetic of ``tracer.summarise`` on a hand-built span tree,
and that the tracer's overhead compares each traced invocation with the
untraced one run just before it.
The file is named so that the repository's test suite does not collect it.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

HERE = Path(__file__).resolve().parent


@functools.cache
def tiny_sweep_spans() -> list[list]:
    with tempfile.TemporaryDirectory() as tmp:
        record = Path(tmp) / "record.json"
        subprocess.run(
            [sys.executable, str(HERE / "launch.py"), str(record), "1", "--",
             "sweep", "--set", "sweep.amplitude_points=3",
             "--set", "sweep.duration_points=2", "--out", str(Path(tmp) / "out")],
            check=True, stdout=subprocess.DEVNULL, timeout=120)
        return json.loads(record.read_text())["spans"]


def test_child_spans_lie_inside_their_parent():
    spans = tiny_sweep_spans()
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    for name, start, end, parent in spans[1:]:
        assert 0 <= parent < len(spans), name
        _, parent_start, parent_end, _ = spans[parent]
        assert parent_start <= start <= end <= parent_end, name


def test_counts_on_a_tiny_grid():
    layers = tracer.summarise(tiny_sweep_spans())
    assert layers["harness.sweep_cells"] == 6
    assert layers["pumpsim.window_integrals"] == 12
    # one propagator per cell's square pulse, plus the shared dark wait
    assert layers["pumpsim.propagators_built"] == 7
    assert layers["harness.objective_queries"] == 0
    assert layers["metrics.fits"] == 0
    assert math.isclose(
        sum(layers[f"{layer}.self_share"] for layer in tracer.LAYERS), 1.0)


def test_self_time_arithmetic():
    spans = [
        ["cli.main", 0, 100, -1],
        ["harness.run_sweep", 10, 60, 0],
        ["pumpsim.pair_window_counts", 20, 30, 1],
        ["pumpsim.pair_window_counts", 30, 50, 1],
        ["io.write_json", 70, 80, 0],
    ]
    layers = tracer.summarise(spans)
    assert layers["cli.self_share"] == 0.4
    assert layers["harness.self_share"] == 0.2
    assert layers["pumpsim.self_share"] == 0.3
    assert layers["io.self_share"] == 0.1
    assert layers["harness.sweep_cells"] == 2
    assert layers["harness.sweep_cell_us"] == 0.015
    assert layers["harness.sweep_self_ms"] == 20e-6
    assert layers["io.write_ms"] == 10e-6


def test_overhead_is_taken_within_pairs():
    def inv(traced, compute_s):
        return run.Invocation(command=[], traced=traced, compute_s=compute_s,
                              layers=tracer.summarise([["cli.main", 0, 1, -1]]))
    # The host slows down threefold after the first pair.  Two of three
    # traced invocations cost 10 % more than their untraced twin; comparing
    # the medians of all traced and all untraced would give 5 %.
    invocations = [inv(False, 1.0), inv(True, 1.1),
                   inv(False, 3.0), inv(True, 3.3),
                   inv(False, 3.0), inv(True, 3.15)]
    overhead = run.per_layer(invocations)["trace.overhead_pct"]
    assert math.isclose(overhead, 10.0), overhead


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
