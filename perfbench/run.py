"""Benchmark of the nvreadout CLI: each invocation is one command in a fresh
Python process, so interpreter start-up counts and the process-global
propagator cache starts empty every time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/nvreadout``.  The load is
a closed loop with one client: the next command starts only after the
previous one has exited, so one command process runs at a time.  Commands
are started while the next one is expected to end within S seconds, and
never fewer than a handful.

``--trace 0`` reports the end-to-end metrics (medians over the run's
invocations).  ``--trace 1`` alternates untraced and traced invocations of
the same command and reports the per-layer metrics of the traced ones, plus
the tracer's own overhead.  Every invocation's outputs are checked; a failed
check counts the invocation as failed.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
RUNS = Path(".perfbench_runs")
WORK = RUNS / "work"
OUT = WORK / "out"
RECORD = WORK / "record.json"
INVOCATION_TIMEOUT_S = 60.0
MIN_UNTRACED = 3
MIN_TRACED_PAIRS = 2

SWEEP_POINTS = 80
RABI_TAUS = 241
RABI_SCHEMES = ("olo-snr", "constant-snr", "constant-contrast")


@dataclass
class Invocation:
    command: list[str]      # the launcher's argv, as it ran
    traced: bool
    wall_s: float = math.nan
    setup_s: float = math.nan
    compute_s: float = math.nan
    peak_rss_mb: float = math.nan
    files: dict[str, bytes] = field(default_factory=dict)
    facts: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    versions: dict[str, str] = field(default_factory=dict)


def launch(cli_args: list[str], traced: bool) -> Invocation:
    """Run one CLI command in a fresh process and collect timings and files."""
    inv = Invocation(command=[sys.executable, str(HERE / "launch.py"),
                              str(RECORD), "1" if traced else "0", "--",
                              *cli_args], traced=traced)
    shutil.rmtree(OUT, ignore_errors=True)
    RECORD.unlink(missing_ok=True)
    with open(WORK / "stderr.txt", "wb") as err:
        t_spawn = tracer.clock_ns()
        proc = subprocess.Popen(inv.command, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = tracer.clock_ns()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
    inv.wall_s = (t_exit - t_spawn) / 1e9
    inv.peak_rss_mb = usage.ru_maxrss / 1024
    if rc != 0:
        tail = (WORK / "stderr.txt").read_text(errors="replace").strip()[-300:]
        inv.errors.append(f"exit code {rc}: {tail}")
        return inv
    try:
        record = json.loads(RECORD.read_text())
    except (OSError, ValueError) as exc:
        inv.errors.append(f"no timing record: {exc}")
        return inv
    inv.setup_s = (record["t_main_ns"] - t_spawn) / 1e9
    inv.compute_s = (record["t_end_ns"] - record["t_main_ns"]) / 1e9
    inv.versions = {k: record[k] for k in ("python", "numpy", "scipy")}
    if traced:
        inv.layers = tracer.summarise(record["spans"])
    if OUT.is_dir():
        inv.files = {p.name: p.read_bytes() for p in sorted(OUT.iterdir())}
    return inv


# ---------------------------------------------------------------- checks

def _check_csv(files: dict[str, bytes], name: str, expected_rows: int | None):
    """Raise ValueError unless the CSV has the expected rows, all finite."""
    if name not in files:
        raise ValueError(f"{name} missing")
    lines = files[name].decode().splitlines()[1:]
    if expected_rows is not None and len(lines) != expected_rows:
        raise ValueError(f"{name}: {len(lines)} rows, expected {expected_rows}")
    rows = [[float(x) for x in line.split(",")] for line in lines]
    if not all(math.isfinite(x) for row in rows for x in row):
        raise ValueError(f"{name}: non-finite value")


def _json(files: dict[str, bytes], name: str) -> dict:
    if name not in files:
        raise ValueError(f"{name} missing")
    return json.loads(files[name])


def _finite(name: str, *values) -> None:
    for v in values:
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise ValueError(f"{name}: non-finite value {v!r}")


def check_optimize(files) -> dict[str, float]:
    summary = _json(files, "olo_summary.json")
    _finite("olo_summary.json", *(v for v in summary.values()
                                  if not isinstance(v, bool)))
    if summary["improvement_ratio"] <= 0:
        raise ValueError(f"improvement_ratio {summary['improvement_ratio']} <= 0")
    log = [json.loads(line) for line in files["olo_log.jsonl"].decode().splitlines()]
    if len(log) != summary["queries"]:
        raise ValueError(f"olo_log.jsonl: {len(log)} lines, "
                         f"{summary['queries']} queries")
    for rec in log:
        _finite("olo_log.jsonl", rec["value"], rec["alpha"], *rec["u"])
    _check_csv(files, "olo_waveform.csv", len(log[0]["u"]))
    _check_csv(files, "olo_traces.csv", None)
    return {
        "harness.snr_gain_pct": 100 * summary["improvement_ratio"],
        "optimizer.cycles": summary["cycles"],
        "optimizer.accept_ratio": sum(r["accepted"] for r in log) / len(log),
    }


def check_sweep(files) -> dict[str, float]:
    _check_csv(files, "sweep_grid.csv", SWEEP_POINTS * SWEEP_POINTS)
    _check_csv(files, "sweep_projection.csv", SWEEP_POINTS)
    summary = _json(files, "sweep_summary.json")
    _finite("sweep_summary.json", summary["best_amplitude"],
            summary["best_duration_ns"], summary["best_value"])
    return {}


def check_rabi(files) -> dict[str, float]:
    for scheme in RABI_SCHEMES:
        _check_csv(files, f"rabi_{scheme}.csv", RABI_TAUS)
    summary = _json(files, "rabi_summary.json")
    contrasts = summary["contrasts"]
    _finite("rabi_summary.json", *contrasts.values(),
            *summary["mean_deviations"].values())
    for scheme in RABI_SCHEMES:
        if not 0 < contrasts[scheme] < 1:
            raise ValueError(f"{scheme} contrast {contrasts[scheme]} outside (0, 1)")
    orderings = summary["orderings"]
    return {
        "rabi.olo_contrast_gain_pct":
            100 * (contrasts["olo-snr"] / contrasts["constant-snr"] - 1),
        "rabi.ordering_pass_frac":
            float(orderings["olo_contrast_above_constant_snr"]
                  and orderings["olo_meandev_below_constant_contrast"]),
    }


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    check: Callable[[dict[str, bytes]], dict[str, float]]
    deterministic: bool     # repeated invocations write byte-identical files


# Why each workload is in the benchmark.
WORKLOADS = {
    # The paper's headline run: 20x20 square-pulse baseline, 25-point init
    # scan, then a 469-query Hooke-Jeeves search on a warm propagator cache.
    # Start-up is more than half of its wall time.
    "optimize-default": Workload(("optimize",), check_optimize, True),
    # The same pumpsim layer used the opposite way: almost every one of the
    # 6 400 cells misses the propagator cache; no optimizer, no fit.
    "sweep-fine": Workload(
        ("sweep", "--set", f"sweep.amplitude_points={SWEEP_POINTS}",
         "--set", f"sweep.duration_points={SWEEP_POINTS}"), check_sweep, True),
    # Acceptance criterion 8's setting: 241 taus, 1e6 repetitions, Poisson
    # sampling and three sinusoid fits; never calls the objective.  Each
    # invocation draws with its own seed, so only traced and untraced runs of
    # one seed are compared byte for byte.
    "rabi-stochastic": Workload(
        ("rabi", "--stochastic", "--set", f"rabi.tau_points={RABI_TAUS}",
         "--set", "rabi.repetitions=1.0e6"), check_rabi, False),
}


def check_outputs(workload: str, inv: Invocation) -> None:
    if inv.errors:
        return
    try:
        manifest = _json(inv.files, "manifest.json")
        _finite("manifest.json", manifest["wall_time_s"])
        inv.facts = WORKLOADS[workload].check(inv.files)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        inv.errors.append(f"output check: {exc!r}")


def same_outputs(a: Invocation, b: Invocation) -> bool:
    """Byte-identical files, apart from the manifest's wall_time_s."""
    if a.files.keys() != b.files.keys():
        return False
    for name in a.files:
        if name == "manifest.json":
            ma, mb = json.loads(a.files[name]), json.loads(b.files[name])
            ma.pop("wall_time_s"), mb.pop("wall_time_s")
            if ma != mb:
                return False
        elif a.files[name] != b.files[name]:
            return False
    return True


def exact_counts(inv: Invocation) -> dict[str, float]:
    counts = {k: inv.layers[k] for k in tracer.EXACT_COUNTS if k in inv.layers}
    if "optimizer.cycles" in inv.facts:
        counts["optimizer.cycles"] = inv.facts["optimizer.cycles"]
    return counts


# ---------------------------------------------------------------- workload

def prepare(workload: str, seed: int) -> tuple[list[str], Invocation | None]:
    """Untimed set-up; returns the arguments every invocation shares, and the
    preparation's own invocation if there is one."""
    args = list(WORKLOADS[workload].args)
    if workload != "rabi-stochastic":
        return args, None
    prep = launch(["optimize", "--out", str(OUT)], traced=False)
    check_outputs("optimize-default", prep)
    if prep.errors:
        raise RuntimeError(f"preparing the OLO waveform: {prep.errors}")
    # kept next to the result file, so the recorded commands can be rerun
    waveform = RUNS / f"{workload}-seed{seed}-olo_waveform.csv"
    waveform.write_bytes(prep.files["olo_waveform.csv"])
    init_amplitude = json.loads(prep.files["olo_summary.json"])["init_amplitude"]
    args += ["--set", f"rabi.olo_waveform={waveform}",
             "--set", f"rabi.olo_init_amplitude={init_amplitude!r}"]
    return args, prep


def invocation_args(workload: str, shared: list[str], seed: int, k: int):
    # A stochastic workload draws a fresh sampling seed per invocation.
    cli_seed = seed if WORKLOADS[workload].deterministic else seed * 1000 + k
    return [*shared, "--seed", str(cli_seed), "--out", str(OUT)]


def run(workload: str, seed: int, seconds: float, trace: bool):
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    shared, prep = prepare(workload, seed)
    invocations: list[Invocation] = []
    start = step_start = tracer.clock_ns()
    k = 0
    while True:
        now = tracer.clock_ns()
        # stop before a step that would likely end past the deadline
        projected_end_s = ((now - start) + (now - step_start)) / 1e9
        step_start = now
        untraced = [i for i in invocations if not i.traced]
        enough = len(untraced) >= (MIN_TRACED_PAIRS if trace else MIN_UNTRACED)
        if projected_end_s > seconds and enough:
            break
        cli_args = invocation_args(workload, shared, seed, k)
        modes = (False, True) if trace else (False,)
        for traced in modes:
            inv = launch(cli_args, traced)
            check_outputs(workload, inv)
            invocations.append(inv)
        if trace and not invocations[-1].errors and not invocations[-2].errors \
                and not same_outputs(invocations[-2], invocations[-1]):
            invocations[-1].errors.append("traced outputs differ from untraced")
        k += 1
    shutil.rmtree(WORK, ignore_errors=True)
    guard_invocations(workload, invocations)
    return prep, invocations


def guard_invocations(workload: str, invocations: list[Invocation]) -> None:
    """Determinism and exact-count checks across the invocations of a run."""
    ok = [i for i in invocations if not i.errors]
    if not ok:
        return
    first = ok[0]
    # counts of the first successful invocation of each kind, traced or not
    reference = {i.traced: exact_counts(i) for i in reversed(ok)}
    for inv in ok[1:]:
        if WORKLOADS[workload].deterministic and not same_outputs(first, inv):
            inv.errors.append("outputs differ from the run's first invocation")
        if exact_counts(inv) != reference[inv.traced]:
            inv.errors.append(f"counts drifted: {exact_counts(inv)} "
                              f"!= {reference[inv.traced]}")


# ---------------------------------------------------------------- report

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(invocations: list[Invocation]) -> dict[str, float]:
    ok = [i for i in invocations if not i.traced and not i.errors]
    return {name: median([getattr(i, name) for i in ok])
            for name in ("wall_s", "setup_s", "compute_s", "peak_rss_mb")}


def per_layer(invocations: list[Invocation]) -> dict[str, float]:
    traced = [i for i in invocations if i.traced and not i.errors]
    untraced = [i for i in invocations if not i.traced and not i.errors]
    # every layer metric, as zeros when no traced invocation succeeded
    names = (traced[0].layers if traced
             else tracer.summarise([["cli.main", 0, 1, -1]]))
    out = {name: median([i.layers[name] for i in traced]) for name in names}
    for name in ("harness.snr_gain_pct", "optimizer.cycles",
                 "optimizer.accept_ratio", "rabi.olo_contrast_gain_pct",
                 "rabi.ordering_pass_frac"):
        values = [i.facts[name] for i in untraced if name in i.facts]
        # the Rabi figures are means over the run's sampling seeds
        out[name] = statistics.fmean(values) if values else 0.0
    # Each traced invocation ran right after its untraced twin, so the ratio
    # within a pair leaves out the host's drift over the run.
    ratios = [t.compute_s / u.compute_s
              for u, t in zip(invocations[0::2], invocations[1::2])
              if not u.errors and not t.errors]
    out["trace.overhead_pct"] = 100 * (median(ratios) - 1) if ratios else 0.0
    return out


def environment(seed: int, prep: Invocation | None,
                invocations: list[Invocation]) -> dict:
    commit = None
    if Path(".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        source.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    ran = ([prep] if prep else []) + invocations
    versions = next((i.versions for i in ran if i.versions), {})
    env = {"commit": commit, "source_sha256": source.hexdigest(), **versions,
           "nproc": os.cpu_count(), "workload_seed": seed,
           "commands": list(dict.fromkeys(map(tuple, (i.command for i in ran))))}
    if prep:
        env["olo_waveform_sha256"] = hashlib.sha256(
            prep.files["olo_waveform.csv"]).hexdigest()
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/nvreadout/cli.py").is_file():
        print("run from the root of an nvreadout checkout (src/nvreadout "
              "not found)", file=sys.stderr)
        return 2
    declared = json.loads(Path("BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        prep, invocations = run(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    values = per_layer(invocations) if args.trace else end_to_end(invocations)
    units = {m["name"]: m["unit"] for m in declared}
    if values.keys() != units.keys():
        print(f"metrics {sorted(values)} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    failed = [i for i in invocations if i.errors]
    env = environment(args.seed, prep, invocations)
    report = {
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in values.items()},
    }
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, **report, "invocations": [
            {"command": i.command, "traced": i.traced, "wall_s": i.wall_s,
             "setup_s": i.setup_s, "compute_s": i.compute_s,
             "peak_rss_mb": i.peak_rss_mb, "errors": i.errors}
            for i in invocations]}, indent=1))
    print(json.dumps({"environment": env}))
    for inv in failed:
        print("failed: " + "; ".join(inv.errors))
    print(f"{args.workload}: error_rate {len(failed) / len(invocations)} "
          f"({len(failed)} of {len(invocations)} invocations failed)")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
