"""Command-line front end: trace | sweep | optimize | rabi.

Every command reads one YAML config, which :func:`config.load_config`
checks and builds into a :class:`config.Run`: a bad setting exits with
one error line that names it.  The command runs the model objects the run
holds and writes CSV data plus JSON summaries into the output directory,
which its first write makes, so an error before then leaves no directory.
A manifest records the config digest, the checked settings, the seed and
the versions of Python and the libraries, so a run can be reproduced
byte-for-byte (the manifest's wall-time field is the one value that varies
between identical runs).

Exit codes: 0 success, 2 configuration error, 3 runtime/model error.
"""

from __future__ import annotations

import argparse
import hashlib
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .config import load_config
from .errors import ConfigurationError, NVReadoutError, SamplingRangeError
from .harness import run_olo, run_sweep
from .io import (
    OLO_SUMMARY,
    olo_summary_dict,
    read_waveform_csv,
    write_json,
    write_optimizer_log,
    write_pair_trace_csv,
    write_rabi_curve_csv,
    write_sweep_grid_csv,
    write_sweep_projection_csv,
    write_waveform_csv,
)
from .pumpsim import simulate_pair
from .rabi import compare_schemes, scheme_sequences

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

#: The setting that scales the Poisson means each sampling command draws.
REPETITIONS_KEY = {"optimize": "sequence.repetitions",
                   "rabi": "rabi.repetitions"}


def _config_digest(path: str | None) -> str:
    if path is None:
        return "defaults"
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_trace(run, out: Path) -> str:
    trace0, trace1 = simulate_pair(run.sequence, run.params,
                                   run.settings["sequence"]["bin_width_ns"])
    write_pair_trace_csv(trace0, trace1, out / "trace.csv")
    return (f"trace: wrote {out / 'trace.csv'} "
            f"({trace0.expected_counts_per_rep.size} bins)")


def cmd_sweep(run, out: Path) -> str:
    spec = run.sweep
    result = run_sweep(spec, run.params)
    write_sweep_grid_csv(result, out / "sweep_grid.csv")
    write_sweep_projection_csv(result, out / "sweep_projection.csv")
    write_json(out / "sweep_summary.json", {
        "metric": spec.metric,
        "mode": spec.mode,
        "best_amplitude": result.best_amplitude,
        "best_duration_ns": result.best_duration_ns,
        "best_value": result.best_value,
        "best_at_grid_edge": result.best_at_grid_edge,
        "propagators_built": len(run.params.propagators),
    })
    return (f"sweep: best {spec.metric} = {result.best_value:.4g} at "
            f"(amplitude {result.best_amplitude:.4g}, "
            f"{result.best_duration_ns:.4g} ns)")


def cmd_optimize(run, out: Path) -> str:
    baseline = run_sweep(run.baseline_snr, run.params)
    result = run_olo(run.olo, baseline=baseline)
    write_optimizer_log(result.state, out / "olo_log.jsonl")
    write_waveform_csv(result.waveform, out / "olo_waveform.csv")
    write_pair_trace_csv(result.trace0, result.trace1, out / "olo_traces.csv")
    edge = baseline.best_at_grid_edge
    write_json(out / OLO_SUMMARY, {
        **olo_summary_dict(result),
        "baseline_at_grid_edge_amplitude": edge["amplitude"],
        "baseline_at_grid_edge_duration": edge["duration"],
        "propagators_built": len(run.params.propagators)})
    return (f"optimize: SNR {result.start_snr:.4g} -> {result.final_snr:.4g} "
            f"(baseline {result.baseline_snr:.4g}, "
            f"improvement {100 * result.improvement_ratio:+.1f}%, "
            f"{result.state.queries} queries)")


def cmd_rabi(run, out: Path) -> str:
    path = run.settings["rabi"]["olo_waveform"]
    # load_config, which does not know the command, lets this be unset
    if path is None:
        raise ConfigurationError(
            "rabi.olo_waveform is not set; run the optimize command first "
            "and point it at the written olo_waveform.csv")
    try:
        olo_readout = read_waveform_csv(path)
    except ConfigurationError as exc:
        raise ConfigurationError(f"rabi.olo_waveform: {exc}") from exc
    sequences = scheme_sequences(
        run.rabi_base, run.olo_init, olo_readout,
        sweep_snr=run_sweep(run.baseline_snr, run.params),
        sweep_contrast=run_sweep(run.baseline_contrast, run.params))
    comparison = compare_schemes(run.rabi, sequences, run.params)
    for name, curve in comparison.curves.items():
        write_rabi_curve_csv(curve, out / f"rabi_{name}.csv")
    write_json(out / "rabi_summary.json", {
        "contrasts": comparison.contrasts,
        "mean_deviations": comparison.mean_devs,
        "orderings": comparison.orderings,
        "propagators_built": len(run.params.propagators),
    })
    return "\n".join(
        f"rabi {name}: contrast {100 * comparison.contrasts[name]:.2f}% "
        f"mean deviation {comparison.mean_devs[name]:.3g}"
        for name in sorted(comparison.contrasts))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvreadout",
        description="Simulate and optimize laser waveforms for NV spin readout",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file (defaults if omitted)")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--seed", type=int, help="sampling seed (overrides config)")
    common.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override one config key (repeatable)")
    # only the commands in REPETITIONS_KEY draw samples
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--stochastic", action="store_true",
                          help="Poisson-sample the readout totals instead "
                               "of using their expectations")

    p = sub.add_parser("trace", parents=[common],
                       help="paired photon time traces of both spin preparations")
    p.set_defaults(func=cmd_trace)
    p = sub.add_parser("sweep", parents=[common],
                       help="constant-pulse traversal over (amplitude, duration)")
    p.set_defaults(func=cmd_sweep)
    p = sub.add_parser("optimize", parents=[common, sampling],
                       help="online readout-waveform optimization")
    p.set_defaults(func=cmd_optimize)
    p = sub.add_parser("rabi", parents=[common, sampling],
                       help="Rabi comparison of the three readout schemes")
    p.set_defaults(func=cmd_rabi)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Load the run, run the command, which writes its outputs and returns
    its report line, and write the manifest."""
    args = build_parser().parse_args(argv)
    stochastic = getattr(args, "stochastic", False)
    try:
        t0 = time.perf_counter()
        run = load_config(args.config, args.set, seed=args.seed,
                          output_dir=args.out, stochastic=stochastic)
        cfg = run.settings
        out = Path(cfg["output_dir"])
        message = args.func(run, out)
        write_json(out / "manifest.json", {
            "command": args.command,
            "config_path": args.config,
            "config_sha256": _config_digest(args.config),
            "overrides": list(args.set or []),
            "seed": cfg["seed"],
            "stochastic": stochastic,
            "version": __version__,
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__, "scipy": scipy.__version__,
                         "pyyaml": yaml.__version__},
            "resolved_config": cfg,
            "wall_time_s": time.perf_counter() - t0,
        })
        print(message)
        return EXIT_OK
    except SamplingRangeError as exc:
        print(f"config error: {REPETITIONS_KEY[args.command]} too large: "
              f"{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NVReadoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
