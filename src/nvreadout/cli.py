"""Command-line front end: trace | sweep | optimize | rabi.

Every command reads one YAML config, writes CSV data plus JSON summaries
into the output directory, and records a manifest with the config digest and
the seed, so a run can be reproduced byte-for-byte (the manifest's wall-time
field is the one value that varies between identical runs).

Exit codes: 0 success, 2 configuration error, 3 runtime/model error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    _number,
    build_olo_spec,
    build_rabi_taus,
    build_rate_params,
    build_sequence,
    build_sweep_spec,
    load_config,
    rabi_omega,
    require_sections,
)
from .errors import ConfigurationError, NVReadoutError
from .harness import run_olo, run_sweep
from .io import (
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
from .rabi import RabiConfig, compare_schemes, make_scheme_configs
from .waveform import make_constant

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _config_digest(path: str | None) -> str:
    if path is None:
        return "defaults"
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _write_manifest(out: Path, command: str, args, cfg: dict,
                    wall_time_s: float) -> None:
    payload = {
        "command": command,
        "config_path": args.config,
        "config_sha256": _config_digest(args.config),
        "overrides": list(args.set or []),
        "seed": cfg["seed"],
        "stochastic": bool(getattr(args, "stochastic", False)),
        "version": __version__,
        "resolved_config": _json_safe(cfg),
        "wall_time_s": wall_time_s,
    }
    write_json(out / "manifest.json", payload)


def _prepare(args, command: str, sections: list[str]):
    cfg = load_config(args.config, args.set)
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg["seed"] = _number(cfg, "seed", integer=True)
    if cfg["seed"] < 0:
        raise ConfigurationError(f"seed must be >= 0, got {cfg['seed']}")
    if args.out is not None:
        cfg["output_dir"] = args.out
    require_sections(cfg, sections, command)
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def cmd_trace(args) -> int:
    t0 = time.perf_counter()
    cfg, out = _prepare(args, "trace", ["photophysics", "sequence"])
    params = build_rate_params(cfg)
    seq = build_sequence(cfg)
    trace0, trace1 = simulate_pair(seq, params)
    write_pair_trace_csv(trace0, trace1, out / "trace.csv")
    _write_manifest(out, "trace", args, cfg, time.perf_counter() - t0)
    print(f"trace: wrote {out / 'trace.csv'} "
          f"({trace0.expected_counts_per_rep.size} bins)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    cfg, out = _prepare(args, "sweep", ["photophysics", "sequence", "sweep"])
    params = build_rate_params(cfg)
    seq = build_sequence(cfg)
    spec = build_sweep_spec(cfg, seq, mode=args.mode)
    result = run_sweep(spec, params)
    write_sweep_grid_csv(result, out / "sweep_grid.csv")
    write_sweep_projection_csv(result, out / "sweep_projection.csv")
    write_json(out / "sweep_summary.json", {
        "metric": spec.metric,
        "mode": spec.mode,
        "best_amplitude": result.best_amplitude,
        "best_duration_ns": result.best_duration_ns,
        "best_value": result.best_value,
        "best_at_grid_edge": result.best_at_grid_edge,
    })
    _write_manifest(out, "sweep", args, cfg, time.perf_counter() - t0)
    print(f"sweep: best {spec.metric} = {result.best_value:.4g} at "
          f"(amplitude {result.best_amplitude:.4g}, "
          f"{result.best_duration_ns:.4g} ns)")
    return EXIT_OK


def cmd_optimize(args) -> int:
    t0 = time.perf_counter()
    cfg, out = _prepare(args, "optimize",
                        ["photophysics", "sequence", "olo", "sweep"])
    params = build_rate_params(cfg)
    seq = build_sequence(cfg)
    spec = build_olo_spec(cfg, seq, params, stochastic=args.stochastic,
                          seed=cfg["seed"])
    baseline = run_sweep(replace(build_sweep_spec(cfg, seq, mode="global"),
                                 metric="snr"), params)
    result = run_olo(spec, baseline=baseline)
    write_optimizer_log(result.state, out / "olo_log.jsonl")
    write_waveform_csv(result.waveform, out / "olo_waveform.csv")
    write_pair_trace_csv(result.trace0, result.trace1, out / "olo_traces.csv")
    write_json(out / "olo_summary.json", olo_summary_dict(result))
    _write_manifest(out, "optimize", args, cfg, time.perf_counter() - t0)
    print(f"optimize: SNR {result.start_snr:.4g} -> {result.final_snr:.4g} "
          f"(baseline {result.baseline_snr:.4g}, "
          f"improvement {100 * result.improvement_ratio:+.1f}%, "
          f"{result.state.queries} queries)")
    return EXIT_OK


def _rabi_scheme_configs(cfg: dict, args, params) -> dict[str, RabiConfig]:
    seq = build_sequence(cfg)
    wf_path = cfg["rabi"]["olo_waveform"]
    if not wf_path:
        raise ConfigurationError(
            "rabi.olo_waveform is not set; run the optimize command first and "
            "point it at the written olo_waveform.csv")
    if not Path(wf_path).exists():
        raise ConfigurationError(
            f"OLO waveform file {wf_path!r} not found; run the optimize "
            "command first")
    olo_wf = read_waveform_csv(wf_path)
    init_amp = ("rabi.olo_init_amplitude"
                if cfg["rabi"]["olo_init_amplitude"] is not None
                else "sequence.init_amplitude")
    olo_init = make_constant(_number(cfg, "sequence.init_duration_ns"),
                             _number(cfg, init_amp))

    sweep_spec = build_sweep_spec(cfg, seq, mode="global")
    return make_scheme_configs(
        seq, rabi_omega(cfg), build_rabi_taus(cfg),
        _number(cfg, "rabi.repetitions"), olo_init, olo_wf,
        sweep_snr=run_sweep(replace(sweep_spec, metric="snr"), params),
        sweep_contrast=run_sweep(replace(sweep_spec, metric="contrast"), params),
        stochastic=bool(args.stochastic), seed=cfg["seed"])


def cmd_rabi(args) -> int:
    t0 = time.perf_counter()
    cfg, out = _prepare(args, "rabi",
                        ["photophysics", "sequence", "sweep", "rabi"])
    params = build_rate_params(cfg)
    cfgs = _rabi_scheme_configs(cfg, args, params)
    comparison = compare_schemes(cfgs, params)
    for name, curve in comparison.curves.items():
        write_rabi_curve_csv(curve, out / f"rabi_{name}.csv")
    write_json(out / "rabi_summary.json", {
        "contrasts": comparison.contrasts,
        "mean_deviations": comparison.mean_devs,
        "orderings": comparison.orderings,
    })
    _write_manifest(out, "rabi", args, cfg, time.perf_counter() - t0)
    for name in sorted(comparison.contrasts):
        print(f"rabi {name}: contrast {100 * comparison.contrasts[name]:.2f}% "
              f"mean deviation {comparison.mean_devs[name]:.3g}")
    return EXIT_OK


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
    common.add_argument("--stochastic", action="store_true",
                        help="Poisson-sample window counts instead of expectations")
    common.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override one config key (repeatable)")

    p = sub.add_parser("trace", parents=[common],
                       help="paired photon time traces of both spin preparations")
    p.set_defaults(func=cmd_trace)
    p = sub.add_parser("sweep", parents=[common],
                       help="constant-pulse traversal over (amplitude, duration)")
    p.add_argument("--mode", choices=["global", "init-only"],
                   help="which pulse the grid drives (overrides config)")
    p.set_defaults(func=cmd_sweep)
    p = sub.add_parser("optimize", parents=[common],
                       help="online readout-waveform optimization")
    p.set_defaults(func=cmd_optimize)
    p = sub.add_parser("rabi", parents=[common],
                       help="Rabi comparison of the three readout schemes")
    p.set_defaults(func=cmd_rabi)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
