"""Run configuration: one YAML file with a section per subsystem.

Unknown keys are rejected with the offending section named, so typos fail
fast instead of silently falling back to defaults.  Individual keys can be
overridden from the command line with ``--set section.key=value``.
"""

from __future__ import annotations

import copy
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigurationError
from .harness import OloSpec, SweepSpec
from .optimizer import OptimizerConfig
from .photophysics import AmplitudeMap, RateParams
from .pumpsim import SequenceConfig
from .waveform import AmplitudeBounds, PiecewiseWaveform, make_constant

DEFAULT_CONFIG: dict = {
    "photophysics": {
        "k_rad": 0.065,
        "k_isc0": 0.011,
        "k_isc1": 0.050,
        "singlet_lifetime_ns": 250.0,
        "singlet_branching_g0": 0.8,
        "eta": 0.0025,
        "beta_max": 0.5,
        "map_shape": "linear",
        "sat_amp": None,
    },
    "sequence": {
        "init_duration_ns": 1000.0,
        "init_amplitude": 0.2,
        "init_pieces": 1,
        "wait_ns": 2000.0,
        "readout_duration_ns": 920.0,
        "readout_amplitude": 0.2,
        "readout_amplitudes": None,     # overrides readout_amplitude if set
        "readout_pieces": 20,
        "bin_width_ns": 46.0,
        "repetitions": 1e8,
        "detection_offset_ns": 0.0,
        "detection_width_ns": None,
    },
    "sweep": {
        "amplitude_start": 0.02,
        "amplitude_stop": 1.0,
        "amplitude_points": 20,
        "duration_start_ns": 400.0,
        "duration_stop_ns": 2000.0,
        "duration_points": 20,
        "mode": "global",
        "metric": "snr",
    },
    "olo": {
        "start_duration_ns": 920.0,
        "start_amplitude": 0.02,
        "n_init": 1,
        "n_read": 20,
        "alpha0": 0.1,
        "rho": 0.5,
        "alpha_min": 1.0e-3,
        "max_queries": 5000,
        "bound_lo": 0.0,
        "bound_hi": 1.0,
        "init_scan_points": 25,
    },
    "rabi": {
        "rabi_period_ns": 200.0,
        "tau_start_ns": 0.0,
        "tau_stop_ns": 600.0,
        "tau_points": 61,
        "repetitions": 1.0e8,
        "olo_waveform": None,           # CSV written by the optimize command
        "olo_init_amplitude": None,     # from the optimize summary
    },
    "output_dir": "runs",
    "seed": 0,
}


def _check_keys(section: str, given: dict, known: dict) -> None:
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in section '{section}': {', '.join(unknown)}"
        )


def load_config(path: str | Path | None = None,
                overrides: list[str] | None = None) -> dict:
    """Merged config dict: defaults <- file <- --set overrides."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        try:
            loaded = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"config parse error in {path}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"{path}: top level must be a mapping")
        _check_keys("<top level>", loaded, DEFAULT_CONFIG)
        for section, value in loaded.items():
            if isinstance(DEFAULT_CONFIG[section], dict):
                if not isinstance(value, dict):
                    raise ConfigurationError(f"section '{section}' must be a mapping")
                _check_keys(section, value, DEFAULT_CONFIG[section])
                cfg[section].update(value)
            else:
                cfg[section] = value
    for item in overrides or []:
        _apply_override(cfg, item)
    return cfg


def _apply_override(cfg: dict, item: str) -> None:
    if "=" not in item:
        raise ConfigurationError(f"--set expects section.key=value, got {item!r}")
    key_path, raw = item.split("=", 1)
    value = yaml.safe_load(raw)
    parts = key_path.strip().split(".")
    if len(parts) == 1:
        section = parts[0]
        if section not in cfg or isinstance(cfg[section], dict):
            raise ConfigurationError(f"unknown top-level key {section!r}")
        cfg[section] = value
        return
    if len(parts) != 2:
        raise ConfigurationError(f"--set expects section.key=value, got {item!r}")
    section, key = parts
    if section not in cfg or not isinstance(cfg[section], dict):
        raise ConfigurationError(f"unknown config section {section!r}")
    if key not in cfg[section]:
        raise ConfigurationError(f"unknown key '{key}' in section '{section}'")
    cfg[section][key] = value


def require_sections(cfg: dict, names: list[str], command: str) -> None:
    missing = [n for n in names if not cfg.get(n)]
    if missing:
        raise ConfigurationError(
            f"command '{command}' needs config section(s): {', '.join(missing)}"
        )


def build_rate_params(cfg: dict) -> RateParams:
    c = cfg["photophysics"]
    lifetime = float(c["singlet_lifetime_ns"])
    if lifetime <= 0:
        raise ConfigurationError(f"singlet lifetime must be positive, got {lifetime}")
    branch = float(c["singlet_branching_g0"])
    if not (0.5 < branch < 1.0):
        raise ConfigurationError(
            f"singlet_branching_g0 must lie in (0.5, 1), got {branch}")
    amp_map = AmplitudeMap(beta_max=float(c["beta_max"]), shape=c["map_shape"],
                           sat_amp=c["sat_amp"])
    return RateParams(
        k_rad=float(c["k_rad"]),
        k_isc0=float(c["k_isc0"]),
        k_isc1=float(c["k_isc1"]),
        k_s0=branch / lifetime,
        k_s1=(1.0 - branch) / lifetime,
        eta=float(c["eta"]),
        amp_map=amp_map,
    )


def build_sequence(cfg: dict) -> SequenceConfig:
    c = cfg["sequence"]
    init_wf = make_constant(float(c["init_duration_ns"]), float(c["init_amplitude"]),
                            int(c["init_pieces"]))
    if c["readout_amplitudes"] is not None:
        readout_wf = PiecewiseWaveform(float(c["readout_duration_ns"]),
                                       np.asarray(c["readout_amplitudes"], float))
    else:
        readout_wf = make_constant(float(c["readout_duration_ns"]),
                                   float(c["readout_amplitude"]),
                                   int(c["readout_pieces"]))
    width = c["detection_width_ns"]
    return SequenceConfig(
        init_wf=init_wf,
        wait_ns=float(c["wait_ns"]),
        readout_wf=readout_wf,
        bin_width_ns=float(c["bin_width_ns"]),
        repetitions=float(c["repetitions"]),
        detection_offset_ns=float(c["detection_offset_ns"]),
        detection_width_ns=None if width is None else float(width),
    )


def build_sweep_spec(cfg: dict, base: SequenceConfig,
                     mode: str | None = None) -> SweepSpec:
    c = cfg["sweep"]
    for pts_key in ("amplitude_points", "duration_points"):
        if int(c[pts_key]) < 1:
            raise ConfigurationError(f"sweep {pts_key} must be >= 1")
    return SweepSpec(
        amplitudes=np.linspace(float(c["amplitude_start"]),
                               float(c["amplitude_stop"]),
                               int(c["amplitude_points"])),
        durations_ns=np.linspace(float(c["duration_start_ns"]),
                                 float(c["duration_stop_ns"]),
                                 int(c["duration_points"])),
        base=base,
        mode=mode if mode is not None else c["mode"],
        metric=c["metric"],
    )


def default_sweep_spec(base: SequenceConfig, metric: str = "snr") -> SweepSpec:
    """The stock traversal grid of ``DEFAULT_CONFIG``, the constant-scheme
    baseline.

    The duration axis starts at 400 ns: windows shorter than that are not
    practical settings for the constant scheme here, and the floor is what
    exposes the readout-noise penalty of strong pumping (at high power the
    spin polarizes well before the window closes, so the remaining
    illumination only adds shot noise).
    """
    return build_sweep_spec({"sweep": {**DEFAULT_CONFIG["sweep"], "metric": metric}},
                            base, mode="global")


def build_olo_spec(cfg: dict, base: SequenceConfig, params: RateParams,
                   stochastic: bool = False, seed: int = 0) -> OloSpec:
    c = cfg["olo"]
    opt = OptimizerConfig(
        bounds=AmplitudeBounds(float(c["bound_lo"]), float(c["bound_hi"])),
        alpha0=float(c["alpha0"]),
        rho=float(c["rho"]),
        alpha_min=float(c["alpha_min"]),
        max_queries=int(c["max_queries"]),
    )
    return OloSpec(
        base=base,
        params=params,
        optimizer=opt,
        start_duration_ns=float(c["start_duration_ns"]),
        start_amplitude=float(c["start_amplitude"]),
        n_init=int(c["n_init"]),
        n_read=int(c["n_read"]),
        init_scan_amplitudes=np.linspace(0.02, 1.0, int(c["init_scan_points"])),
        stochastic=stochastic,
        sample_seed=seed,
    )


def build_rabi_taus(cfg: dict) -> np.ndarray:
    c = cfg["rabi"]
    return np.linspace(float(c["tau_start_ns"]), float(c["tau_stop_ns"]),
                       int(c["tau_points"]))


def rabi_omega(cfg: dict) -> float:
    period = float(cfg["rabi"]["rabi_period_ns"])
    if period <= 0:
        raise ConfigurationError(f"Rabi period must be positive, got {period}")
    return 2.0 * np.pi / period
