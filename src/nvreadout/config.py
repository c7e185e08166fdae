"""Run configuration: one YAML file with a section per subsystem.

Unknown keys are rejected with the offending section named, so typos fail
fast instead of silently falling back to defaults.  Individual keys can be
overridden from the command line with ``--set section.key=value``.  The
``build_*`` functions turn a value that is not a finite number (or not a
whole one where a count is expected), and any value a model constructor
rejects, into a :class:`ConfigurationError`.
"""

from __future__ import annotations

import copy
import functools
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigurationError, ParameterError
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


def _number(cfg: dict, name: str, integer: bool = False):
    """The value of ``name`` ("section.key", or a top-level key) as a finite
    float, as an int if ``integer``, or as a float array if it is a list."""
    raw = functools.reduce(dict.__getitem__, name.split("."), cfg)
    try:
        value = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{name} must be a number, got {raw!r}") from None
    if not np.all(np.isfinite(value)):
        raise ConfigurationError(f"{name} must be finite, got {raw!r}")
    if integer:
        if value.ndim or not float(value).is_integer():
            raise ConfigurationError(f"{name} must be a whole number, got {raw!r}")
        return int(value)
    return float(value) if value.ndim == 0 else value


def _model_errors_as_config(build):
    """Re-raise a model constructor's ParameterError as a ConfigurationError:
    here a rejected value came from the config."""
    @functools.wraps(build)
    def wrapped(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ParameterError as exc:
            raise ConfigurationError(str(exc)) from exc
    return wrapped


@_model_errors_as_config
def build_rate_params(cfg: dict) -> RateParams:
    lifetime = _number(cfg, "photophysics.singlet_lifetime_ns")
    if lifetime <= 0:
        raise ConfigurationError(f"singlet lifetime must be positive, got {lifetime}")
    branch = _number(cfg, "photophysics.singlet_branching_g0")
    if not (0.5 < branch < 1.0):
        raise ConfigurationError(
            f"singlet_branching_g0 must lie in (0.5, 1), got {branch}")
    sat_amp = cfg["photophysics"]["sat_amp"]
    amp_map = AmplitudeMap(
        beta_max=_number(cfg, "photophysics.beta_max"),
        shape=cfg["photophysics"]["map_shape"],
        sat_amp=None if sat_amp is None else _number(cfg, "photophysics.sat_amp"))
    return RateParams(
        k_rad=_number(cfg, "photophysics.k_rad"),
        k_isc0=_number(cfg, "photophysics.k_isc0"),
        k_isc1=_number(cfg, "photophysics.k_isc1"),
        k_s0=branch / lifetime,
        k_s1=(1.0 - branch) / lifetime,
        eta=_number(cfg, "photophysics.eta"),
        amp_map=amp_map,
    )


@_model_errors_as_config
def build_sequence(cfg: dict) -> SequenceConfig:
    c = cfg["sequence"]
    init_wf = make_constant(_number(cfg, "sequence.init_duration_ns"),
                            _number(cfg, "sequence.init_amplitude"),
                            _number(cfg, "sequence.init_pieces", integer=True))
    if c["readout_amplitudes"] is not None:
        readout_wf = PiecewiseWaveform(_number(cfg, "sequence.readout_duration_ns"),
                                       _number(cfg, "sequence.readout_amplitudes"))
    else:
        readout_wf = make_constant(_number(cfg, "sequence.readout_duration_ns"),
                                   _number(cfg, "sequence.readout_amplitude"),
                                   _number(cfg, "sequence.readout_pieces",
                                           integer=True))
    width = c["detection_width_ns"]
    return SequenceConfig(
        init_wf=init_wf,
        wait_ns=_number(cfg, "sequence.wait_ns"),
        readout_wf=readout_wf,
        bin_width_ns=_number(cfg, "sequence.bin_width_ns"),
        repetitions=_number(cfg, "sequence.repetitions"),
        detection_offset_ns=_number(cfg, "sequence.detection_offset_ns"),
        detection_width_ns=(None if width is None
                            else _number(cfg, "sequence.detection_width_ns")),
    )


def build_sweep_spec(cfg: dict, base: SequenceConfig,
                     mode: str | None = None) -> SweepSpec:
    c = cfg["sweep"]
    points = {axis: _number(cfg, f"sweep.{axis}_points", integer=True)
              for axis in ("amplitude", "duration")}
    for axis, count in points.items():
        if count < 1:
            raise ConfigurationError(f"sweep {axis}_points must be >= 1")
    return SweepSpec(
        amplitudes=np.linspace(_number(cfg, "sweep.amplitude_start"),
                               _number(cfg, "sweep.amplitude_stop"),
                               points["amplitude"]),
        durations_ns=np.linspace(_number(cfg, "sweep.duration_start_ns"),
                                 _number(cfg, "sweep.duration_stop_ns"),
                                 points["duration"]),
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


@_model_errors_as_config
def build_olo_spec(cfg: dict, base: SequenceConfig, params: RateParams,
                   stochastic: bool = False, seed: int = 0) -> OloSpec:
    opt = OptimizerConfig(
        bounds=AmplitudeBounds(_number(cfg, "olo.bound_lo"),
                               _number(cfg, "olo.bound_hi")),
        alpha0=_number(cfg, "olo.alpha0"),
        rho=_number(cfg, "olo.rho"),
        alpha_min=_number(cfg, "olo.alpha_min"),
        max_queries=_number(cfg, "olo.max_queries", integer=True),
    )
    return OloSpec(
        base=base,
        params=params,
        optimizer=opt,
        start_duration_ns=_number(cfg, "olo.start_duration_ns"),
        start_amplitude=_number(cfg, "olo.start_amplitude"),
        n_init=_number(cfg, "olo.n_init", integer=True),
        n_read=_number(cfg, "olo.n_read", integer=True),
        init_scan_amplitudes=np.linspace(
            0.02, 1.0, _number(cfg, "olo.init_scan_points", integer=True)),
        stochastic=stochastic,
        sample_seed=seed,
    )


def build_rabi_taus(cfg: dict) -> np.ndarray:
    return np.linspace(_number(cfg, "rabi.tau_start_ns"),
                       _number(cfg, "rabi.tau_stop_ns"),
                       _number(cfg, "rabi.tau_points", integer=True))


def rabi_omega(cfg: dict) -> float:
    period = _number(cfg, "rabi.rabi_period_ns")
    if period <= 0:
        raise ConfigurationError(f"Rabi period must be positive, got {period}")
    return 2.0 * np.pi / period
