"""Run configuration: one YAML file with a section per subsystem.

Unknown keys are rejected with the offending section named, so typos fail
fast instead of silently falling back to defaults.  Individual keys can be
overridden from the command line with ``--set section.key=value``.  The
``build_*`` functions turn a value that is not a finite number (or not a
whole one where a count is expected), any count above :data:`MAX_POINTS`,
and any value a model constructor rejects, into a
:class:`ConfigurationError`.
"""

from __future__ import annotations

import copy
import functools
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigurationError, ParameterError
from .harness import OloSpec, SweepSpec
from .metrics import FIT_MIN_SAMPLES
from .optimizer import OptimizerConfig
from .photophysics import AmplitudeMap, RateParams
from .pumpsim import SequenceConfig
from .waveform import AmplitudeBounds, PiecewiseWaveform, make_constant

#: Most points a configured count, the sweep's amplitude x duration grid and
#: the readout's time bins may hold: far above any grid the model needs, and
#: checked before any array of that size is built.
MAX_POINTS = 10_000

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
        "wait_ns": 2000.0,
        "readout_duration_ns": 920.0,
        "readout_amplitude": 0.2,       # or a list, one amplitude per piece
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


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, which follows YAML 1.1, with the floats of the
    YAML 1.2 core schema added: under 1.1 a float needs a dot and a signed
    exponent, so ``1e6``, ``1e+03`` and ``1.0e6`` would load as strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    # the 1.2 core floats that 1.2 does not resolve as integers
    re.compile(r"^[-+]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
               r"|[0-9]+[eE][-+]?[0-9]+)$"),
    list("-+.0123456789"))


def _parse_yaml(text: str, where: str):
    """``text`` parsed as YAML, which must hold only what the manifest's
    JSON can: null, booleans, numbers, strings, lists and mappings."""
    try:
        value = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:   # ValueError: "!!float abc"
        raise ConfigurationError(f"cannot parse {where}: {exc}") from None
    except RecursionError:
        raise ConfigurationError(f"cannot parse {where}: nested too deeply") from None
    # the parser takes more stack per level than this check, so a value it
    # could nest, the check can walk
    _check_plain(value, where)
    return value


def _check_plain(value, where: str) -> None:
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, list):
        for item in value:
            _check_plain(item, where)
    elif not isinstance(value, (type(None), bool, int, float, str)):
        raise ConfigurationError(
            f"{where}: {value!r} is not a number, string, list or mapping")


def load_config(path: str | Path | None = None,
                overrides: list[str] | None = None) -> dict:
    """Merged config dict: defaults <- file <- --set overrides."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        loaded = _parse_yaml(text, f"config file {path}")
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
    value = _parse_yaml(raw, f"--set {item!r}")
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


def _setting(cfg: dict, name: str):
    """The raw value of ``name`` ("section.key", or a top-level key)."""
    return functools.reduce(dict.__getitem__, name.split("."), cfg)


def _numbers(cfg: dict, name: str) -> np.ndarray:
    """The value of ``name``, a number or a list of them, as a float array
    of finite values."""
    raw = _setting(cfg, name)
    try:
        value = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{name} must be a number, got {raw!r}") from None
    if not np.all(np.isfinite(value)):
        raise ConfigurationError(f"{name} must be finite, got {raw!r}")
    return value


def _number(cfg: dict, name: str, integer: bool = False):
    """The value of ``name`` as one finite float, or as an int if
    ``integer``.  Only ``sequence.readout_amplitude`` may be a list, and it
    is read with :func:`_numbers`."""
    value = _numbers(cfg, name)
    if value.ndim:
        raise ConfigurationError(
            f"{name} must be a single number, got {_setting(cfg, name)!r}")
    if integer and not float(value).is_integer():
        raise ConfigurationError(
            f"{name} must be a whole number, got {_setting(cfg, name)!r}")
    return int(value) if integer else float(value)


def _path(cfg: dict, name: str) -> str:
    """The value of ``name`` as a non-empty path string."""
    value = _setting(cfg, name)
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"{name} must be a path, got {value!r}")
    return value


def _count(cfg: dict, name: str) -> int:
    """The value of ``name`` as a whole number in [1, MAX_POINTS]."""
    count = _number(cfg, name, integer=True)
    if count < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {count}")
    if count > MAX_POINTS:
        raise ConfigurationError(
            f"{name} must be <= {MAX_POINTS}, got {count}")
    return count


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
    init_wf = make_constant(_number(cfg, "sequence.init_duration_ns"),
                            _number(cfg, "sequence.init_amplitude"))
    readout_wf = PiecewiseWaveform(_number(cfg, "sequence.readout_duration_ns"),
                                   _numbers(cfg, "sequence.readout_amplitude"))
    bin_width = _number(cfg, "sequence.bin_width_ns")
    if bin_width > 0 and readout_wf.duration_ns / bin_width > MAX_POINTS:
        raise ConfigurationError(
            f"sequence.bin_width_ns of {bin_width} ns cuts the readout into "
            f"more than {MAX_POINTS} bins")
    width = cfg["sequence"]["detection_width_ns"]
    return SequenceConfig(
        init_wf=init_wf,
        wait_ns=_number(cfg, "sequence.wait_ns"),
        readout_wf=readout_wf,
        bin_width_ns=bin_width,
        repetitions=_number(cfg, "sequence.repetitions"),
        detection_offset_ns=_number(cfg, "sequence.detection_offset_ns"),
        detection_width_ns=(None if width is None
                            else _number(cfg, "sequence.detection_width_ns")),
    )


def build_sweep_spec(cfg: dict, base: SequenceConfig,
                     mode: str | None = None) -> SweepSpec:
    c = cfg["sweep"]
    n_amp = _count(cfg, "sweep.amplitude_points")
    n_dur = _count(cfg, "sweep.duration_points")
    if n_amp * n_dur > MAX_POINTS:
        raise ConfigurationError(
            f"sweep grid of {n_amp} x {n_dur} cells is above {MAX_POINTS}")
    return SweepSpec(
        amplitudes=np.linspace(_number(cfg, "sweep.amplitude_start"),
                               _number(cfg, "sweep.amplitude_stop"), n_amp),
        durations_ns=np.linspace(_number(cfg, "sweep.duration_start_ns"),
                                 _number(cfg, "sweep.duration_stop_ns"), n_dur),
        base=base,
        mode=mode if mode is not None else c["mode"],
        metric=c["metric"],
    )


def build_baseline_spec(cfg: dict, base: SequenceConfig,
                        metric: str) -> SweepSpec:
    """The constant-scheme baseline: the configured grid in global mode,
    scored by ``metric`` whatever ``sweep.mode`` and ``sweep.metric`` say.

    The default duration axis starts at 400 ns: windows shorter than that
    are not practical settings for the constant scheme here, and the floor
    is what exposes the readout-noise penalty of strong pumping (at high
    power the spin polarizes well before the window closes, so the
    remaining illumination only adds shot noise).
    """
    return replace(build_sweep_spec(cfg, base, mode="global"), metric=metric)


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
        n_read=_count(cfg, "olo.n_read"),
        init_scan_amplitudes=np.linspace(
            0.02, 1.0, _count(cfg, "olo.init_scan_points")),
        stochastic=stochastic,
        sample_seed=seed,
    )


@_model_errors_as_config
def build_olo_init_pulse(cfg: dict) -> PiecewiseWaveform:
    """The OLO scheme's square init pulse for the Rabi comparison: the
    sequence's init duration at ``rabi.olo_init_amplitude`` (from the
    optimize summary), or at ``sequence.init_amplitude`` if that is unset."""
    amplitude = ("rabi.olo_init_amplitude"
                 if cfg["rabi"]["olo_init_amplitude"] is not None
                 else "sequence.init_amplitude")
    return make_constant(_number(cfg, "sequence.init_duration_ns"),
                         _number(cfg, amplitude))


def build_rabi_taus(cfg: dict) -> np.ndarray:
    """The tau grid, with at least the samples a curve's fit needs."""
    points = _count(cfg, "rabi.tau_points")
    if points < FIT_MIN_SAMPLES:
        raise ConfigurationError(
            f"rabi.tau_points must be >= {FIT_MIN_SAMPLES} for the sinusoid "
            f"fit, got {points}")
    return np.linspace(_number(cfg, "rabi.tau_start_ns"),
                       _number(cfg, "rabi.tau_stop_ns"), points)


def rabi_omega(cfg: dict) -> float:
    period = _number(cfg, "rabi.rabi_period_ns")
    if period <= 0:
        raise ConfigurationError(f"Rabi period must be positive, got {period}")
    return 2.0 * np.pi / period
