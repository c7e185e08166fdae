"""Run configuration: one YAML file with a section per subsystem.

:data:`SETTINGS` is the table of every setting: ``section -> key ->
(default, check)``.  A check returns the value a run uses, or raises a
:class:`ConfigurationError` naming the setting.  The kinds are a finite
float, a whole number, a count in [1, :data:`MAX_POINTS`], one number or a
list of them, a path, a text choice and an optional (``None``) value, some
with a bound.  :func:`load_config` applies the file, the ``--set
section.key=value`` overrides and the ``--seed`` and ``--out`` flags, and
checks every setting at load, whichever command runs: each one alone, then
what spans settings (:func:`_check_spans`: the readout's bins, the sweep's
cells and the Rabi waveform file), then the model objects they configure
(:func:`_check_models` runs each ``build_*`` once, so a bound that only a
constructor states is checked too); an unknown key fails with its section
named.  The ``build_*`` functions read the checked values and turn a value
a model constructor rejects into a :class:`ConfigurationError`.
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
from .harness import SWEEP_METRICS, SWEEP_MODES, OloSpec, SweepSpec
from .metrics import FIT_MIN_SAMPLES
from .optimizer import OptimizerConfig
from .photophysics import MAP_SHAPES, AmplitudeMap, RateParams
from .pumpsim import SequenceConfig, bin_count
from .rabi import RabiConfig
from .waveform import AmplitudeBounds, PiecewiseWaveform, make_constant

#: Most points a configured count, the readout's piece list, the sweep's
#: amplitude x duration grid and the readout's time bins may hold: far
#: above any grid the model needs, and checked before any array of that
#: size is built.
MAX_POINTS = 10_000


def _number(kind, *bounds):
    """The check of a finite number: a float, a whole number if ``kind`` is
    ``int``, or one number or a list of at most MAX_POINTS if ``kind`` is
    ``list``.  A single number must pass each ``(holds, words)`` bound."""
    def check(name: str, raw):
        try:
            value = np.asarray(raw, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(f"{name} must be a number, got {raw!r}") from None
        if not np.all(np.isfinite(value)):
            raise ConfigurationError(f"{name} must be finite, got {raw!r}")
        if kind is list:
            if value.size > MAX_POINTS:
                raise ConfigurationError(
                    f"{name} must hold <= {MAX_POINTS} numbers, got {value.size}")
            return value.tolist()
        if value.ndim:
            raise ConfigurationError(f"{name} must be a single number, got {raw!r}")
        if kind is int and not float(value).is_integer():
            raise ConfigurationError(f"{name} must be a whole number, got {raw!r}")
        value = kind(value)
        for holds, words in bounds:
            if not holds(value):
                raise ConfigurationError(f"{name} must {words}, got {value}")
        return value
    return check


def _at_least(lo, why: str = ""):
    return (lambda value: value >= lo), f"be >= {lo}{why}"


_POSITIVE = (lambda value: value > 0), "be positive"
_AT_MOST_MAX = (lambda value: value <= MAX_POINTS), f"be <= {MAX_POINTS}"
_FLOAT = _number(float)
_COUNT = _number(int, _at_least(1), _AT_MOST_MAX)


def _path(name: str, raw) -> str:
    if not isinstance(raw, str) or not raw:
        raise ConfigurationError(f"{name} must be a path, got {raw!r}")
    return raw


def _choice(options: tuple[str, ...]):
    def check(name: str, raw) -> str:
        if raw not in options:
            raise ConfigurationError(
                f"{name} must be one of {', '.join(options)}, got {raw!r}")
        return raw
    return check


def _optional(check):
    return lambda name, raw: None if raw is None else check(name, raw)


SETTINGS: dict = {
    "photophysics": {
        "k_rad": (0.065, _FLOAT),
        "k_isc0": (0.011, _FLOAT),
        "k_isc1": (0.050, _FLOAT),
        "singlet_lifetime_ns": (250.0, _number(float, _POSITIVE)),
        "singlet_branching_g0": (0.8, _number(
            float, ((lambda g: 0.5 < g < 1.0), "lie in (0.5, 1)"))),
        "eta": (0.0025, _FLOAT),
        "beta_max": (0.5, _FLOAT),
        "map_shape": ("linear", _choice(MAP_SHAPES)),
        "sat_amp": (None, _optional(_FLOAT)),
    },
    "sequence": {
        "init_duration_ns": (1000.0, _FLOAT),
        "init_amplitude": (0.2, _FLOAT),
        "wait_ns": (2000.0, _FLOAT),
        "readout_duration_ns": (920.0, _FLOAT),
        "readout_amplitude": (0.2, _number(list)),    # or a list, one per piece
        "bin_width_ns": (46.0, _number(float, _POSITIVE)),   # trace only
        "repetitions": (1e8, _number(float, _at_least(1))),
    },
    "sweep": {
        "amplitude_start": (0.02, _FLOAT),
        "amplitude_stop": (1.0, _FLOAT),
        "amplitude_points": (20, _COUNT),
        "duration_start_ns": (400.0, _FLOAT),
        "duration_stop_ns": (2000.0, _FLOAT),
        "duration_points": (20, _COUNT),
        "mode": ("global", _choice(SWEEP_MODES)),
        "metric": ("snr", _choice(SWEEP_METRICS)),
    },
    "olo": {
        "start_duration_ns": (920.0, _FLOAT),
        "start_amplitude": (0.02, _FLOAT),
        "n_read": (20, _COUNT),
        "alpha0": (0.1, _FLOAT),
        "rho": (0.5, _FLOAT),
        "alpha_min": (1.0e-3, _FLOAT),
        "max_queries": (5000, _number(int, _at_least(1))),
        "bound_lo": (0.0, _FLOAT),
        "bound_hi": (1.0, _FLOAT),
        "init_scan_points": (25, _COUNT),
    },
    "rabi": {
        "rabi_period_ns": (200.0, _number(float, _POSITIVE)),
        "tau_start_ns": (0.0, _FLOAT),
        "tau_stop_ns": (600.0, _FLOAT),
        "tau_points": (61, _number(int, _at_least(FIT_MIN_SAMPLES,
                                                  " for the sinusoid fit"),
                                   _AT_MOST_MAX)),
        "repetitions": (1.0e8, _number(float, _at_least(1))),
        # the CSV the optimize command writes, and its summary's amplitude
        "olo_waveform": (None, _optional(_path)),
        "olo_init_amplitude": (None, _optional(_FLOAT)),
    },
    "output_dir": ("runs", _path),
    "seed": (0, _number(int, _at_least(0))),
}

#: The default of every setting, laid out as a config.
DEFAULT_CONFIG: dict = {
    name: ({key: default for key, (default, _) in entry.items()}
           if isinstance(entry, dict) else entry[0])
    for name, entry in SETTINGS.items()}


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
    try:
        return yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:   # ValueError: "!!float abc"
        raise ConfigurationError(f"cannot parse {where}: {exc}") from None
    except RecursionError:
        raise ConfigurationError(f"cannot parse {where}: nested too deeply") from None


def load_config(path: str | Path | None = None,
                overrides: list[str] | None = None,
                seed: int | None = None, output_dir: str | None = None) -> dict:
    """The checked config: defaults <- file <- --set overrides <- the
    ``seed`` and ``output_dir`` flags, each setting as its check returns
    it."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        loaded = _parse_yaml(text, f"config file {path}")
        _merge(cfg, {} if loaded is None else loaded, f"config file {path}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects section.key=value, got {item!r}")
        names, raw = item.split("=", 1)
        value = _parse_yaml(raw, f"--set {item!r}")
        for name in reversed(names.strip().split(".")):
            value = {name: value}
        _merge(cfg, value, f"--set {item!r}")
    if seed is not None:
        cfg["seed"] = seed
    if output_dir is not None:
        cfg["output_dir"] = output_dir
    return _check_models(_check_spans(_checked(SETTINGS, cfg)))


def _merge(cfg: dict, given, where: str, table: dict = SETTINGS,
           section: str = "<top level>") -> None:
    """Write the mapping ``given`` into ``cfg``, whose sections and keys
    are those of ``table``."""
    if not isinstance(given, dict):
        raise ConfigurationError(f"{where}: section '{section}' must be a mapping")
    unknown = sorted(str(key) for key in given if key not in table)
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown key(s) in section '{section}': {', '.join(unknown)}")
    for key, value in given.items():
        if isinstance(table[key], dict):
            _merge(cfg[key], value, where, table[key], key)
        else:
            cfg[key] = value


def _checked(table: dict, raw: dict, prefix: str = "") -> dict:
    return {key: (_checked(entry, raw[key], f"{key}.") if isinstance(entry, dict)
                  else entry[1](prefix + key, raw[key]))
            for key, entry in table.items()}


def _check_spans(cfg: dict) -> dict:
    """``cfg``, once the checks that span settings pass: the trace's bins
    divide the readout and number at most :data:`MAX_POINTS`, as do the
    sweep's cells, and a set ``rabi.olo_waveform`` names a file."""
    seq, sweep = cfg["sequence"], cfg["sweep"]
    duration, width = seq["readout_duration_ns"], seq["bin_width_ns"]
    if duration > 0:    # a readout of no duration is the waveform's error
        if duration / width > MAX_POINTS:
            raise ConfigurationError(
                f"sequence.bin_width_ns of {width} ns cuts the readout into "
                f"more than {MAX_POINTS} bins")
        try:
            bin_count(duration, width)
        except ConfigurationError:
            raise ConfigurationError(
                f"sequence.bin_width_ns of {width} ns does not divide "
                f"sequence.readout_duration_ns of {duration} ns") from None
    n_amp, n_dur = sweep["amplitude_points"], sweep["duration_points"]
    if n_amp * n_dur > MAX_POINTS:
        raise ConfigurationError(
            f"sweep grid of {n_amp} x {n_dur} cells is above {MAX_POINTS}")
    path = cfg["rabi"]["olo_waveform"]
    if path is not None and not Path(path).exists():
        raise ConfigurationError(
            f"OLO waveform file {path!r} not found; run the optimize "
            "command first")
    return cfg


def _check_models(cfg: dict) -> dict:
    """``cfg``, once every model object it configures builds, so that the
    checks only a model's constructor makes run at load too."""
    params, seq = build_rate_params(cfg), build_sequence(cfg)
    build_sweep_spec(cfg, seq)
    build_olo_spec(cfg, seq, params)
    build_olo_init_pulse(cfg)
    build_rabi_config(cfg)
    return cfg


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
    c = cfg["photophysics"]
    lifetime = c["singlet_lifetime_ns"]
    branch = c["singlet_branching_g0"]
    return RateParams(
        k_rad=c["k_rad"],
        k_isc0=c["k_isc0"],
        k_isc1=c["k_isc1"],
        k_s0=branch / lifetime,
        k_s1=(1.0 - branch) / lifetime,
        eta=c["eta"],
        amp_map=AmplitudeMap(c["beta_max"], c["map_shape"], c["sat_amp"]),
    )


@_model_errors_as_config
def build_sequence(cfg: dict) -> SequenceConfig:
    c = cfg["sequence"]
    return SequenceConfig(
        init_wf=make_constant(c["init_duration_ns"], c["init_amplitude"]),
        wait_ns=c["wait_ns"],
        readout_wf=PiecewiseWaveform(c["readout_duration_ns"],
                                     c["readout_amplitude"]),
        repetitions=c["repetitions"],
    )


def build_sweep_spec(cfg: dict, base: SequenceConfig,
                     mode: str | None = None) -> SweepSpec:
    c = cfg["sweep"]
    return SweepSpec(
        amplitudes=np.linspace(c["amplitude_start"], c["amplitude_stop"],
                               c["amplitude_points"]),
        durations_ns=np.linspace(c["duration_start_ns"], c["duration_stop_ns"],
                                 c["duration_points"]),
        base=base,
        mode=mode if mode is not None else c["mode"],
        metric=c["metric"],
    )


def build_baseline_spec(cfg: dict, base: SequenceConfig,
                        metric: str) -> SweepSpec:
    """The constant-scheme baseline: the configured grid in global mode,
    scored by ``metric`` whatever ``sweep.mode`` and ``sweep.metric`` say.

    The default duration axis starts at 400 ns: pulses shorter than that
    are not practical settings for the constant scheme here, and the floor
    is what exposes the readout-noise penalty of strong pumping (at high
    power the spin polarizes well before the readout pulse ends, so the
    remaining illumination only adds shot noise).
    """
    return replace(build_sweep_spec(cfg, base, mode="global"), metric=metric)


@_model_errors_as_config
def build_olo_spec(cfg: dict, base: SequenceConfig, params: RateParams,
                   stochastic: bool = False, seed: int = 0) -> OloSpec:
    c = cfg["olo"]
    opt = OptimizerConfig(
        bounds=AmplitudeBounds(c["bound_lo"], c["bound_hi"]),
        alpha0=c["alpha0"],
        rho=c["rho"],
        alpha_min=c["alpha_min"],
        max_queries=c["max_queries"],
    )
    return OloSpec(
        base=base,
        params=params,
        optimizer=opt,
        start_duration_ns=c["start_duration_ns"],
        start_amplitude=c["start_amplitude"],
        n_read=c["n_read"],
        init_scan_amplitudes=np.linspace(0.02, 1.0, c["init_scan_points"]),
        stochastic=stochastic,
        sample_seed=seed,
    )


@_model_errors_as_config
def build_olo_init_pulse(cfg: dict) -> PiecewiseWaveform:
    """The OLO scheme's square init pulse for the Rabi comparison: the
    sequence's init duration at ``rabi.olo_init_amplitude`` (from the
    optimize summary), or at ``sequence.init_amplitude`` if that is unset."""
    amplitude = cfg["rabi"]["olo_init_amplitude"]
    return make_constant(cfg["sequence"]["init_duration_ns"],
                         cfg["sequence"]["init_amplitude"] if amplitude is None
                         else amplitude)


def build_rabi_config(cfg: dict, stochastic: bool = False) -> RabiConfig:
    """The Rabi sweep all three schemes share, drawn from the run seed."""
    c = cfg["rabi"]
    return RabiConfig(
        omega_rad_per_ns=2.0 * np.pi / c["rabi_period_ns"],
        taus_ns=np.linspace(c["tau_start_ns"], c["tau_stop_ns"], c["tau_points"]),
        stochastic=stochastic,
        seed=cfg["seed"],
    )
