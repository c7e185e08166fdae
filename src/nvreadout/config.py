"""Run configuration: one YAML file with a section per subsystem, and the
run it configures.

:data:`SETTINGS` is the table of every setting: ``section -> key ->
(default, check)``.  A check returns the value a run uses, or raises a
:class:`ConfigurationError` naming the setting.  The kinds are a finite
float, a whole number, a count in [1, :data:`MAX_POINTS`], one number or a
list of them, a path, a text choice and an optional (``None``) value, some
with a bound.  :func:`load_config` applies the file, the ``--set
section.key=value`` overrides and the ``--seed`` and ``--out`` flags, and
checks every setting at load, whichever command runs: each one alone, then
what spans settings (:func:`_check_spans`: the readout's bins and the
sweep's cells); an unknown key fails with its section named.  It returns
the :class:`Run`, whose model objects it builds once each, and that is the
last check: each constructor that can reject a value is called through
:func:`_built`, which turns the rejection into a
:class:`ConfigurationError` that starts with the settings the call read.
Both OLO sequences are built here: the optimize run's start
(:attr:`Run.olo`) and the Rabi comparison's OLO scheme, read from
``rabi.olo_waveform`` (:func:`_olo_scheme`).
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .errors import ConfigurationError, ParameterError
from .harness import SWEEP_METRICS, SWEEP_MODES, OloSpec, SweepSpec
from .io import OLO_SUMMARY, read_waveform_csv
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
    ``list``.  A number is an int or a float, never a bool or text.  A
    single number must pass each ``(holds, words)`` bound."""
    def check(name: str, raw):
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                   for x in (raw if isinstance(raw, list) else [raw])):
            raise ConfigurationError(f"{name} must be a number, got {raw!r}")
        try:
            value = np.asarray(raw, dtype=float)
        except OverflowError:       # an int beyond the float range
            raise ConfigurationError(f"{name} must be a number, got {raw!r}") from None
        if not np.isfinite(value).all():
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
        "repetitions": (1e8, _FLOAT),
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
        "max_queries": (5000, _number(int)),
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
        # no sequence is built at this count unless olo_waveform is set
        "repetitions": (1.0e8, _number(float, _at_least(1))),
        # the CSV the optimize command writes; the amplitude, if unset, is
        # the init_amplitude of the olo_summary.json beside it
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
    except yaml.MarkedYAMLError as exc:   # its text quotes the source
        mark = exc.problem_mark or exc.context_mark
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigurationError(
            f"cannot parse {where}: {exc.problem or exc.context}{at}") from None
    except (yaml.YAMLError, ValueError) as exc:   # ValueError: "!!float abc"
        raise ConfigurationError(
            f"cannot parse {where}: {' '.join(str(exc).split())}") from None
    except RecursionError:
        raise ConfigurationError(f"cannot parse {where}: nested too deeply") from None


class Run(NamedTuple):
    """The run a config configures: the checked settings, which the
    manifest records, and the model objects built from them."""

    settings: dict                  # with the rabi.olo_init_amplitude used
    params: RateParams              # with the run's propagator table
    sequence: SequenceConfig
    sweep: SweepSpec                # the sweep command's mode and metric
    baseline_snr: SweepSpec         # the constant schemes: the grid in
    baseline_contrast: SweepSpec    # global mode, by SNR and by contrast
    olo: OloSpec                    # its base: the sequence OLO starts from
    rabi: RabiConfig                # the Rabi sweep all three schemes share
    olo_scheme: SequenceConfig | None   # the Rabi OLO scheme, if its file is set


def load_config(path: str | Path | None = None,
                overrides: list[str] | None = None,
                seed: int | None = None, output_dir: str | None = None,
                stochastic: bool = False) -> Run:
    """The run of the checked config: defaults <- file <- --set overrides
    <- the ``seed`` and ``output_dir`` flags.  ``stochastic`` makes the OLO
    run and the Rabi sweep sample their counts from the run seed."""
    cfg = {name: dict(entry) if isinstance(entry, dict) else entry
           for name, entry in DEFAULT_CONFIG.items()}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
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
    return _build_run(_check_spans(_checked(SETTINGS, cfg)), stochastic)


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
    sweep's cells."""
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
            "sweep.amplitude_points, sweep.duration_points: sweep grid of "
            f"{n_amp} x {n_dur} cells is above {MAX_POINTS}")
    return cfg


def _built(keys: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``: a model object built from the settings
    ``keys``.  A value its constructor rejects is a ConfigurationError that
    starts with those keys."""
    try:
        return make(*args, **kwargs)
    except (ParameterError, ConfigurationError) as exc:
        raise ConfigurationError(f"{keys}: {exc}") from exc


def _olo_scheme(cfg: dict) -> SequenceConfig | None:
    """The OLO scheme of the Rabi comparison, if ``rabi.olo_waveform`` is
    set: a square init pulse of ``sequence.init_duration_ns`` at
    ``rabi.olo_init_amplitude``, the ``sequence`` wait, the readout
    waveform in that file, and ``rabi.repetitions``.  An unset amplitude
    is the ``init_amplitude`` of the optimize run that wrote the file, read
    from the ``olo_summary.json`` beside it, and ``cfg`` records it."""
    s, r = cfg["sequence"], cfg["rabi"]
    path = r["olo_waveform"]
    if path is None:
        return None
    if not Path(path).is_file():
        raise ConfigurationError(
            f"rabi.olo_waveform: file {path!r} not found; run the optimize "
            "command first")
    readout = _built("rabi.olo_waveform", read_waveform_csv, path)
    if r["olo_init_amplitude"] is None:
        summary = Path(path).parent / OLO_SUMMARY
        try:
            amplitude = json.loads(summary.read_text())["init_amplitude"]
        except (OSError, ValueError, KeyError, TypeError):
            raise ConfigurationError(
                f"rabi.olo_init_amplitude is not set, and no init_amplitude "
                f"can be read from {summary}, beside rabi.olo_waveform; set "
                "it, or point rabi.olo_waveform at the olo_waveform.csv of an "
                "optimize run") from None
        r["olo_init_amplitude"] = _FLOAT(
            f"rabi.olo_init_amplitude, read from {summary},", amplitude)
    init_wf = _built("sequence.init_duration_ns, rabi.olo_init_amplitude",
                     make_constant, s["init_duration_ns"],
                     r["olo_init_amplitude"])
    return _built("rabi.repetitions", SequenceConfig,
                  init_wf, s["wait_ns"], readout, r["repetitions"])


def _build_run(cfg: dict, stochastic: bool) -> Run:
    """The run that the checked settings ``cfg`` configure, each model
    object built once, through :func:`_built` where its constructor can
    reject a value."""
    c, s, w = cfg["photophysics"], cfg["sequence"], cfg["sweep"]
    o, r = cfg["olo"], cfg["rabi"]
    lifetime, branch = c["singlet_lifetime_ns"], c["singlet_branching_g0"]
    params = _built(
        "photophysics.k_rad, photophysics.k_isc0, photophysics.k_isc1, "
        "photophysics.singlet_lifetime_ns, photophysics.singlet_branching_g0, "
        "photophysics.eta", RateParams,
        k_rad=c["k_rad"], k_isc0=c["k_isc0"], k_isc1=c["k_isc1"],
        k_s0=branch / lifetime, k_s1=(1.0 - branch) / lifetime, eta=c["eta"],
        amp_map=_built("photophysics.beta_max, photophysics.map_shape, "
                       "photophysics.sat_amp", AmplitudeMap,
                       c["beta_max"], c["map_shape"], c["sat_amp"]))
    init_wf = _built("sequence.init_duration_ns, sequence.init_amplitude",
                     make_constant, s["init_duration_ns"], s["init_amplitude"])
    readout_wf = _built(
        "sequence.readout_duration_ns, sequence.readout_amplitude",
        PiecewiseWaveform, s["readout_duration_ns"], s["readout_amplitude"])
    sequence = _built("sequence.wait_ns, sequence.repetitions", SequenceConfig,
                      init_wf, s["wait_ns"], readout_wf, s["repetitions"])

    grid_keys = ("sweep.amplitude_start, sweep.amplitude_stop, "
                 "sweep.amplitude_points, sweep.duration_start_ns, "
                 "sweep.duration_stop_ns, sweep.duration_points")
    grid = {"amplitudes": np.linspace(w["amplitude_start"], w["amplitude_stop"],
                                      w["amplitude_points"]),
            "durations_ns": np.linspace(w["duration_start_ns"],
                                        w["duration_stop_ns"],
                                        w["duration_points"]),
            "base": sequence}
    baseline_snr, baseline_contrast = (
        _built(grid_keys, SweepSpec, **grid, mode="global", metric=metric)
        for metric in ("snr", "contrast"))

    bounds = _built("olo.bound_lo, olo.bound_hi", AmplitudeBounds,
                    o["bound_lo"], o["bound_hi"])
    optimizer = _built(
        "olo.alpha0, olo.rho, olo.alpha_min, olo.max_queries", OptimizerConfig,
        bounds=bounds, alpha0=o["alpha0"], rho=o["rho"],
        alpha_min=o["alpha_min"], max_queries=o["max_queries"])
    olo_start = _built(
        "olo.start_duration_ns, olo.start_amplitude, olo.n_read, "
        "olo.bound_lo, olo.bound_hi", PiecewiseWaveform, o["start_duration_ns"],
        np.full(o["n_read"], o["start_amplitude"]), bounds)

    return Run(
        settings=cfg,
        params=params,
        sequence=sequence,
        sweep=_built(f"{grid_keys}, sweep.mode, sweep.metric", SweepSpec,
                     **grid, mode=w["mode"], metric=w["metric"]),
        baseline_snr=baseline_snr,
        baseline_contrast=baseline_contrast,
        olo=OloSpec(
            base=replace(sequence, readout_wf=olo_start), params=params,
            optimizer=optimizer,
            init_scan_amplitudes=np.linspace(0.02, 1.0, o["init_scan_points"]),
            stochastic=stochastic, sample_seed=cfg["seed"]),
        rabi=_built(
            "rabi.rabi_period_ns, rabi.tau_start_ns, rabi.tau_stop_ns, "
            "rabi.tau_points", RabiConfig,
            omega_rad_per_ns=2.0 * np.pi / r["rabi_period_ns"],
            taus_ns=np.linspace(r["tau_start_ns"], r["tau_stop_ns"],
                                r["tau_points"]),
            stochastic=stochastic, seed=cfg["seed"]),
        olo_scheme=_olo_scheme(cfg),
    )
