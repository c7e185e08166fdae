"""Rabi-oscillation measurements under different readout waveforms.

A resonant microwave drive of duration tau rotates population between the
two ground sublevels before readout; sweeping tau traces out a sinusoid in
the detected counts.  The drive is modeled at the population level, which
is all that optical readout of the populations can see: a pulse of angle
θ = Ω·tau maps p to cos²(θ/2)·p + sin²(θ/2)·swap(p).  The readout is a row
applied to p, so the expected total is L0·cos²(θ/2) + L1·sin²(θ/2) from the
two branch totals, and a noiseless curve is exactly sinusoidal by
construction.  Contrast is evaluated on the fitted extrema and the mean
absolute deviation of the normalized signal from the fit quantifies
readout quality.

With shot noise (``stochastic=True``) the counts are Poisson draws and the
mean deviation is measured on them.  Without it the counts are their
expectations, and like them the mean deviation is the expected value of the
sampled statistic (``metrics.expected_mean_deviation``), not the statistic
of the expected counts, whose own residual is rounding residue.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .metrics import (
    SinusoidFit,
    expected_mean_deviation,
    fit_sinusoid,
    mean_deviation,
)
from .photophysics import RateParams
from .pumpsim import (
    RABI_STREAM,
    SequenceConfig,
    pair_window_counts,
    propagate_waveform,  # noqa: F401  (unused; perfbench/tracer.py patches it here)
    sample_counts,
    sampling_seed,
    window_expectation,  # noqa: F401  (unused; perfbench/tracer.py patches it here)
)
from .waveform import PiecewiseWaveform, make_constant

SCHEMES = ("olo-snr", "constant-snr", "constant-contrast")


@dataclass(frozen=True)
class RabiConfig:
    """One Rabi sweep using the readout/init pulses carried by ``base``.

    A stochastic sweep draws its counts from ``sample_seed``: an int, or the
    :func:`pumpsim.sampling_seed` key that :func:`make_scheme_configs` gives
    each scheme.
    """

    omega_rad_per_ns: float
    taus_ns: np.ndarray
    base: SequenceConfig
    stochastic: bool = False
    sample_seed: int | np.random.SeedSequence = 0

    def __post_init__(self) -> None:
        taus = np.asarray(self.taus_ns, dtype=float).ravel()
        if taus.size == 0 or np.any(taus < 0):
            raise ConfigurationError("tau grid must be non-empty and non-negative")
        if not (np.isfinite(self.omega_rad_per_ns) and self.omega_rad_per_ns > 0):
            raise ConfigurationError(
                f"Rabi frequency must be positive, got {self.omega_rad_per_ns}")
        period = 2.0 * np.pi / self.omega_rad_per_ns
        if taus.max() - taus.min() < period:
            raise ConfigurationError(
                f"tau grid spans {taus.max() - taus.min():.1f} ns, "
                f"less than one Rabi period ({period:.1f} ns)")
        taus.setflags(write=False)
        object.__setattr__(self, "taus_ns", taus)


@dataclass(frozen=True)
class RabiCurve:
    """Normalized Rabi signals with fit, contrast, and deviation; a curve
    exists only once its fit has succeeded."""

    taus_ns: np.ndarray
    signals: np.ndarray            # normalized to the maximal-count point
    counts: np.ndarray             # raw window totals per tau
    fit: SinusoidFit
    contrast: float                # from fitted extrema, (max-min)/max
    mean_dev: float                # sampled, or its Poisson expectation


def rabi_expectations(cfg: RabiConfig, params: RateParams) -> np.ndarray:
    """Expected window totals L(tau) over all repetitions, no sampling.

    The pulse mixes the two branch states with weights cos² and sin² of
    half its angle, so the totals mix the branch totals of
    :func:`pumpsim.pair_window_counts` with the same weights.
    """
    L0, L1 = pair_window_counts(cfg.base, params)
    c2 = np.cos(0.5 * cfg.omega_rad_per_ns * cfg.taus_ns) ** 2
    return L0 * c2 + L1 * (1.0 - c2)


def _signals(cfg: RabiConfig, expected: np.ndarray):
    """The window totals of one sweep, drawn if it is stochastic, and the
    signals: those totals normalized to their maximum."""
    counts = (sample_counts(expected, cfg.sample_seed) if cfg.stochastic
              else expected).astype(float)
    ref = counts.max()
    if ref <= 0:
        raise ConfigurationError("no photons detected at any tau")
    return counts, counts / ref


def _fitted_curve(cfg: RabiConfig, expected: np.ndarray, counts: np.ndarray,
                  signals: np.ndarray, fit: SinusoidFit) -> RabiCurve:
    """The curve of :func:`_signals`' output with its sinusoid fit."""
    y_max = fit.offset + fit.amplitude
    y_min = fit.offset - fit.amplitude
    curve_contrast = (y_max - y_min) / y_max
    if cfg.stochastic:
        dev = mean_deviation(signals, fit, cfg.taus_ns)
    else:
        dev = expected_mean_deviation(expected)
    return RabiCurve(taus_ns=cfg.taus_ns, signals=signals, counts=counts,
                     fit=fit, contrast=float(curve_contrast), mean_dev=dev)


def realize_curve(cfg: RabiConfig, expected: np.ndarray) -> RabiCurve:
    """Turn expected totals into a (possibly sampled) fitted Rabi curve.

    Stochastic curves report the mean deviation of their sampled signals
    from the fit.  Noiseless curves report its leading-order expectation
    under Poisson sampling at ``base.repetitions``, which assumes the
    expected totals lie on an exact sinusoid, as the linear model makes them.

    A fit that fails raises its ``FitError``; ``config.build_rabi_taus``
    keeps configured grids at or above the fit's minimum sample count.
    """
    counts, signals = _signals(cfg, expected)
    return _fitted_curve(cfg, expected, counts, signals,
                         fit_sinusoid(cfg.taus_ns, signals))


def simulate_rabi(cfg: RabiConfig, params: RateParams) -> RabiCurve:
    """Full Rabi sweep: expectations, optional shot noise, fit, metrics."""
    return realize_curve(cfg, rabi_expectations(cfg, params))


def make_scheme_configs(base: SequenceConfig, omega_rad_per_ns: float,
                        taus_ns: np.ndarray, repetitions: float,
                        olo_init_wf: PiecewiseWaveform,
                        olo_readout_wf: PiecewiseWaveform,
                        sweep_snr, sweep_contrast, stochastic: bool,
                        seed: int) -> dict[str, RabiConfig]:
    """Rabi configs of the three readout schemes, keyed by scheme name.

    The OLO scheme uses the optimized init and readout waveforms; each
    constant scheme uses the best square pulse of its sweep (``sweep_snr``
    and ``sweep_contrast`` are sweep results) for both init and readout.
    Every scheme detects over its whole readout pulse.  A stochastic scheme
    k of :data:`SCHEMES` draws all its taus in one call from the generator
    keyed ``(RABI_STREAM, k)`` of ``seed`` (``pumpsim.sampling_seed``).
    """
    wf_cs = make_constant(sweep_snr.best_duration_ns, sweep_snr.best_amplitude)
    wf_cc = make_constant(sweep_contrast.best_duration_ns,
                          sweep_contrast.best_amplitude)
    pulses = ((olo_init_wf, olo_readout_wf), (wf_cs, wf_cs), (wf_cc, wf_cc))
    cfgs = {}
    for k, (name, (init_wf, readout_wf)) in enumerate(zip(SCHEMES, pulses)):
        scheme_base = replace(base, init_wf=init_wf, readout_wf=readout_wf,
                              repetitions=repetitions)
        cfgs[name] = RabiConfig(
            omega_rad_per_ns=omega_rad_per_ns, taus_ns=taus_ns,
            base=scheme_base, stochastic=stochastic,
            sample_seed=sampling_seed(seed, RABI_STREAM, k))
    return cfgs


@dataclass(frozen=True)
class SchemeComparison:
    """Per-scheme Rabi metrics plus the headline orderings."""

    curves: dict[str, RabiCurve]
    contrasts: dict[str, float]
    mean_devs: dict[str, float]
    orderings: dict[str, bool]


def compare_schemes(cfgs: dict[str, RabiConfig], params: RateParams) -> SchemeComparison:
    """Run one Rabi sweep per readout scheme and compare the outcomes.

    ``cfgs`` maps each name in :data:`SCHEMES` to a config whose ``base``
    carries that scheme's init and readout waveforms, as built by
    :func:`make_scheme_configs`, all on one tau grid.  Every curve is
    drawn first and one :func:`metrics.fit_sinusoid` call fits them all,
    so its frequency tables are built once; each curve then gets the fit
    :func:`realize_curve` would give it.  A fit that fails stops the
    comparison with its ``FitError``.
    """
    missing = [s for s in SCHEMES if s not in cfgs]
    if missing:
        raise ConfigurationError(f"missing scheme configs: {missing}")
    taus = cfgs[SCHEMES[0]].taus_ns
    if not all(np.array_equal(cfg.taus_ns, taus) for cfg in cfgs.values()):
        raise ConfigurationError("the schemes must share one tau grid")
    drawn = {}
    for name, cfg in cfgs.items():
        expected = rabi_expectations(cfg, params)
        drawn[name] = (cfg, expected, *_signals(cfg, expected))
    fits = fit_sinusoid(taus, np.stack([signals for *_, signals
                                        in drawn.values()]))
    curves = {name: _fitted_curve(*curve, fit)
              for (name, curve), fit in zip(drawn.items(), fits)}
    contrasts = {name: curve.contrast for name, curve in curves.items()}
    mean_devs = {name: curve.mean_dev for name, curve in curves.items()}
    orderings = {
        "olo_contrast_above_constant_snr":
            contrasts["olo-snr"] > contrasts["constant-snr"],
        "olo_meandev_below_constant_contrast":
            mean_devs["olo-snr"] < mean_devs["constant-contrast"],
        "constant_contrast_above_constant_snr":
            contrasts["constant-contrast"] >= contrasts["constant-snr"],
    }
    return SchemeComparison(curves=curves, contrasts=contrasts,
                            mean_devs=mean_devs, orderings=orderings)
