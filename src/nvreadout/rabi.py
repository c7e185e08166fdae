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
    """The Rabi sweep every readout scheme shares: drive, tau grid and
    sampling.  A stochastic sweep draws its counts from ``seed``, an int or
    a :func:`pumpsim.sampling_seed` key."""

    omega_rad_per_ns: float
    taus_ns: np.ndarray
    stochastic: bool = False
    seed: int | np.random.SeedSequence = 0

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
    counts: np.ndarray             # raw readout totals per tau
    fit: SinusoidFit
    contrast: float                # from fitted extrema, (max-min)/max
    mean_dev: float                # sampled, or its Poisson expectation


def rabi_expectations(cfg: RabiConfig, seq: SequenceConfig,
                      params: RateParams) -> np.ndarray:
    """Expected readout totals L(tau) of the sequence ``seq`` over all its
    repetitions, no sampling.

    The pulse mixes the two branch states with weights cos² and sin² of
    half its angle, so the totals mix the branch totals of
    :func:`pumpsim.pair_window_counts` with the same weights.
    """
    L0, L1 = pair_window_counts(seq, params)
    c2 = np.cos(0.5 * cfg.omega_rad_per_ns * cfg.taus_ns) ** 2
    return L0 * c2 + L1 * (1.0 - c2)


def _curves(cfg: RabiConfig, expected: np.ndarray, seeds) -> list[RabiCurve]:
    """The fitted curves of the (k, n) expected totals ``expected``: row i
    drawn from ``seeds[i]`` if the sweep is stochastic, normalized to its
    maximum, and all k fitted in one :func:`metrics.fit_sinusoid` call
    (a fit that fails raises its ``FitError``).

    Stochastic curves report the mean deviation of their sampled signals
    from the fit; noiseless ones its leading-order expectation under
    Poisson sampling, which assumes the expected totals lie on an exact
    sinusoid, as the linear model makes them.
    """
    counts = (np.stack([sample_counts(row, seed)
                        for row, seed in zip(expected, seeds)])
              if cfg.stochastic else expected).astype(float)
    ref = counts.max(axis=1, keepdims=True)
    if np.any(ref <= 0):
        raise ConfigurationError("no photons detected at any tau")
    signals = counts / ref
    curves = []
    for mean, count, signal, fit in zip(expected, counts, signals,
                                        fit_sinusoid(cfg.taus_ns, signals)):
        y_max = fit.offset + fit.amplitude
        y_min = fit.offset - fit.amplitude
        dev = (mean_deviation(signal, fit, cfg.taus_ns) if cfg.stochastic
               else expected_mean_deviation(mean))
        curves.append(RabiCurve(
            taus_ns=cfg.taus_ns, signals=signal, counts=count, fit=fit,
            contrast=float((y_max - y_min) / y_max), mean_dev=dev))
    return curves


def realize_curve(cfg: RabiConfig, expected: np.ndarray) -> RabiCurve:
    """Turn expected totals into a (possibly sampled) fitted Rabi curve,
    drawn from ``cfg.seed`` if the sweep is stochastic."""
    return _curves(cfg, np.reshape(expected, (1, -1)), [cfg.seed])[0]


def simulate_rabi(cfg: RabiConfig, seq: SequenceConfig,
                  params: RateParams) -> RabiCurve:
    """Full Rabi sweep of ``seq``: expectations, optional shot noise, fit."""
    return realize_curve(cfg, rabi_expectations(cfg, seq, params))


def scheme_sequences(base: SequenceConfig, olo_init_wf: PiecewiseWaveform,
                     olo_readout_wf: PiecewiseWaveform, sweep_snr,
                     sweep_contrast) -> dict[str, SequenceConfig]:
    """The sequences of the three readout schemes, keyed by scheme name.

    The OLO scheme uses the optimized init and readout waveforms; each
    constant scheme uses the best square pulse of its sweep (``sweep_snr``
    and ``sweep_contrast`` are sweep results) for both init and readout.
    The rest, the wait and the repetitions, is ``base``'s.
    """
    wf_cs = make_constant(sweep_snr.best_duration_ns, sweep_snr.best_amplitude)
    wf_cc = make_constant(sweep_contrast.best_duration_ns,
                          sweep_contrast.best_amplitude)
    pulses = ((olo_init_wf, olo_readout_wf), (wf_cs, wf_cs), (wf_cc, wf_cc))
    return {name: replace(base, init_wf=init_wf, readout_wf=readout_wf)
            for name, (init_wf, readout_wf) in zip(SCHEMES, pulses)}


@dataclass(frozen=True)
class SchemeComparison:
    """Per-scheme Rabi metrics plus the headline orderings."""

    curves: dict[str, RabiCurve]
    contrasts: dict[str, float]
    mean_devs: dict[str, float]
    orderings: dict[str, bool]


def compare_schemes(cfg: RabiConfig, sequences: dict[str, SequenceConfig],
                    params: RateParams) -> SchemeComparison:
    """Run the Rabi sweep ``cfg`` once per readout scheme and compare the
    outcomes.

    ``sequences`` maps each name in :data:`SCHEMES` to that scheme's
    sequence, as built by :func:`scheme_sequences`.  A stochastic scheme k
    draws all its taus in one call from the generator keyed
    ``(RABI_STREAM, k)`` of the run seed ``cfg.seed``.  The curves are
    those :func:`realize_curve` gives, fitted in one call; a fit that fails
    stops the comparison with its ``FitError``.
    """
    missing = [s for s in SCHEMES if s not in sequences]
    if missing:
        raise ConfigurationError(f"missing scheme sequences: {missing}")
    expected = np.stack([rabi_expectations(cfg, sequences[name], params)
                         for name in SCHEMES])
    seeds = [sampling_seed(cfg.seed, RABI_STREAM, k) for k in range(len(SCHEMES))]
    curves = dict(zip(SCHEMES, _curves(cfg, expected, seeds)))
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
