"""Traversal and online-optimization pipelines.

Two ways of choosing readout laser settings are wired here.  The traversal
scheme scans constant square pulses over a (amplitude, duration) grid and
keeps the best; it extends every amplitude's pulse from one duration to the
next, without building a sequence per cell, and scores each duration's
column of amplitudes with array operations.  The online scheme fixes the
duration, splits the readout pulse into equal pieces, and lets the
Hooke-Jeeves search shape the per-piece amplitudes against the measured
(here: simulated) SNR.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError
from .metrics import contrast as contrast_metric
from .metrics import snr as snr_metric
from .optimizer import OptimizerConfig, OptimizerState, hj_optimize
from .photophysics import RateParams
from .pumpsim import (
    OLO_STREAM,
    PumpTrace,
    SequenceConfig,
    pair_window_counts,  # noqa: F401  (unused; perfbench/tracer.py patches it here)
    prepared_states,
    sample_counts,
    sampling_seed,
    simulate_pair,
    simulate_pump,  # noqa: F401  (unused; perfbench/tracer.py patches it here)
    square_pulse_states,
    window_expectation,
)
from .waveform import PiecewiseWaveform, make_constant

SWEEP_MODES = ("global", "init-only")
SWEEP_METRICS = ("snr", "contrast")


@dataclass(frozen=True)
class SweepSpec:
    """Grid scan of the constant-pulse scheme.

    ``mode="global"`` applies each (amplitude, duration) to both the
    initialization and readout pulses; ``mode="init-only"`` sweeps the
    initialization pulse while the readout stays as in ``base``.
    """

    amplitudes: np.ndarray
    durations_ns: np.ndarray
    base: SequenceConfig
    mode: str = "global"
    metric: str = "snr"

    def __post_init__(self) -> None:
        for name, grid in (("amplitudes", self.amplitudes),
                           ("durations_ns", self.durations_ns)):
            arr = np.asarray(grid, dtype=float).ravel()
            if arr.size == 0:
                raise ConfigurationError(f"{name} grid must be non-empty")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ConfigurationError(f"{name} grid must be strictly increasing")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(np.isfinite(self.durations_ns) & (self.durations_ns > 0)):
            raise ConfigurationError("sweep durations must be finite and > 0 ns")
        if not np.all((self.amplitudes >= 0) & (self.amplitudes <= 1)):
            raise ConfigurationError("sweep amplitudes must lie in [0, 1]")
        if self.mode not in SWEEP_MODES:
            raise ConfigurationError(f"unknown sweep mode {self.mode!r}")
        if self.metric not in SWEEP_METRICS:
            raise ConfigurationError(f"unknown sweep metric {self.metric!r}")


@dataclass(frozen=True)
class SweepResult:
    """Metric values on the grid plus the per-amplitude best projection.

    Grid entries where the metric is undefined (no photons at all) are NaN;
    they are flagged, never raised.
    """

    spec: SweepSpec
    grid: np.ndarray                 # shape (n_amplitudes, n_durations)
    best_per_amplitude: np.ndarray   # max over durations, NaN-aware
    best_duration_per_amplitude: np.ndarray
    best_amplitude: float
    best_duration_ns: float
    best_value: float

    @property
    def best_at_grid_edge(self) -> dict[str, bool]:
        """Whether the best cell sits on the first or last point of each axis."""
        return {name: bool(best in (grid[0], grid[-1])) for name, best, grid in (
            ("amplitude", self.best_amplitude, self.spec.amplitudes),
            ("duration", self.best_duration_ns, self.spec.durations_ns))}


def run_sweep(spec: SweepSpec, params: RateParams) -> SweepResult:
    """Evaluate the metric on the full grid and project onto the power axis.

    Each duration is one column: :func:`square_pulse_states` prepares both
    branches for every amplitude at once, and a cell's window totals are a
    readout row applied to them: in global mode the pulse's own count row,
    in init-only mode the row of ``base``'s readout window, built once.  The
    metric scores a whole column at once; cells without photons (for the
    contrast, without m_s=0 photons) stay NaN.
    """
    metric = snr_metric if spec.metric == "snr" else contrast_metric
    base, n = spec.base, spec.amplitudes.size
    grid = np.full((n, spec.durations_ns.size), np.nan)
    shared = (None if spec.mode == "global"
              else np.tile(window_expectation(base, params), (n, 1)))
    columns = square_pulse_states(base, params, spec.amplitudes, spec.durations_ns)
    for j, (ready, count_rows) in enumerate(columns):
        rows = count_rows if shared is None else shared
        L0, L1 = base.repetitions * np.einsum("ik,kbi->bi", rows,
                                              ready.reshape(-1, 2, n))
        undefined = L0 + L1 <= 0
        if spec.metric == "contrast":
            undefined |= L0 <= 0
        grid[~undefined, j] = metric(L0[~undefined], L1[~undefined])

    best_per_amp = np.full(spec.amplitudes.size, np.nan)
    best_dur_per_amp = np.full(spec.amplitudes.size, np.nan)
    for i in range(spec.amplitudes.size):
        row = grid[i]
        if np.all(np.isnan(row)):
            continue
        j = int(np.nanargmax(row))
        best_per_amp[i] = row[j]
        best_dur_per_amp[i] = spec.durations_ns[j]
    if np.all(np.isnan(best_per_amp)):
        raise ConfigurationError("metric undefined on the whole sweep grid")
    i_best = int(np.nanargmax(best_per_amp))
    return SweepResult(
        spec=spec,
        grid=grid,
        best_per_amplitude=best_per_amp,
        best_duration_per_amplitude=best_dur_per_amp,
        best_amplitude=float(spec.amplitudes[i_best]),
        best_duration_ns=float(best_dur_per_amp[i_best]),
        best_value=float(best_per_amp[i_best]),
    )


@dataclass(frozen=True)
class OloSpec:
    """Online readout-waveform optimization run.

    The initialization pulse is a square pulse at the duration of
    ``base.init_wf``, whose amplitude a scan over ``init_scan_amplitudes``
    picks.  The readout pulse starts as ``start_readout``: ``n_read`` pieces
    over ``start_duration_ns``, every piece at ``start_amplitude``, inside
    the optimizer's bounds.  It is built and checked once, here, and every
    query, the scan and the result take its duration, piece count and
    bounds from it.  A run takes its values from the ``olo`` section of
    ``config.DEFAULT_CONFIG`` (see ``config.build_olo_spec``); a stochastic
    run samples with ``sample_seed``.
    """

    base: SequenceConfig
    params: RateParams
    optimizer: OptimizerConfig
    init_scan_amplitudes: np.ndarray
    start_duration_ns: float
    start_amplitude: float
    n_read: int
    stochastic: bool = False
    sample_seed: int = 0
    start_readout: PiecewiseWaveform = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_read < 1:
            raise ConfigurationError(f"n_read must be >= 1, got {self.n_read}")
        scan = np.asarray(self.init_scan_amplitudes, dtype=float).ravel()
        if scan.size == 0:
            raise ConfigurationError("init scan grid must be non-empty")
        scan.setflags(write=False)
        object.__setattr__(self, "init_scan_amplitudes", scan)
        object.__setattr__(self, "start_readout", PiecewiseWaveform(
            self.start_duration_ns, np.full(self.n_read, self.start_amplitude),
            self.optimizer.bounds))


@dataclass(frozen=True)
class OloResult:
    """Everything needed to replot an optimization run."""

    state: OptimizerState
    waveform: PiecewiseWaveform
    init_amplitude: float
    start_snr: float
    baseline_snr: float
    final_snr: float
    improvement_ratio: float         # final / baseline - 1
    trace0: PumpTrace
    trace1: PumpTrace


def make_snr_objective(spec: OloSpec, init_wf: PiecewiseWaveform):
    """SNR of the readout window as a function of the piece amplitudes.

    The initialization and wait stages are fixed, so the two branch states
    are computed once; each query applies its trial pulse's readout row to
    both.  The detection window is the base sequence's, applied to
    ``spec.start_readout``.  In stochastic mode, mimicking single
    experimental queries, the objective owns one generator, keyed
    ``(OLO_STREAM, 0)`` of ``spec.sample_seed``, and draws both window
    totals from it in one Poisson call per query.
    """
    start = spec.start_readout
    cfg = replace(spec.base, init_wf=init_wf, readout_wf=start,
                  bin_width_ns=start.duration_ns)
    branches = np.column_stack(prepared_states(cfg, spec.params))

    def expected_counts(u):
        trial = replace(cfg, readout_wf=replace(start, amplitudes=u))
        L0, L1 = cfg.repetitions * (window_expectation(trial, spec.params)
                                    @ branches)
        return float(L0), float(L1)

    if not spec.stochastic:
        def objective(u):
            return snr_metric(*expected_counts(u))
        return objective, expected_counts

    rng = np.random.default_rng(sampling_seed(spec.sample_seed, OLO_STREAM))

    def objective(u):
        L0, L1 = sample_counts(expected_counts(u), rng)
        return snr_metric(float(L0), float(L1))
    return objective, expected_counts


def _scan_init_amplitude(spec: OloSpec) -> float:
    """Amplitude scan of the square initialization pulse: one init-only sweep
    column at the duration of ``base.init_wf``.

    Scores each candidate with the deterministic SNR of the starting
    readout waveform over its whole window; amplitude modulation buys
    nothing for initialization, which only needs to polarize the spin.
    """
    start = spec.start_readout
    readout = replace(spec.base, readout_wf=start,
                      bin_width_ns=start.duration_ns,
                      detection_offset_ns=0.0, detection_width_ns=None)
    scan = SweepSpec(amplitudes=spec.init_scan_amplitudes,
                     durations_ns=np.array([spec.base.init_wf.duration_ns]),
                     base=readout, mode="init-only", metric="snr")
    return run_sweep(scan, spec.params).best_amplitude


def run_olo(spec: OloSpec, baseline: SweepResult | float) -> OloResult:
    """Full online optimization of the readout waveform.

    ``baseline`` is the constant-scheme reference the improvement ratio is
    measured against: a sweep result or a plain SNR value.  The reported
    final SNR is always the deterministic window expectation of the returned
    waveform, so stochastic runs are judged on what they found rather than
    on a lucky draw.
    """
    baseline_snr = baseline.best_value if isinstance(baseline, SweepResult) else float(baseline)

    init_amp = _scan_init_amplitude(spec)
    init_wf = make_constant(spec.base.init_wf.duration_ns, init_amp)

    objective, expected_counts = make_snr_objective(spec, init_wf)
    u0 = spec.start_readout.amplitudes
    state = hj_optimize(objective, u0, spec.optimizer)

    waveform = replace(spec.start_readout, amplitudes=state.best)
    start_snr = snr_metric(*expected_counts(u0))
    final_snr = snr_metric(*expected_counts(state.best))

    trace0, trace1 = simulate_pair(
        replace(spec.base, init_wf=init_wf, readout_wf=waveform,
                bin_width_ns=waveform.piece_width_ns), spec.params)

    return OloResult(
        state=state,
        waveform=waveform,
        init_amplitude=init_amp,
        start_snr=start_snr,
        baseline_snr=baseline_snr,
        final_snr=final_snr,
        improvement_ratio=final_snr / baseline_snr - 1.0,
        trace0=trace0,
        trace1=trace1,
    )
