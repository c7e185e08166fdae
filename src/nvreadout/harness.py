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

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .metrics import contrast as contrast_metric
from .metrics import snr as snr_metric
from .optimizer import DETERMINISTIC, OptimizerConfig, OptimizerState, hj_optimize
from .photophysics import RateParams
from .pumpsim import (
    PumpTrace,
    SequenceConfig,
    pair_window_counts,
    prepared_states,
    sample_counts,
    simulate_pump,
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
    branches for every amplitude at once.  In global mode each pulse reads
    itself out over its whole length, so its count row gives the window
    totals; in init-only mode all columns share ``base``'s readout window.
    The metric scores a whole column at once; cells without photons (for the
    contrast, without m_s=0 photons) stay NaN.
    """
    metric = snr_metric if spec.metric == "snr" else contrast_metric
    base, n = spec.base, spec.amplitudes.size
    grid = np.full((n, spec.durations_ns.size), np.nan)
    columns = square_pulse_states(base, params, spec.amplitudes, spec.durations_ns)
    for j, (ready, count_rows) in enumerate(columns):
        if spec.mode == "global":
            totals = np.einsum("ik,kbi->bi", count_rows, ready.reshape(-1, 2, n))
        else:
            totals = window_expectation(
                ready, base.readout_wf, params, base.detection_offset_ns,
                base.effective_detection_width_ns).reshape(2, n)
        L0, L1 = base.repetitions * totals
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

    The initialization pulse keeps ``n_init`` pieces (one: plain square
    pulse) and is tuned by a 1-D amplitude scan at the duration of
    ``base.init_wf``; the readout pulse has ``n_read`` pieces over
    ``start_duration_ns`` and every piece starts at ``start_amplitude``.
    """

    base: SequenceConfig
    params: RateParams
    optimizer: OptimizerConfig
    init_scan_amplitudes: np.ndarray
    start_duration_ns: float = 920.0
    start_amplitude: float = 0.02
    n_init: int = 1
    n_read: int = 20
    stochastic: bool = False
    sample_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_init < 1 or self.n_read < 1:
            raise ConfigurationError("piece counts must be >= 1")
        scan = np.asarray(self.init_scan_amplitudes, dtype=float).ravel()
        if scan.size == 0:
            raise ConfigurationError("init scan grid must be non-empty")
        scan.setflags(write=False)
        object.__setattr__(self, "init_scan_amplitudes", scan)


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
    are computed once; each query walks the readout pulse once for both.
    The detection window is the base sequence's, applied to the readout
    pulse of ``spec.start_duration_ns``.  In stochastic mode the window
    totals are Poisson-sampled per branch from a seed supplied by the
    optimizer, mimicking single experimental queries.
    """
    cfg = replace(spec.base, init_wf=init_wf,
                  readout_wf=make_constant(spec.start_duration_ns,
                                           spec.start_amplitude, spec.n_read),
                  bin_width_ns=spec.start_duration_ns)
    branches = np.column_stack(prepared_states(cfg, spec.params))
    offset, width = cfg.detection_offset_ns, cfg.effective_detection_width_ns
    bounds = spec.optimizer.bounds

    def expected_counts(u):
        wf = PiecewiseWaveform(spec.start_duration_ns, u, bounds)
        L0, L1 = cfg.repetitions * window_expectation(branches, wf, spec.params,
                                                      offset, width)
        return float(L0), float(L1)

    if not spec.stochastic:
        def objective(u):
            L0, L1 = expected_counts(u)
            return snr_metric(L0, L1)
        return objective, expected_counts

    def objective(u, seed):
        L0, L1 = expected_counts(u)
        return snr_metric(float(sample_counts(L0, 2 * seed)),
                          float(sample_counts(L1, 2 * seed + 1)))
    return objective, expected_counts


def _scan_init_amplitude(spec: OloSpec) -> float:
    """1-D amplitude scan of the square initialization pulse.

    Scores each candidate with the deterministic SNR of the starting
    readout waveform; amplitude modulation buys nothing for initialization,
    which only needs to polarize the spin.
    """
    start_readout = make_constant(spec.start_duration_ns, spec.start_amplitude,
                                  spec.n_read)
    best_amp, best_val = None, -np.inf
    for amp in spec.init_scan_amplitudes:
        init_wf = make_constant(spec.base.init_wf.duration_ns, float(amp),
                                spec.n_init)
        cfg = replace(spec.base, init_wf=init_wf, readout_wf=start_readout,
                      bin_width_ns=spec.start_duration_ns,
                      detection_offset_ns=0.0, detection_width_ns=None)
        L0, L1 = pair_window_counts(cfg, spec.params)
        if L0 + L1 <= 0:
            continue
        val = snr_metric(L0, L1)
        if val > best_val:
            best_amp, best_val = float(amp), val
    if best_amp is None:
        raise ConfigurationError("init scan produced no photons at any amplitude")
    return best_amp


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
    init_wf = make_constant(spec.base.init_wf.duration_ns, init_amp, spec.n_init)

    opt_cfg = spec.optimizer
    if spec.stochastic and opt_cfg.seed_policy == DETERMINISTIC:
        opt_cfg = replace(opt_cfg, seed_policy="fresh-seed-per-query",
                          base_seed=spec.sample_seed)
    objective, expected_counts = make_snr_objective(replace(spec, optimizer=opt_cfg),
                                                    init_wf)
    u0 = np.full(spec.n_read, spec.start_amplitude)
    state = hj_optimize(objective, u0, opt_cfg)

    waveform = PiecewiseWaveform(spec.start_duration_ns, state.best, opt_cfg.bounds)
    L0_start, L1_start = expected_counts(u0)
    start_snr = snr_metric(L0_start, L1_start)
    L0, L1 = expected_counts(state.best)
    final_snr = snr_metric(L0, L1)

    trace_bin = waveform.piece_width_ns
    cfg_final = replace(spec.base, init_wf=init_wf, readout_wf=waveform,
                        bin_width_ns=trace_bin)
    p0, p1 = prepared_states(cfg_final, spec.params)
    trace0 = simulate_pump(p0, waveform, spec.params, trace_bin)
    trace1 = simulate_pump(p1, waveform, spec.params, trace_bin)

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
