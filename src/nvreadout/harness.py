"""Traversal and online-optimization pipelines.

Two ways of choosing readout laser settings are wired here.  The traversal
scheme scans constant square pulses over a (amplitude, duration) grid and
keeps the best; it extends every amplitude's pulse from one duration to the
next, without building a sequence per cell, and scores the whole grid with
array operations.  The online scheme fixes the duration, splits the readout
pulse into equal pieces, and lets the Hooke-Jeeves search shape the
per-piece amplitudes against the measured (here: simulated) SNR.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ParameterError, UndefinedMetricError
from .metrics import contrast as contrast_metric
from .metrics import snr as snr_metric
from .optimizer import OptimizerConfig, OptimizerState, hj_optimize
from .photophysics import N_LEVELS, RateParams
from .pumpsim import (
    OLO_STREAM,
    PumpTrace,
    SequenceConfig,
    pair_window_counts,  # noqa: F401  (unused; perfbench/tracer.py patches it here)
    piece_block,
    piece_durations,
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
            if not (arr[1:] > arr[:-1]).all():
                raise ConfigurationError(f"{name} grid must be strictly increasing")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (np.isfinite(self.durations_ns) & (self.durations_ns > 0)).all():
            raise ConfigurationError("sweep durations must be finite and > 0 ns")
        if not ((self.amplitudes >= 0) & (self.amplitudes <= 1)).all():
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


def sweep_totals(spec: SweepSpec, params: RateParams) -> np.ndarray:
    """The readout totals (L0, L1) of every cell of the grid, shape
    (2, n_amplitudes, n_durations).

    :func:`square_pulse_states` prepares both branches for every cell at
    once, and a cell's readout totals are a readout row applied to them: in
    global mode the pulse's own count row, in init-only mode the row of
    ``base``'s readout pulse, built once.  The metric plays no part, so
    specs that differ only in it share one array of totals.
    """
    base = spec.base
    states, rows = square_pulse_states(base, params, spec.amplitudes,
                                       spec.durations_ns)
    if spec.mode == "init-only":
        rows = np.broadcast_to(window_expectation(base, params), rows.shape)
    # (amplitude, duration) cells, as the grid holds them
    return (base.repetitions * np.einsum("dik,kdbi->bdi", rows, states)
            ).transpose(0, 2, 1)


def score_sweep(spec: SweepSpec, totals: np.ndarray) -> SweepResult:
    """Score the :func:`sweep_totals` of ``spec``'s grid by its metric and
    project onto the power axis.

    The metric scores the whole grid in one call; cells without photons
    (for the contrast, without m_s=0 photons) stay NaN.
    """
    metric = snr_metric if spec.metric == "snr" else contrast_metric
    L0, L1 = totals
    undefined = L0 + L1 <= 0
    if spec.metric == "contrast":
        undefined |= L0 <= 0
    grid = np.full(L0.shape, np.nan)
    grid[~undefined] = metric(L0[~undefined], L1[~undefined])

    defined = ~np.isnan(grid).all(axis=1)
    if not defined.any():
        raise ConfigurationError("metric undefined on the whole sweep grid")
    best = np.where(np.isnan(grid), -np.inf, grid).argmax(axis=1)
    best_per_amp = np.where(defined, grid[np.arange(grid.shape[0]), best], np.nan)
    best_dur_per_amp = np.where(defined, spec.durations_ns[best], np.nan)
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


def run_sweep(spec: SweepSpec, params: RateParams) -> SweepResult:
    """Evaluate the metric on the full grid and project onto the power axis."""
    return score_sweep(spec, sweep_totals(spec, params))


@dataclass(frozen=True)
class OloSpec:
    """Online readout-waveform optimization run.

    ``base`` is the sequence the run starts from.  Its init pulse is square
    and gives the duration; a scan over ``init_scan_amplitudes`` picks the
    amplitude.  Its readout waveform is the search's starting point, and
    every query, the scan and the result take their duration, piece count
    and bounds from it; photons are counted over the whole of it.  A run
    takes its values from the ``sequence`` and ``olo`` sections of
    ``config.SETTINGS`` (its ``config.Run.olo``); a stochastic run samples
    with ``sample_seed``.
    """

    base: SequenceConfig
    params: RateParams
    optimizer: OptimizerConfig
    init_scan_amplitudes: np.ndarray
    stochastic: bool = False
    sample_seed: int = 0


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
    init_at_grid_edge: bool          # init amplitude at an end of its scan
    trace0: PumpTrace
    trace1: PumpTrace


class _Anchor:
    """The readout chain at the point ``u``, with its readout totals as the
    objective returned them and its value.  ``blocks[i]`` is the block of
    piece i.  ``before[i]``, the branch populations (5, 2), and
    ``detected[i]``, the photons (2,), before piece i are current up to
    i = ``ahead``; ``rows[i]``, the readout row (5,) of the pieces from i
    on, from i = ``behind``.  Index n is after the last piece, so
    ``reach(n, 0)`` makes the whole chain current."""

    def __init__(self, branches: np.ndarray, n: int) -> None:
        self.u, self.totals, self.value = np.full(n, np.nan), None, -np.inf
        self.blocks = [None] * n
        self.before = np.empty((n + 1,) + branches.shape)
        self.before[0] = branches
        self.detected = np.zeros((n + 1, 2))
        self.rows = np.zeros((n + 1, N_LEVELS))
        self.ahead, self.behind = 0, n

    def reach(self, lo: int, hi: int) -> None:
        """Make ``before`` and ``detected`` current up to lo, ``rows`` from hi."""
        for i in range(self.ahead, lo):
            q = self.blocks[i] @ self.before[i]
            self.before[i + 1] = q[:N_LEVELS]
            self.detected[i + 1] = self.detected[i] + q[N_LEVELS]
        for i in range(self.behind - 1, hi - 1, -1):
            E = self.blocks[i]
            self.rows[i] = E[N_LEVELS] + self.rows[i + 1] @ E[:N_LEVELS]
        self.ahead, self.behind = max(self.ahead, lo), min(self.behind, hi)

    def move(self, u, totals, value, lo: int, hi: int, blocks: list) -> None:
        """Move to ``u``, which differs at most in pieces lo..hi-1, whose
        blocks are ``blocks``: what is current before lo and from hi stays."""
        self.u, self.totals, self.value = u.copy(), totals, value
        self.blocks[lo:hi] = blocks
        self.ahead, self.behind = min(self.ahead, lo), max(self.behind, hi)


def make_snr_objective(spec: OloSpec, init_wf: PiecewiseWaveform):
    """SNR of the photons detected over the readout pulse as a function of
    the piece amplitudes of ``spec.base.readout_wf``, after the init pulse
    ``init_wf``.

    The initialization and wait stages are fixed, so the two branch states
    are computed once.  The readout is a chain of piece blocks
    (``pumpsim.piece_block``), memoised per piece duration and amplitude.

    The objective keeps the chain at one anchor (:class:`_Anchor`), the
    point of highest value it has returned so far, which under the
    strict-improvement rule of ``hj_optimize`` is the incumbent.  A query at
    the anchor returns the totals the anchor got when it was queried, so
    ties are bit-exact.  A query that differs from the anchor in pieces
    lo..hi-1 folds the row ``r_i = c'_i + r_{i+1} E'_i[:5]`` as one running
    (5,) vector from the anchor's row ``r_hi`` back to ``r_lo``, and returns
    ``pre_lo + r_lo P_lo`` with the anchor's photons ``pre_lo`` and
    populations ``P_lo`` before piece lo: one block product for a one-piece
    trial, the full fold for a pattern move.  Only pieces lo..hi-1 are
    checked against the bounds, since the others equal the anchor's; the
    first anchor is an empty chain at NaN, which equals nothing.

    The anchor is extended only as far as a query reads it: forward to
    ``P_lo`` and ``pre_lo`` from its last current piece, and back to
    ``r_hi`` from its first current row.  A strict improvement moves it to
    the trial by swapping in the trial's blocks; what lies before piece lo
    and from hi on stays current.  So each value is made at most once per
    anchor, from the same operands, by the block products that a full
    rebuild (``pumpsim.forward``, a running sum of the photons and
    ``pumpsim.readout_rows``) runs in the same order: it is bit-identical
    to a rebuild from scratch, however far and whenever the chain was
    extended.

    A stochastic objective, mimicking single experimental queries, owns one
    generator, keyed ``(OLO_STREAM, 0)`` of ``spec.sample_seed``, and
    scores each query on both readout totals drawn from it in one Poisson
    call; the anchor still keeps the expected totals.  A deterministic one
    has no generator and scores the expected totals.
    """
    start, params = spec.base.readout_wf, spec.params
    cfg = replace(spec.base, init_wf=init_wf)
    dts = piece_durations(start).tolist()
    n, bounds, reps = start.n, start.bounds, cfg.repetitions
    anchor = _Anchor(np.column_stack(prepared_states(cfg, params)), n)
    memo = {}

    def block(i, a):
        key = (dts[i], a)
        if key not in memo:
            memo[key] = piece_block(params, params.amp_map.rate(a), dts[i])
        return memo[key]

    def query(u):
        """The readout totals at ``u``, and the span lo..hi-1 of the pieces
        where ``u`` differs from the anchor (lo = n, hi = 0 if nowhere)."""
        if u.shape != (n,):
            raise ParameterError(f"trial must be {n} amplitudes, got {u}")
        changed = (u != anchor.u).nonzero()[0].tolist()
        if not changed:
            return anchor.totals, n, 0
        lo, hi = changed[0], changed[-1] + 1
        amplitudes = u.tolist()
        if not all(bounds.lo <= a <= bounds.hi for a in amplitudes[lo:hi]):
            raise ParameterError(f"trial amplitudes must lie in "
                                 f"[{bounds.lo}, {bounds.hi}], got {u}")
        anchor.reach(lo, hi)
        row = anchor.rows[hi]
        for i in range(hi - 1, lo - 1, -1):
            E = block(i, amplitudes[i])
            row = E[N_LEVELS] + row @ E[:N_LEVELS]
        a, b = (anchor.detected[lo] + row @ anchor.before[lo]).tolist()
        # as Python floats, these products round as numpy's do
        return (reps * a, reps * b), lo, hi

    def expected_counts(u):
        return query(np.asarray(u, dtype=float))[0]

    rng = (np.random.default_rng(sampling_seed(spec.sample_seed, OLO_STREAM))
           if spec.stochastic else None)

    def objective(u):
        u = np.asarray(u, dtype=float)
        counts, lo, hi = query(u)
        seen = counts if rng is None else sample_counts(counts, rng).tolist()
        value = snr_metric(*seen)
        if value > anchor.value:
            anchor.move(u, counts, value, lo, hi, [
                block(i, a) for i, a in enumerate(u[lo:hi].tolist(), lo)])
        return value
    return objective, expected_counts


def _scan_init_amplitude(spec: OloSpec) -> SweepResult:
    """Amplitude scan of the square initialization pulse: one init-only sweep
    column at the duration of ``base.init_wf``, whose best amplitude the run
    takes.

    Scores each candidate with the deterministic SNR of the starting
    readout waveform, whose photons are counted over the whole pulse as the
    objective counts them; amplitude modulation buys nothing for
    initialization, which only needs to polarize the spin.
    """
    scan = SweepSpec(amplitudes=spec.init_scan_amplitudes,
                     durations_ns=np.array([spec.base.init_wf.duration_ns]),
                     base=spec.base, mode="init-only", metric="snr")
    return run_sweep(scan, spec.params)


def run_olo(spec: OloSpec, baseline: SweepResult | float) -> OloResult:
    """Full online optimization of the readout waveform.

    ``baseline`` is the constant-scheme reference the improvement ratio is
    measured against: a sweep result or a plain SNR value, which must not
    be 0 (:class:`UndefinedMetricError`).  The reported final SNR is always
    the deterministic readout expectation of the returned waveform, so
    stochastic runs are judged on what they found rather than on a lucky
    draw.  Its traces are binned per piece.
    """
    baseline_snr = baseline.best_value if isinstance(baseline, SweepResult) else float(baseline)
    if baseline_snr == 0:
        raise UndefinedMetricError("improvement ratio undefined: the baseline "
                                   "SNR is 0")

    init_scan = _scan_init_amplitude(spec)
    init_amp = init_scan.best_amplitude
    init_wf = make_constant(spec.base.init_wf.duration_ns, init_amp)

    objective, expected_counts = make_snr_objective(spec, init_wf)
    u0 = spec.base.readout_wf.amplitudes
    state = hj_optimize(objective, u0, spec.optimizer)

    waveform = replace(spec.base.readout_wf, amplitudes=state.best)
    start_snr = snr_metric(*expected_counts(u0))
    final_snr = snr_metric(*expected_counts(state.best))

    trace0, trace1 = simulate_pair(
        replace(spec.base, init_wf=init_wf, readout_wf=waveform), spec.params,
        waveform.piece_width_ns)

    return OloResult(
        state=state,
        waveform=waveform,
        init_amplitude=init_amp,
        start_snr=start_snr,
        baseline_snr=baseline_snr,
        final_snr=final_snr,
        improvement_ratio=final_snr / baseline_snr - 1.0,
        init_at_grid_edge=init_scan.best_at_grid_edge["amplitude"],
        trace0=trace0,
        trace1=trace1,
    )
