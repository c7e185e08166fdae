"""Initialization→(MW)→readout sequence simulation.

Expected photon counts are computed exactly for the piecewise-constant
drive.  :func:`_split` cuts a waveform's pieces at the times a caller
needs (bin edges, window ends), and :func:`_walk`, the one walk over a
waveform, propagates each constant segment with the matrix exponential of a
6x6 block matrix whose extra row accumulates the time integral of the
detected emission rate (Van Loan 1978).  :func:`_segment_propagator` is the
one place that exponential is built.  No quadrature and no per-step error
enter anywhere.  The model is linear, so a readout is a row ``r``: the
photons detected in its window are ``r @ p`` for the populations ``p``
before readout (:func:`window_expectation`), and every window total is that
row applied to populations.  A grid of square pulses is walked once along
its sorted durations, each pulse being the previous one extended by one
segment, for all amplitudes at a time (:func:`square_pulse_states`).
Poisson shot noise is applied only on demand, on window totals, with
generators keyed by :func:`sampling_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import ConfigurationError, ParameterError
from .photophysics import (
    N_LEVELS,
    Level,
    RateParams,
    build_rate_matrix,
    check_populations,
    thermal_ground_state,
)
from .waveform import PiecewiseWaveform

_REL_TOL = 1e-9


# Process-wide memo: the optimizer revisits the same amplitude lattice
# thousands of times, so hits dominate after warm-up.  Purely a speed-up;
# results are bit-identical.
@lru_cache(maxsize=1 << 17)
def _segment_propagator(params: RateParams, beta: float, dt: float) -> np.ndarray:
    """Rows 0-4: populations after dt; row 5: detected photons in dt.

    Only the population columns of the augmented exponential are kept; the
    accumulator column is the unit vector and never needed.
    """
    M = build_rate_matrix(params, beta)
    A = np.zeros((N_LEVELS + 1, N_LEVELS + 1))
    A[:N_LEVELS, :N_LEVELS] = M
    A[N_LEVELS, Level.E0] = A[N_LEVELS, Level.E1] = params.eta * params.k_rad
    E = np.ascontiguousarray(expm(A * dt)[:, :N_LEVELS])
    # exp(Mt) is exactly column-stochastic; restoring that removes the drift
    # of the computed exponential (about 1e-11 at 1e6 ns)
    E[:N_LEVELS] /= E[:N_LEVELS].sum(axis=0)
    E.setflags(write=False)
    return E


def _square_pulse_blocks(params: RateParams, betas, durations):
    """Yield the (n_beta, 6, 5) :func:`_segment_propagator` blocks of square
    pulses at every rate in ``betas``, one stack per duration.

    ``durations`` must be sorted and >= 0.  A pulse of duration ``d[j]`` is the pulse
    of ``d[j - 1]`` followed by one segment of ``d[j] - d[j - 1]``, so the
    whole grid costs one memoised propagator per rate and distinct step.
    """
    blocks = np.zeros((len(betas), N_LEVELS + 1, N_LEVELS))
    blocks[:, :N_LEVELS] = np.eye(N_LEVELS)
    for dt in np.diff(durations, prepend=0.0):
        step = np.stack([_segment_propagator(params, float(b), float(dt))
                         for b in betas])
        q = step @ blocks[:, :N_LEVELS]
        q[:, N_LEVELS] += blocks[:, N_LEVELS]
        blocks = q
        yield blocks


def _midpoints(edges: np.ndarray) -> np.ndarray:
    return 0.5 * (edges[:-1] + edges[1:])


def _split(wf: PiecewiseWaveform, params: RateParams, cuts):
    """Edges of ``wf``'s pieces split at the ``cuts`` times, and the pumping
    rate of every split segment."""
    width = wf.piece_width_ns
    edges = np.sort(np.concatenate([np.arange(wf.n) * width, [wf.duration_ns],
                                    np.asarray(cuts, dtype=float)]))
    keep = np.diff(edges) > _REL_TOL * max(wf.duration_ns, 1.0)
    edges = edges[np.concatenate([[True], keep])]
    pieces = np.minimum((_midpoints(edges) / width).astype(int), wf.n - 1)
    return edges, params.amp_map.rate(wf.amplitudes)[pieces]


def _walk(p0: np.ndarray, params: RateParams, edges, betas):
    """The one segment loop: propagate through constant-rate segments.

    ``p0`` is one population vector (5,) or one per column (5, k);
    segment i runs from ``edges[i]`` to ``edges[i + 1]`` at rate
    ``betas[i]``.  Returns the final populations and the detected photons
    per repetition of every segment, with shape
    ``(n_segments,) + p0.shape[1:]``.
    """
    p = check_populations(p0)
    counts = np.empty((len(betas),) + p.shape[1:])
    for i, (beta, dt) in enumerate(zip(betas, np.diff(edges))):
        q = _segment_propagator(params, float(beta), float(dt)) @ p
        p, counts[i] = q[:N_LEVELS], q[N_LEVELS]
    return p, counts


def propagate_waveform(p0: np.ndarray, wf: PiecewiseWaveform,
                       params: RateParams) -> np.ndarray:
    """Populations at the end of a waveform, ignoring photon counting."""
    return _walk(p0, params, *_split(wf, params, []))[0]


@dataclass(frozen=True)
class PumpTrace:
    """Time-binned expected detected photons for one pumping run.

    ``expected_counts_per_rep[i]`` is the expectation over
    [bin_starts_ns[i], bin_starts_ns[i] + bin_width_ns) for a single
    repetition of the sequence.
    """

    bin_starts_ns: np.ndarray
    bin_width_ns: float
    expected_counts_per_rep: np.ndarray
    final_populations: np.ndarray

    @property
    def span_ns(self) -> float:
        return self.bin_width_ns * self.expected_counts_per_rep.size


def simulate_pump(p0: np.ndarray, wf: PiecewiseWaveform, params: RateParams,
                  bin_width_ns: float) -> PumpTrace:
    """Run one pumping waveform and bin the expected detected photons.

    Segments are split at both piece and bin edges, so every integration
    interval has a constant pumping rate and lies inside exactly one bin.
    ``bin_width_ns`` must divide the waveform duration.
    """
    if bin_width_ns <= 0:
        raise ConfigurationError(f"bin width must be positive, got {bin_width_ns}")
    n_bins_f = wf.duration_ns / bin_width_ns
    n_bins = int(round(n_bins_f))
    if n_bins < 1 or abs(n_bins_f - n_bins) > _REL_TOL * n_bins_f:
        raise ConfigurationError(
            f"bin width {bin_width_ns} ns does not divide duration {wf.duration_ns} ns"
        )
    edges, betas = _split(wf, params, np.arange(1, n_bins) * bin_width_ns)
    p, counts = _walk(p0, params, edges, betas)
    bins = np.minimum((_midpoints(edges) / bin_width_ns).astype(int), n_bins - 1)
    binned = np.zeros(n_bins)
    np.add.at(binned, bins, counts)
    return PumpTrace(
        bin_starts_ns=np.arange(n_bins) * bin_width_ns,
        bin_width_ns=bin_width_ns,
        expected_counts_per_rep=binned,
        final_populations=check_populations(p),
    )


@dataclass(frozen=True)
class SequenceConfig:
    """One initialization→wait→(MW)→readout sequence.

    ``detection_width_ns=None`` selects the default convention where the
    detection window covers the whole readout pulse; a shorter window with a
    nonzero offset supports offset-scan style analyses.
    """

    init_wf: PiecewiseWaveform
    wait_ns: float
    readout_wf: PiecewiseWaveform
    bin_width_ns: float
    repetitions: float
    detection_offset_ns: float = 0.0
    detection_width_ns: float | None = None

    def __post_init__(self) -> None:
        if self.wait_ns < 0 or not np.isfinite(self.wait_ns):
            raise ConfigurationError(f"wait must be >= 0 ns, got {self.wait_ns}")
        if not self.repetitions >= 1 or not np.isfinite(self.repetitions):
            raise ConfigurationError(
                f"repetitions must be finite and >= 1, got {self.repetitions}")
        if not self.bin_width_ns > 0 or not np.isfinite(self.bin_width_ns):
            raise ConfigurationError(
                f"bin width must be finite and > 0 ns, got {self.bin_width_ns}")
        n_bins_f = self.readout_wf.duration_ns / self.bin_width_ns
        if abs(n_bins_f - round(n_bins_f)) > _REL_TOL * n_bins_f:
            raise ConfigurationError(
                f"bin width {self.bin_width_ns} ns does not divide readout duration "
                f"{self.readout_wf.duration_ns} ns"
            )
        width = self.effective_detection_width_ns
        if self.detection_offset_ns < 0 or width < 0:
            raise ConfigurationError("detection offset and width must be >= 0")
        if self.detection_offset_ns + width > self.readout_wf.duration_ns * (1 + _REL_TOL):
            raise ConfigurationError(
                "detection window extends past the readout waveform"
            )

    @property
    def effective_detection_width_ns(self) -> float:
        if self.detection_width_ns is None:
            return self.readout_wf.duration_ns - self.detection_offset_ns
        return self.detection_width_ns


def window_expectation(cfg: SequenceConfig, params: RateParams) -> np.ndarray:
    """The readout functional of ``cfg``: the (5,) row ``r`` such that
    ``r @ p`` is the expected detected photons per repetition in the
    detection window when the readout pulse starts from populations ``p``.

    One walk of the identity columns gives every entry exactly; the window
    is the one ``SequenceConfig`` has validated.
    """
    wf, offset = cfg.readout_wf, cfg.detection_offset_ns
    end = offset + cfg.effective_detection_width_ns
    edges, betas = _split(wf, params, [offset, min(end, wf.duration_ns)])
    counts = _walk(np.eye(N_LEVELS), params, edges, betas)[1]
    mids = _midpoints(edges)
    inside = (mids >= offset - _REL_TOL) & (mids <= end + _REL_TOL)
    return counts[inside].sum(axis=0)


def _swap_ground(p: np.ndarray) -> np.ndarray:
    """Ideal MW π-pulse: exchange the two ground populations."""
    q = p.copy()
    q[Level.G0], q[Level.G1] = p[Level.G1], p[Level.G0]
    return q


def prepared_states(cfg: SequenceConfig, params: RateParams):
    """Populations of both spin branches just before the readout pulse.

    Both branches share the thermal→init→wait history; the m_s=±1 branch
    additionally gets the ideal π-pulse.
    """
    p = propagate_waveform(thermal_ground_state(), cfg.init_wf, params)
    p = _walk(p, params, [0.0, cfg.wait_ns], [0.0])[0]
    return p, _swap_ground(p)


def square_pulse_states(cfg: SequenceConfig, params: RateParams,
                        amplitudes, durations_ns):
    """:func:`prepared_states` for square init pulses on an (amplitude,
    duration) grid.

    ``cfg`` supplies the wait.  One walk over the sorted ``durations_ns``
    serves every amplitude (:func:`_square_pulse_blocks`).  Yields, for each
    duration in turn, the readout-ready populations as (5, 2n) columns, m_s=0
    for every amplitude followed by m_s=±1, and the (n, 5) count rows of the
    same pulses: ``rows[i] @ p`` is the number of photons per repetition that
    the pulse at amplitude i detects when it reads out the state ``p``.
    """
    betas = params.amp_map.rate(np.asarray(amplitudes, dtype=float))
    for blocks in _square_pulse_blocks(params, betas, durations_ns):
        p = blocks[:, :N_LEVELS] @ thermal_ground_state()
        p = _walk(p.T, params, [0.0, cfg.wait_ns], [0.0])[0]
        yield (check_populations(np.hstack([p, _swap_ground(p)])),
               blocks[:, N_LEVELS])


def simulate_pair(cfg: SequenceConfig, params: RateParams):
    """Readout photon traces of the m_s=0 and m_s=±1 preparations."""
    p0, p1 = prepared_states(cfg, params)
    trace0 = simulate_pump(p0, cfg.readout_wf, params, cfg.bin_width_ns)
    trace1 = simulate_pump(p1, cfg.readout_wf, params, cfg.bin_width_ns)
    return trace0, trace1


def pair_window_counts(cfg: SequenceConfig, params: RateParams):
    """Expected (L0, L1) window totals for the two spin preparations."""
    branches = np.column_stack(prepared_states(cfg, params))
    L0, L1 = cfg.repetitions * (window_expectation(cfg, params) @ branches)
    return float(L0), float(L1)


#: Streams of :func:`sampling_seed`: the OLO objective draws from key
#: ``(OLO_STREAM, 0)``, and Rabi scheme k of ``rabi.SCHEMES`` from
#: ``(RABI_STREAM, k)``.
OLO_STREAM, RABI_STREAM = 0, 1


def sampling_seed(seed: int, stream: int, index: int = 0) -> np.random.SeedSequence:
    """The one seed rule: stream ``(stream, index)`` of a run seeded with
    ``seed``, keyed as in NEP 19.

    Every stochastic run makes one generator from its key and draws from it
    in a fixed order, so distinct keys of one seed give independent draws
    and a rerun with the same seed replays them exactly.
    """
    return np.random.SeedSequence(seed, spawn_key=(stream, index))


def sample_counts(expected, seed):
    """Poisson draws of window totals, one per element of ``expected``, all
    in one call.

    ``seed`` is anything ``numpy.random.default_rng`` takes: an int, a key
    from :func:`sampling_seed`, or a generator that a run keeps drawing
    from.  A scalar mean gives an int, an array of means an int array; a
    given int or key reproduces the same draws bit-exactly.
    """
    expected = np.asarray(expected, dtype=float)
    if not np.all(np.isfinite(expected) & (expected >= 0)):
        raise ParameterError(f"expected counts must be finite and >= 0, got {expected}")
    draws = np.random.default_rng(seed).poisson(expected)
    return int(draws) if expected.ndim == 0 else draws
