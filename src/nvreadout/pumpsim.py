"""Initialization→(MW)→readout sequence simulation.

Expected photon counts are computed exactly for the piecewise-constant
drive.  :func:`_split` cuts a waveform's pieces at the times a caller
needs (a trace's bin edges), and every constant segment is propagated
with the matrix exponential of a 6x6 block matrix whose extra row
accumulates the time integral of the detected emission rate (Van Loan
1978).  A run keeps its blocks in one table, ``RateParams.propagators``:
:func:`_segment_blocks` looks them up, and :func:`_build_blocks` builds the
missing ones in one call of :func:`expm`, the package's one matrix
exponential: a stacked Padé scaling and squaring in numpy, which gives
each block the same bits whatever batch builds it.  No quadrature and no
per-step error enter anywhere.

Every stage is a chain of (6, 5) blocks ``[E; c]``: ``E`` maps the
populations and ``c`` counts the photons detected on the way.  Three
operations move populations and blocks: :func:`compose` joins two blocks,
:func:`forward` runs populations through a chain (init pulse, wait, binned
traces), and :func:`readout_rows` folds a chain backward.  Photons are
counted over the whole readout pulse, so each of its pieces is one
constant-rate segment and one block of the table (:func:`piece_block`).
The model is linear, so the photons detected during readout are ``r @ p``
for the populations ``p`` before readout, and the row ``r`` is the
backward fold ``r_i = c_i + r_{i+1} E_i[:5]`` over the piece blocks
(:func:`window_expectation`).  A change to one piece changes one block,
which is what the OLO objective exploits.  A grid of square pulses composes
each pulse from the previous one and one more segment, along the sorted
durations, for all amplitudes at a time (:func:`square_pulse_states`).
Poisson shot noise is applied only on demand, on readout totals, with
generators keyed by :func:`sampling_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import ConfigurationError, ParameterError, SamplingRangeError
from .photophysics import (
    N_LEVELS,
    Level,
    RateParams,
    check_populations,
    thermal_ground_state,
)
from .waveform import PiecewiseWaveform

_REL_TOL = 1e-9

#: Coefficients b_0..b_13 of the [13/13] Padé approximant of exp, and the
#: 1-norm up to which it is accurate to double precision (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A: np.ndarray) -> np.ndarray:
    """exp of every matrix of a (k, n, n) stack by [13/13] Padé scaling and
    squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).

    Each matrix is scaled by its own power of two 2^-s, exactly, so that
    its 1-norm is at most theta_13.  The stack is sorted by s, so squaring
    round j acts on the contiguous tail of the matrices with s >= j; every
    step acts on each matrix alone, so a matrix's exponential does not
    depend on the stack it is built in.
    """
    b = _PADE13
    s = np.maximum(np.frexp(np.abs(A).sum(axis=1).max(axis=1) / _THETA13)[1], 0)
    order = np.argsort(s, kind="stable")
    s = s[order]
    A = np.ldexp(A[order], -s[:, None, None])
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for j in range(1, int(s[-1]) + 1):
        tail = R[np.searchsorted(s, j):]
        tail[...] = tail @ tail
    out = np.empty_like(R)
    out[order] = R
    return out


def _build_blocks(params: RateParams, betas: np.ndarray,
                  dts: np.ndarray) -> np.ndarray:
    """The (k, 6, 5) blocks of k segments at rates ``betas`` lasting ``dts``,
    from one :func:`expm` call, which builds each block alone, so a block
    has the same bits in a batch of one as in a batch of hundreds.

    Rows 0-4 of a block: populations after dt; row 5: detected photons in
    dt.  Only the population columns of the augmented exponential are kept;
    the accumulator column is the unit vector and never needed.
    """
    if not np.all(np.isfinite(betas) & (betas >= 0)):
        raise ParameterError(f"pumping rates must be finite and >= 0, got {betas}")
    M0, dM = params.generator
    A = np.zeros((betas.size, N_LEVELS + 1, N_LEVELS + 1))
    # M(beta) = M(0) + beta (M(1) - M(0)) exactly: the difference is 0 and ±1
    A[:, :N_LEVELS, :N_LEVELS] = M0 + betas[:, None, None] * dM
    A[:, N_LEVELS, [Level.E0, Level.E1]] = params.eta * params.k_rad
    E = expm(A * dts[:, None, None])[:, :, :N_LEVELS]
    # A's off-diagonal entries are rates, so exp(At) is exactly nonnegative,
    # and exp(Mt) column-stochastic; restoring both removes the rounding of
    # the computed exponential: any tiny negative entry where the exact one
    # is 0, and a column-sum drift of about 1e-11 at 1e6 ns
    np.maximum(E, 0.0, out=E)
    E[:, :N_LEVELS] /= E[:, :N_LEVELS].sum(axis=1, keepdims=True)
    E.setflags(write=False)
    return E


def _segment_blocks(params: RateParams, betas, dts) -> np.ndarray:
    """The (n, 6, 5) stack of the blocks of the segments at rates ``betas``
    lasting ``dts``, broadcast against each other, from the run's table
    ``params.propagators``.  The blocks it lacks are built first, all in
    one :func:`_build_blocks` call."""
    table = params.propagators
    keys = [(float(beta), float(dt)) for beta, dt in np.broadcast(betas, dts)]
    missing = list(dict.fromkeys(key for key in keys if key not in table))
    if missing:
        table.update(zip(missing, _build_blocks(params, *np.array(missing).T)))
    return np.stack([table[key] for key in keys])


def compose(later, earlier):
    """``later ∘ earlier`` for stacks of (..., 6, 5) blocks ``[E; c]``:
    ``[E2 E1; c1 + c2 E1]``, the populations and photons of running
    ``earlier`` and then ``later``.  The product is associative."""
    q = later @ earlier[..., :N_LEVELS, :]
    q[..., N_LEVELS, :] += earlier[..., N_LEVELS, :]
    return q


def forward(blocks, p):
    """Run populations ``p`` (5,) or (5, k) through a chain of n blocks:
    the populations before each block and after the last, (n + 1, 5[, k]),
    and the photons each block detects, (n[, k])."""
    states = np.empty((len(blocks) + 1,) + p.shape)
    photons = np.empty((len(blocks),) + p.shape[1:])
    states[0] = p
    for i, block in enumerate(blocks):
        q = block @ states[i]
        states[i + 1], photons[i] = q[:N_LEVELS], q[N_LEVELS]
    return states, photons


def _chain_steps(durations) -> list[float]:
    """The segments that chain square pulses along sorted ``durations``:
    ``d[0]``, then the step from each duration to the next.

    A grid that is exactly ``np.linspace(d[0], d[-1], n)`` steps by numpy's
    own step throughout, where its differences would round to several.
    """
    d = np.asarray(durations, dtype=float)
    n = d.size
    if n > 1 and np.array_equal(d, np.linspace(d[0], d[-1], n)):
        return [float(d[0])] + [float((d[-1] - d[0]) / (n - 1))] * (n - 1)
    return np.diff(d, prepend=0.0).tolist()


def _square_pulse_blocks(params: RateParams, betas, durations, wait_ns):
    """The block of a dark wait of ``wait_ns``, and an iterator over the
    (n_beta, 6, 5) blocks of square pulses at every rate in ``betas``, one
    stack per duration.

    ``durations`` must be sorted and >= 0.  A pulse of duration ``d[j]`` is
    the pulse of ``d[j - 1]`` followed by one segment (:func:`_chain_steps`),
    so the whole grid costs one propagator per rate and distinct step.
    They and the wait are looked up in one call.
    """
    dts = _chain_steps(durations)
    distinct = {dt: j for j, dt in enumerate(dict.fromkeys(dts))}
    betas = np.asarray(betas, dtype=float)
    stack = _segment_blocks(
        params, np.append(np.tile(betas, len(distinct)), 0.0),
        np.append(np.repeat(list(distinct), betas.size), wait_ns))
    steps = stack[:-1].reshape(len(distinct), betas.size, N_LEVELS + 1, N_LEVELS)

    def chain():
        blocks = np.eye(N_LEVELS + 1, N_LEVELS)
        for dt in dts:
            blocks = compose(steps[distinct[dt]], blocks)
            yield blocks
    return stack[-1], chain()


def _midpoints(edges: np.ndarray) -> np.ndarray:
    return 0.5 * (edges[:-1] + edges[1:])


def _split(wf: PiecewiseWaveform, cuts):
    """Edges of ``wf``'s pieces split at the ``cuts`` times, and the piece
    every split segment lies in."""
    width = wf.piece_width_ns
    edges = np.sort(np.concatenate([np.arange(wf.n) * width, [wf.duration_ns],
                                    np.asarray(cuts, dtype=float)]))
    keep = np.diff(edges) > _REL_TOL * wf.duration_ns
    edges = edges[np.concatenate([[True], keep])]
    return edges, np.minimum((_midpoints(edges) / width).astype(int), wf.n - 1)


def piece_durations(wf: PiecewiseWaveform) -> np.ndarray:
    """The duration of each piece of ``wf``, as :func:`_split` cuts it."""
    return np.diff(_split(wf, [])[0])


def _population_vector(p: np.ndarray) -> np.ndarray:
    """``p`` checked as one (5,) population vector."""
    if np.ndim(p) != 1:
        raise ParameterError(f"expected one population vector, got {np.shape(p)}")
    return check_populations(p)


def propagate_waveform(p0: np.ndarray, wf: PiecewiseWaveform,
                       params: RateParams) -> np.ndarray:
    """Populations at the end of a waveform, ignoring photon counting."""
    blocks = _segment_blocks(params, params.amp_map.rate(wf.amplitudes),
                             piece_durations(wf))
    return forward(blocks, _population_vector(p0))[0][-1]


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


def bin_count(duration_ns: float, bin_width_ns: float) -> int:
    """The number of bins of ``bin_width_ns`` in ``duration_ns``, which the
    width must divide to within a relative ``_REL_TOL``."""
    if not bin_width_ns > 0:
        raise ConfigurationError(f"bin width must be positive, got {bin_width_ns}")
    n_bins_f = duration_ns / bin_width_ns
    if not np.isfinite(n_bins_f):
        raise ConfigurationError(
            f"bin width {bin_width_ns} ns cuts {duration_ns} ns into too many bins")
    n_bins = int(round(n_bins_f))
    if n_bins < 1 or abs(n_bins_f - n_bins) > _REL_TOL * n_bins_f:
        raise ConfigurationError(
            f"bin width {bin_width_ns} ns does not divide duration {duration_ns} ns"
        )
    return n_bins


def simulate_pump(p0: np.ndarray, wf: PiecewiseWaveform, params: RateParams,
                  bin_width_ns: float) -> PumpTrace:
    """Run one pumping waveform and bin the expected detected photons.

    Segments are split at both piece and bin edges, so every integration
    interval has a constant pumping rate and lies inside exactly one bin.
    ``bin_width_ns`` must divide the waveform duration.
    """
    n_bins = bin_count(wf.duration_ns, bin_width_ns)
    edges, pieces = _split(wf, np.arange(1, n_bins) * bin_width_ns)
    betas = params.amp_map.rate(wf.amplitudes)[pieces]
    blocks = _segment_blocks(params, betas, np.diff(edges))
    states, counts = forward(blocks, _population_vector(p0))
    bins = np.minimum((_midpoints(edges) / bin_width_ns).astype(int), n_bins - 1)
    binned = np.zeros(n_bins)
    np.add.at(binned, bins, counts)
    return PumpTrace(
        bin_starts_ns=np.arange(n_bins) * bin_width_ns,
        bin_width_ns=bin_width_ns,
        expected_counts_per_rep=binned,
        final_populations=check_populations(states[-1]),
    )


@dataclass(frozen=True)
class SequenceConfig:
    """One initialization→wait→(MW)→readout sequence: photons are counted
    over the whole readout pulse, in each of ``repetitions`` runs."""

    init_wf: PiecewiseWaveform
    wait_ns: float
    readout_wf: PiecewiseWaveform
    repetitions: float

    def __post_init__(self) -> None:
        if self.wait_ns < 0 or not np.isfinite(self.wait_ns):
            raise ConfigurationError(f"wait must be >= 0 ns, got {self.wait_ns}")
        if not self.repetitions >= 1 or not np.isfinite(self.repetitions):
            raise ConfigurationError(
                f"repetitions must be finite and >= 1, got {self.repetitions}")


def piece_block(params: RateParams, beta: float, dt: float) -> np.ndarray:
    """The (6, 5) block of one readout piece lasting ``dt`` at pumping rate
    ``beta``: its table entry, read-only."""
    return _segment_blocks(params, beta, [dt])[0]


def readout_rows(blocks, tail=0.0) -> np.ndarray:
    """The backward fold over a readout's piece blocks ``E_i``.

    Returns the (n + 1, 5) rows ``r_i = c_i + r_{i+1} @ E_i[:5]`` with
    ``c_i = E_i[5]`` and ``r_n = tail``: ``r_i @ p`` is the number of
    photons the pieces from i on detect when piece i starts from
    populations ``p``.  ``tail`` is the row of whatever follows the blocks;
    nothing does by default.
    """
    rows = np.empty((len(blocks) + 1, N_LEVELS))
    rows[-1] = tail
    for i in range(len(blocks) - 1, -1, -1):
        rows[i] = blocks[i][N_LEVELS] + rows[i + 1] @ blocks[i][:N_LEVELS]
    return rows


def window_expectation(cfg: SequenceConfig, params: RateParams) -> np.ndarray:
    """The readout functional of ``cfg``: the (5,) row ``r`` such that
    ``r @ p`` is the expected detected photons per repetition over the
    readout pulse when it starts from populations ``p``.

    The row is the fold of the readout's piece blocks, so every entry is
    exact.
    """
    wf = cfg.readout_wf
    return readout_rows(_segment_blocks(
        params, params.amp_map.rate(wf.amplitudes), piece_durations(wf)))[0]


def _swap_ground(p: np.ndarray) -> np.ndarray:
    """Ideal MW π-pulse: exchange the two ground populations."""
    return p[[Level.G1, Level.G0, Level.E0, Level.E1, Level.S]]


def prepared_states(cfg: SequenceConfig, params: RateParams):
    """Populations of both spin branches just before the readout pulse.

    Both branches share the thermal→init→wait history; the m_s=±1 branch
    additionally gets the ideal π-pulse.
    """
    p = propagate_waveform(thermal_ground_state(), cfg.init_wf, params)
    wait = _segment_blocks(params, 0.0, [cfg.wait_ns])
    p = check_populations(forward(wait, p)[0][-1])
    return p, _swap_ground(p)


def square_pulse_states(cfg: SequenceConfig, params: RateParams,
                        amplitudes, durations_ns):
    """:func:`prepared_states` for square init pulses on an (amplitude,
    duration) grid of n amplitudes and d durations.

    ``cfg`` supplies the wait.  One chain of :func:`compose` steps along the
    sorted ``durations_ns`` serves every amplitude
    (:func:`_square_pulse_blocks`), and the wait block runs every pulse's
    state at once.  Returns the readout-ready populations of the whole grid
    as a (5, d, 2, n) array, m_s=0 then m_s=±1 along axis 2, and the
    (d, n, 5) count rows of the same pulses: ``rows[j, i] @ p`` is the
    number of photons per repetition that the pulse at duration j and
    amplitude i detects when it reads out the state ``p``.
    """
    betas = params.amp_map.rate(np.asarray(amplitudes, dtype=float))
    wait, chain = _square_pulse_blocks(params, betas, durations_ns, cfg.wait_ns)
    ready = np.empty((len(durations_ns), betas.size, N_LEVELS))
    rows = np.empty_like(ready)
    for j, blocks in enumerate(chain):
        ready[j] = blocks[:, :N_LEVELS] @ thermal_ground_state()
        rows[j] = blocks[:, N_LEVELS]
    p = (wait @ ready.reshape(-1, N_LEVELS).T)[:N_LEVELS].reshape(
        N_LEVELS, len(rows), 1, betas.size)
    states = np.concatenate([p, _swap_ground(p)], axis=2)
    check_populations(states.reshape(N_LEVELS, -1))
    return states, rows


def simulate_pair(cfg: SequenceConfig, params: RateParams,
                  bin_width_ns: float):
    """Readout photon traces of the m_s=0 and m_s=±1 preparations, in bins
    of ``bin_width_ns``."""
    p0, p1 = prepared_states(cfg, params)
    trace0 = simulate_pump(p0, cfg.readout_wf, params, bin_width_ns)
    trace1 = simulate_pump(p1, cfg.readout_wf, params, bin_width_ns)
    return trace0, trace1


def pair_window_counts(cfg: SequenceConfig, params: RateParams):
    """Expected (L0, L1) readout totals for the two spin preparations."""
    branches = np.column_stack(prepared_states(cfg, params))
    L0, L1 = cfg.repetitions * (window_expectation(cfg, params) @ branches)
    return float(L0), float(L1)


#: Streams of :func:`sampling_seed`: the OLO objective draws from key
#: ``(OLO_STREAM, 0)``, and Rabi scheme k of ``rabi.SCHEMES`` from
#: ``(RABI_STREAM, k)``.
OLO_STREAM, RABI_STREAM = 0, 1


def sampling_seed(seed: int, stream: int, index: int = 0) -> SeedSequence:
    """The one seed rule: stream ``(stream, index)`` of a run seeded with
    ``seed``, keyed as in NEP 19.

    Every stochastic run makes one generator from its key and draws from it
    in a fixed order, so distinct keys of one seed give independent draws
    and a rerun with the same seed replays them exactly.
    """
    return SeedSequence(seed, spawn_key=(stream, index))


#: Largest mean ``numpy.random.Generator.poisson`` accepts.
POISSON_MEAN_MAX = (np.iinfo(np.int64).max
                    - 10.0 * np.sqrt(np.iinfo(np.int64).max))


def sample_counts(expected, seed):
    """Poisson draws of readout totals, one per element of ``expected``, all
    in one call.

    ``seed`` is anything ``numpy.random.default_rng`` takes: an int, a key
    from :func:`sampling_seed`, or a generator that a run keeps drawing
    from.  A scalar mean gives an int, an array of means an int array; a
    given int or key reproduces the same draws bit-exactly.  A mean above
    :data:`POISSON_MEAN_MAX`, which only a repetition count far beyond any
    experiment gives, raises :class:`SamplingRangeError`.
    """
    expected = np.asarray(expected, dtype=float)
    if not np.all(np.isfinite(expected) & (expected >= 0)):
        raise ParameterError(f"expected counts must be finite and >= 0, got {expected}")
    if expected.max(initial=0.0) > POISSON_MEAN_MAX:
        raise SamplingRangeError(
            f"Poisson mean {expected.max():.4g} is above the sampler's limit "
            f"{POISSON_MEAN_MAX:.4g}")
    draws = default_rng(seed).poisson(expected)
    return int(draws) if expected.ndim == 0 else draws
