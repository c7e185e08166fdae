import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import nvreadout as nv
from nvreadout import Level, pumpsim
from nvreadout.errors import ConfigurationError, ParameterError


class TestSimulatePump:
    def test_dark_waveform_all_bins_zero(self, params):
        wf = nv.PiecewiseWaveform(400.0, np.zeros(20))
        tr = nv.simulate_pump(nv.thermal_ground_state(), wf, params, 20.0)
        assert np.all(tr.expected_counts_per_rep == 0.0)

    def test_g0_first_bin_exceeds_g1(self, params):
        wf = nv.make_constant(500.0, 0.2)
        tr0 = nv.simulate_pump(nv.pure_state(Level.G0), wf, params, 50.0)
        tr1 = nv.simulate_pump(nv.pure_state(Level.G1), wf, params, 50.0)
        assert tr0.expected_counts_per_rep[0] > tr1.expected_counts_per_rep[0]

    def test_long_waveform_reaches_steady_state(self, params):
        wf = nv.make_constant(20_000.0, 0.4)
        tr = nv.simulate_pump(nv.thermal_ground_state(), wf, params, 1000.0)
        ss = nv.steady_state(
            nv.build_rate_matrix(params, params.amp_map.rate(0.4)))
        assert np.max(np.abs(tr.final_populations - ss)) < 1e-6

    def test_bin_refinement_preserves_totals(self, params):
        wf = nv.PiecewiseWaveform(800.0, np.array([0.8, 0.1, 0.4, 0.0]))
        coarse = nv.simulate_pump(nv.thermal_ground_state(), wf, params, 100.0)
        fine = nv.simulate_pump(nv.thermal_ground_state(), wf, params, 50.0)
        total_c = coarse.expected_counts_per_rep.sum()
        total_f = fine.expected_counts_per_rep.sum()
        assert total_f == pytest.approx(total_c, rel=1e-9)
        # per coarse bin as well
        pairs = fine.expected_counts_per_rep.reshape(-1, 2).sum(axis=1)
        assert np.allclose(pairs, coarse.expected_counts_per_rep, rtol=1e-9)

    def test_waveform_refinement_is_identity(self, params):
        # subdividing a constant pulse changes nothing
        t1 = nv.simulate_pump(nv.thermal_ground_state(),
                              nv.make_constant(920.0, 0.3), params, 46.0)
        t20 = nv.simulate_pump(nv.thermal_ground_state(),
                               nv.PiecewiseWaveform(920.0, np.full(20, 0.3)),
                               params, 46.0)
        assert np.allclose(t1.expected_counts_per_rep,
                           t20.expected_counts_per_rep, rtol=1e-9, atol=1e-18)
        assert np.allclose(t1.final_populations, t20.final_populations,
                           rtol=0, atol=1e-9)

    @pytest.mark.parametrize("beta", [0.01, 0.5])
    def test_long_pulse_conserves_population(self, params, beta):
        wf = nv.make_constant(1e6, beta / params.amp_map.beta_max)
        final = nv.propagate_waveform(np.eye(5), wf, params)
        assert np.allclose(final.sum(axis=0), 1.0, rtol=0.0, atol=1e-13)

    def test_inconsistent_binning_rejected(self, params):
        wf = nv.make_constant(100.0, 0.2)
        with pytest.raises(ConfigurationError):
            nv.simulate_pump(nv.thermal_ground_state(), wf, params, 33.0)

    def test_window_expectation_matches_binned_sum(self, params, base_seq):
        wf = nv.PiecewiseWaveform(600.0, np.array([0.9, 0.2, 0.05]))
        tr = nv.simulate_pump(nv.thermal_ground_state(), wf, params, 50.0)
        cfg = replace(base_seq, readout_wf=wf, bin_width_ns=50.0)
        full = nv.window_expectation(cfg, params) @ nv.thermal_ground_state()
        assert full == pytest.approx(tr.expected_counts_per_rep.sum(), rel=1e-12)
        sub_cfg = replace(cfg, detection_offset_ns=100.0,
                          detection_width_ns=200.0)
        sub = nv.window_expectation(sub_cfg, params) @ nv.thermal_ground_state()
        assert sub == pytest.approx(tr.expected_counts_per_rep[2:6].sum(),
                                    rel=1e-12)


N_BINS = 8


def reference_walk(p0, wf, params, times):
    """Populations and cumulative detected photons at sorted ``times``.

    Independent of the propagators: an explicit order-8 Runge-Kutta
    (DOP853) on dp/dt = M p with the count accumulator
    dN/dt = eta k_rad (p_E0 + p_E1), piece by piece.  The rates are not
    stiff on these spans; Radau at the same tolerance agrees as closely but
    takes about 20 times as long.
    """
    edges = np.arange(wf.n + 1) * wf.piece_width_ns
    stops = np.union1d(edges, times)
    y = np.append(p0, 0.0)
    states = {0.0: y}
    for t0, t1 in zip(stops[:-1], stops[1:]):
        piece = min(int(0.5 * (t0 + t1) / wf.piece_width_ns), wf.n - 1)
        A = np.zeros((6, 6))
        A[:5, :5] = nv.build_rate_matrix(
            params, params.amp_map.rate(wf.amplitudes[piece]))
        A[5, Level.E0] = A[5, Level.E1] = params.eta * params.k_rad
        y = solve_ivp(lambda t, y: A @ y, (t0, t1), y, method="DOP853",
                      rtol=1e-11, atol=1e-12).y[:, -1]
        states[t1] = y
    return np.array([states[t] for t in times])


class TestOracle:
    """The segment walker against an independent integrator."""

    @pytest.fixture(scope="class", params=[3, 5, 7])
    def case(self, request, params, base_seq):
        rng = np.random.default_rng(request.param)
        wf = nv.PiecewiseWaveform(N_BINS * rng.uniform(40.0, 120.0),
                                  rng.uniform(0.0, 1.0, request.param))
        p0 = rng.dirichlet(np.ones(5))
        offset, width = 0.37 * wf.duration_ns, 0.41 * wf.duration_ns
        cfg = replace(base_seq, readout_wf=wf, bin_width_ns=wf.duration_ns,
                      detection_offset_ns=offset, detection_width_ns=width)
        bin_edges = np.linspace(0.0, wf.duration_ns, N_BINS + 1)
        times = np.union1d(bin_edges, [offset, offset + width])
        ref = reference_walk(p0, wf, params, times)
        return cfg, p0, times, ref

    def test_window_total(self, params, case):
        cfg, p0, times, ref = case
        offset = cfg.detection_offset_ns
        N = dict(zip(times, ref[:, 5]))
        want = N[offset + cfg.detection_width_ns] - N[offset]
        got = nv.window_expectation(cfg, params) @ p0
        assert got == pytest.approx(want, rel=1e-8)

    def test_binned_trace_and_final_state(self, params, case):
        cfg, p0, times, ref = case
        wf = cfg.readout_wf
        trace = nv.simulate_pump(p0, wf, params, wf.duration_ns / N_BINS)
        at_edges = ref[np.isin(times, np.linspace(0.0, wf.duration_ns,
                                                  N_BINS + 1))]
        assert np.allclose(trace.expected_counts_per_rep,
                           np.diff(at_edges[:, 5]), rtol=1e-8, atol=0.0)
        assert np.allclose(trace.final_populations, ref[-1, :5],
                           rtol=0.0, atol=1e-10)

    def test_row_matches_pure_states_and_conserves_population(self, params,
                                                              case):
        # entry k of the readout row is the window total of the pure state k
        cfg, p0, _, _ = case
        wf, offset = cfg.readout_wf, cfg.detection_offset_ns
        window = [offset, offset + cfg.detection_width_ns]
        row = nv.window_expectation(cfg, params)
        for level in Level:
            ref = reference_walk(nv.pure_state(level), wf, params, window)
            assert row[level] == pytest.approx(ref[1, 5] - ref[0, 5], rel=1e-8)
        columns = np.column_stack([p0, nv.pure_state(Level.G1),
                                   nv.thermal_ground_state()])
        final = nv.propagate_waveform(columns, wf, params)
        assert np.allclose(final.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(final >= -1e-15)


@st.composite
def rate_rows(draw):
    """A valid rate set, a pumping rate in [0, beta_max] (0 included) and
    sorted square-pulse durations."""
    k_isc0 = draw(st.floats(1e-3, 0.05))
    lifetime = draw(st.floats(50.0, 1000.0))
    branch = draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    params = nv.RateParams(
        k_rad=draw(st.floats(0.01, 0.2)),
        k_isc0=k_isc0,
        k_isc1=k_isc0 + draw(st.floats(1e-3, 0.1)),
        k_s0=branch / lifetime,
        k_s1=(1.0 - branch) / lifetime,
        eta=draw(st.floats(1e-3, 1.0)),
        amp_map=nv.AmplitudeMap(beta_max=draw(st.floats(0.05, 2.0))),
    )
    beta = params.amp_map.beta_max * draw(st.just(0.0) | st.floats(0.0, 1.0))
    durations = sorted(draw(st.lists(st.floats(1.0, 5000.0), min_size=1,
                                     max_size=6)))
    return params, beta, np.array(durations)


def per_duration_blocks(params, beta, durations):
    return np.stack([pumpsim._segment_propagator(params, beta, float(d))
                     for d in durations])


def chained_blocks(params, beta, durations):
    """The sweep's chained blocks of one rate, stacked as (n, 6, 5)."""
    return np.stack([blocks[0] for blocks in
                     pumpsim._square_pulse_blocks(params, [beta], durations)])


class TestSquarePulseBlocks:
    """Durations chained step by step against one expm per duration."""

    @given(rate_rows())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_duration_expm(self, row):
        params, beta, durations = row
        blocks = chained_blocks(params, beta, durations)
        assert blocks.shape == (durations.size, 6, 5)
        assert np.allclose(blocks, per_duration_blocks(params, beta, durations),
                           rtol=1e-10, atol=1e-10)

    @given(rate_rows())
    @settings(max_examples=60, deadline=None)
    def test_populations_conserved_and_counts_never_decrease(self, row):
        params, beta, durations = row
        blocks = chained_blocks(params, beta, durations)
        populations, counts = blocks[:, :5], blocks[:, 5]
        assert np.allclose(populations.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert populations.min() >= -1e-12
        assert counts.min() >= -1e-12
        assert np.all(np.diff(counts, axis=0) >= -1e-12)

    def test_complex_spectrum(self, params):
        # a rate set whose generator has a complex pair of eigenvalues
        params = replace(params, k_rad=0.012, k_isc0=0.047, k_isc1=0.14,
                         k_s0=0.01, k_s1=0.0063, eta=0.13)
        beta, durations = 0.0316, np.array([1.0, 400.0, 5000.0])
        lam = np.linalg.eigvals(nv.build_rate_matrix(params, beta))
        assert np.abs(lam.imag).max() > 1e-3
        blocks = chained_blocks(params, beta, durations)
        assert blocks.dtype == float
        assert np.allclose(blocks, per_duration_blocks(params, beta, durations),
                           rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("beta", [0.01, 0.5])
    def test_long_pulses_conserve_population(self, params, beta):
        # the computed exponential drifts off column-stochastic (about 1e-11
        # at 1e6 ns) unless its column sums are restored
        durations = np.array([1e4, 1e5, 1e6])
        blocks = chained_blocks(params, beta, durations)
        assert np.allclose(blocks[:, :5].sum(axis=1), 1.0, rtol=0.0,
                           atol=1e-13)
        assert np.allclose(blocks, per_duration_blocks(params, beta, durations),
                           rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("beta", [5e-324, 2.2e-311, 1e-300, 1e-100, 1e-20,
                                      1e-12])
    def test_rates_far_below_the_others_stay_accurate(self, params, beta):
        durations = np.array([1.0, 400.0, 5000.0])
        assert np.allclose(chained_blocks(params, beta, durations),
                           per_duration_blocks(params, beta, durations),
                           rtol=1e-10, atol=1e-10)


def readout_cfg(base_seq, params, beta, duration_ns, **window):
    """``base_seq`` read out by a three-piece pulse at rates beta, beta/2,
    beta over ``duration_ns``, in one bin."""
    amp = min(beta / params.amp_map.beta_max, 1.0)
    wf = nv.PiecewiseWaveform(duration_ns, np.array([amp, 0.5 * amp, amp]))
    return replace(base_seq, readout_wf=wf, bin_width_ns=duration_ns,
                   **window)


class TestReadoutRow:
    """Properties of the readout functional over random rate sets."""

    @given(rate_rows(), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_never_decreases_as_the_window_widens(
            self, base_seq, row, offset_share):
        params, beta, durations = row
        offset = offset_share * durations[0]
        rows = np.array([nv.window_expectation(
            readout_cfg(base_seq, params, beta, durations[-1],
                        detection_offset_ns=offset,
                        detection_width_ns=end - offset), params)
            for end in durations])
        assert rows.min() >= -1e-12
        assert np.all(np.diff(rows, axis=0) >= -1e-12)

    @given(rate_rows())
    @settings(max_examples=30, deadline=None)
    def test_snr_scales_as_sqrt_repetitions(self, base_seq, row):
        params, beta, durations = row
        cfg = readout_cfg(base_seq, params, beta, durations[-1])
        L0, L1 = nv.pair_window_counts(replace(cfg, repetitions=1.0), params)
        assume(L0 + L1 > 0)
        for N in (1e4, 1e6, 1e8):
            got = nv.snr(*nv.pair_window_counts(replace(cfg, repetitions=N),
                                                params))
            # L0 - L1 cancels when the branches read alike, so the rounding
            # error scales with sqrt(N (L0 + L1)), the largest |SNR| possible
            assert got == pytest.approx(np.sqrt(N) * nv.snr(L0, L1), rel=1e-12,
                                        abs=1e-12 * np.sqrt(N * (L0 + L1)))


class TestSimulatePair:
    def test_vanishing_init_makes_traces_coincide(self, params, base_seq):
        cfg = replace(base_seq, init_wf=nv.make_constant(1e-6, 0.2))
        tr0, tr1 = nv.simulate_pair(cfg, params)
        assert np.allclose(tr0.expected_counts_per_rep,
                           tr1.expected_counts_per_rep, rtol=1e-6)

    def test_difference_starts_positive_and_fades(self, params, base_seq):
        cfg = replace(base_seq, readout_wf=nv.make_constant(2000.0, 0.2),
                      bin_width_ns=100.0)
        tr0, tr1 = nv.simulate_pair(cfg, params)
        diff = tr0.expected_counts_per_rep - tr1.expected_counts_per_rep
        assert diff[0] > 0
        assert diff[-1] < 0.05 * diff[0]

    def test_repetitions_only_scale_window_totals(self, params, base_seq):
        tr0_a, _ = nv.simulate_pair(base_seq, params)
        tr0_b, _ = nv.simulate_pair(replace(base_seq, repetitions=2e8), params)
        assert np.array_equal(tr0_a.expected_counts_per_rep,
                              tr0_b.expected_counts_per_rep)

    def test_wait_drains_singlet(self, params, base_seq):
        p0, p1 = nv.prepared_states(base_seq, params)
        assert p0[Level.S] < 1e-3
        assert p1[Level.S] < 1e-3
        # the pi pulse swaps exactly the two ground populations
        assert p1[Level.G0] == p0[Level.G1]
        assert p1[Level.G1] == p0[Level.G0]


class TestSampleCounts:
    def test_zero_mean_always_zero(self):
        assert all(nv.sample_counts(0.0, seed) == 0 for seed in range(20))

    def test_seed_determinism(self):
        draws = {nv.sample_counts(1e6, 42) for _ in range(5)}
        assert len(draws) == 1

    def test_statistics_at_1e6(self):
        # 4-sigma band on the mean of 100 draws
        draws = np.array([nv.sample_counts(1e6, s) for s in range(100)])
        assert abs(draws.mean() - 1e6) < 4 * np.sqrt(1e6 / 100)

    def test_invalid_mean_rejected(self):
        with pytest.raises(ParameterError):
            nv.sample_counts(-1.0, 0)
        with pytest.raises(ParameterError):
            nv.sample_counts(np.inf, 0)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, np.inf, -np.inf, np.nan])
    def test_any_invalid_element_rejected(self, bad):
        expected = np.array([[1e3, 2e3], [3e3, 4e3]])
        expected[1, 0] = bad
        with pytest.raises(ParameterError):
            nv.sample_counts(expected, 0)

    def test_array_is_one_generator_call(self):
        expected = np.array([0.0, 3.5, 1e6, 2.5e7])
        rng = np.random.default_rng(nv.sampling_seed(7, 1, 2))
        want = rng.poisson(expected)
        got = nv.sample_counts(expected, nv.sampling_seed(7, 1, 2))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # a generator passed in keeps drawing where the last call stopped
        rng = np.random.default_rng(nv.sampling_seed(7, 0))
        draws = [nv.sample_counts(expected[1:3], rng) for _ in range(3)]
        want = np.random.default_rng(nv.sampling_seed(7, 0)).poisson(
            np.tile(expected[1:3], (3, 1)))
        assert np.array_equal(np.stack(draws), want)

    def test_streams_of_one_seed_draw_differently(self):
        expected = np.full(50, 1e6)
        keys = [(0, 0), (1, 0), (1, 1), (1, 2)]
        draws = [nv.sample_counts(expected, nv.sampling_seed(3, *key))
                 for key in keys]
        for i in range(len(keys)):
            for j in range(i):
                assert not np.array_equal(draws[i], draws[j]), (keys[i],
                                                                keys[j])
        assert np.array_equal(draws[1], nv.sample_counts(
            expected, nv.sampling_seed(3, 1, 0)))


class TestSequenceConfig:
    def test_bin_width_must_divide_readout(self, base_seq):
        with pytest.raises(ConfigurationError):
            replace(base_seq, bin_width_ns=47.0)

    def test_detection_window_must_fit(self, base_seq):
        with pytest.raises(ConfigurationError):
            replace(base_seq, detection_offset_ns=500.0,
                    detection_width_ns=500.0)

    @pytest.mark.parametrize("bin_width_ns", [0.0, -46.0, np.nan, np.inf])
    def test_bin_width_must_be_positive_and_finite(self, base_seq,
                                                   bin_width_ns):
        with pytest.raises(ConfigurationError, match="bin width"):
            replace(base_seq, bin_width_ns=bin_width_ns)

    @pytest.mark.parametrize("repetitions", [0.5, np.nan, np.inf])
    def test_repetitions_must_be_finite_and_at_least_one(self, base_seq,
                                                         repetitions):
        with pytest.raises(ConfigurationError, match="repetitions"):
            replace(base_seq, repetitions=repetitions)

    def test_default_window_covers_readout(self, base_seq):
        assert base_seq.effective_detection_width_ns == 920.0
