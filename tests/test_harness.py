import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvreadout as nv
from nvreadout import pumpsim
from nvreadout.errors import ConfigurationError, ParameterError
from nvreadout.harness import SWEEP_METRICS, SWEEP_MODES
from test_pumpsim import rate_rows, reference_block, reference_walk


class TestRunSweep:
    def test_zero_amplitude_column_flagged_not_fatal(self, params, base_seq):
        spec = nv.SweepSpec(
            amplitudes=np.array([0.0, 0.2, 0.5]),
            durations_ns=np.array([400.0, 800.0]),
            base=base_seq,
        )
        res = nv.run_sweep(spec, params)
        assert np.all(np.isnan(res.grid[0]))
        assert np.all(np.isfinite(res.grid[1:]))
        assert np.isnan(res.best_per_amplitude[0])

    def test_grid_refinement_never_lowers_the_maximum(self, params, base_seq):
        def sweep(n_amp, n_dur):
            spec = nv.SweepSpec(
                amplitudes=np.linspace(0.1, 0.9, n_amp),
                durations_ns=np.linspace(400.0, 1600.0, n_dur),
                base=base_seq,
            )
            return nv.run_sweep(spec, params).best_value
        # doubling density keeps the coarse points as a subset
        assert sweep(9, 7) >= sweep(5, 4) - 1e-12

    def test_projection_is_rowwise_max(self, params, base_seq):
        spec = nv.SweepSpec(
            amplitudes=np.array([0.1, 0.3]),
            durations_ns=np.array([400.0, 700.0, 1000.0]),
            base=base_seq,
        )
        res = nv.run_sweep(spec, params)
        assert np.allclose(res.best_per_amplitude, np.nanmax(res.grid, axis=1))
        j = np.nanargmax(res.grid[1])
        assert res.best_duration_per_amplitude[1] == spec.durations_ns[j]

    def test_init_only_mode_keeps_readout(self, params, base_seq):
        spec = nv.SweepSpec(
            amplitudes=np.array([0.1, 0.4]),
            durations_ns=np.array([500.0, 1000.0]),
            base=base_seq,
            mode="init-only",
        )
        res = nv.run_sweep(spec, params)
        assert np.all(np.isfinite(res.grid))
        # global mode at the same grid gives different values
        res_g = nv.run_sweep(replace(spec, mode="global"), params)
        assert not np.allclose(res.grid, res_g.grid)

    def test_contrast_metric(self, params, base_seq):
        spec = nv.SweepSpec(
            amplitudes=np.array([0.05, 0.3]),
            durations_ns=np.array([400.0, 1200.0]),
            base=base_seq,
            metric="contrast",
        )
        res = nv.run_sweep(spec, params)
        assert np.all(res.grid <= 1.0)
        assert res.best_value > 0.0

    def test_invalid_specs_rejected(self, base_seq):
        with pytest.raises(ConfigurationError):
            nv.SweepSpec(amplitudes=np.array([]), durations_ns=np.array([1.0]),
                         base=base_seq)
        with pytest.raises(ConfigurationError):
            nv.SweepSpec(amplitudes=np.array([0.5, 0.2]),
                         durations_ns=np.array([400.0]), base=base_seq)
        with pytest.raises(ConfigurationError):
            nv.SweepSpec(amplitudes=np.array([0.2]),
                         durations_ns=np.array([400.0]), base=base_seq,
                         mode="readout-only")

    def test_grid_values_rejected_as_configuration(self, base_seq):
        for amplitudes, durations in (([0.2], [0.0]), ([0.2], [-5.0, 400.0]),
                                      ([0.2], [np.inf]), ([0.5, 1.5], [400.0]),
                                      ([-0.1, 0.5], [400.0]), ([np.nan], [400.0])):
            with pytest.raises(ConfigurationError):
                nv.SweepSpec(amplitudes=np.array(amplitudes),
                             durations_ns=np.array(durations), base=base_seq)

    def test_propagators_built_are_fixed_by_the_grid(self, params, base_seq):
        # one propagator per amplitude and distinct duration step (a linspace
        # grid chains its first duration and then numpy's one step), plus
        # the wait
        spec = nv.SweepSpec(amplitudes=np.linspace(0.02, 1.0, 80),
                            durations_ns=np.linspace(400.0, 2000.0, 80),
                            base=base_seq)
        params = replace(params)    # a new run's empty table
        nv.run_sweep(spec, params)
        assert len(params.propagators) == 80 * 2 + 1


def sweep_cell(spec, amplitude, duration_ns):
    """One grid cell's sequence, built cell by cell from its square pulse."""
    pulse = nv.make_constant(duration_ns, amplitude)
    if spec.mode == "global":
        return replace(spec.base, init_wf=pulse, readout_wf=pulse)
    return replace(spec.base, init_wf=pulse)


class TestSweepOracle:
    """The chained sweep against per-cell sequences and an independent
    integrator."""

    AMPLITUDES = np.array([0.0, 0.07, 0.45, 1.0])
    DURATIONS = np.array([150.0, 400.0, 430.0, 1100.0, 2600.0])

    @pytest.fixture(scope="class")
    def base(self, base_seq):
        # a shaped readout that global mode must ignore and init-only mode
        # must use
        return replace(base_seq, readout_wf=nv.PiecewiseWaveform(
            920.0, np.array([0.9, 0.2, 0.5, 0.05])))

    def spec(self, base, mode, metric):
        return nv.SweepSpec(amplitudes=self.AMPLITUDES,
                            durations_ns=self.DURATIONS, base=base, mode=mode,
                            metric=metric)

    @pytest.mark.parametrize("metric", SWEEP_METRICS)
    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_rows_match_per_cell_sequences(self, params, base, mode, metric):
        spec = self.spec(base, mode, metric)
        value = nv.snr if metric == "snr" else nv.contrast
        want = np.full((spec.amplitudes.size, spec.durations_ns.size), np.nan)
        for i, amp in enumerate(spec.amplitudes):
            for j, dur in enumerate(spec.durations_ns):
                L0, L1 = nv.pair_window_counts(sweep_cell(spec, amp, dur),
                                               params)
                if L0 + L1 > 0 and (metric == "snr" or L0 > 0):
                    want[i, j] = value(L0, L1)
        grid = nv.run_sweep(spec, params).grid
        # without light the global row has no photons; init-only still
        # reads out, but no init pulse leaves no spin contrast
        assert np.all(np.isnan(grid[0]) if mode == "global" else grid[0] == 0)
        assert np.array_equal(np.isnan(grid), np.isnan(want))
        np.testing.assert_allclose(grid, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mode, i, j", [("global", 1, 1),
                                            ("global", 3, 4),
                                            ("init-only", 2, 0)])
    def test_cells_match_reference_integrator(self, params, base, mode, i, j):
        spec = self.spec(base, mode, "snr")
        cfg = sweep_cell(spec, spec.amplitudes[i], spec.durations_ns[j])
        p = reference_walk(nv.thermal_ground_state(), cfg.init_wf, params,
                           [cfg.init_wf.duration_ns])[-1, :5]
        p = reference_walk(p, nv.make_constant(cfg.wait_ns, 0.0), params,
                           [cfg.wait_ns])[-1, :5]
        window = [0.0, cfg.readout_wf.duration_ns]
        L0, L1 = (cfg.repetitions * np.diff(
            reference_walk(q, cfg.readout_wf, params, window)[:, 5])[0]
            for q in (p, p[[1, 0, 2, 3, 4]]))
        grid = nv.run_sweep(spec, params).grid
        assert grid[i, j] == pytest.approx(nv.snr(L0, L1), rel=1e-8)


def piece_references(cfg, params):
    """The reference block of each piece of ``cfg``'s readout, in order."""
    wf = cfg.readout_wf
    return [reference_block(params, beta, wf.piece_width_ns)
            for beta in params.amp_map.rate(wf.amplitudes)]


def walked_row(cfg, params):
    """The readout row of ``cfg`` from one forward walk of the identity
    through the readout's pieces, summing their photons: the readout
    before it became a fold over piece blocks."""
    p, row = np.eye(5), np.zeros(5)
    for block in piece_references(cfg, params):
        q = block @ p
        p = q[:5]
        row += q[5]
    return row


def rounding_scale(cfg, params):
    """Sum over the readout's pieces of the largest entry of each one's
    photon row: each exponential rounds at about 1e-16 of that, and a
    population vector carries it into the total unamplified."""
    return sum(block[5].max() for block in piece_references(cfg, params))


def objective_case(base_seq, params, n, duration_ns, start_amplitude=0.3):
    """An OLO objective over ``n`` pieces of ``duration_ns``, and the
    readout-ready branches and the sequence of its starting point, which a
    reference needs."""
    spec = nv.OloSpec(
        base=base_seq, params=params,
        optimizer=nv.OptimizerConfig(alpha0=0.1, rho=0.5, alpha_min=1e-3,
                                     max_queries=100),
        init_scan_amplitudes=np.array([0.2]), start_duration_ns=duration_ns,
        start_amplitude=start_amplitude, n_read=n)
    init_wf = nv.make_constant(1000.0, 0.2)
    objective, expected_counts = nv.make_snr_objective(spec, init_wf)
    cfg = replace(base_seq, init_wf=init_wf, readout_wf=spec.start_readout)
    branches = np.column_stack(nv.prepared_states(cfg, params))
    return objective, expected_counts, cfg, branches


def objective_anchor(objective):
    """The anchor that ``objective`` keeps its readout chain at."""
    return inspect.getclosurevars(objective).nonlocals["anchor"]


def assert_anchor_is_a_full_rebuild(objective, params, readout, branches):
    """The objective's anchor, made fully current, holds, bit for bit, what
    one forward pass and one backward fold over freshly looked-up blocks of
    its point on the ``readout`` pieces give."""
    anchor = objective_anchor(objective)
    anchor.reach(anchor.u.size, 0)
    blocks = [pumpsim.piece_block(params, params.amp_map.rate(a), dt)
              for a, dt in zip(anchor.u.tolist(),
                               pumpsim.piece_durations(readout))]
    before, photons = pumpsim.forward(blocks, branches)
    detected = np.cumsum(np.concatenate([np.zeros((1, 2)), photons]), axis=0)
    rows = pumpsim.readout_rows(blocks)
    for name, want in (("before", before), ("detected", detected),
                       ("rows", rows)):
        got = getattr(anchor, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    return anchor


@st.composite
def readout_edits(draw):
    """A rate set, a readout of 1 to 24 pieces, and a run of one-piece and
    multi-piece edits."""
    params = draw(rate_rows())[0]
    n = draw(st.integers(1, 24))
    duration = draw(st.floats(50.0, 3000.0))
    amplitude = st.just(0.0) | st.floats(0.0, 1.0)
    edits = draw(st.lists(st.lists(st.tuples(st.integers(0, n - 1), amplitude),
                                   min_size=1, max_size=4),
                          min_size=1, max_size=8))
    return params, n, duration, edits


class TestIncrementalObjective:
    """The objective's anchored chain against a full walk of each trial."""

    @given(readout_edits())
    @settings(max_examples=80, deadline=None)
    def test_matches_full_walk_and_ties_bit_exactly(self, base_seq, case):
        params, n, duration, edits = case
        objective, expected_counts, cfg, branches = objective_case(
            base_seq, params, n, duration)
        best = np.full(n, 0.3)
        for edit in edits:
            trial = best.copy()
            for i, a in edit:
                trial[i] = a
            got = expected_counts(trial)
            trial_cfg = replace(cfg, readout_wf=replace(cfg.readout_wf,
                                                        amplitudes=trial))
            want = cfg.repetitions * (walked_row(trial_cfg, params)
                                      @ branches)
            # near zero counts both sides are their exponentials' rounding,
            # which differs by kernel; measure it against the segments' scale
            np.testing.assert_allclose(
                got, want, rtol=1e-13,
                atol=1e-13 * cfg.repetitions * rounding_scale(trial_cfg, params))
            if sum(got) > 0 and objective(trial) > objective(best):
                # the trial is now the anchor and answers with its old bits
                assert expected_counts(trial) == got
                best = trial
                anchor = assert_anchor_is_a_full_rebuild(
                    objective, params, cfg.readout_wf, branches)
                assert np.array_equal(anchor.u, best)

    @pytest.mark.parametrize("seed", [2, 11, 23])
    def test_matches_reference_integrator(self, base_seq, params, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        duration = rng.uniform(300.0, 1500.0)
        objective, expected_counts, cfg, branches = objective_case(
            base_seq, params, n, duration)
        anchor = rng.uniform(0.0, 1.0, n)
        objective(anchor)
        trial = anchor.copy()
        trial[int(rng.integers(n))] = rng.uniform(0.0, 1.0)
        wf = replace(cfg.readout_wf, amplitudes=trial)
        want = [cfg.repetitions * np.diff(reference_walk(
            p, wf, params, [0.0, duration])[:, 5])[0]
            for p in branches.T]
        np.testing.assert_allclose(expected_counts(trial), want, rtol=1e-8)

    def test_same_point_returns_the_same_bits_across_reanchoring(self,
                                                                 base_seq,
                                                                 params):
        objective, expected_counts, _, _ = objective_case(
            base_seq, params, 6, 600.0)
        u0 = np.full(6, 0.3)
        first = objective(u0)
        better = u0.copy()
        better[2] = 0.5
        before = expected_counts(better)
        assert objective(better) > first       # re-anchors at ``better``
        assert expected_counts(better) == before
        worse = better.copy()
        worse[[4, 5]] = 1.0
        assert objective(worse) < objective(better)
        assert expected_counts(better) == before

    def test_search_takes_the_path_of_full_walks(self, base_seq, params):
        # the anchored chain and a full walk of each trial must agree on
        # every comparison, or Hooke-Jeeves would take a rounding difference
        # for an improvement
        objective, _, cfg, branches = objective_case(
            base_seq, params, 20, 920.0, start_amplitude=0.02)

        def walked(u):
            trial = replace(cfg, readout_wf=replace(cfg.readout_wf,
                                                    amplitudes=u))
            return nv.snr(*(cfg.repetitions
                            * (walked_row(trial, params) @ branches)))

        opt = nv.OptimizerConfig(alpha0=0.1, rho=0.5, alpha_min=1e-3,
                                 max_queries=5000)
        fast = nv.hj_optimize(objective, np.full(20, 0.02), opt)
        slow = nv.hj_optimize(walked, np.full(20, 0.02), opt)
        assert ([r.accepted for r in fast.history]
                == [r.accepted for r in slow.history])
        assert np.array_equal(fast.best, slow.best)

    def test_every_move_of_the_default_run_is_a_full_rebuild(self, olo_spec,
                                                             params):
        init_amp = nv.harness._scan_init_amplitude(olo_spec).best_amplitude
        init_wf = nv.make_constant(olo_spec.base.init_wf.duration_ns, init_amp)
        objective, _ = nv.make_snr_objective(olo_spec, init_wf)
        start = olo_spec.start_readout
        cfg = replace(olo_spec.base, init_wf=init_wf)
        branches = np.column_stack(nv.prepared_states(cfg, params))
        moves = []

        def checked(u):
            value = objective(u)
            if not moves or value > moves[-1]:
                # a new incumbent: the anchor has moved to it
                assert_anchor_is_a_full_rebuild(objective, params, start,
                                                 branches)
                moves.append(value)
            return value

        state = nv.hj_optimize(checked, start.amplitudes, olo_spec.optimizer)
        assert state.queries == 469
        assert len(moves) == sum(r.accepted for r in state.history) == 50

    def test_lazy_extension_gives_the_eager_search(self, olo_spec):
        # the default search twice: once extending the anchor only as far
        # as each query reads, once making it fully current after every
        # query; any bit the lazy extension got differently would show in
        # the values
        init_amp = nv.harness._scan_init_amplitude(olo_spec).best_amplitude
        init_wf = nv.make_constant(olo_spec.base.init_wf.duration_ns, init_amp)

        def search(eager):
            objective, _ = nv.make_snr_objective(olo_spec, init_wf)
            anchor = objective_anchor(objective)

            def queried(u):
                value = objective(u)
                if eager:
                    anchor.reach(anchor.u.size, 0)
                return value
            return nv.hj_optimize(queried, olo_spec.start_readout.amplitudes,
                                  olo_spec.optimizer).history

        lazy, eager = search(False), search(True)
        assert len(lazy) == len(eager) == 469
        assert (np.array([r.value for r in lazy]).tobytes()
                == np.array([r.value for r in eager]).tobytes())
        assert [r.accepted for r in lazy] == [r.accepted for r in eager]

    @pytest.mark.parametrize("bad", [[0.3] * 5, [0.3] * 7, [0.3] * 5 + [1.2],
                                     [0.3] * 5 + [np.nan],
                                     [0.3] * 5 + [-np.inf]])
    def test_trials_outside_the_bounds_are_rejected(self, base_seq, params,
                                                    bad):
        objective, _, _, _ = objective_case(base_seq, params, 6, 600.0)
        with pytest.raises(ParameterError):
            objective(np.array(bad))


class TestRunOlo:
    def test_final_never_below_start(self, olo_result):
        assert olo_result.final_snr >= olo_result.start_snr

    def test_improvement_ratio_definition(self, olo_result):
        assert olo_result.improvement_ratio == pytest.approx(
            olo_result.final_snr / olo_result.baseline_snr - 1.0, rel=1e-12)

    def test_starting_at_best_constant_never_loses(self, params, base_seq,
                                                   sweep_snr):
        # derived from incumbent monotonicity: if the search starts at the
        # traversal optimum, the final SNR cannot drop below the baseline
        spec = nv.OloSpec(
            base=base_seq, params=params,
            optimizer=nv.OptimizerConfig(alpha0=0.05, rho=0.5, alpha_min=1e-2,
                                         max_queries=150),
            start_duration_ns=sweep_snr.best_duration_ns,
            start_amplitude=sweep_snr.best_amplitude,
            n_read=1,
            init_scan_amplitudes=np.array([sweep_snr.best_amplitude]),
        )
        res = nv.run_olo(spec, baseline=sweep_snr)
        # the init pulse differs from the traversal's (duration from the
        # skeleton), so compare against the spec's own starting point
        assert res.final_snr >= res.start_snr

    def test_one_piece_olo_matches_dense_scan(self, params, base_seq):
        # oracle: dense 1-D amplitude scan of the same deterministic objective
        spec = nv.OloSpec(
            base=base_seq, params=params,
            optimizer=nv.OptimizerConfig(alpha0=0.25, rho=0.5, alpha_min=1e-3,
                                         max_queries=2000),
            start_duration_ns=920.0, start_amplitude=0.5, n_read=1,
            init_scan_amplitudes=np.array([0.1]),
        )
        objective, _ = nv.make_snr_objective(spec, nv.make_constant(1000.0, 0.1))
        res = nv.run_olo(spec, baseline=1.0)
        grid = np.linspace(0.0, 1.0, 2001)
        values = [objective(np.array([a])) for a in grid]
        oracle = grid[int(np.argmax(values))]
        assert abs(res.waveform.amplitudes[0] - oracle) <= 1e-3

    def test_default_run_beats_every_square_pulse_on_its_lattice(
            self, olo_spec, olo_result, params):
        # oracle: the search space holds every pulse of k leading pieces at
        # amplitude a and dark pieces after them; scored by the sequence's
        # own window sum, not by the objective's anchored chain
        start = olo_spec.start_readout
        cfg = replace(olo_spec.base,
                      init_wf=nv.make_constant(olo_spec.base.init_wf.duration_ns,
                                               olo_result.init_amplitude))
        best = -np.inf
        for k in range(1, start.n + 1):
            for a in np.linspace(0.05, 1.0, 20):
                u = np.zeros(start.n)
                u[:k] = a
                pulse = replace(cfg, readout_wf=replace(start, amplitudes=u))
                best = max(best, nv.snr(*nv.pair_window_counts(pulse, params)))
        assert best == pytest.approx(388.961, abs=1e-3)
        assert olo_result.final_snr >= best * (1 - 1e-12)

    def test_free_never_below_tied(self, params, base_seq, sweep_snr):
        # a 1-piece (tied) search explores a subset of the 20-piece space
        common = dict(base=base_seq, params=params,
                      start_duration_ns=920.0, start_amplitude=0.1,
                      init_scan_amplitudes=np.array([0.1]))
        opt = nv.OptimizerConfig(alpha0=0.1, rho=0.5, alpha_min=1e-3,
                                 max_queries=5000)
        tied = nv.run_olo(nv.OloSpec(optimizer=opt, n_read=1, **common),
                          baseline=sweep_snr)
        free = nv.run_olo(nv.OloSpec(optimizer=opt, n_read=20, **common),
                          baseline=sweep_snr)
        assert free.final_snr >= tied.final_snr - 1e-9

    def test_reproducible(self, params, base_seq):
        spec = nv.OloSpec(
            base=base_seq, params=params,
            optimizer=nv.OptimizerConfig(alpha0=0.1, rho=0.5, alpha_min=1e-2,
                                         max_queries=200),
            start_duration_ns=920.0, start_amplitude=0.1, n_read=5,
            init_scan_amplitudes=np.linspace(0.05, 0.5, 5),
            stochastic=True, sample_seed=9,
        )
        r1 = nv.run_olo(spec, baseline=100.0)
        r2 = nv.run_olo(spec, baseline=100.0)
        assert np.array_equal(r1.waveform.amplitudes, r2.waveform.amplitudes)
        assert [q.value for q in r1.state.history] == \
               [q.value for q in r2.state.history]

    def test_stochastic_mode_differs_from_deterministic(self, params, base_seq):
        spec = nv.OloSpec(
            base=base_seq, params=params,
            optimizer=nv.OptimizerConfig(alpha0=0.1, rho=0.5, alpha_min=1e-2,
                                         max_queries=60),
            start_duration_ns=920.0, start_amplitude=0.1, n_read=3,
            init_scan_amplitudes=np.array([0.1]),
        )
        det = nv.run_olo(spec, baseline=100.0)
        noisy = nv.run_olo(replace(spec, stochastic=True, sample_seed=1),
                           baseline=100.0)
        det_vals = [q.value for q in det.state.history]
        noisy_vals = [q.value for q in noisy.state.history]
        assert det_vals != noisy_vals
