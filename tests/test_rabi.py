import numpy as np
import pytest
from dataclasses import replace

import nvreadout as nv
from nvreadout import Level
from nvreadout.errors import ConfigurationError
from test_pumpsim import reference_walk

OMEGA = 2 * np.pi / 200.0


@pytest.fixture(scope="module")
def rabi_base(base_seq):
    # single-bin readout: Rabi evaluation only needs window totals
    return replace(base_seq, bin_width_ns=920.0)


def make_cfg(rabi_base, taus=None, **kw):
    if taus is None:
        taus = np.linspace(0.0, 600.0, 61)
    defaults = dict(omega_rad_per_ns=OMEGA, taus_ns=taus, base=rabi_base)
    defaults.update(kw)
    return nv.RabiConfig(**defaults)


class TestRabiExpectations:
    def test_tau_zero_matches_spin0_branch(self, params, rabi_base):
        cfg = make_cfg(rabi_base, taus=np.linspace(0.0, 210.0, 8))
        L = nv.rabi_expectations(cfg, params)
        L0, _ = nv.pair_window_counts(rabi_base, params)
        assert L[0] == pytest.approx(L0, rel=1e-12)

    def test_tau_pi_matches_spin1_branch(self, params, rabi_base):
        tau_pi = np.pi / OMEGA
        cfg = make_cfg(rabi_base, taus=np.linspace(0.0, 8 * tau_pi, 9))
        L = nv.rabi_expectations(cfg, params)
        _, L1 = nv.pair_window_counts(rabi_base, params)
        assert L[1] == pytest.approx(L1, rel=1e-12)

    def test_matches_reference_walk_of_rotated_states(self, params,
                                                      rabi_base):
        # taus off the pi grid, so every state mixes both branches; the
        # oracle rotates the prepared state and integrates the readout
        taus = np.array([13.0, 77.0, 141.0, 263.0])
        L = nv.rabi_expectations(make_cfg(rabi_base, taus=taus), params)
        init, wait = rabi_base.init_wf, rabi_base.wait_ns
        p = reference_walk(nv.thermal_ground_state(), init, params,
                           [init.duration_ns])[-1, :5]
        p = reference_walk(p, nv.make_constant(wait, 0.0), params,
                           [wait])[-1, :5]
        offset = rabi_base.detection_offset_ns
        window = [offset, offset + rabi_base.effective_detection_width_ns]
        for tau, got in zip(taus, L):
            c2 = np.cos(0.5 * OMEGA * tau) ** 2
            q = p.copy()
            q[Level.G0] = c2 * p[Level.G0] + (1.0 - c2) * p[Level.G1]
            q[Level.G1] = (1.0 - c2) * p[Level.G0] + c2 * p[Level.G1]
            counts = reference_walk(q, rabi_base.readout_wf, params, window)
            want = rabi_base.repetitions * (counts[1, 5] - counts[0, 5])
            assert got == pytest.approx(want, rel=1e-8)

    def test_periodicity(self, params, rabi_base):
        period = 2 * np.pi / OMEGA
        taus = np.linspace(0.0, 190.0, 10)
        both = np.concatenate([taus, taus + period])
        L = nv.rabi_expectations(make_cfg(rabi_base, taus=both), params)
        assert np.allclose(L[:10], L[10:], rtol=1e-9)


class TestSimulateRabi:
    def test_deterministic_curve_sits_on_fit(self, params, rabi_base):
        curve = nv.simulate_rabi(make_cfg(rabi_base), params)
        assert curve.fit is not None
        assert nv.mean_deviation(curve.signals, curve.fit, curve.taus_ns) < 1e-6
        assert curve.fit.omega == pytest.approx(OMEGA, rel=1e-6)

    def test_contrast_equals_fitted_extrema_ratio(self, params, rabi_base):
        curve = nv.simulate_rabi(make_cfg(rabi_base), params)
        y_max = curve.fit.offset + curve.fit.amplitude
        y_min = curve.fit.offset - curve.fit.amplitude
        assert curve.contrast == pytest.approx((y_max - y_min) / y_max,
                                               rel=1e-12)

    def test_normalization_anchor_is_max_count(self, params, rabi_base):
        curve = nv.simulate_rabi(make_cfg(rabi_base), params)
        assert curve.signals.max() == pytest.approx(1.0, abs=1e-12)

    def test_stochastic_mode_reproducible(self, params, rabi_base):
        cfg = make_cfg(rabi_base, stochastic=True, sample_seed=5,
                       base=replace(rabi_base, repetitions=1e6))
        a = nv.simulate_rabi(cfg, params)
        b = nv.simulate_rabi(cfg, params)
        assert np.array_equal(a.counts, b.counts)

    def test_mean_dev_follows_shot_noise_scaling(self, params, rabi_base):
        # 1/sqrt(N) within a factor 1.5, averaged over seeds
        devs = {}
        for N in (1e4, 1e6, 1e8):
            vals = []
            for seed in range(10):
                cfg = make_cfg(rabi_base, stochastic=True,
                               sample_seed=1000 + seed,
                               base=replace(rabi_base, repetitions=N))
                vals.append(nv.simulate_rabi(cfg, params).mean_dev)
            devs[N] = np.mean(vals)
        for big, small in ((1e6, 1e4), (1e8, 1e6)):
            ratio = devs[small] / devs[big]
            assert 10.0 / 1.5 <= ratio <= 10.0 * 1.5

    def test_noiseless_mean_dev_is_expected_sampled_mean_dev(self, params,
                                                             rabi_base):
        """Noiseless mean_dev against the average of 20 Poisson draws.

        The closed form is leading order in 1/sqrt(counts): at N=1e8 (up to
        3.5e6 counts per point) it agrees within sampling error, while at
        N=1e4 (up to 3.5e2 counts per point) it reads about 10 % high.
        """
        base = replace(rabi_base, repetitions=1e8)
        expected = nv.simulate_rabi(make_cfg(rabi_base, base=base),
                                    params).mean_dev
        sampled = np.array([
            nv.simulate_rabi(make_cfg(rabi_base, base=base, stochastic=True,
                                      sample_seed=seed), params).mean_dev
            for seed in range(1000, 1020)
        ])
        stderr = sampled.std(ddof=1) / np.sqrt(sampled.size)
        assert abs(sampled.mean() - expected) < 3 * stderr

    def test_fit_failure_keeps_raw_curve(self, params, rabi_base):
        # too few samples for the fit, but a valid Rabi grid
        cfg = make_cfg(rabi_base, taus=np.linspace(0.0, 600.0, 5))
        curve = nv.simulate_rabi(cfg, params)
        assert curve.fit is None
        assert curve.contrast is None
        assert curve.fit_message
        assert curve.signals.size == 5

    def test_grid_validation(self, rabi_base):
        with pytest.raises(ConfigurationError):
            make_cfg(rabi_base, taus=np.linspace(0.0, 100.0, 11))  # < 1 period
        with pytest.raises(ConfigurationError):
            make_cfg(rabi_base, omega_rad_per_ns=-1.0)


class TestCompareSchemes:
    @pytest.fixture(scope="class")
    def schemes(self, params, rabi_base, sweep_snr, sweep_contrast, olo_result):
        return nv.make_scheme_configs(
            rabi_base, OMEGA, np.linspace(0.0, 600.0, 61), rabi_base.repetitions,
            nv.make_constant(1000.0, olo_result.init_amplitude),
            olo_result.waveform, sweep_snr, sweep_contrast,
            stochastic=False, seed=0)

    def test_contrast_baseline_beats_snr_baseline(self, schemes, params):
        comp = nv.compare_schemes(schemes, params)
        assert comp.orderings["constant_contrast_above_constant_snr"]

    def test_olo_contrast_beats_snr_baseline(self, schemes, params):
        comp = nv.compare_schemes(schemes, params)
        assert comp.orderings["olo_contrast_above_constant_snr"]

    def test_missing_scheme_rejected(self, schemes, params):
        incomplete = {k: v for k, v in schemes.items() if k != "olo-snr"}
        with pytest.raises(ConfigurationError):
            nv.compare_schemes(incomplete, params)
