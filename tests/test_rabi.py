import numpy as np
import pytest
from dataclasses import replace

import nvreadout as nv
from conftest import load_olo_scheme
from nvreadout import Level
from nvreadout.errors import ConfigurationError, FitError
from nvreadout.pumpsim import RABI_STREAM
from test_pumpsim import reference_walk

OMEGA = 2 * np.pi / 200.0


@pytest.fixture(scope="module")
def rabi_base(base_seq):
    return base_seq


def make_cfg(taus=None, **kw):
    if taus is None:
        taus = np.linspace(0.0, 600.0, 61)
    return nv.RabiConfig(omega_rad_per_ns=OMEGA, taus_ns=taus, **kw)


class TestRabiExpectations:
    def test_tau_zero_matches_spin0_branch(self, params, rabi_base):
        cfg = make_cfg(taus=np.linspace(0.0, 210.0, 8))
        L = nv.rabi_expectations(cfg, rabi_base, params)
        L0, _ = nv.pair_window_counts(rabi_base, params)
        assert L[0] == pytest.approx(L0, rel=1e-12)

    def test_tau_pi_matches_spin1_branch(self, params, rabi_base):
        tau_pi = np.pi / OMEGA
        cfg = make_cfg(taus=np.linspace(0.0, 8 * tau_pi, 9))
        L = nv.rabi_expectations(cfg, rabi_base, params)
        _, L1 = nv.pair_window_counts(rabi_base, params)
        assert L[1] == pytest.approx(L1, rel=1e-12)

    def test_matches_reference_walk_of_rotated_states(self, params,
                                                      rabi_base):
        # taus off the pi grid, so every state mixes both branches; the
        # oracle rotates the prepared state and integrates the readout
        taus = np.array([13.0, 77.0, 141.0, 263.0])
        L = nv.rabi_expectations(make_cfg(taus=taus), rabi_base, params)
        init, wait = rabi_base.init_wf, rabi_base.wait_ns
        p = reference_walk(nv.thermal_ground_state(), init, params,
                           [init.duration_ns])[-1, :5]
        p = reference_walk(p, nv.make_constant(wait, 0.0), params,
                           [wait])[-1, :5]
        window = [0.0, rabi_base.readout_wf.duration_ns]
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
        L = nv.rabi_expectations(make_cfg(taus=both), rabi_base, params)
        assert np.allclose(L[:10], L[10:], rtol=1e-9)


class TestSimulateRabi:
    def test_deterministic_curve_sits_on_fit(self, params, rabi_base):
        curve = nv.simulate_rabi(make_cfg(), rabi_base, params, 0)
        assert curve.fit is not None
        assert nv.mean_deviation(curve.signals, curve.fit, curve.taus_ns) < 1e-6
        assert curve.fit.omega == pytest.approx(OMEGA, rel=1e-6)

    def test_contrast_equals_fitted_extrema_ratio(self, params, rabi_base):
        curve = nv.simulate_rabi(make_cfg(), rabi_base, params, 0)
        y_max = curve.fit.offset + curve.fit.amplitude
        y_min = curve.fit.offset - curve.fit.amplitude
        assert curve.contrast == pytest.approx((y_max - y_min) / y_max,
                                               rel=1e-12)

    def test_normalization_anchor_is_max_count(self, params, rabi_base):
        curve = nv.simulate_rabi(make_cfg(), rabi_base, params, 0)
        assert curve.signals.max() == pytest.approx(1.0, abs=1e-12)

    def test_stochastic_mode_reproducible(self, params, rabi_base):
        cfg = make_cfg(stochastic=True)
        seq = replace(rabi_base, repetitions=1e6)
        a = nv.simulate_rabi(cfg, seq, params, 5)
        b = nv.simulate_rabi(cfg, seq, params, 5)
        assert np.array_equal(a.counts, b.counts)

    def test_mean_dev_follows_shot_noise_scaling(self, params, rabi_base):
        # 1/sqrt(N) within a factor 1.5, averaged over seeds
        devs = {}
        for N in (1e4, 1e6, 1e8):
            vals = []
            for seed in range(10):
                seq = replace(rabi_base, repetitions=N)
                vals.append(nv.simulate_rabi(make_cfg(stochastic=True), seq,
                                             params, 1000 + seed).mean_dev)
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
        expected = nv.simulate_rabi(make_cfg(), base, params, 0).mean_dev
        sampled = np.array([
            nv.simulate_rabi(make_cfg(stochastic=True), base, params,
                             seed).mean_dev
            for seed in range(1000, 1020)
        ])
        stderr = sampled.std(ddof=1) / np.sqrt(sampled.size)
        assert abs(sampled.mean() - expected) < 3 * stderr

    def test_fit_failure_raises(self, params, rabi_base):
        # too few samples for the fit, but a valid Rabi grid
        cfg = make_cfg(taus=np.linspace(0.0, 600.0, 5))
        with pytest.raises(FitError, match="at least 8 samples"):
            nv.simulate_rabi(cfg, rabi_base, params, 0)

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            make_cfg(taus=np.linspace(0.0, 100.0, 11))  # < 1 period
        with pytest.raises(ConfigurationError):
            nv.RabiConfig(omega_rad_per_ns=-1.0,
                          taus_ns=np.linspace(0.0, 600.0, 61))


class TestCompareSchemes:
    @pytest.fixture(scope="class")
    def sequences(self, olo_result, sweep_snr, sweep_contrast,
                  tmp_path_factory):
        olo = load_olo_scheme(olo_result, tmp_path_factory.mktemp("olo"), 1e8)
        return nv.scheme_sequences(olo, sweep_snr, sweep_contrast)

    def test_contrast_baseline_beats_snr_baseline(self, sequences, params):
        comp = nv.compare_schemes(make_cfg(), sequences, params)
        assert comp.orderings["constant_contrast_above_constant_snr"]

    def test_olo_contrast_beats_snr_baseline(self, sequences, params):
        comp = nv.compare_schemes(make_cfg(), sequences, params)
        assert comp.orderings["olo_contrast_above_constant_snr"]

    def test_missing_scheme_rejected(self, sequences, params):
        incomplete = {k: v for k, v in sequences.items() if k != "olo-snr"}
        with pytest.raises(ConfigurationError):
            nv.compare_schemes(make_cfg(), incomplete, params)

    @pytest.mark.parametrize("stochastic", [True, False])
    def test_each_scheme_draws_from_its_own_stream(self, sequences, params,
                                                   stochastic):
        # scheme k draws from key (RABI_STREAM, k) of the run seed, and its
        # curve is the one simulate_rabi gives on that key alone
        cfg = make_cfg(stochastic=stochastic, seed=7)
        comp = nv.compare_schemes(cfg, sequences, params)
        for k, name in enumerate(nv.SCHEMES):
            key = nv.sampling_seed(7, RABI_STREAM, k)
            expected = nv.rabi_expectations(cfg, sequences[name], params)
            got = comp.curves[name]
            assert np.array_equal(got.counts, nv.sample_counts(expected, key)
                                  if stochastic else expected)
            alone = nv.simulate_rabi(cfg, sequences[name], params, key)
            assert np.array_equal(got.counts, alone.counts)
            assert np.array_equal(got.signals, alone.signals)
            assert got.fit == alone.fit
            assert (got.contrast, got.mean_dev) == (alone.contrast,
                                                    alone.mean_dev)
