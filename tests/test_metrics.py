import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvreadout as nv
from nvreadout import metrics
from nvreadout.errors import FitError, UndefinedMetricError

counts = st.floats(1.0, 1e9)


class TestSnr:
    def test_direct_substitution(self):
        assert nv.snr(200.0, 100.0) == pytest.approx(100.0 / np.sqrt(300.0),
                                                     rel=1e-12)

    def test_equal_counts_zero(self):
        assert nv.snr(12345.0, 12345.0) == 0.0

    def test_sqrt_k_scaling(self):
        base = nv.snr(200.0, 100.0)
        assert nv.snr(100 * 200.0, 100 * 100.0) / base == pytest.approx(
            10.0, rel=1e-12)

    @given(counts, counts)
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, L0, L1):
        assert nv.snr(L1, L0) == pytest.approx(-nv.snr(L0, L1), rel=1e-12,
                                               abs=1e-12)

    @given(counts, counts, st.floats(0.1, 1e4))
    @settings(max_examples=50, deadline=None)
    def test_scaling_property(self, L0, L1, k):
        scaled = nv.snr(k * L0, k * L1)
        assert scaled == pytest.approx(np.sqrt(k) * nv.snr(L0, L1),
                                       rel=1e-9, abs=1e-9)

    def test_undefined(self):
        with pytest.raises(UndefinedMetricError):
            nv.snr(0.0, 0.0)


class TestArrays:
    @given(st.lists(st.tuples(counts, counts), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_elementwise_values_equal_the_scalar_ones(self, pairs):
        L0, L1 = np.array(pairs).T
        for metric in (nv.snr, nv.contrast):
            assert np.array_equal(metric(L0, L1),
                                  [metric(a, b) for a, b in pairs])

    def test_one_undefined_element_raises(self):
        with pytest.raises(UndefinedMetricError):
            nv.snr(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(UndefinedMetricError):
            nv.contrast(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


class TestContrast:
    def test_basic(self):
        assert nv.contrast(100.0, 80.0) == pytest.approx(0.2, rel=1e-12)

    def test_dark_second_branch(self):
        assert nv.contrast(5.0, 0.0) == 1.0

    @given(counts, counts, st.floats(0.1, 1e4))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, L0, L1, k):
        assert nv.contrast(k * L0, k * L1) == pytest.approx(
            nv.contrast(L0, L1), rel=1e-9, abs=1e-12)

    def test_undefined(self):
        with pytest.raises(UndefinedMetricError):
            nv.contrast(0.0, 10.0)


def synth(ts, offset, amplitude, omega, phase):
    return offset + amplitude * np.cos(omega * ts + phase)


class TestFitSinusoid:
    def test_noiseless_recovery(self):
        # 5 MHz on a 400 ns span, 64 samples
        ts = np.linspace(0.0, 400.0, 64)
        omega = 2 * np.pi * 0.005
        ys = synth(ts, 0.9, 0.1, omega, 0.0)
        fit = nv.fit_sinusoid(ts, ys)
        assert fit.offset == pytest.approx(0.9, rel=1e-6)
        assert fit.amplitude == pytest.approx(0.1, rel=1e-6)
        assert fit.omega == pytest.approx(omega, rel=1e-6)

    def test_constant_data_gives_flat_fit(self):
        ts = np.linspace(0.0, 400.0, 32)
        fit = nv.fit_sinusoid(ts, np.full(32, 0.7))
        assert fit.amplitude == pytest.approx(0.0, abs=1e-9)
        assert nv.mean_deviation(np.full(32, 0.7), fit, ts) < 1e-12

    def test_poisson_noise_frequency_recovery(self):
        # Monte-Carlo: counts at the 1e6 scale, frequency recovered within 1%
        ts = np.linspace(0.0, 600.0, 61)
        omega = 2 * np.pi / 200.0
        expected = synth(ts, 0.85, 0.12, omega, 0.3) * 1e6
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ys = rng.poisson(expected) / 1e6
            fit = nv.fit_sinusoid(ts, ys)
            assert abs(fit.omega - omega) / omega < 0.01

    def test_never_worse_than_generating_parameters(self):
        ts = np.linspace(0.0, 500.0, 48)
        omega = 2 * np.pi / 150.0
        truth = nv.SinusoidFit(offset=0.8, amplitude=0.15, omega=omega,
                               phase=-0.7, residual_norm=0.0)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            ys = truth.predict(ts) + rng.normal(0.0, 0.01, ts.size)
            fit = nv.fit_sinusoid(ts, ys)
            truth_residual = np.linalg.norm(ys - truth.predict(ts))
            assert fit.residual_norm <= truth_residual * (1 + 1e-9)

    def test_phase_in_range_and_amplitude_nonnegative(self):
        ts = np.linspace(0.0, 400.0, 40)
        for phase in (-3.0, -1.0, 0.5, 2.5):
            fit = nv.fit_sinusoid(ts, synth(ts, 1.0, 0.2, 0.05, phase))
            assert fit.amplitude >= 0.0
            assert -np.pi <= fit.phase < np.pi

    def test_grid_residuals_match_least_squares(self):
        # the batched normal equations against one lstsq per frequency, up
        # to the Nyquist limit where sin vanishes on the samples
        rng = np.random.default_rng(4)
        for ts in (np.linspace(0.0, 600.0, 241),
                   np.sort(rng.uniform(0.0, 500.0, 90))):
            ys = 0.8 + 0.1 * np.cos(0.04 * ts + 1.0) + rng.normal(0, 0.01, ts.size)
            lo, count = 2 * np.pi / np.ptp(ts), 600
            step = (np.pi / 2.5 - lo) / (count - 1)
            got = metrics._grid_residuals(lo + step * np.arange(count),
                                          ts, ys)
            want = [metrics._linear_fit_at(lo + step * k, ts, ys)[1] ** 2
                    for k in range(count)]
            scale = np.sum((ys - ys.mean()) ** 2)
            assert np.max(np.abs(got - want)) < 1e-12 * scale

    @pytest.mark.parametrize("points", [31, 61, 241])
    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
    def test_coarse_scan_finds_the_full_grid_minimum(self, monkeypatch,
                                                     points, scale):
        # a 200 ns period sits on a coarse grid point (lo + 48 steps on a
        # 600 ns span); the other periods put the best grid point between
        # coarse points, where only the fine stage can reach it
        ts = np.linspace(0.0, 600.0, points)
        rng = np.random.default_rng(points)
        for period in (173.0, 190.0, 200.0, 211.0, 87.0):
            for _ in range(8):
                expected = synth(ts, 0.85, 0.12, 2 * np.pi / period,
                                 rng.uniform(-np.pi, np.pi)) * scale
                ys = rng.poisson(expected) / scale
                omega = nv.fit_sinusoid(ts, ys).omega
                with monkeypatch.context() as every_point:
                    every_point.setattr(metrics, "_COARSE", 1)
                    assert omega == nv.fit_sinusoid(ts, ys).omega

    def test_nyquist_alternation_recovered(self):
        ts = np.linspace(0.0, 600.0, 241)
        ys = 0.5 + 0.25 * np.cos(np.pi / 2.5 * ts)
        fit = nv.fit_sinusoid(ts, ys)
        assert fit.residual_norm < 1e-12
        assert np.allclose(fit.predict(ts), ys, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("span", [600.0, 920.0])
    def test_frequency_never_above_nyquist(self, span):
        # an alternating curve puts the best frequency at the Nyquist end of
        # the grid; no grid point may lie beyond it
        above = {}
        for points in range(9, 61):
            ts = np.linspace(0.0, span, points)
            limit = np.pi / np.min(np.diff(ts))
            ys = (1.0 + 0.5 * np.cos(limit * ts)
                  + 0.01 * np.sin(2 * np.pi * ts / span))
            ratio = nv.fit_sinusoid(ts, ys).omega / limit
            if ratio > 1 + 1e-12:
                above[points] = ratio
        assert above == {}

    def test_import_leaves_scipy_optimize_out(self):
        code = "import sys, nvreadout; print('scipy.optimize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(nv.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(FitError):
            nv.fit_sinusoid(np.zeros(16), np.ones(16))
        with pytest.raises(FitError):
            nv.fit_sinusoid(np.arange(5.0), np.arange(5.0))
        with pytest.raises(FitError):
            nv.fit_sinusoid(np.arange(16.0), np.arange(8.0))


class TestMeanDeviation:
    def test_on_fit_zero(self):
        ts = np.linspace(0.0, 400.0, 64)
        fit = nv.SinusoidFit(0.9, 0.1, 0.03, 0.1, 0.0)
        assert nv.mean_deviation(fit.predict(ts), fit, ts) == 0.0

    def test_uniform_offset(self):
        ts = np.linspace(0.0, 400.0, 64)
        fit = nv.SinusoidFit(0.9, 0.1, 0.03, 0.1, 0.0)
        ys = fit.predict(ts) + 0.01
        assert nv.mean_deviation(ys, fit, ts) == pytest.approx(0.01, rel=1e-12)
