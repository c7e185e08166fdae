import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
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


def lstsq_residual(omega, ts, ys):
    """Residual norm of the least-squares fit on {1, cos, sin} at ``omega``,
    by ``lstsq`` of the (n, 3) design."""
    design = np.column_stack([np.ones_like(ts), np.cos(omega * ts),
                              np.sin(omega * ts)])
    coef = np.linalg.lstsq(design, ys, rcond=None)[0]
    return float(np.linalg.norm(ys - design @ coef))


def golden_section(f, a, b, xatol):
    """Minimum of a unimodal ``f`` on [a, b], to within ``xatol``."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xatol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def plain_scan_omega(ts, ys):
    """``fit_sinusoid``'s frequency by an independent scan and polish: the
    residual of every point of its grid from explicit cos and sin tables of
    the whole (grid, samples) product, then a golden-section search of the
    ``lstsq`` residual between the best point's neighbours, kept if it is
    no worse than that point.  Returns the frequency and the polish
    tolerance."""
    span, dt_min = np.ptp(ts), np.min(np.diff(np.sort(ts)))
    lo, hi = 2 * np.pi / span, np.pi / dt_min
    step = 2 * np.pi / (span * metrics._OVERSAMPLE)
    grid = np.arange(lo, hi + step, step)
    grid = grid[grid <= hi + 0.5 * step]
    n, yc = ts.size, ys - ys.mean()
    C, S = np.cos(np.outer(grid, ts)), np.sin(np.outer(grid, ts))
    c_sum, s_sum = C.sum(axis=1), S.sum(axis=1)
    cc = np.einsum("ij,ij->i", C, C) - c_sum**2 / n
    ss = np.einsum("ij,ij->i", S, S) - s_sum**2 / n
    cs = np.einsum("ij,ij->i", C, S) - c_sum * s_sum / n
    cy, sy = C @ yc, S @ yc
    det = cc * ss - cs**2
    with np.errstate(divide="ignore", invalid="ignore"):
        res2 = yc @ yc - (ss * cy**2 - 2 * cs * cy * sy + cc * sy**2) / det
    for k in np.flatnonzero(~(det > metrics._ILL_CONDITIONED * n**2)):
        res2[k] = lstsq_residual(grid[k], ts, ys) ** 2
    i = int(np.argmin(res2))
    omega = float(grid[i])
    w_lo, w_hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    xatol = step * 1e-8
    w, r = golden_section(lambda w: lstsq_residual(w, ts, ys), w_lo, w_hi,
                          xatol)
    return (float(w) if r <= lstsq_residual(omega, ts, ys) else omega), xatol


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
        # to the Nyquist limit where sin vanishes on the samples; two curves
        # share the tables of one call
        rng = np.random.default_rng(4)
        for ts in (np.linspace(0.0, 600.0, 241),
                   np.sort(rng.uniform(0.0, 500.0, 90))):
            ys = np.stack([0.8 + 0.1 * np.cos(w * ts + 1.0)
                           + rng.normal(0, 0.01, ts.size) for w in (0.04, 0.3)])
            lo, count = 2 * np.pi / np.ptp(ts), 600
            step = (np.pi / 2.5 - lo) / (count - 1)
            got = metrics._grid_residuals(lo, step, count, ts, ys)
            assert got.shape == (2, count)
            for row, y in zip(got, ys):
                want = [lstsq_residual(lo + step * k, ts, y) ** 2
                        for k in range(count)]
                scale = np.sum((y - y.mean()) ** 2)
                assert np.max(np.abs(row - want)) < 1e-12 * scale

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

    @pytest.mark.parametrize("points", [9, 31, 61, 241])
    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
    @pytest.mark.parametrize("jitter", [0.0, 0.3], ids=["uniform", "jittered"])
    def test_frequency_is_the_plain_scan_minimum_polished(self, points, scale,
                                                          jitter):
        # Rabi-like curves as criterion 8 fits them: Poisson counts about a
        # 200 ns oscillation, normalized to their maximum; the jittered tau
        # grids move each sample by up to 30 % of the spacing.  The oracle
        # polishes by golden section of the lstsq residual, the fit by
        # Brent's method on its own normal equations, so the two agree to
        # within a few polish tolerances, not bit for bit
        rng = np.random.default_rng(int(points * scale) % 2**32)
        for _ in range(4):
            ts = np.linspace(0.0, 600.0, points)
            ts += jitter * rng.uniform(-1, 1, points) * 600.0 / (points - 1)
            expected = synth(ts, 0.85, 0.12, 2 * np.pi / 200.0,
                             rng.uniform(-np.pi, np.pi)) * scale
            ys = rng.poisson(expected) / scale
            ys /= ys.max()
            want, xatol = plain_scan_omega(ts, ys)
            # the two polishes stop within xatol of where each one's
            # rounding makes the residual flat; the largest gap measured
            # over these 24 cases is 8.2 xatol, on 9-point curves at 1e4
            assert abs(nv.fit_sinusoid(ts, ys).omega - want) <= 9 * xatol

    @given(st.integers(9, 241), st.floats(0.0, 1.0), st.floats(0.5, 1.0),
           st.floats(0.01, 0.4), st.floats(-np.pi, np.pi))
    @settings(max_examples=60, deadline=None)
    def test_noiseless_curve_on_the_grid_fits_to_rounding(self, points, where,
                                                          offset, amplitude,
                                                          phase):
        # a noiseless sinusoid at a frequency of the fit's own grid, as the
        # criterion-8 curves are (200 ns is 48 steps above one period per
        # 600 ns span): the polish keeps or finds an exact fit
        ts = np.linspace(0.0, 600.0, points)
        lo, hi = 2 * np.pi / 600.0, np.pi / np.min(np.diff(ts))
        step = lo / metrics._OVERSAMPLE
        grid = np.arange(lo, hi + step, step)
        grid = grid[grid <= hi + 0.5 * step]
        omega = grid[int(where * (grid.size - 1))]
        fit = nv.fit_sinusoid(ts, synth(ts, offset, amplitude, omega, phase))
        assert fit.residual_norm < 1e-12

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


def mp_fit_at(omega, ts, ys):
    """Least-squares (offset, cos, sin) coefficients and residual norm at
    ``omega`` in 40-digit arithmetic, on the basis evaluated at the same
    double-precision angles ``omega * ts`` the fit uses."""
    with mpmath.workdps(40):
        basis = mpmath.matrix([[1, mpmath.cos(a), mpmath.sin(a)]
                               for a in (omega * ts).tolist()])
        y = mpmath.matrix(ys.tolist())
        coef = mpmath.lu_solve(basis.T * basis, basis.T * y)
        residual = mpmath.norm(y - basis * coef)
        return np.array([float(c) for c in coef]), float(residual)


def centred_det(omega, ts):
    """det of the offset-eliminated 2x2 normal equations, over n²."""
    c, s = np.cos(omega * ts), np.sin(omega * ts)
    c, s = c - c.mean(), s - s.mean()
    return ((c @ c) * (s @ s) - (c @ s) ** 2) / ts.size**2


class TestFitAt:
    """The normal equations at one frequency against a 40-digit solution."""

    @given(st.integers(8, 80), st.booleans(), st.floats(0.0, 1.0),
           st.floats(-10.0, -1.0), st.floats(1e-6, 0.1),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_40_digit_solution(self, points, jittered, where,
                                           log_gap, noise, seed):
        # omega anywhere on the fit's range, or within a relative gap of
        # 1e-10 .. 0.1 below the Nyquist limit of the closest samples
        rng = np.random.default_rng(seed)
        ts = np.linspace(0.0, 600.0, points)
        if jittered:
            ts = np.sort(ts + 0.3 * rng.uniform(-1, 1, points) * 600 / (points - 1))
        lo, hi = 2 * np.pi / np.ptp(ts), np.pi / np.min(np.diff(ts))
        omega = lo + where * (hi - lo) if where < 0.5 else hi * (1 - 10**log_gap)
        ys = (rng.uniform(0.1, 1.0)
              + rng.uniform(0.0, 0.3) * np.cos(rng.uniform(lo, hi) * ts + 1.0)
              + rng.normal(0.0, noise, points))
        coef, residual = metrics._fit_at(omega, ts, ys)
        det = centred_det(omega, ts)
        assume(not 0.1 < det / metrics._ILL_CONDITIONED < 10)
        if det < metrics._ILL_CONDITIONED:
            # ill-conditioned: the lstsq fallback, as it stands
            want_coef, want_residual = metrics._linear_fit_at(omega, ts, ys)
            assert np.array_equal(coef, want_coef)
            assert residual == want_residual
            return
        want_coef, want_residual = mp_fit_at(omega, ts, ys)
        scale = np.max(np.abs(ys))
        # each coefficient in the curve's units: times the largest value
        # its basis function takes on the samples (sin is small near
        # Nyquist, where its coefficient is loosely determined)
        reach = np.array([1.0, np.max(np.abs(np.cos(omega * ts))),
                          np.max(np.abs(np.sin(omega * ts)))])
        assert np.max(np.abs(coef - want_coef) * reach) < 1e-12 * scale
        assert abs(residual - want_residual) < 1e-12 * scale


class TestBatchFit:
    @pytest.mark.parametrize("points", [9, 31, 241])
    @pytest.mark.parametrize("jitter", [0.0, 0.3], ids=["uniform", "jittered"])
    def test_rows_fit_bit_for_bit_as_single_curves(self, points, jitter):
        # Poisson curves at three count scales and one noiseless curve on
        # one tau grid, fitted together and one at a time
        rng = np.random.default_rng(points)
        ts = np.linspace(0.0, 600.0, points)
        ts += jitter * rng.uniform(-1, 1, points) * 600.0 / (points - 1)
        rows = [synth(ts, 0.85, 0.12, 2 * np.pi / 200.0, 0.4)]
        for scale in (1e4, 1e6, 1e8):
            expected = synth(ts, 0.8, 0.15, 2 * np.pi / rng.uniform(90, 300),
                             rng.uniform(-np.pi, np.pi)) * scale
            rows.append(rng.poisson(expected) / scale)
        ys = np.stack(rows)
        fits = nv.fit_sinusoid(ts, ys)
        assert fits == [nv.fit_sinusoid(ts, y) for y in ys]

    def test_row_length_checked(self):
        with pytest.raises(FitError, match="length mismatch"):
            nv.fit_sinusoid(np.arange(16.0), np.ones((3, 15)))
        with pytest.raises(FitError, match="non-finite"):
            nv.fit_sinusoid(np.arange(16.0),
                            np.vstack([np.ones(16), np.full(16, np.nan)]))


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
