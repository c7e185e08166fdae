from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvreadout as nv
from conftest import DegenerateModelError, emission_rate, pure_state, steady_state
from nvreadout import Level
from nvreadout.errors import (
    NumericError,
    ParameterError,
)

G0, G1, E0, E1, S = Level.G0, Level.G1, Level.E0, Level.E1, Level.S


def rate_params_strategy():
    return st.builds(
        nv.RateParams,
        k_rad=st.floats(0.01, 0.2),
        k_isc0=st.floats(0.001, 0.02),
        k_isc1=st.floats(0.03, 0.15),
        k_s0=st.floats(0.0025, 0.006),
        k_s1=st.floats(0.0004, 0.002),
        eta=st.floats(0.001, 0.05),
        amp_map=st.just(nv.AmplitudeMap(beta_max=0.5)),
    )


class TestRateParams:
    def test_defaults_valid(self, params):
        assert params.singlet_lifetime_ns == pytest.approx(250.0)
        assert params.k_isc1 > params.k_isc0
        assert params.k_s0 > params.k_s1

    @pytest.mark.parametrize("bad", [
        dict(k_rad=-0.1),
        dict(eta=0.0),
        dict(eta=1.5),
        dict(k_isc0=0.08, k_isc1=0.01),
        dict(k_s0=0.001, k_s1=0.002),
    ])
    def test_invalid_params_rejected(self, params, bad):
        with pytest.raises(ParameterError):
            replace(params, **bad)

    @given(rate_params_strategy(), st.floats(0.0, 10.0))
    @settings(max_examples=50)
    def test_generator_is_built_from_its_own_rates(self, params, beta):
        # each instance, a replace() copy included, holds its own M(0) and
        # M(1) - M(0), never another instance's
        for p in (params, replace(params, k_rad=2 * params.k_rad)):
            M0, dM = p.generator
            assert np.array_equal(M0, nv.build_rate_matrix(p, 0.0))
            assert np.array_equal(M0 + beta * dM, nv.build_rate_matrix(p, beta))


class TestAmplitudeMap:
    def test_linear(self):
        m = nv.AmplitudeMap(beta_max=0.5)
        assert m.rate(0.0) == 0.0
        assert m.rate(0.5) == pytest.approx(0.25)
        assert m.rate(1.0) == pytest.approx(0.5)

    def test_saturating_half_max_at_sat_amp(self):
        m = nv.AmplitudeMap(beta_max=0.5, shape="saturating", sat_amp=0.25)
        assert m.rate(0.0) == 0.0
        assert m.rate(0.25) == pytest.approx(0.25)
        assert m.rate(1.0) == pytest.approx(0.5)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, a, b):
        m = nv.AmplitudeMap(beta_max=0.5, shape="saturating", sat_amp=0.2)
        lo, hi = min(a, b), max(a, b)
        assert m.rate(lo) <= m.rate(hi) + 1e-15

    def test_invalid(self):
        with pytest.raises(ParameterError):
            nv.AmplitudeMap(beta_max=0.0)
        with pytest.raises(ParameterError):
            nv.AmplitudeMap(beta_max=0.5, shape="saturating", sat_amp=0.6)
        with pytest.raises(ParameterError):
            nv.AmplitudeMap(beta_max=0.5, shape="gaussian")


class TestRateMatrix:
    def test_no_pumping_ground_states_absorbing(self, params):
        M = nv.build_rate_matrix(params, 0.0)
        assert np.all(M[:, G0] == 0.0)
        assert np.all(M[:, G1] == 0.0)

    def test_exactly_the_modeled_channels(self, params):
        beta = 0.123
        M = nv.build_rate_matrix(params, beta)
        expected = np.zeros((5, 5))
        expected[E0, G0] = beta
        expected[E1, G1] = beta
        expected[G0, E0] = params.k_rad
        expected[G1, E1] = params.k_rad
        expected[S, E0] = params.k_isc0
        expected[S, E1] = params.k_isc1
        expected[G0, S] = params.k_s0
        expected[G1, S] = params.k_s1
        off_diag = ~np.eye(5, dtype=bool)
        assert np.array_equal(M[off_diag], expected[off_diag])

    @given(beta=st.floats(0.0, 1.0), p=rate_params_strategy())
    @settings(max_examples=50, deadline=None)
    def test_columns_sum_to_zero(self, beta, p):
        M = nv.build_rate_matrix(p, beta)
        assert np.max(np.abs(M.sum(axis=0))) < 1e-15
        off_diag = M[~np.eye(5, dtype=bool)]
        assert np.all(off_diag >= 0.0)

    def test_negative_beta_rejected(self, params):
        with pytest.raises(ParameterError):
            nv.build_rate_matrix(params, -0.1)


def evolve(params, beta, p0, dt):
    """Populations after a square pulse of ``dt`` ns at pumping rate ``beta``."""
    wf = nv.make_constant(dt, beta / params.amp_map.beta_max)
    return nv.propagate_waveform(p0, wf, params)


class TestPropagate:
    def test_dark_ground_state_fixed(self, params):
        p = evolve(params, 0.0, pure_state(G1), 5000.0)
        assert p[G1] == pytest.approx(1.0, abs=1e-12)

    def test_singlet_efolds_at_250ns(self, params):
        p = evolve(params, 0.0, pure_state(S), 250.0)
        assert p[S] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_long_propagation_reaches_steady_state(self, params):
        # independent oracle: null-space solve vs matrix-exponential evolution
        ss = steady_state(nv.build_rate_matrix(params, 0.1))
        p = evolve(params, 0.1, nv.thermal_ground_state(), 10_000.0)
        assert np.max(np.abs(p - ss)) < 1e-6

    @given(a=st.floats(0.0, 10_000.0, exclude_min=True),
           b=st.floats(0.0, 10_000.0, exclude_min=True))
    @settings(max_examples=30, deadline=None)
    def test_semigroup(self, a, b, params):
        p0 = nv.thermal_ground_state()
        p_ab = evolve(params, 0.07, p0, a + b)
        p_two = evolve(params, 0.07, evolve(params, 0.07, p0, a), b)
        assert np.max(np.abs(p_ab - p_two)) < 1e-9

    @given(dt=st.floats(0.0, 10_000.0, exclude_min=True),
           beta=st.floats(0.0, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_conservation_and_positivity(self, dt, beta, params):
        p = evolve(params, beta, pure_state(G1), dt)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= -1e-12)

    def test_subnanosecond_pulse_keeps_its_segment(self, params):
        # 1e-12 ns at beta = 0.5/ns pumps beta * dt of each ground level
        p = evolve(params, 0.5, nv.thermal_ground_state(), 1e-12)
        assert p[E0] == pytest.approx(0.5 * 0.5 * 1e-12, rel=1e-9)

    def test_laser_off_relaxation_splits_singlet(self, params):
        # all population ends in the ground doublet; the share gained from S
        # follows the k_s0:k_s1 branching
        p = evolve(params, 0.0, pure_state(S), 50_000.0)
        assert p[G0] + p[G1] == pytest.approx(1.0, abs=1e-9)
        total = params.k_s0 + params.k_s1
        assert p[G0] == pytest.approx(params.k_s0 / total, abs=1e-9)
        assert p[G1] == pytest.approx(params.k_s1 / total, abs=1e-9)

    def test_domain_errors(self, params):
        with pytest.raises(ParameterError):
            evolve(params, 0.1, nv.thermal_ground_state(), -1.0)
        with pytest.raises(NumericError):
            evolve(params, 0.1, np.array([np.nan, 0, 0, 0, 1.0]), 1.0)


class TestSteadyState:
    def test_residual_small(self, params):
        for beta in (1e-3, 0.05, 0.5):
            M = nv.build_rate_matrix(params, beta)
            p = steady_state(M)
            assert np.max(np.abs(M @ p)) < 1e-10
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0.0)

    def test_excited_share_monotone_in_beta(self, params):
        # derived check: sweep beta on a grid and require monotone growth
        betas = np.linspace(1e-3, 0.5, 40)
        shares = []
        for beta in betas:
            p = steady_state(nv.build_rate_matrix(params, beta))
            shares.append(p[E0] + p[E1])
        assert np.all(np.diff(shares) > 0)

    def test_beta_zero_degenerate(self, params):
        with pytest.raises(DegenerateModelError):
            steady_state(nv.build_rate_matrix(params, 0.0))


class TestEmissionRate:
    def test_pure_ground_dark(self, params):
        assert emission_rate(nv.thermal_ground_state(), params) == 0.0

    def test_direct_product(self, params):
        p = replace(params, k_rad=0.065, eta=0.01)
        pops = np.array([0.9, 0.0, 0.1, 0.0, 0.0])
        assert emission_rate(pops, p) == pytest.approx(6.5e-5, rel=1e-12)

    def test_g0_start_brighter_than_g1(self, params):
        # readout principle: the m_s=0 preparation fluoresces more, first bin
        wf = nv.make_constant(400.0, 0.3)
        tr0 = nv.simulate_pump(pure_state(G0), wf, params, 50.0)
        tr1 = nv.simulate_pump(pure_state(G1), wf, params, 50.0)
        assert (tr0.expected_counts_per_rep[0]
                > tr1.expected_counts_per_rep[0])
