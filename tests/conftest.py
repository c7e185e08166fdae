import numpy as np
import pytest

import nvreadout as nv
from nvreadout.config import load_config
from nvreadout.errors import NumericError, NVReadoutError
from nvreadout.io import (OLO_SUMMARY, olo_summary_dict, write_json,
                          write_waveform_csv)
from nvreadout.photophysics import N_LEVELS, Level, RateParams, check_populations


# Oracles of the rate model that only the tests use.

class DegenerateModelError(NVReadoutError):
    """The rate model has no unique stationary state (e.g. laser off)."""


def pure_state(level: Level | int) -> np.ndarray:
    """Population vector with all weight on one level."""
    p = np.zeros(N_LEVELS)
    p[int(level)] = 1.0
    return p


def steady_state(M: np.ndarray) -> np.ndarray:
    """Stationary population vector of an irreducible generator.

    Solves ``M p = 0`` with the normalization Σp = 1 by replacing the last
    (redundant) row of the singular generator with the normalization row.
    Requires a positive pumping rate; with the laser off the chain splits
    into absorbing ground states and has no unique stationary vector.
    """
    if M[Level.E0, Level.G0] <= 0.0 or M[Level.E1, Level.G1] <= 0.0:
        raise DegenerateModelError(
            "steady state undefined for beta = 0 (reducible chain)"
        )
    A = M.copy()
    A[-1, :] = 1.0
    b = np.zeros(N_LEVELS)
    b[-1] = 1.0
    p = np.linalg.solve(A, b)
    if np.any(p < -1e-12):
        raise NumericError(f"steady-state solve produced negative entries: {p}")
    p = np.maximum(p, 0.0)
    p /= p.sum()
    residual = np.max(np.abs(M @ p))
    if residual >= 1e-10:
        raise NumericError(f"steady-state residual too large: {residual:.3e}")
    return p


def load_olo_scheme(olo, out, repetitions: float):
    """The OLO scheme of the OLO run ``olo`` at ``rabi.repetitions``, as the
    rabi command loads it from the files the optimize command writes into
    the directory ``out``."""
    write_waveform_csv(olo.waveform, out / "olo_waveform.csv")
    write_json(out / OLO_SUMMARY, olo_summary_dict(olo))
    return load_config(None, [f"rabi.olo_waveform={out / 'olo_waveform.csv'}",
                              f"rabi.repetitions={repetitions!r}"]).olo_scheme


def emission_rate(p: np.ndarray, params: RateParams) -> float:
    """Detected-photon rate (1/ns) for the given populations."""
    p = check_populations(p)
    return params.eta * params.k_rad * (p[Level.E0] + p[Level.E1])


@pytest.fixture(scope="session")
def run():
    """The default run, as every CLI command loads it."""
    return load_config()


@pytest.fixture(scope="session")
def params(run):
    return run.params


@pytest.fixture(scope="session")
def base_seq(run):
    return run.sequence


@pytest.fixture(scope="session")
def sweep_snr(run, params):
    """Default 20x20 traversal grid, SNR metric (the constant-scheme baseline)."""
    return nv.run_sweep(run.baseline_snr, params)


@pytest.fixture(scope="session")
def sweep_contrast(run, params):
    return nv.run_sweep(run.baseline_contrast, params)


@pytest.fixture(scope="session")
def olo_spec(run):
    return run.olo


@pytest.fixture(scope="session")
def olo_result(olo_spec, sweep_snr):
    return nv.run_olo(olo_spec, baseline=sweep_snr)
