"""Five-level rate-equation model of NV⁻ optical pumping.

The model keeps two ground sublevels (m_s=0 and the merged m_s=±1 pair),
their two optically excited counterparts, and the metastable singlet shelf.
A laser pumps each ground level to its excited partner at a rate ``beta``
(spin conserved); the excited levels decay radiatively back down or cross
over non-radiatively into the singlet, which empties into the ground
manifold with a strong preference for m_s=0.  Spin contrast in fluorescence
comes entirely from the m_s=±1 excited level crossing over more strongly.

Populations are plain length-5 numpy vectors ordered by :class:`Level`.
Rate matrices ``M`` are 5x5 generators with the convention ``dp/dt = M @ p``
(columns sum to zero), so ``p(t) = expm(M t) @ p(0)`` for a constant drive.
This module only states the model; time evolution is ``pumpsim``'s, whose
``expm``, a stacked Padé exponential in numpy, is the package's only matrix
exponential: ``_build_blocks`` calls it for every batch of blocks.

All rates are in 1/ns and all times in ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import NumericError, ParameterError

N_LEVELS = 5
MAP_SHAPES = ("linear", "saturating")


class Level(IntEnum):
    """Fixed ordering of the five model levels inside population vectors."""

    G0 = 0  # ground, m_s = 0
    G1 = 1  # ground, m_s = ±1 (merged)
    E0 = 2  # excited, m_s = 0
    E1 = 3  # excited, m_s = ±1 (merged)
    S = 4   # metastable singlet shelf


@dataclass(frozen=True)
class AmplitudeMap:
    """Map from normalized drive amplitude u ∈ [0, 1] to pumping rate (1/ns).

    The map is monotone non-decreasing with ``rate(0) = 0`` and
    ``rate(1) = beta_max``.  ``shape="linear"`` is the default; the
    ``"saturating"`` shape reaches half of ``beta_max`` at ``sat_amp`` and
    models a drive chain that compresses at high amplitude.
    """

    beta_max: float
    shape: str = "linear"
    sat_amp: float | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.beta_max) or self.beta_max <= 0:
            raise ParameterError(f"beta_max must be positive, got {self.beta_max}")
        if self.shape not in MAP_SHAPES:
            raise ParameterError(f"unknown amplitude map shape {self.shape!r}")
        if self.shape == "saturating":
            if self.sat_amp is None or not (0.0 < self.sat_amp < 0.5):
                raise ParameterError(
                    "saturating map needs sat_amp in (0, 0.5), got "
                    f"{self.sat_amp}"
                )

    def rate(self, amplitude):
        """Pumping rate for a scalar or array of amplitudes in [0, 1]."""
        u = np.asarray(amplitude, dtype=float)
        if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
            raise ParameterError("amplitude outside [0, 1]")
        u = np.clip(u, 0.0, 1.0)
        if self.shape == "linear":
            beta = self.beta_max * u
        else:
            # c chosen so that rate(sat_amp) = beta_max / 2 and rate(1) = beta_max
            c = self.sat_amp / (1.0 - 2.0 * self.sat_amp)
            beta = self.beta_max * u * (1.0 + c) / (u + c)
        return float(beta) if np.isscalar(amplitude) else beta


@dataclass(frozen=True)
class RateParams:
    """Transition rates, collection efficiency, and the drive-to-rate map.

    The values of a run come from the ``photophysics`` section of
    ``config.SETTINGS`` (see ``config.Run.params``), which
    holds the usual room-temperature ordering of the NV⁻ kinetics: m_s=±1
    crosses into the singlet much faster than m_s=0, and the singlet
    returns preferentially to m_s=0.

    Attributes
    ----------
    k_rad : float
        Radiative decay rate E→G, spin conserving (1/ns).
    k_isc0, k_isc1 : float
        Intersystem-crossing rates E0→S and E1→S (1/ns); ``k_isc1 > k_isc0``.
    k_s0, k_s1 : float
        Singlet decay rates S→G0 and S→G1 (1/ns); ``k_s0 > k_s1``.
    eta : float
        Detected photons per radiative decay, in (0, 1].
    amp_map : AmplitudeMap
        Conversion from waveform amplitude to pumping rate.
    propagators : dict
        The run's propagator table, ``(beta, dt) -> (6, 5)`` block, filled
        by ``pumpsim``; its length is the number of propagators built.
    generator : tuple
        ``(M(0), M(1) - M(0))``, built once from the rates: the generator at
        pumping rate beta is ``M(0) + beta (M(1) - M(0))``.
    """

    k_rad: float
    k_isc0: float
    k_isc1: float
    k_s0: float
    k_s1: float
    eta: float
    amp_map: AmplitudeMap
    propagators: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)
    generator: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rates = (self.k_rad, self.k_isc0, self.k_isc1, self.k_s0, self.k_s1)
        if any(not np.isfinite(k) or k < 0 for k in rates):
            raise ParameterError(f"all rates must be finite and >= 0, got {rates}")
        if not (0.0 < self.eta <= 1.0):
            raise ParameterError(f"eta must lie in (0, 1], got {self.eta}")
        if not self.k_isc1 > self.k_isc0:
            raise ParameterError("k_isc1 must exceed k_isc0 (spin contrast)")
        if not self.k_s0 > self.k_s1:
            raise ParameterError("k_s0 must exceed k_s1 (singlet favors m_s=0)")
        M0 = build_rate_matrix(self, 0.0)
        dM = build_rate_matrix(self, 1.0) - M0
        M0.setflags(write=False)
        dM.setflags(write=False)
        object.__setattr__(self, "generator", (M0, dM))

    @property
    def singlet_lifetime_ns(self) -> float:
        return 1.0 / (self.k_s0 + self.k_s1)


def thermal_ground_state() -> np.ndarray:
    """Unpolarized room-temperature ground doublet: G0 = G1 = 1/2."""
    p = np.zeros(N_LEVELS)
    p[Level.G0] = p[Level.G1] = 0.5
    return p


def check_populations(p: np.ndarray) -> np.ndarray:
    """Validate a population vector, or one vector per column of a (5, k)
    array; returns it as a float array."""
    p = np.asarray(p, dtype=float)
    if p.shape[:1] != (N_LEVELS,) or p.ndim > 2:
        raise ParameterError(
            f"populations must have shape ({N_LEVELS},) or ({N_LEVELS}, k), got {p.shape}")
    if not np.isfinite(p).all():
        raise NumericError("population vector contains non-finite entries")
    if p.min() < -1e-12 or p.max() > 1.0 + 1e-12:
        raise ParameterError(f"population entries outside [0, 1]: {p}")
    sums = p.sum(axis=0)
    if np.abs(sums - 1.0).max() > 1e-9:
        raise ParameterError(f"populations sum to {sums}, expected 1")
    return p


def build_rate_matrix(params: RateParams, beta: float) -> np.ndarray:
    """Generator matrix for pumping rate ``beta`` (1/ns).

    Encodes exactly the five-level optical cycle: spin-conserving pumping
    G0→E0 and G1→E1 at ``beta``, radiative decay E→G at ``k_rad``,
    intersystem crossing E0→S / E1→S, and singlet decay S→G0 / S→G1.
    Columns sum to zero exactly.
    """
    if not np.isfinite(beta) or beta < 0:
        raise ParameterError(f"pumping rate must be finite and >= 0, got {beta}")
    G0, G1, E0, E1, S = Level.G0, Level.G1, Level.E0, Level.E1, Level.S
    M = np.zeros((N_LEVELS, N_LEVELS))
    M[E0, G0] = beta
    M[E1, G1] = beta
    M[G0, E0] = params.k_rad
    M[G1, E1] = params.k_rad
    M[S, E0] = params.k_isc0
    M[S, E1] = params.k_isc1
    M[G0, S] = params.k_s0
    M[G1, S] = params.k_s1
    # diagonal balances each column exactly, so column sums are 0 by construction
    np.fill_diagonal(M, 0.0)
    M[np.diag_indices(N_LEVELS)] = -M.sum(axis=0)
    return M
