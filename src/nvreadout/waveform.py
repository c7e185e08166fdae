"""Piecewise-constant laser waveforms.

A waveform is a fixed total duration split into n equal-width pieces, each
carrying one dimensionless drive amplitude.  The optimizer treats the
amplitude vector as its decision variable; the duration never changes while
a waveform is being optimized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .photophysics import AmplitudeMap


@dataclass(frozen=True)
class AmplitudeBounds:
    """Inclusive box limits shared by every piece amplitude."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ParameterError("bounds must be finite")
        if not self.lo < self.hi:
            raise ParameterError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def clip(self, u):
        return np.clip(u, self.lo, self.hi)

    def contains(self, u, tol: float = 0.0) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.lo - tol) and np.all(u <= self.hi + tol))


@dataclass(frozen=True)
class PiecewiseWaveform:
    """n equal-duration pieces with per-piece amplitudes inside ``bounds``."""

    duration_ns: float
    amplitudes: np.ndarray
    bounds: AmplitudeBounds = field(default_factory=AmplitudeBounds)

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=float).ravel()
        if amps.size < 1:
            raise ParameterError("waveform needs at least one piece")
        if not np.all(np.isfinite(amps)):
            raise ParameterError("amplitudes must be finite")
        if not (np.isfinite(self.duration_ns) and self.duration_ns > 0):
            raise ParameterError(f"duration must be positive, got {self.duration_ns}")
        if not self.bounds.contains(amps):
            raise ParameterError(
                f"amplitudes outside [{self.bounds.lo}, {self.bounds.hi}]: {amps}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def piece_width_ns(self) -> float:
        return self.duration_ns / self.n


def make_constant(duration_ns: float, amplitude: float, n: int = 1,
                  bounds: AmplitudeBounds | None = None) -> PiecewiseWaveform:
    """Constant-amplitude waveform; with n=1 this is the plain square pulse."""
    if int(n) != n or n < 1:
        raise ParameterError(f"piece count must be a positive integer, got {n}")
    bounds = bounds if bounds is not None else AmplitudeBounds()
    return PiecewiseWaveform(duration_ns, np.full(int(n), float(amplitude)), bounds)


def rates_of(wf: PiecewiseWaveform, amp_map: AmplitudeMap) -> list[tuple[float, float]]:
    """Per-piece ``(width_ns, pumping_rate)`` segments for a waveform."""
    width = wf.piece_width_ns
    betas = amp_map.rate(wf.amplitudes)
    return [(width, float(b)) for b in betas]
