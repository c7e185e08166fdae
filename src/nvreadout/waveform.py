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


@dataclass(frozen=True)
class AmplitudeBounds:
    """Inclusive box limits shared by every piece amplitude.

    The limits lie inside [0, 1], the domain of the amplitude map; the
    default is that whole domain.
    """

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo < self.hi <= 1.0:
            raise ParameterError(
                f"need 0 <= lo < hi <= 1, got [{self.lo}, {self.hi}]")

    def clip(self, u):
        """``u`` clipped into the box as ``np.clip`` clips it (a value equal
        to a limit and NaN come back unchanged); a Python float stays a
        Python float."""
        if isinstance(u, float):
            return self.lo if u < self.lo else self.hi if u > self.hi else u
        return np.clip(u, self.lo, self.hi)

    def contains(self, u) -> bool:
        """Whether every entry of ``u`` lies in the box; NaN never does."""
        u = np.asarray(u, dtype=float)
        return bool(u.size == 0 or (self.lo <= u.min() and u.max() <= self.hi))


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
        if not (np.isfinite(self.duration_ns) and self.duration_ns / amps.size > 0):
            raise ParameterError(
                f"duration must be positive, and its {amps.size} piece(s) "
                f"wider than 0 ns, got {self.duration_ns}")
        if not self.bounds.contains(amps):
            lo, hi = self.bounds.lo, self.bounds.hi
            i = np.flatnonzero((amps < lo) | (amps > hi))[0]
            raise ParameterError(
                f"amplitude {amps[i]} of piece {i} outside [{lo}, {hi}]")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def piece_width_ns(self) -> float:
        return self.duration_ns / self.n


def make_constant(duration_ns: float, amplitude: float) -> PiecewiseWaveform:
    """Square pulse: one piece at ``amplitude``."""
    return PiecewiseWaveform(duration_ns, np.array([float(amplitude)]))
