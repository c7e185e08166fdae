"""Scalar figures of merit for spin readout.

``snr`` and ``contrast`` operate on window photon totals of the two spin
preparations; the sinusoid fit, a coarse-to-fine scan over frequency,
quantifies how cleanly Rabi data sit on the expected oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, UndefinedMetricError


def snr(L0, L1):
    """Readout signal-to-noise ratio (L0 - L1) / sqrt(L0 + L1).

    L0 and L1 are total detected photons in the detection window, summed
    over the same number of repetitions for each spin preparation.  Scalars
    or equal-shape arrays; arrays give the scalar values elementwise.
    """
    total = L0 + L1
    if np.any(total <= 0):
        raise UndefinedMetricError(f"SNR undefined for L0 + L1 = {total}")
    return (L0 - L1) / np.sqrt(total)


def contrast(L0, L1):
    """Relative fluorescence difference (L0 - L1) / L0, scalar or elementwise."""
    if np.any(L0 <= 0):
        raise UndefinedMetricError(f"contrast undefined for L0 = {L0}")
    return (L0 - L1) / L0


@dataclass(frozen=True)
class SinusoidFit:
    """Least-squares fit of y = offset + amplitude * cos(omega * t + phase)."""

    offset: float
    amplitude: float          # >= 0
    omega: float              # rad/ns
    phase: float              # rad, in [-pi, pi)
    residual_norm: float      # ||y - fit(t)||_2

    def predict(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return self.offset + self.amplitude * np.cos(self.omega * ts + self.phase)


def _linear_fit_at(omega: float, ts: np.ndarray, ys: np.ndarray):
    """Least-squares (offset, cos, sin) coefficients and residual at fixed omega."""
    design = np.column_stack([np.ones_like(ts), np.cos(omega * ts), np.sin(omega * ts)])
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.linalg.norm(ys - design @ coef))
    return coef, residual


_GRID_BLOCK = 256          # frequencies per block of (block, n) arrays
_ILL_CONDITIONED = 1e-8    # determinant / n² below which lstsq takes over
_OVERSAMPLE = 24           # frequency grid points per 2π/span
_COARSE = 6                # grid points per step of the coarse scan
FIT_MIN_SAMPLES = 8        # fewest samples fit_sinusoid accepts


def _grid_residuals(ws: np.ndarray, ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Squared least-squares residuals on {1, cos(wt), sin(wt)} at each
    frequency ``w`` in ``ws``.

    The 3x3 normal equations of each frequency are built from ``C @ y``,
    ``S @ y`` and row sums, with the offset eliminated, so a block of
    ``_GRID_BLOCK`` frequencies costs one (block, n) cos and sin table and a
    few array products.  Frequencies where cos and sin barely span two
    dimensions on the samples (sin vanishes at the Nyquist limit) fall back
    to :func:`_linear_fit_at`.
    """
    n = ts.size
    yc = ys - ys.mean()
    out = np.empty(ws.size)
    for first in range(0, ws.size, _GRID_BLOCK):
        w = ws[first:first + _GRID_BLOCK]
        angles = np.outer(w, ts)
        C, S = np.cos(angles), np.sin(angles)
        c_sum, s_sum = C.sum(axis=1), S.sum(axis=1)
        cc = np.einsum("ij,ij->i", C, C) - c_sum**2 / n
        ss = np.einsum("ij,ij->i", S, S) - s_sum**2 / n
        cs = np.einsum("ij,ij->i", C, S) - c_sum * s_sum / n
        cy, sy = C @ yc, S @ yc
        det = cc * ss - cs**2
        ok = det > _ILL_CONDITIONED * n**2
        with np.errstate(divide="ignore", invalid="ignore"):
            explained = (ss * cy**2 - 2.0 * cs * cy * sy + cc * sy**2) / det
        res2 = yc @ yc - explained
        for i in np.flatnonzero(~ok):
            res2[i] = _linear_fit_at(w[i], ts, ys)[1] ** 2
        out[first:first + w.size] = res2
    return out


def _golden_section(f, a: float, b: float, xatol: float):
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


def fit_sinusoid(ts, ys) -> SinusoidFit:
    """Fit a single sinusoid by a coarse-to-fine search over frequency.

    For each trial frequency the remaining parameters are solved linearly on
    the basis {1, cos(wt), sin(wt)}.  The grid runs from one period per span
    to the Nyquist limit of the closest samples at ``_OVERSAMPLE`` points per
    2π/span; every ``_COARSE``-th point is scanned, then the points within
    one coarse step of the best, and golden-section search of the residual
    polishes the best grid point between its two neighbours.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if ts.size != ys.size:
        raise FitError(f"length mismatch: {ts.size} times vs {ys.size} values")
    if ts.size < FIT_MIN_SAMPLES:
        raise FitError(f"need at least {FIT_MIN_SAMPLES} samples, got {ts.size}")
    span = float(ts.max() - ts.min())
    if span <= 0:
        raise FitError("degenerate time axis: all sample times equal")
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ys))):
        raise FitError("non-finite samples")

    dt_min = float(np.min(np.diff(np.sort(ts))))
    if dt_min <= 0:
        dt_min = span / (ts.size - 1)
    # at least FIT_MIN_SAMPLES = 8 samples make the span at least 7 * dt_min,
    # so lo < hi
    lo, hi = 2.0 * np.pi / span, np.pi / dt_min

    step = 2.0 * np.pi / (span * _OVERSAMPLE)
    grid = np.arange(lo, hi + step, step)
    # cut the arange's overshoot; the Nyquist point can sit ulps above hi
    grid = grid[grid <= hi + 0.5 * step]
    j = _COARSE * int(np.argmin(_grid_residuals(grid[::_COARSE], ts, ys)))
    near = slice(max(j - _COARSE, 0), j + _COARSE + 1)
    i_best = near.start + int(np.argmin(_grid_residuals(grid[near], ts, ys)))

    omega = float(grid[i_best])
    w_lo = grid[max(i_best - 1, 0)]
    w_hi = grid[min(i_best + 1, grid.size - 1)]
    if w_hi > w_lo:
        def residual_at(w):
            return _linear_fit_at(w, ts, ys)[1]
        w_polished, r_polished = _golden_section(residual_at, w_lo, w_hi,
                                                 step * 1e-8)
        if r_polished <= residual_at(omega):
            omega = float(w_polished)

    coef, residual = _linear_fit_at(omega, ts, ys)
    offset, c, s = coef
    amplitude = float(np.hypot(c, s))
    # y = A + c*cos(wt) + s*sin(wt) = A + B*cos(wt + phi) with c = B cos(phi),
    # s = -B sin(phi)
    phase = float(np.arctan2(-s, c))
    if phase >= np.pi:
        phase -= 2.0 * np.pi
    return SinusoidFit(offset=float(offset), amplitude=amplitude, omega=omega,
                       phase=phase, residual_norm=residual)


def mean_deviation(ys, fit: SinusoidFit, ts) -> float:
    """Mean absolute residual between data and a fitted sinusoid."""
    ys = np.asarray(ys, dtype=float).ravel()
    ts = np.asarray(ts, dtype=float).ravel()
    if ys.size != ts.size:
        raise FitError(f"length mismatch: {ts.size} times vs {ys.size} values")
    return float(np.mean(np.abs(ys - fit.predict(ts))))


SINUSOID_FIT_PARAMS = 4   # offset, cos and sin coefficients, omega


def expected_mean_deviation(expected) -> float:
    """Expected ``mean_deviation`` of Poisson counts about their sinusoid fit.

    ``expected`` holds the Poisson means mu_k of the window totals on an
    exact sinusoid; the data are the counts normalized to their maximum.
    To leading order in 1/sqrt(mu) each normalized residual is Gaussian
    with standard deviation sqrt(mu_k) / max(mu), its absolute value has
    mean sqrt(2/pi) times that, and the fit's four parameters absorb a
    share 4/n of the variance of the n residuals:

        sqrt(2/pi) * sqrt((n - 4) / n) * mean_k sqrt(mu_k) / max_k mu_k

    Terms of higher order (fluctuation of the normalizing maximum,
    non-Gaussian tails) are dropped; they matter only at counts of order
    1e2 per point, where the value reads about 10 % high.
    """
    mu = np.asarray(expected, dtype=float).ravel()
    n = mu.size
    ref = mu.max(initial=0.0)
    if n <= SINUSOID_FIT_PARAMS or ref <= 0:
        raise UndefinedMetricError(
            f"expected mean deviation undefined for {n} samples, max {ref}")
    dof = (n - SINUSOID_FIT_PARAMS) / n
    return float(np.sqrt(2.0 / np.pi * dof) * np.mean(np.sqrt(mu)) / ref)
