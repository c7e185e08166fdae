"""Scalar figures of merit for spin readout.

``snr`` and ``contrast`` operate on readout photon totals of the two spin
preparations; the sinusoid fit, a coarse-to-fine scan over frequency,
quantifies how cleanly Rabi data sit on the expected oscillation.  Each
stage of the scan scores an arithmetic progression of frequencies, and the
sums its normal equations need factor into one product of two small tables
of complex exponentials, so no (frequencies, samples) table is ever built;
curves sampled at the same times share those tables.  Brent's method then
polishes the best frequency, solving the same normal equations at one
frequency per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, UndefinedMetricError


def snr(L0, L1):
    """Readout signal-to-noise ratio (L0 - L1) / sqrt(L0 + L1).

    L0 and L1 are total detected photons over the readout pulse, summed
    over the same number of repetitions for each spin preparation.  Scalars
    or equal-shape arrays; arrays give the scalar values elementwise.  A
    pair of floats, as each OLO query scores, skips numpy's dispatch.
    """
    total = L0 + L1
    if isinstance(total, float):
        undefined, root = total <= 0, math.sqrt
    else:
        undefined, root = np.any(total <= 0), np.sqrt
    if undefined:
        raise UndefinedMetricError(f"SNR undefined for L0 + L1 = {total}")
    return (L0 - L1) / root(total)


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
    """Least-squares (offset, cos, sin) coefficients and residual at fixed
    omega by ``lstsq``: the fallback where cos and sin barely span two
    dimensions on the samples and the normal equations lose their accuracy."""
    design = np.column_stack([np.ones_like(ts), np.cos(omega * ts), np.sin(omega * ts)])
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.linalg.norm(ys - design @ coef))
    return coef, residual


_ILL_CONDITIONED = 1e-8    # determinant / n² below which lstsq takes over
_OVERSAMPLE = 24           # frequency grid points per 2π/span
_COARSE = 6                # grid points per step of the coarse scan
FIT_MIN_SAMPLES = 8        # fewest samples fit_sinusoid accepts


def _fit_at(omega: float, ts: np.ndarray, ys: np.ndarray):
    """Least-squares (offset, cos, sin) coefficients and residual norm at one
    frequency, from the normal equations of the basis {1, cos, sin}.

    The Gram matrix of the basis and its product with ``ys`` take two small
    matrix products; with the offset eliminated, the 2x2 system left in the
    cos and sin coefficients is the one :func:`_grid_residuals` solves for
    a whole progression of frequencies.  The residual norm is that of the
    residual vector, so it stays at rounding level on a noiseless curve.
    """
    basis = np.empty((3, ts.size))
    basis[0] = 1.0
    wt = omega * ts
    np.cos(wt, out=basis[1])
    np.sin(wt, out=basis[2])
    (n, s_c, s_s), (_, s_cc, s_cs), (_, _, s_ss) = (basis @ basis.T).tolist()
    s_y, s_cy, s_sy = (basis @ ys).tolist()
    cc = s_cc - s_c * s_c / n
    ss = s_ss - s_s * s_s / n
    cs = s_cs - s_c * s_s / n
    cy = s_cy - s_c * s_y / n
    sy = s_sy - s_s * s_y / n
    det = cc * ss - cs * cs
    if not det > _ILL_CONDITIONED * n * n:
        return _linear_fit_at(omega, ts, ys)
    c = (ss * cy - cs * sy) / det
    s = (cc * sy - cs * cy) / det
    coef = np.array([(s_y - c * s_c - s * s_s) / n, c, s])
    return coef, float(np.linalg.norm(ys - coef @ basis))


def _grid_residuals(w0: float, dw: float, count: int, ts: np.ndarray,
                    ys: np.ndarray) -> np.ndarray:
    """Squared least-squares residuals on {1, cos(wt), sin(wt)} of each row
    of ``ys`` (k, n) at each of the ``count`` frequencies
    ``w_k = w0 + k dw``, as a (k, count) array.

    The 3x3 normal equations of each frequency, with the offset eliminated,
    need the sums of y e^{iwt}, of e^{iwt} and of e^{2iwt} (whose real and
    imaginary parts give the sums of cos², sin² and cos·sin).  Splitting
    k = a B + b with B about sqrt(count) factors e^{i w_k t} into
    e^{i (w0 + a B dw) t} e^{i b dw t}, so each of these sums over the
    samples is one entry of a product of a (count / B, n) table and a
    (B, n) table: about 2 sqrt(count) n exponentials, and no (count, n)
    array.  The tables and the sums that do not involve y serve every row;
    the sums of y e^{iwt} are formed one row at a time.  The times ``ts``
    may be spaced arbitrarily.  Frequencies where cos and sin barely span
    two dimensions on the samples (sin vanishes at the Nyquist limit) fall
    back to :func:`_linear_fit_at`.
    """
    n = ts.size
    width = int(np.ceil(np.sqrt(count)))
    rows = -(-count // width)
    outer = np.exp(1j * np.outer(w0 + width * dw * np.arange(rows), ts))
    inner = np.exp(1j * np.outer(dw * np.arange(width), ts))
    # each (rows, width) block of sums, raveled, is in frequency order.
    # einsum, not matmul: a BLAS product this small gains nothing from
    # threads, and a threaded one stalled whole fits by 10-20 ms on a busy
    # 2-vCPU host
    e_1 = np.einsum("ik,jk->ij", outer, inner).ravel()[:count]
    e_2 = np.einsum("ik,jk->ij", outer * outer, inner * inner).ravel()[:count]
    cc = 0.5 * (n + e_2.real) - e_1.real**2 / n
    ss = 0.5 * (n - e_2.real) - e_1.imag**2 / n
    cs = 0.5 * e_2.imag - e_1.real * e_1.imag / n
    det = cc * ss - cs**2
    res2 = np.empty((len(ys), count))
    for row, y in zip(res2, ys):
        yc = y - y.mean()
        e_y = np.einsum("ik,jk->ij", outer * yc, inner).ravel()[:count]
        cy, sy = e_y.real, e_y.imag
        with np.errstate(divide="ignore", invalid="ignore"):
            explained = (ss * cy**2 - 2.0 * cs * cy * sy + cc * sy**2) / det
        row[:] = yc @ yc - explained
    for k in np.flatnonzero(~(det > _ILL_CONDITIONED * n**2)):
        res2[:, k] = [_linear_fit_at(w0 + k * dw, ts, y)[1] ** 2 for y in ys]
    return res2


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_EPS = np.finfo(float).eps


def _brent(f, a: float, b: float, x: float, xatol: float) -> float:
    """Minimiser of ``f`` on [a, b] to within about ``xatol``, by Brent's
    method started from ``x`` in [a, b].

    Each step fits a parabola through the three best points so far and
    takes its vertex, or a golden-section step where that vertex falls
    outside the bracket or the steps stop shrinking (Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 5).  The point kept
    only ever moves to one no worse, so ``f`` at the result is at most
    ``f(x)``.
    """
    fx = f(x)
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = _EPS * abs(x) + xatol / 3.0
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _polished_fit(grid: np.ndarray, step: float, j: int, ts: np.ndarray,
                  ys: np.ndarray) -> SinusoidFit:
    """The fit of one curve whose coarse scan picked point ``j`` of the
    frequency grid of spacing ``step``.

    The best of the grid points within one coarse step of ``j`` is polished
    by :func:`_brent` on the squared residual between its two neighbours,
    to within ``step * 1e-8``.  The search starts from that grid point and
    keeps a point only if it is no worse, so the polished frequency never
    fits worse than the grid's.
    """
    first = max(j - _COARSE, 0)
    near = grid[first:j + _COARSE + 1]
    i_best = first + int(np.argmin(_grid_residuals(near[0], step, near.size,
                                                   ts, ys[None])[0]))
    omega = float(grid[i_best])
    w_lo = float(grid[max(i_best - 1, 0)])
    w_hi = float(grid[min(i_best + 1, grid.size - 1)])
    omega = _brent(lambda w: _fit_at(w, ts, ys)[1] ** 2, w_lo, w_hi, omega,
                   step * 1e-8)

    coef, residual = _fit_at(omega, ts, ys)
    offset, c, s = coef
    amplitude = float(np.hypot(c, s))
    # y = A + c*cos(wt) + s*sin(wt) = A + B*cos(wt + phi) with c = B cos(phi),
    # s = -B sin(phi)
    phase = float(np.arctan2(-s, c))
    if phase >= np.pi:
        phase -= 2.0 * np.pi
    return SinusoidFit(offset=float(offset), amplitude=amplitude, omega=omega,
                       phase=phase, residual_norm=residual)


def fit_sinusoid(ts, ys) -> SinusoidFit | list[SinusoidFit]:
    """Fit a single sinusoid by a coarse-to-fine search over frequency.

    For each trial frequency the remaining parameters are solved linearly on
    the basis {1, cos(wt), sin(wt)}.  The grid runs from one period per span
    to the Nyquist limit of the closest samples at ``_OVERSAMPLE`` points per
    2π/span; every ``_COARSE``-th point is scanned, then the points within
    one coarse step of the best, and Brent's method on the residual of
    :func:`_fit_at` polishes the best grid point between its two
    neighbours.  Both scans are progressions ``w0 + k dw`` that
    :func:`_grid_residuals` scores from its factored exponential tables;
    the grid array itself only supplies the chosen frequency and the polish
    bounds.

    ``ys`` of shape (k, n) holds k curves sampled at the same ``ts``; the
    coarse scan then builds its tables once for all of them, and the result
    is a list of k fits, each equal to the fit of its row alone.  Any other
    ``ys`` is flattened to one curve and gives one fit.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float)
    batch = ys.ndim == 2
    curves = ys if batch else ys.reshape(1, -1)
    if ts.size != curves.shape[1]:
        raise FitError(f"length mismatch: {ts.size} times vs {curves.shape[1]} values")
    if ts.size < FIT_MIN_SAMPLES:
        raise FitError(f"need at least {FIT_MIN_SAMPLES} samples, got {ts.size}")
    span = float(ts.max() - ts.min())
    if span <= 0:
        raise FitError("degenerate time axis: all sample times equal")
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(curves))):
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
    coarse = -(-grid.size // _COARSE)
    scores = _grid_residuals(lo, _COARSE * step, coarse, ts, curves)
    fits = [_polished_fit(grid, step, _COARSE * int(np.argmin(row)), ts, y)
            for row, y in zip(scores, curves)]
    return fits if batch else fits[0]


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

    ``expected`` holds the Poisson means mu_k of the readout totals on an
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
