"""Hooke-Jeeves direct search over bounded amplitude vectors.

The search maximizes a black-box objective without gradients.  Each cycle
first adjusts one coordinate at a time by ±alpha (exploratory phase, n to 2n
objective queries), then extrapolates once along the net displacement of the
cycle (pattern move, 1 query).  A cycle without strict improvement shrinks
alpha by the factor rho; the search stops when alpha falls below alpha_min
or the query budget runs out.

Every trial point is clipped into the bounds *before* it is queried, and a
clipped trial that coincides with the incumbent still costs a query: in the
online setting every parameter change is an experiment.

The objective is any callable f(u) -> float, and may keep state between
queries.  Most trials differ from the incumbent in one coordinate, so the
SNR objective keeps its readout chain at the best point it has returned,
the incumbent, and answers such a trial with one block product.  A
stochastic objective keeps its own generator and draws from it once per
query, so with a fixed seed the whole trajectory replays exactly (see
``harness.make_snr_objective``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ObjectiveError, ParameterError
from .waveform import AmplitudeBounds


@dataclass(frozen=True)
class OptimizerConfig:
    """Search hyperparameters.

    A run takes them from the ``olo`` section of ``config.SETTINGS``
    (see ``config.Run.olo``).  ``bounds`` defaults to the whole
    amplitude domain [0, 1].
    """

    alpha0: float
    rho: float
    alpha_min: float
    max_queries: int
    bounds: AmplitudeBounds = field(default_factory=AmplitudeBounds)

    def __post_init__(self) -> None:
        if not (0 < self.alpha_min < self.alpha0):
            raise ParameterError(
                f"need 0 < alpha_min < alpha0, got {self.alpha_min}, {self.alpha0}"
            )
        if not (0 < self.rho < 1):
            raise ParameterError(f"rho must lie in (0, 1), got {self.rho}")
        if self.max_queries < 1:
            raise ParameterError(f"max_queries must be >= 1, got {self.max_queries}")


@dataclass
class QueryRecord:
    """One objective evaluation, in query order."""

    query_index: int
    cycle: int
    u: np.ndarray
    value: float
    alpha: float
    accepted: bool

    def as_dict(self) -> dict:
        return {
            "query_index": self.query_index,
            "cycle": self.cycle,
            "u": np.asarray(self.u, dtype=float).tolist(),
            "value": float(self.value),
            "alpha": float(self.alpha),
            "accepted": bool(self.accepted),
        }


@dataclass
class OptimizerState:
    """Mutable state of one search run, including the full query history.

    ``best`` is the incumbent: a trial replaces it only on strict
    improvement, so it is also the best point queried so far."""

    config: OptimizerConfig
    best: np.ndarray
    best_value: float
    alpha: float
    queries: int = 0
    iterations: int = 0
    cycle: int = 0
    budget_exhausted: bool = False
    history: list[QueryRecord] = field(default_factory=list)


def _query(state: OptimizerState, objective, u: np.ndarray) -> tuple[float, QueryRecord]:
    value = float(objective(u))
    if not math.isfinite(value):
        raise ObjectiveError(f"objective returned {value} at u = {u.tolist()}")
    record = QueryRecord(
        query_index=state.queries, cycle=state.cycle, u=u.copy(),
        value=value, alpha=state.alpha, accepted=False,
    )
    state.queries += 1
    state.history.append(record)
    return value, record


def _budget_left(state: OptimizerState) -> bool:
    if state.queries >= state.config.max_queries:
        state.budget_exhausted = True
        return False
    return True


def exploratory_move(state: OptimizerState, objective) -> OptimizerState:
    """Adjust each coordinate in turn by ±alpha, keeping strict improvements.

    For every coordinate the +alpha trial is queried first; only if it fails
    to strictly improve on the incumbent is the -alpha trial queried.  Costs
    between n and 2n queries for an n-vector.  Returns with
    ``budget_exhausted`` set if the budget runs out mid-phase.
    """
    bounds = state.config.bounds
    for i in range(state.best.size):
        for sign in (+1.0, -1.0):
            if not _budget_left(state):
                return state
            trial = state.best.copy()
            trial[i] = bounds.clip(float(state.best[i]) + sign * state.alpha)
            value, record = _query(state, objective, trial)
            if value > state.best_value:
                record.accepted = True
                state.best = trial
                state.best_value = value
                break
    return state


def pattern_move(state: OptimizerState, base: np.ndarray, objective) -> OptimizerState:
    """Extrapolate once from the cycle's starting point through the incumbent.

    The trial is best + (best - base), clipped into the bounds, and is
    accepted only on strict improvement.  Always costs one query, even when
    the exploratory phase made no progress so the trial equals the incumbent.
    """
    if not _budget_left(state):
        return state
    trial = state.config.bounds.clip(state.best + (state.best - base))
    value, record = _query(state, objective, trial)
    if value > state.best_value:
        record.accepted = True
        state.best = trial
        state.best_value = value
    return state


def hj_optimize(objective, u0, cfg: OptimizerConfig) -> OptimizerState:
    """Run the full search from ``u0`` and return the final state.

    The first query evaluates the starting point; each subsequent cycle is
    an exploratory phase followed by one pattern move (n+1 to 2n+1 queries
    per cycle).  alpha shrinks by rho exactly on cycles whose best value did
    not improve.  The incumbent best-value sequence is non-decreasing and,
    with a deterministic objective, the whole trajectory is a pure function
    of (u0, cfg).
    """
    u0 = np.asarray(u0, dtype=float).ravel().copy()
    if u0.size < 1:
        raise ParameterError("starting point must have at least one coordinate")
    if not cfg.bounds.contains(u0):
        raise ParameterError(
            f"starting point outside bounds [{cfg.bounds.lo}, {cfg.bounds.hi}]: {u0}"
        )
    state = OptimizerState(config=cfg, best=u0.copy(), best_value=-np.inf,
                           alpha=cfg.alpha0)
    value, record = _query(state, objective, u0)
    record.accepted = True
    state.best_value = value

    while state.alpha >= cfg.alpha_min and _budget_left(state):
        state.cycle += 1
        base = state.best.copy()
        value_before = state.best_value
        exploratory_move(state, objective)
        if state.budget_exhausted:
            break
        pattern_move(state, base, objective)
        if state.budget_exhausted:
            break
        state.iterations += 1
        if state.best_value <= value_before:
            state.alpha *= cfg.rho
    return state
