"""Hooke-Jeeves direct search over bounded amplitude vectors.

The search maximizes a black-box objective without gradients, in the one
loop of :func:`hj_optimize`.  Each cycle first adjusts one coordinate at a
time by ±alpha (exploratory phase, n to 2n objective queries), then
extrapolates once along the net displacement of the cycle (pattern move, 1
query).  One rule judges every query, the first at the starting point
included: it moves the incumbent only on strict improvement, so the
incumbent's value never falls, and the query's record says whether it did.
A cycle without strict improvement shrinks alpha by the factor rho.  The
search stops when alpha falls below alpha_min, checked at each cycle start,
or when the query budget, checked before every query after the first, runs
out.

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

    best: np.ndarray
    best_value: float
    alpha: float
    queries: int = 0
    iterations: int = 0
    cycle: int = 0
    budget_exhausted: bool = False
    history: list[QueryRecord] = field(default_factory=list)


def hj_optimize(objective, u0, cfg: OptimizerConfig) -> OptimizerState:
    """Run the full search from ``u0`` and return the final state.

    The incumbent starts at ``u0`` with value -inf, so the rule that judges
    every query accepts the first, at ``u0``.  Each cycle after it costs
    n+1 to 2n+1 queries.  The alpha floor is checked first at each cycle
    start, so a search that ends on the floor with its budget exactly spent
    reports ``budget_exhausted`` false; a cycle that the budget cuts short
    does not count in ``iterations``.  With a deterministic objective the
    whole trajectory is a pure function of (u0, cfg).
    """
    u0 = np.asarray(u0, dtype=float).ravel().copy()
    if u0.size < 1:
        raise ParameterError("starting point must have at least one coordinate")
    bounds = cfg.bounds
    if not bounds.contains(u0):
        raise ParameterError(
            f"starting point outside bounds [{bounds.lo}, {bounds.hi}]: {u0}")
    state = OptimizerState(best=u0, best_value=-math.inf, alpha=cfg.alpha0)

    def improves(u: np.ndarray) -> bool:
        value = float(objective(u))
        if not math.isfinite(value):
            raise ObjectiveError(f"objective returned {value} at u = {u.tolist()}")
        accepted = value > state.best_value
        state.history.append(QueryRecord(
            query_index=state.queries, cycle=state.cycle, u=u.copy(),
            value=value, alpha=state.alpha, accepted=accepted))
        state.queries += 1
        if accepted:
            state.best, state.best_value = u, value
        return accepted

    def budget_left() -> bool:
        state.budget_exhausted = state.queries >= cfg.max_queries
        return not state.budget_exhausted

    improves(u0)
    while state.alpha >= cfg.alpha_min and budget_left():
        state.cycle += 1
        base, value_before = state.best, state.best_value
        # exploratory phase: each coordinate by +alpha, and by -alpha only
        # where +alpha fails
        for i in range(u0.size):
            for sign in (1.0, -1.0):
                if not budget_left():
                    return state
                trial = state.best.copy()
                trial[i] = bounds.clip(float(trial[i]) + sign * state.alpha)
                if improves(trial):
                    break
        # pattern move: one query, even where it lands on the incumbent
        if not budget_left():
            return state
        improves(bounds.clip(state.best + (state.best - base)))
        state.iterations += 1
        if state.best_value <= value_before:
            state.alpha *= cfg.rho
    return state
