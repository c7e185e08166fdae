import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvreadout as nv
from nvreadout.errors import ObjectiveError, ParameterError


def quadratic(center):
    center = np.asarray(center, dtype=float)
    return lambda u: -float(np.sum((u - center) ** 2))


def cfg(**kw):
    defaults = dict(alpha0=0.2, rho=0.5, alpha_min=1e-3, max_queries=100_000)
    defaults.update(kw)
    return nv.OptimizerConfig(**defaults)


def per_cycle_counts(state):
    counts = {}
    for rec in state.history:
        if rec.cycle > 0:
            counts[rec.cycle] = counts.get(rec.cycle, 0) + 1
    return counts


class TestExploratoryMove:
    def test_separable_quadratic_moves_every_coordinate(self):
        # alpha smaller than the distance to the optimum: each coordinate
        # steps toward it by exactly alpha in the first phase
        state = nv.hj_optimize(quadratic(0.6 * np.ones(5)),
                               0.2 * np.ones(5),
                               cfg(max_queries=6))  # initial + one phase
        assert np.allclose(state.best, 0.4 * np.ones(5))
        assert state.queries == 6

    def test_clipped_trial_still_costs_a_query(self):
        # incumbent at the upper bound, improvement only upward
        increasing = lambda u: float(np.sum(u))
        state = nv.hj_optimize(increasing, np.array([1.0]),
                               cfg(alpha0=0.1, max_queries=3))
        # query 0: start; query 1: +alpha clipped to 1.0 (no move);
        # query 2: -alpha (worse, no move)
        assert state.queries == 3
        assert state.best[0] == 1.0
        assert not state.history[1].accepted
        assert state.history[1].u[0] == 1.0

    def test_constant_objective_never_moves(self):
        n = 4
        state = nv.hj_optimize(lambda u: 1.0, np.full(n, 0.5),
                               cfg(max_queries=1 + 2 * n))
        assert np.all(state.best == 0.5)
        # every coordinate tried both directions
        assert state.queries == 1 + 2 * n


class TestPatternMove:
    def test_no_gain_pattern_is_a_noop_query(self):
        n = 3
        state = nv.hj_optimize(lambda u: 1.0, np.full(n, 0.5),
                               cfg(max_queries=1 + 2 * n + 1))
        last = state.history[-1]
        assert last.cycle == 1
        assert np.allclose(last.u, 0.5)
        assert not last.accepted
        assert state.queries == 1 + 2 * n + 1

    def test_linear_objective_accepts_extrapolation(self):
        increasing = lambda u: float(np.sum(u))
        state = nv.hj_optimize(increasing, np.array([0.1, 0.1]),
                               cfg(alpha0=0.2, max_queries=4))
        # exploratory moved to (0.3, 0.3); pattern doubles to (0.5, 0.5)
        assert np.allclose(state.best, [0.5, 0.5])
        assert state.history[-1].accepted

    def test_out_of_bounds_trial_is_clipped(self):
        increasing = lambda u: float(np.sum(u))
        state = nv.hj_optimize(increasing, np.array([0.7]),
                               cfg(alpha0=0.2, max_queries=3))
        # exploratory: 0.9; pattern 1.1 -> clipped to 1.0
        assert state.history[-1].u[0] == 1.0
        assert state.best[0] == 1.0


class TestHjOptimize:
    def test_separable_quadratic_converges(self):
        target = 0.6 * np.ones(20)
        state = nv.hj_optimize(quadratic(target), 0.2 * np.ones(20),
                               cfg(alpha0=0.2))
        assert np.max(np.abs(state.best - target)) <= 2 * 1e-3
        assert not state.budget_exhausted

    def test_one_dim_matches_dense_scan(self):
        # oracle: dense grid scan of the same unimodal objective
        f = lambda u: -(u[0] - 0.37) ** 2
        grid = np.linspace(0.0, 1.0, 100_001)
        oracle = grid[np.argmax(-(grid - 0.37) ** 2)]
        state = nv.hj_optimize(f, np.array([0.9]),
                               cfg(alpha0=0.25, alpha_min=1e-4))
        assert abs(state.best[0] - oracle) <= 1e-4

    def test_budget_n_plus_one_single_partial_cycle(self):
        n = 6
        state = nv.hj_optimize(quadratic(0.6 * np.ones(n)), 0.2 * np.ones(n),
                               cfg(max_queries=n + 1))
        assert state.budget_exhausted
        assert len(state.history) == n + 1
        assert state.queries == n + 1
        assert state.iterations == 0

    def test_every_budget_cuts_the_full_search_to_its_prefix(self):
        # the budget is checked before every query after the first, and the
        # alpha floor before it at each cycle start: a budget of b queries
        # replays the full search up to its b-th query and stops there
        f, u0 = quadratic([0.3, 0.7, 0.45, 0.62]), np.full(4, 0.5)
        full = nv.hj_optimize(f, u0, cfg(alpha0=0.1, alpha_min=1e-2))
        assert not full.budget_exhausted
        last = {r.cycle: r.query_index for r in full.history}

        def rows(history):
            return [(r.query_index, r.cycle, r.u.tolist(), r.value, r.alpha,
                     r.accepted) for r in history]
        for budget in range(1, full.queries + 2):
            cut = nv.hj_optimize(f, u0, cfg(alpha0=0.1, alpha_min=1e-2,
                                            max_queries=budget))
            prefix = full.history[:budget]
            assert rows(cut.history) == rows(prefix)
            assert cut.budget_exhausted == (budget < full.queries)
            # a cycle is complete once its last query, the pattern move, is in
            assert cut.iterations == sum(
                1 for c, i in last.items() if c > 0 and i < budget)
            assert cut.best_value == max(r.value for r in prefix)

    def test_incumbent_monotone_and_feasible(self):
        state = nv.hj_optimize(quadratic(0.37 * np.ones(8)),
                               0.9 * np.ones(8), cfg())
        best_so_far = -np.inf
        for rec in state.history:
            assert np.all(rec.u >= 0.0) and np.all(rec.u <= 1.0)
            best_so_far = max(best_so_far, rec.value)
        assert best_so_far == state.best_value
        incumbents = np.maximum.accumulate([r.value for r in state.history])
        assert np.all(np.diff(incumbents) >= 0)

    def test_per_cycle_query_accounting(self):
        n = 12
        state = nv.hj_optimize(quadratic(0.55 * np.ones(n)),
                               0.25 * np.ones(n), cfg())
        counts = per_cycle_counts(state)
        complete = {c: k for c, k in counts.items() if c < state.cycle}
        assert complete, "needs at least one complete cycle"
        assert all(n + 1 <= k <= 2 * n + 1 for k in complete.values())
        assert sum(counts.values()) + 1 == state.queries

    def test_alpha_shrinks_only_without_improvement(self):
        state = nv.hj_optimize(quadratic(0.6 * np.ones(3)), 0.2 * np.ones(3),
                               cfg())
        alphas = {}
        improved = {}
        values = {}
        best = state.history[0].value
        for rec in state.history:
            if rec.cycle == 0:
                continue
            alphas[rec.cycle] = rec.alpha
            if rec.value > best:
                best = rec.value
                improved[rec.cycle] = True
            improved.setdefault(rec.cycle, False)
        cycles = sorted(alphas)
        for a, b in zip(cycles[:-1], cycles[1:]):
            if improved[a]:
                assert alphas[b] == alphas[a]
            else:
                assert alphas[b] == pytest.approx(0.5 * alphas[a], rel=1e-15)

    def test_deterministic_trajectory(self):
        c = cfg()
        s1 = nv.hj_optimize(quadratic(0.42 * np.ones(6)), 0.8 * np.ones(6), c)
        s2 = nv.hj_optimize(quadratic(0.42 * np.ones(6)), 0.8 * np.ones(6), c)
        assert len(s1.history) == len(s2.history)
        for a, b in zip(s1.history, s2.history):
            assert np.array_equal(a.u, b.u) and a.value == b.value

    def test_start_outside_bounds_rejected(self):
        with pytest.raises(ParameterError):
            nv.hj_optimize(quadratic([0.5]), np.array([1.5]), cfg())

    def test_non_finite_objective_aborts_with_point(self):
        def bad(u):
            return np.nan if u[0] > 0.55 else float(np.sum(u))
        with pytest.raises(ObjectiveError) as err:
            nv.hj_optimize(bad, np.array([0.5]), cfg(alpha0=0.1))
        assert "0.6" in str(err.value)

    @given(st.integers(1, 6), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_feasibility_property(self, n, center, start):
        state = nv.hj_optimize(quadratic(center * np.ones(n)),
                               start * np.ones(n),
                               cfg(alpha0=0.3, alpha_min=1e-2))
        for rec in state.history:
            assert np.all(rec.u >= 0.0) and np.all(rec.u <= 1.0)
