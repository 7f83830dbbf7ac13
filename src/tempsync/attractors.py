"""Dissipativity transforms, pullback trajectory estimation, and the coupled
comparison matrix for per-node attracting trajectories.

This is the sufficient-condition machinery behind the ultimate-boundedness
assumption that certificates rely on: one-sided Lipschitz rates l(t) with an
exponential envelope turn into a dissipativity pair (alpha, beta), bounded
forcing then yields a single globally defined pullback/forward attracting
trajectory per node, and row dominance of the coupled matrix
C(t) = diag(l_i(t)) + 2 [a_ik(t)] certifies that the coupled network keeps
those trajectories.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import _kernels as kern
from .integrate import IntegrationError, SolverConfig, _Record, integrate
from .model import NetworkSystem, NodeField, _grid, static_schedule


class HypothesisError(ValueError):
    """Adjacency sign hypothesis violated on the sampling grid."""


def _as_time_fn(v) -> Callable[[float], float]:
    if np.isscalar(v):
        vv = float(v)
        return lambda t: vv
    return v


def dissipativity_from_onesided(l, f_at_zero_sq, gamma: float, eps: float):
    """Dissipativity pair from a one-sided Lipschitz rate.

    Given 2<x - y, f(t,x) - f(t,y)> <= l(t)|x - y|^2 with envelope
    exp(int l) <= K exp(-gamma (t - t0)), returns contracts
    alpha(t) = 2 eps + l(t), beta(t) = (2/eps)|f(t, 0)|^2 and the degraded
    rate gamma - 2 eps, valid for any eps in (0, gamma/2).
    """
    if not (0.0 < eps < gamma / 2.0):
        raise ValueError("eps must lie in (0, gamma/2)")
    lf = _as_time_fn(l)
    f0 = _as_time_fn(f_at_zero_sq)

    def alpha(t):
        return 2.0 * eps + lf(t)

    def beta(t):
        v = (2.0 / eps) * f0(t)
        if v < 0:
            raise ValueError(f"|f(t,0)|^2 must be nonnegative, got {f0(t)} at t={t}")
        return v

    return alpha, beta, gamma - 2.0 * eps


class DissipativityData(_Record):
    """One-sided rate l(t) with exponential envelope (K, gamma) and the derived
    dissipativity pair; fields l, K, gamma, alpha, beta_diss and gamma_bar_diss."""

    @classmethod
    def build(cls, l, f_at_zero_sq, K: float, gamma: float, eps: float) -> "DissipativityData":
        if K < 1:
            raise ValueError("K must be at least 1")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        alpha, beta, gb = dissipativity_from_onesided(l, f_at_zero_sq, gamma, eps)
        return cls(l=_as_time_fn(l), K=float(K), gamma=float(gamma), alpha=alpha,
                   beta_diss=beta, gamma_bar_diss=gb)

    def envelope_holds_on(self, grid) -> bool:
        """Check exp(int_s^t l) <= K exp(-gamma (t - s)) for grid pairs s <= t."""
        grid = np.asarray(grid, dtype=float)
        lv = np.array([self.l(t) for t in grid])
        return _envelope_holds(kern.cumtrapz(lv, grid) + self.gamma * grid, self.K)


def _envelope_holds(g, K: float) -> bool:
    """g(t) - g(s) <= log K for grid pairs s <= t, with g = int l + gamma t."""
    return bool(np.max(g - np.minimum.accumulate(g)) <= math.log(K) + 1e-12)


def fit_sl2_envelope(l, grid, inflate: float = 1.01):
    """Least-squares (K, gamma) envelope for exp(int l), then certify it.

    Fits int_{t0}^t l ~ log K - gamma (t - t0) on the grid, inflates K by
    the given factor and verifies the pointwise inequality over all grid
    pairs s <= t.  Returns (K, gamma, certified).
    """
    grid = np.asarray(grid, dtype=float)
    lf = _as_time_fn(l)
    lv = np.array([lf(t) for t in grid])
    I = kern.cumtrapz(lv, grid)
    dt = grid - grid[0]
    slope, intercept = np.polyfit(dt, I, 1)
    gamma = -slope
    K = max(1.0, math.exp(intercept)) * inflate
    if gamma <= 0:
        return K, gamma, False
    return K, gamma, _envelope_holds(I + gamma * dt, K)


class PullbackEstimate(_Record):
    """Fields: state, gap (between the last two depths), depth and converged."""


def pullback_trajectory(rhs, t: float, s_max: float, x0, *,
                        tol: float = 1e-8) -> PullbackEstimate:
    """Estimate the value at time t of the bounded entire attracting solution.

    Integrates x' = rhs from t - s to t starting at x0 for doubling depths
    s = 1, 2, 4, ..., capped at s_max, until two successive estimates differ
    by less than tol.  Each depth is one adaptive RKF45 run of ``integrate``
    at rtol = atol = tol/10.  Non-convergence is reported through the
    returned gap, not raised: a depth whose integration fails (the solution
    overflows, say) ends the search with gap inf and the last estimate that
    was computed (x0 if none was).
    """
    if s_max <= 0:
        raise ValueError("s_max must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def field(tau, X):
        return np.asarray(rhs(tau, X[0]), dtype=float).reshape(X.shape)

    system = NetworkSystem(NodeField(x0.size, field), static_schedule(np.zeros((1, 1))))
    cfg = SolverConfig(method="rk45", rtol=tol / 10.0, atol=tol / 10.0)
    depths = []
    s = 1.0
    while s < s_max:
        depths.append(s)
        s *= 2.0
    depths.append(float(s_max))
    prev = None
    gap = math.inf
    for s in depths:
        try:
            # overflow is reported by integrate's finiteness checks
            with np.errstate(over="ignore", invalid="ignore"):
                est = integrate(system, t - s, x0, t, cfg).final_state()[0]
        except IntegrationError:
            return PullbackEstimate(state=x0.copy() if prev is None else prev, gap=math.inf,
                                    depth=s, converged=False)
        if prev is not None:
            gap = float(np.max(np.abs(est - prev)))
            if gap < tol:
                return PullbackEstimate(state=est, gap=gap, depth=s, converged=True)
        prev = est
    return PullbackEstimate(state=prev, gap=gap, depth=depths[-1], converged=False)


def ultimate_bound(K: float, gamma_bar: float, mu: float) -> float:
    """Uniform ultimate bound K mu / (1 - exp(-gamma_bar)) on squared norms."""
    if K < 1:
        raise ValueError("K must be at least 1")
    if gamma_bar <= 0:
        raise ValueError("gamma_bar must be positive")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    return K * mu / (1.0 - math.exp(-gamma_bar))


class CoupledComparisonCheck(_Record):
    """Row-dominance check of C(t) = diag(l_i(t)) + 2 [a_ik(t)]; fields matrix
    (t -> C(t)), verdict, gamma, n_nodes and grid (t0, t1, step)."""

    def to_json_dict(self) -> dict:
        t0, t1, step = self.grid
        return {
            "gamma": self.gamma,
            "verdict": self.verdict,
            "nodes": self.n_nodes,
            "grid": {"t0": t0, "t1": t1, "step": step},
        }


def coupled_comparison_check(system: NetworkSystem, L: Sequence, grid) -> CoupledComparisonCheck:
    """Certify per-node attracting trajectories through row dominance.

    L holds one one-sided rate per node (scalars or contracts t -> l_i(t)).
    The grid must be 1-d, nondecreasing and hold at least one time.
    Requires a_ij(t) >= 0 on the grid (checked; raises HypothesisError) and
    finite rates (checked; raises ValueError naming the node and the first
    bad time).  The verdict is True iff sup l_i < 0 and the margin
    gamma = inf over (t, i) of |l_i(t)| - 2 sum_k a_ik(t) is positive, in
    which case squared per-node differences of any two runs decay at least
    like exp(-gamma (t - t0)).  The adjacency is read with the schedule's
    on_grid, one matrix per constant segment.
    """
    n = system.n_nodes
    if len(L) != n:
        raise ValueError(f"need one rate per node, got {len(L)} for {n} nodes")
    rates = [_as_time_fn(l) for l in L]
    grid = _grid("grid", grid, 1)
    c = system.global_coupling

    def matrix(t):
        C = 2.0 * (c * system.schedule.sample(t))
        np.fill_diagonal(C, [r(t) for r in rates])
        return C

    row_sums = np.empty((grid.size, n))
    for run, A in system.schedule.on_grid(grid, n * n):
        A = c * A
        if (A < 0).any():
            q, i, k = np.argwhere(A < 0)[0]
            raise HypothesisError(
                f"a_{i + 1}{k + 1}(t) = {A[q, i, k]:.6g} < 0 at t={grid[run][q]}; the "
                "coupled comparison requires nonnegative weights"
            )
        row_sums[run] = A.sum(axis=2)
    lv = np.array([[r(t) for r in rates] for t in grid])
    if not np.isfinite(lv).all():
        q, i = np.argwhere(~np.isfinite(lv))[0]
        raise ValueError(f"rate l_{i + 1}(t) = {lv[q, i]} is not finite at t={grid[q]}")
    sup_l = float(lv.max())
    gamma = float((-lv - 2.0 * row_sums).min())
    verdict = sup_l < 0.0 and gamma > 0.0
    step = float(grid[1] - grid[0]) if grid.size > 1 else 0.0
    return CoupledComparisonCheck(
        matrix=matrix, verdict=verdict, gamma=gamma, n_nodes=n,
        grid=(float(grid[0]), float(grid[-1]), step),
    )
