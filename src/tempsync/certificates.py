"""Linear comparison system for pairwise errors and synchronization certificates.

The vector of squared pairwise errors is dominated by the solution of the
linear system u' = E(t) u + beta(t), where E has the per-pair contraction
rates 2*delta_ij on the diagonal and positive parts of adjacency
cross-differences off the diagonal.  Row dominance of E yields the decay
estimate ||U(t, s)||_inf <= exp(-gamma_bar (t - s)) for the principal matrix
solution, which converts into quantitative verdicts: full-network
synchronization up to a constant, cluster synchronization, and persistence
margins under perturbation.

Every "for almost every t" condition is checked on a finite grid; verdicts
therefore carry a "grid-verified" assumption rather than a proof claim.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import _kernels as kern
from .integrate import SolverConfig, _write_json, integrate
from .model import ClusterSpec, NetworkSystem, PairBoundSet, _ConstPiece, _finite


class InfeasibleTopologyError(ValueError):
    """The static-network pair hypothesis fails; carries the 1-based pair."""

    def __init__(self, pair, value):
        i, j = pair
        super().__init__(
            f"pair hypothesis 2(a_ij+a_ji) + sum(a_jk+a_ik-|a_jk-a_ik|) = "
            f"{value:.6g} <= 0 for pair ({i + 1}, {j + 1})"
        )
        self.pair = (i + 1, j + 1)
        self.value = value


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def evaluate_comparison(system: NetworkSystem, bounds: PairBoundSet, t: float):
    """(E(t), delta(t), gamma(t)) for the full pair set at one instant.

    The effective adjacency is global_coupling * A(t).  E's diagonal equals
    2*delta; when delta_ij < 0 the row-dominance margin of row (i, j) is
    exactly gamma_ij.
    """
    if bounds.n_nodes != system.n_nodes:
        raise ValueError("bounds and system disagree on the number of nodes")
    A = system.global_coupling * system.schedule.sample(t)
    return _comparison(A, bounds.alpha(t))


def _comparison(A, alpha):
    """(E, delta, gamma) of the effective adjacency A and the pair rates alpha."""
    delta, gamma = kern.delta_gamma(A, alpha)
    return kern.assemble_comparison(A, delta), delta, gamma


_STACK_SIZE = 2 ** 15  # largest (T, P, n) buffer of one pair_sums call on a functional piece


def _grid_delta_gamma(system, bounds, times, nodes):
    """delta and gamma sampled on a time grid for pairs within ``nodes``.

    delta keeps the full coupling sum over all N nodes; gamma restricts the
    cross-difference sum to ``nodes`` (the cluster margin).  A constant
    piece takes one pair_sums call per segment, a functional piece one per
    chunk of its grid times; time-constant bounds are read once.
    """
    c = system.global_coupling
    nodes = np.asarray(nodes, dtype=np.int64)
    iu, ju = (nodes[k] for k in kern.pair_arrays(len(nodes))[:2])
    sel = kern.pair_arrays(system.n_nodes)[2][iu, ju]  # the pairs in bounds' vectors
    S, D = np.empty((2, len(times), len(iu)))
    segs = system.schedule.segments_between(times[0], times[-1] + 1e-12)
    starts = np.array([a for a, _, _ in segs])
    seg_of = np.clip(np.searchsorted(starts, times, side="right") - 1, 0, len(segs) - 1)
    chunk = max(1, _STACK_SIZE // (len(iu) * system.n_nodes))
    for s, (a, b, piece) in enumerate(segs):
        idx = np.nonzero(seg_of == s)[0]
        if idx.size == 0:
            continue
        const = isinstance(piece, _ConstPiece)  # a one-matrix stack for all its times
        width = idx.size if const else chunk
        for ch in (idx[k:k + width] for k in range(0, idx.size, width)):
            A = piece.matrix[None] if const else np.stack([piece(t) for t in times[ch]])
            S[ch], D[ch] = kern.pair_sums(c * A, iu, ju, nodes)
    at = times[:1] if bounds.time_constant else times
    delta = np.array([bounds.alpha(t)[sel] for t in at]) - S
    return delta, 2.0 * np.abs(delta) - D, (iu, ju)


# ---------------------------------------------------------------------------
# window bounds mu1, mu2
# ---------------------------------------------------------------------------

def _sliding_unit_window_sup(times, values) -> float:
    """sup over tau of the trapezoid integral of values over [tau, tau+1]."""
    if times[-1] - times[0] < 1.0 - 1e-9:
        raise ValueError("grid must span at least one unit time window")
    F = kern.cumtrapz(values, times)
    upper = times + 1.0
    ok = upper <= times[-1] + 1e-12
    Fu = np.interp(np.minimum(upper[ok], times[-1]), times, F)
    return float(np.max(Fu - F[ok]))


def compute_mu1(bounds: PairBoundSet, window_grid, pairs=None) -> float:
    """Sliding unit-window bound on the stacked heterogeneity vector.

    mu1 = sup_tau int_tau^{tau+1} |(2 beta_ij(s))_pairs| ds with the
    Euclidean norm over the listed (i, j) pairs, in either order (all pairs
    by default); an invalid pair raises ValueError naming it.  Constant
    bounds short-circuit to the exact value |2 beta|.
    """
    n = bounds.n_nodes
    iu, ju, pidx = kern.pair_arrays(n)
    if pairs is not None:
        iu, ju = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        bad = np.nonzero((np.minimum(iu, ju) < 0) | (np.maximum(iu, ju) >= n) | (iu == ju))[0]
        if bad.size:
            raise ValueError(f"invalid pair ({iu[bad[0]]}, {ju[bad[0]]}) for {n} nodes")
    sel = pidx[iu, ju]
    times = np.asarray(window_grid, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("window_grid must contain at least two times")

    def norm_at(t):
        v = 2.0 * bounds.beta(t)[sel]
        return float(np.sqrt(np.dot(v, v)))

    if bounds.time_constant:
        return norm_at(times[0])
    g = np.array([norm_at(t) for t in times])
    return _sliding_unit_window_sup(times, g)


def compute_mu2(system: NetworkSystem, cluster: ClusterSpec, rho: float, window_grid) -> float:
    """Cross-cluster adjacency mismatch bound.

    2 rho^2 * max over (i, j in J, k outside J) of the sliding unit-window
    integral of |a_jk(s) - a_ik(s)| on the effective adjacency.  Zero when
    the cluster has no external nodes or every external column is identical
    across cluster rows.
    """
    cluster.validate_for(system.n_nodes)
    if rho <= 0:
        raise ValueError("rho must be positive")
    J = list(cluster.indices)
    outside = [k for k in range(system.n_nodes) if k not in cluster.indices]
    if not outside:
        return 0.0
    times = np.asarray(window_grid, dtype=float)
    c = system.global_coupling
    samples = np.stack([c * system.schedule.sample(t) for t in times])
    worst = 0.0
    for a_i in range(len(J)):
        for b_i in range(a_i + 1, len(J)):
            i, j = J[a_i], J[b_i]
            for k in outside:
                series = np.abs(samples[:, j, k] - samples[:, i, k])
                if not series.any():
                    continue
                worst = max(worst, _sliding_unit_window_sup(times, series))
    return 2.0 * rho * rho * worst


# ---------------------------------------------------------------------------
# comparison system and its solutions
# ---------------------------------------------------------------------------

class ComparisonSystem:
    """The dominating linear system u' = E(t) u + beta(t) on the pair cone.

    Off-diagonal entries of E(t) are nonnegative for every t, so solutions
    started in the positive cone stay there.  Built from a network via
    :meth:`from_network`, or manually from dim and callables.
    """

    def __init__(self, dim, E, beta, breakpoints=None, piecewise_constant=False):
        self.dim = int(dim)
        self._E = E
        self._beta = beta
        self._breakpoints = (
            np.asarray(breakpoints, dtype=float) if breakpoints is not None else None
        )
        self.piecewise_constant = bool(piecewise_constant)
        self._system = None
        self._bounds = None

    @classmethod
    def from_network(cls, system: NetworkSystem, bounds: PairBoundSet) -> "ComparisonSystem":
        if bounds.n_nodes != system.n_nodes:
            raise ValueError("bounds and system disagree on the number of nodes")
        cs = cls(
            kern.n_pairs(system.n_nodes),
            lambda t: evaluate_comparison(system, bounds, t)[0],
            lambda t: 2.0 * bounds.beta(t),
            piecewise_constant=system.schedule.is_piecewise_constant and bounds.time_constant,
        )
        cs._system = system
        cs._bounds = bounds
        return cs

    def E(self, t: float) -> np.ndarray:
        return np.asarray(self._E(t), dtype=float).reshape(self.dim, self.dim)

    def beta(self, t: float) -> np.ndarray:
        return np.asarray(self._beta(t), dtype=float).reshape(self.dim)

    def _segments(self, t0, t1):
        """(a, b, E_fn, beta_fn, is_const) covering [t0, t1], split at breaks.

        E_fn(t) returns E(t) already checked by _metzler.
        """
        out = []
        if self._system is not None:
            c = self._system.global_coupling
            bounds = self._bounds
            last = {}  # (E, -S) of the one constant segment sampled last, so memory stays O(P^2)
            for k, (a, b, piece) in enumerate(self._system.schedule.segments_between(t0, t1)):
                const = isinstance(piece, _ConstPiece)
                if const:
                    def E_fn(t, k=k, piece=piece):
                        built = k not in last
                        if built:  # only the diagonal 2 (alpha(t) - S) moves with t
                            last.clear()
                            last[k] = _comparison(c * piece.matrix, np.zeros(self.dim))[:2]
                        E = last[k][0].copy()
                        d = 2.0 * (bounds.alpha(t) + last[k][1])
                        np.fill_diagonal(E, d)
                        # the fixed off-diagonal part is checked once per build
                        return E if not built and np.isfinite(d).all() else _metzler(E, t)
                else:
                    def E_fn(t, piece=piece):
                        return _metzler(
                            _comparison(c * np.asarray(piece(t), float), bounds.alpha(t))[0], t
                        )

                out.append((a, b, E_fn, self.beta, const and bounds.time_constant))
            return out
        cuts = [t0, t1]
        if self._breakpoints is not None:
            cuts += [float(b) for b in self._breakpoints if t0 < b < t1]
        cuts = sorted(set(cuts))
        for a, b in zip(cuts[:-1], cuts[1:]):
            out.append((a, b, lambda t: _metzler(self.E(t), t), self.beta, self.piecewise_constant))
        return out


class ComparisonTrajectory:
    def __init__(self, times: np.ndarray, u: np.ndarray):
        self.times = times
        self.u = u


def comparison_solve(cs: ComparisonSystem, t0: float, xi0, t_end: float,
                     cfg: SolverConfig | None = None) -> ComparisonTrajectory:
    """Integrate the comparison system from a nonnegative initial vector.

    Fixed-step RK4 split at breakpoints.  Every E used must be Metzler
    (nonnegative off the diagonal), so that the exact solution stays in the
    positive cone; a sampled E with a negative off-diagonal entry raises
    ValueError naming the time and entry.  The output is clipped at zero,
    which then only removes rounding below zero.
    """
    cfg = cfg or SolverConfig()
    u0 = np.asarray(xi0, dtype=float).reshape(cs.dim)
    if (u0 < 0).any():
        raise ValueError("initial comparison state must be nonnegative")
    # recording mirrors the trajectory integrator: every record_stride-th
    # step plus every segment end, so dominance can be checked samplewise
    times = [t0]
    rows = [u0]
    u = u0
    count = 0
    for a, b, E_fn, b_fn, is_const in cs._segments(t0, t_end):
        n_steps = max(1, int(np.ceil((b - a) / cfg.dt - 1e-12)))
        h = (b - a) / n_steps
        if is_const:
            out = kern.rk4_const_linear(E_fn(a), b_fn(a), u, h, n_steps)
        else:
            ts = a + h * np.arange(n_steps + 1)
            ts[-1] = b
            out = kern.rk4_sampled_linear(E_fn, b_fn, ts, u)
        u = out[-1]
        for s in range(1, n_steps + 1):
            count += 1
            if count % cfg.record_stride == 0 or s == n_steps:
                t = b if s == n_steps else a + s * h
                if t > times[-1]:
                    times.append(t)
                    rows.append(out[s])
    return ComparisonTrajectory(np.asarray(times), np.maximum(np.asarray(rows), 0.0))


class DecayCheck:
    def __init__(self, gamma_bar: float, verified: bool, max_ratio: float, anchors: list):
        self.gamma_bar = gamma_bar
        self.verified = verified
        self.max_ratio = max_ratio
        self.anchors = anchors


def dominance_decay_check(cs: ComparisonSystem, grid, max_anchors: int = 8,
                          tol: float = 1e-6, substeps: int = 4) -> DecayCheck:
    """Row-dominance margin and numerical verification of the decay bound.

    gamma_bar is the grid infimum of the per-row margins -(row sum of E(t)),
    which equals min-pair gamma_ij whenever the diagonal is negative.  E(t)
    must be Metzler (nonnegative off the diagonal); a sampled E with a
    negative off-diagonal entry raises ValueError naming the time.  For a
    Metzler E the largest row sum is the log-norm mu_inf(E), so by Coppel's
    inequality ||U(t, s)||_inf <= exp(-gamma_bar (t - s)) whenever the margin
    stays above gamma_bar (Soderlind 2006, BIT 46).

    verified is True only when gamma_bar > 0 and the propagated principal
    solution satisfies ||U(t, s)||_inf <= exp(-gamma_bar (t-s))(1+tol) from
    sampled anchors s.  E Metzler makes U(t, s) entrywise nonnegative
    (Farina & Rinaldi, Positive Linear Systems), so ||U||_inf = ||U 1||_inf:
    one vector per anchor is propagated, all anchors together as one block.
    The bound is tight to first order for the dominant row, so propagation
    subdivides each grid interval (``substeps``) to keep the integration
    error well below tol.  Row dominance is sufficient, not necessary: a
    stable system can still return verified=False.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must contain at least two times")
    segs = cs._segments(grid[0], grid[-1] + 1e-12)
    starts = np.array([a for a, *_ in segs])
    seg_of = np.clip(np.searchsorted(starts, grid, side="right") - 1, 0, len(segs) - 1)

    gamma_bar = np.inf
    for s, (a, b, E_fn, _, is_const) in enumerate(segs):
        idx = np.nonzero(seg_of == s)[0]
        if idx.size == 0:
            continue
        sample_at = [grid[idx[0]]] if is_const else grid[idx]
        for t in sample_at:
            margins = -E_fn(t).sum(axis=1)
            gamma_bar = min(gamma_bar, float(margins.min()))
    if gamma_bar <= 0:
        return DecayCheck(gamma_bar, False, np.inf, [])

    anchor_idx = np.unique(
        np.linspace(0, len(grid) - 2, min(max_anchors, len(grid) - 1)).astype(int)
    )
    norms = _anchor_norms(cs.dim, segs, starts, grid, anchor_idx, substeps)
    max_ratio = 0.0
    verified = True
    for k, ai in enumerate(anchor_idx):
        ts = grid[ai:]
        bound = np.exp(-gamma_bar * (ts - ts[0]))
        ratio = float(np.max(norms[ai:, k] / bound))
        max_ratio = max(max_ratio, ratio)
        if ratio > 1.0 + tol:
            verified = False
    return DecayCheck(gamma_bar, verified, max_ratio, [float(grid[i]) for i in anchor_idx])


def _metzler(E: np.ndarray, t: float) -> np.ndarray:
    """E itself, after checking it is finite and no off-diagonal entry is negative."""
    _finite(E, lambda i, j: f"comparison matrix E(t) at t={t:.6g}: entry ({i + 1}, {j + 1})")
    neg = E < 0
    np.fill_diagonal(neg, False)
    if neg.any():
        i, j = np.argwhere(neg)[0]
        raise ValueError(
            f"comparison matrix E(t) at t={t:.6g} is not Metzler: entry "
            f"({i + 1}, {j + 1}) = {E[i, j]:.6g} < 0"
        )
    return E


def _anchor_norms(dim, segs, starts, grid, anchor_idx, substeps):
    """||U(t, grid[a]) 1||_inf at every grid time t, one column per anchor a.

    Column k of one (dim, K) block is set to 1 at its anchor and propagated
    with the others; before its anchor it is 0.  The timeline is the grid
    merged with the segment boundaries inside it, so no RK4 step straddles
    a coefficient jump, and each interval is split into ``substeps`` steps.
    On a constant segment, interval lengths that differ by no more than the
    rounding of the times themselves (4 ulp of the largest |t|) are stepped
    as one length, so a uniform grid needs one RK4 map per segment.
    """
    sub = max(1, int(substeps))
    cuts = [a for a, *_ in segs if grid[0] < a < grid[-1]]
    timeline = np.union1d(grid, cuts)
    seg_idx = np.clip(
        np.searchsorted(starts, timeline[:-1], side="right") - 1, 0, len(segs) - 1
    )
    anchor_tl = np.searchsorted(timeline, grid[anchor_idx])
    same = 4.0 * np.spacing(np.abs(timeline).max())
    norms_tl = np.zeros((len(timeline), len(anchor_idx)))
    V = np.zeros((dim, len(anchor_idx)))
    pos = 0
    while pos < len(timeline) - 1:
        s = seg_idx[pos]
        end = pos
        while end < len(timeline) - 1 and seg_idx[end] == s:
            end += 1
        _, _, E_fn, _, is_const = segs[s]
        tseg = timeline[pos:end + 1]
        lengths = np.diff(tseg)
        first = (anchor_tl - pos) * sub  # the step before which each column starts
        if is_const:
            for q in range(1, lengths.size):
                close = np.abs(lengths[:q] - lengths[q]) <= same
                if close.any():
                    lengths[q] = lengths[np.argmax(close)]
            E = E_fn(tseg[0])
            run, V = kern.rk4_const_principal(E, np.repeat(lengths / sub, sub), V, first)
        else:
            ts = (tseg[:-1, None] + (lengths / sub)[:, None] * np.arange(sub)).ravel()
            ts = np.append(ts, tseg[-1])
            run, V = kern.rk4_sampled_principal(E_fn, ts, V, first)
        norms_tl[pos:end + 1] = run[::sub]
        pos = end
    return norms_tl[np.searchsorted(timeline, grid)]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class Verdict:
    def __init__(self, status: str, condition: str | None = None,
                 pair: tuple[int, int] | None = None, t: float | None = None):
        self.status = status          # "holds" | "fails"
        self.condition = condition    # "delta" | "gamma"
        self.pair = pair              # 0-based node indices
        self.t = t

    def __eq__(self, other):
        if not isinstance(other, Verdict):
            return NotImplemented
        return (self.status, self.condition, self.pair, self.t) == (
            other.status, other.condition, other.pair, other.t)

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def render(self) -> str:
        if self.holds:
            return "holds"
        i, j = self.pair
        return f"fails({self.condition},({i + 1},{j + 1}),t={self.t:.6g})"


class GridSpec:
    def __init__(self, t0: float, t1: float, step: float):
        self.t0 = t0
        self.t1 = t1
        self.step = step

    def to_dict(self) -> dict:
        return {"t0": self.t0, "t1": self.t1, "step": self.step}


class SyncCertificate:
    def __init__(self, n_nodes: int, grid: GridSpec, delta_min: np.ndarray,
                 delta_max: np.ndarray, gamma_bar: float, mu1: float, rho: float,
                 bound_M: float, epsilon: float, verdict: Verdict,
                 asymptotic_bound: float | None, settle_time: float | None,
                 assumptions: list[str] | None = None, mu2: float | None = None):
        self.n_nodes = n_nodes
        self.grid = grid
        self.delta_min = delta_min
        self.delta_max = delta_max
        self.gamma_bar = gamma_bar
        self.mu1 = mu1
        self.rho = rho
        self.bound_M = bound_M
        self.epsilon = epsilon
        self.verdict = verdict
        self.asymptotic_bound = asymptotic_bound
        self.settle_time = settle_time
        self.assumptions = [] if assumptions is None else assumptions
        self.mu2 = mu2

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.render(),
            "verdict_detail": {
                "status": self.verdict.status,
                "condition": self.verdict.condition,
                "pair": [p + 1 for p in self.verdict.pair] if self.verdict.pair else None,
                "t": self.verdict.t,
            },
            "gamma_bar": self.gamma_bar,
            "mu1": self.mu1,
            "mu2": self.mu2,
            "bound_M": self.bound_M,
            "epsilon": self.epsilon,
            "asymptotic_bound": self.asymptotic_bound,
            "settle_time": self.settle_time,
            "grid": self.grid.to_dict(),
            "assumptions": list(self.assumptions),
        }

    def write_json(self, path) -> None:
        _write_json(path, self.to_json_dict())


class ClusterCertificate(SyncCertificate):
    def __init__(self, *args, cluster: ClusterSpec | None = None,
                 gamma_bar_J: float = math.nan, combined_mu: float = math.nan, **kwargs):
        super().__init__(*args, **kwargs)
        self.cluster = cluster
        self.gamma_bar_J = gamma_bar_J
        self.combined_mu = combined_mu

    def to_json_dict(self) -> dict:
        doc = super().to_json_dict()
        doc["cluster"] = [i + 1 for i in self.cluster.indices]
        doc["gamma_bar_J"] = self.gamma_bar_J
        doc["combined_mu"] = self.combined_mu
        return doc


def suggest_bound_M(mu1: float) -> float:
    """Heuristic headroom over mu1; tighter M trades against the margin threshold."""
    return 2.0 * mu1 if mu1 > 0 else 1.0


def estimate_rho(system: NetworkSystem, x0, t0: float, t_burn: float,
                 cfg: SolverConfig | None = None) -> float:
    """1.5 x the largest node norm seen over a burn-in run from x0."""
    cfg = cfg or SolverConfig(record_stride=10)
    traj = integrate(system, t0, x0, t0 + t_burn, cfg)
    norms = np.sqrt((traj.states ** 2).sum(axis=2))
    return 1.5 * float(norms.max())


def _certify(system, bounds, nodes, horizon, bound_M, epsilon, t0, grid_step,
             margin, cluster=None):
    if bounds.n_nodes != system.n_nodes:
        raise ValueError("bounds and system disagree on the number of nodes")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if horizon <= 0 or grid_step <= 0 or horizon < grid_step:
        raise ValueError("horizon and grid step must define a nonempty grid")
    n_grid = int(round(horizon / grid_step))
    times = t0 + grid_step * np.arange(n_grid + 1)
    times[-1] = t0 + horizon

    delta, gamma, (iu, ju) = _grid_delta_gamma(system, bounds, times, nodes)

    mu_step = min(grid_step, 1e-2)
    n_mu = int(round(horizon / mu_step))
    mu_times = t0 + mu_step * np.arange(n_mu + 1)
    mu1 = compute_mu1(bounds, mu_times, pairs=np.column_stack([iu, ju]))

    n_sub = len(nodes)
    N = system.n_nodes
    if cluster is not None and n_sub < N:
        mu2 = compute_mu2(system, cluster, bounds.rho, mu_times)
    else:
        mu2 = 0.0 if cluster is not None else None
    combined = mu1 if mu2 is None else mu1 + mu2 * (N - n_sub) * math.sqrt(
        2.0 * n_sub * (n_sub - 1)
    )
    if bound_M <= combined:
        raise ValueError(
            f"bound_M={bound_M} must exceed the heterogeneity level {combined}"
        )
    threshold = -math.log1p(-combined / bound_M)
    gamma_bar = float(gamma.min())

    verdict = Verdict("holds")
    bad = np.argwhere(delta > -margin)  # row-major: (time, pair) lexicographic order
    if bad.size:
        k, p = bad[0]
        verdict = Verdict("fails", "delta", (int(iu[p]), int(ju[p])), float(times[k]))
    elif gamma_bar < threshold + margin:
        # the tie band of check_full_sync's docstring; 4|delta| - gamma = 2|delta| + D
        band = 8.0 * N * np.finfo(float).eps * float(np.max(4.0 * np.abs(delta) - gamma))
        k, p = np.argwhere(gamma <= gamma_bar + band)[0]
        verdict = Verdict("fails", "gamma", (int(iu[p]), int(ju[p])), float(times[k]))

    if verdict.holds:
        asymptotic = epsilon + bound_M
        settle = math.log(4.0 * bounds.rho ** 2 / epsilon) / gamma_bar
    else:
        asymptotic = None
        settle = None

    assumptions = [
        f"rho={bounds.rho!r}",
        f"grid-verified on [{float(times[0])!r}, {float(times[-1])!r}] "
        f"with step {float(grid_step)!r}",
        "margins taken as infima over the finite horizon, not over all times",
    ]
    if bounds.global_bounds:
        assumptions.append("pair bounds are radius-independent")

    common = dict(
        n_nodes=N,
        grid=GridSpec(float(times[0]), float(times[-1]), float(grid_step)),
        delta_min=delta.min(axis=0),
        delta_max=delta.max(axis=0),
        mu1=mu1,
        rho=bounds.rho,
        bound_M=float(bound_M),
        epsilon=float(epsilon),
        verdict=verdict,
        asymptotic_bound=asymptotic,
        settle_time=settle,
        assumptions=assumptions,
    )
    if cluster is None:
        return SyncCertificate(gamma_bar=gamma_bar, mu2=None, **common)
    return ClusterCertificate(
        gamma_bar=gamma_bar,
        mu2=mu2,
        cluster=cluster,
        gamma_bar_J=gamma_bar,
        combined_mu=combined,
        **common,
    )


def check_full_sync(system: NetworkSystem, bounds: PairBoundSet, horizon: float,
                    bound_M: float, epsilon: float, *, t0: float = 0.0,
                    grid_step: float = 1e-2, margin: float = 1e-9,
                    boundedness_witness=None) -> SyncCertificate:
    """Full-network synchronization certificate.

    Holds when every pair keeps delta_ij(t) <= -margin on the grid and the
    grid margin infimum gamma_bar clears -log(1 - mu1/bound_M) + margin; the
    reported tail bound on squared pairwise errors is epsilon + bound_M once
    t - t0 exceeds settle_time = log(4 rho^2 / epsilon) / gamma_bar.
    A failing verdict names the first (time, pair) in lexicographic order
    that violates its condition; for gamma, the first within 8 N eps
    max(2|delta| + D) of gamma_bar, the maximum taken over the grid, since
    gamma = 2|delta| - D sums at most 2N terms of that size.

    boundedness_witness, when given (a coupled row-dominance check result or its JSON
    dict), is recorded in the certificate assumptions as the boundedness
    justification behind rho.
    """
    cert = _certify(
        system, bounds, list(range(system.n_nodes)), horizon, bound_M,
        epsilon, t0, grid_step, margin,
    )
    if boundedness_witness is not None:
        doc = (boundedness_witness.to_json_dict()
               if hasattr(boundedness_witness, "to_json_dict")
               else dict(boundedness_witness))
        cert.assumptions.append(
            f"boundedness witness: gamma={doc.get('gamma')!r}, verdict={doc.get('verdict')!r}, "
            f"nodes={doc.get('nodes')!r}"
        )
    return cert


def check_cluster_sync(system: NetworkSystem, bounds: PairBoundSet,
                       cluster: ClusterSpec, horizon: float, bound_M: float,
                       epsilon: float, *, t0: float = 0.0,
                       grid_step: float = 1e-2, margin: float = 1e-9) -> ClusterCertificate:
    """Cluster synchronization certificate for the node subset J.

    delta keeps the full coupling sums; the margin restricts the
    cross-difference sums to J.  The heterogeneity level combines mu1 over
    J-pairs with the external mismatch term mu2 (N - n) sqrt(2 n (n - 1)).
    With J equal to the full node set the certificate coincides exactly with
    the full-network one.  The bounds are read as whole pair vectors, so a
    non-finite or negative bound on a pair outside J raises too.
    """
    cluster.validate_for(system.n_nodes)
    return _certify(
        system, bounds, list(cluster.indices), horizon, bound_M, epsilon,
        t0, grid_step, margin, cluster=cluster,
    )


class RefinedBounds:
    def __init__(self, asymptotic_bound: float, linf_bound: float | None, sharp_sync: bool):
        self.asymptotic_bound = asymptotic_bound  # epsilon + bound_M / c
        self.linf_bound = linf_bound              # epsilon + |beta|_inf / (c gamma_bar)
        self.sharp_sync = sharp_sync


def refined_bounds(cert: SyncCertificate, c: float, beta_inf: float | None = None) -> RefinedBounds:
    """Tail bounds under a global coupling factor c >= 1.

    Always reports epsilon + bound_M / c; when the essential sup of the
    stacked heterogeneity vector is supplied, also epsilon +
    beta_inf / (c gamma_bar).  Which of the two is tighter depends on the
    shape of beta; both are reported and neither is preferred.  beta_inf = 0
    flags sharp synchronization.
    """
    if not cert.verdict.holds:
        raise ValueError("refined bounds require a certificate that holds")
    if c < 1:
        raise ValueError("the global-coupling refinement requires c >= 1")
    out = RefinedBounds(cert.epsilon + cert.bound_M / c, None, False)
    if beta_inf is not None:
        if beta_inf < 0:
            raise ValueError("beta_inf must be nonnegative")
        out.linf_bound = cert.epsilon + beta_inf / (c * cert.gamma_bar)
        out.sharp_sync = beta_inf == 0.0
    return out


class PersistenceMargins:
    def __init__(self, heterogeneity_bound: Callable[[float], float], adjacency_margin: float):
        self.heterogeneity_bound = heterogeneity_bound
        self.adjacency_margin = adjacency_margin


def persistence_margins(cert: SyncCertificate, rho: float, n_nodes: int) -> PersistenceMargins:
    """Perturbation tolerances inherited from a sharp baseline certificate.

    A node-field perturbation of sup size delta keeps the squared pairwise
    errors within 4 rho delta sqrt(N(N-1)/2) / gamma_bar; adjacency
    perturbations of sup norm below gamma_bar / 4 preserve sharp
    synchronization.
    """
    if not cert.verdict.holds:
        raise ValueError("persistence margins require a certificate that holds")
    if cert.mu1 != 0.0:
        raise ValueError("persistence margins require a sharp baseline (mu1 = 0)")
    gb = cert.gamma_bar
    factor = 4.0 * rho * math.sqrt(n_nodes * (n_nodes - 1) / 2.0) / gb
    return PersistenceMargins(lambda d: factor * d, gb / 4.0)


def static_threshold(A_static, l_rho: float) -> float:
    """Smallest global coupling making a static network certifiable.

    Requires the pair hypothesis 2(a_ij + a_ji) + sum_k (a_jk + a_ik -
    |a_jk - a_ik|) = 2 S_ij - D_ij > 0 for every pair (raises naming the
    first violating pair otherwise).  With delta_ij(c) = l - c S_ij and
    gamma_ij(c) = 2|delta_ij(c)| - c D_ij, and D_ij >= 0, both delta < 0 and
    gamma > 0 hold exactly for c > 2 l / (2 S_ij - D_ij) when l > 0, and for
    every c > 0 otherwise; the threshold is the largest of these bounds.
    """
    A = np.array(A_static, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A_static must be a square matrix")
    np.fill_diagonal(A, 0.0)
    _finite(A, lambda i, j: f"A_static entry ({i + 1}, {j + 1})")
    if not math.isfinite(l_rho):
        raise ValueError(f"l_rho = {l_rho} is not finite")
    n = A.shape[0]
    iu, ju, _ = kern.pair_arrays(n)
    S, D = kern.pair_sums(A, iu, ju, np.arange(n))
    hyp = 2.0 * S - D
    bad = np.nonzero(hyp <= 0)[0]
    if bad.size:
        p = int(bad[0])
        raise InfeasibleTopologyError((int(iu[p]), int(ju[p])), float(hyp[p]))
    if l_rho <= 0:
        return 0.0
    return float(np.max(2.0 * l_rho / hyp))
