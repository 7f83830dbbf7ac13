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
from types import SimpleNamespace

import numpy as np

from . import _kernels as kern
from .integrate import SolverConfig, _horizon, _Record, _Recorder, _uniform_steps, integrate
from .model import (ClusterSpec, NetworkSystem, PairBoundSet, _ConstPiece, _all_finite, _chunks,
                    _cuts, _finite, _grid, _segment_runs)


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
    delta, gamma = kern.delta_gamma(A, bounds.alpha(t))
    return kern.assemble_comparison(A, delta), delta, gamma


def _grid_delta_gamma(system, bounds, times, nodes):
    """delta and gamma sampled on a time grid for pairs within ``nodes``.

    delta keeps the full coupling sum over all N nodes; gamma restricts the
    cross-difference sum to ``nodes`` (the cluster margin).  A constant
    piece takes one pair_sums call per segment, a functional piece one per
    chunk of its grid times (the schedule's on_grid); alpha is read as one
    block on these pairs only.
    """
    c = system.global_coupling
    nodes = np.asarray(nodes, dtype=np.int64)
    iu, ju = (nodes[k] for k in kern.pair_arrays(len(nodes))[:2])
    sel = kern.pair_arrays(system.n_nodes)[2][iu, ju]  # the pairs in bounds' vectors
    S, D = np.empty((2, len(times), len(iu)))
    for run, A in system.schedule.on_grid(times, len(iu) * system.n_nodes):
        S[run], D[run] = kern.pair_sums(c * A, iu, ju, nodes)
    delta = bounds.alpha(times, sel) - S
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
    by default); an invalid pair raises ValueError naming it, and beta is
    read on the listed pairs only.  Constant bounds short-circuit to the
    exact value |2 beta|.
    """
    n = bounds.n_nodes
    iu, ju, pidx = kern.pair_arrays(n)
    if pairs is not None:
        iu, ju = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        bad = np.nonzero((np.minimum(iu, ju) < 0) | (np.maximum(iu, ju) >= n) | (iu == ju))[0]
        if bad.size:
            raise ValueError(f"invalid pair ({iu[bad[0]]}, {ju[bad[0]]}) for {n} nodes")
    sel = pidx[iu, ju]
    times = _grid("window_grid", window_grid, 2)

    def norm(v):
        return float(np.sqrt(np.dot(v, v)))

    if bounds.time_constant:
        return norm(2.0 * bounds.beta(times[0], sel))
    g = [norm(v) for ch in _chunks(times, len(sel)) for v in 2.0 * bounds.beta(ch, sel)]
    return _sliding_unit_window_sup(times, np.array(g))


def compute_mu2(system: NetworkSystem, cluster: ClusterSpec, rho: float, window_grid) -> float:
    """Cross-cluster adjacency mismatch bound.

    2 rho^2 * max over (i, j in J, k outside J) of the sliding unit-window
    integral of |a_jk(s) - a_ik(s)| on the effective adjacency.  Zero when
    the cluster has no external nodes or every external column is identical
    across cluster rows.  window_grid must be 1-d, nondecreasing and hold at
    least two times.  The adjacency is read with the schedule's on_grid,
    one matrix per constant segment, into one (T, Q) array of the Q
    mismatch series.
    """
    cluster.validate_for(system.n_nodes)
    if rho <= 0:
        raise ValueError("rho must be positive")
    times = _grid("window_grid", window_grid, 2)
    n, J = system.n_nodes, np.array(cluster.indices)
    outside = np.setdiff1d(np.arange(n), J)
    if not outside.size:
        return 0.0
    iJ, jJ = (J[k] for k in kern.pair_arrays(len(J))[:2])
    i, j, k = np.repeat(iJ, outside.size), np.repeat(jJ, outside.size), np.tile(outside, iJ.size)
    c = system.global_coupling
    series = np.empty((len(times), k.size))  # column q: |c a_jk - c a_ik| of (i, j, k)[q]
    for run, A in system.schedule.on_grid(times, n * n):
        cA = c * A
        series[run] = np.abs(cA[:, j, k] - cA[:, i, k])
    return 2.0 * rho * rho * max(
        [0.0, *(_sliding_unit_window_sup(times, q) for q in series.T if q.any())])


# ---------------------------------------------------------------------------
# comparison system and its solutions
# ---------------------------------------------------------------------------

class ComparisonSystem:
    """The dominating linear system u' = E(t) u + beta(t) on the pair cone.

    Off-diagonal entries of E(t) are nonnegative for every t, so solutions
    started in the positive cone stay there.  Built from a network via
    :meth:`from_network`, or by hand from dim >= 1, callables E(t) (Metzler)
    and beta(t) (finite, nonnegative; both checked at every time read),
    finite breakpoints and whether both are constant between them.

    _segments(t0, t1) gives one record per interval between breakpoints: a,
    b, const (E and beta fixed on [a, b]), E_rows(times) and b_rows(times),
    which yield the checked E(t) and beta(t) in order (a yielded E may be
    one buffer rewritten for the next time), and margins(times), the (T, dim)
    block -rowsum(E(t)).  A network-built record takes its margins from the
    pair sums as -(2 delta + D); on a constant piece it keeps only S and D
    and assembles E only when E_rows is read.
    """

    def __init__(self, dim, E, beta, breakpoints=None, piecewise_constant=False):
        self.dim = d = int(dim)
        if d < 1:
            raise ValueError(f"dim must be >= 1, got {dim!r}")
        cuts = np.asarray([] if breakpoints is None else breakpoints, dtype=float).reshape(-1)
        if not np.isfinite(cuts).all():
            raise ValueError(f"breakpoints must be finite, got {cuts.tolist()!r}")

        def E_rows(times):
            return (_metzler(np.asarray(E(t), dtype=float).reshape(d, d), t) for t in times)

        def b_rows(times):
            return (_nonnegative(np.asarray(beta(t), dtype=float).reshape(d),
                                 f"comparison input beta(t) at t={t:.6g}") for t in times)

        def margins(times):
            return np.array([-E.sum(axis=1) for E in E_rows(times)])

        def segments(t0, t1):
            edges = _cuts(t0, t1, cuts)
            return [SimpleNamespace(a=a, b=b, const=bool(piecewise_constant), E_rows=E_rows,
                                    b_rows=b_rows, margins=margins)
                    for a, b in zip(edges[:-1], edges[1:])]
        self._segments = segments

    @classmethod
    def from_network(cls, system: NetworkSystem, bounds: PairBoundSet) -> "ComparisonSystem":
        if bounds.n_nodes != system.n_nodes:
            raise ValueError("bounds and system disagree on the number of nodes")
        c, n, dim = system.global_coupling, system.n_nodes, kern.n_pairs(system.n_nodes)
        iu, ju, _ = kern.pair_arrays(n)
        cs = cls(dim, None, None)

        def b_rows(times):  # checked by PairBoundSet.beta
            for ch in _chunks(times, dim):
                yield from 2.0 * bounds.beta(ch)

        def record(a, b, piece):
            const = isinstance(piece, _ConstPiece)
            if const:  # O(P) numbers, all the margins need; E is assembled for propagation only
                cA = c * piece.matrix
                S, D = kern.pair_sums(cA, iu, ju, np.arange(n))

            def blocks(times):
                """(times, c A(t), delta(t), D(t)) per chunk of times, each indexed by time."""
                for ch in _chunks(times, dim * n):
                    A = [cA] * len(ch) if const else c * piece.block(ch)
                    S_t, D_t = (S, D) if const else kern.pair_sums(A, iu, ju, np.arange(n))
                    yield ch, A, bounds.alpha(ch) - S_t, D_t

            def E_rows(times):
                E = None  # a constant piece assembles E once per call, then moves its diagonal
                for ch, A, delta, _ in blocks(times):
                    for k, t in enumerate(ch):
                        if E is None or not const:
                            E = _metzler(kern.assemble_comparison(A[k], delta[k]), t)
                        else:
                            E.reshape(-1)[:: dim + 1] = d = 2.0 * delta[k]  # the diagonal
                            if not _all_finite(d):
                                _metzler(E, t)  # raises
                        yield E

            def margins(times):  # -(2 delta + D): row (i, j) of E sums 2 delta and D
                out = np.concatenate([-(2.0 * delta + D) for _, _, delta, D in blocks(times)])
                for k in np.flatnonzero(~np.isfinite(out).all(axis=1)):
                    next(E_rows(times[k:k + 1]))  # raises naming the entry, if E(t) has one
                return out

            return SimpleNamespace(a=a, b=b, const=const and bounds.time_constant,
                                   E_rows=E_rows, b_rows=b_rows, margins=margins)

        cs._segments = lambda t0, t1: [
            record(*seg) for seg in system.schedule.segments_between(t0, t1)]
        return cs


class ComparisonTrajectory(_Record):
    """Fields: times (T,) and u (T, dim), the recorded comparison solution."""


def comparison_solve(cs: ComparisonSystem, t0: float, xi0, t_end: float,
                     cfg: SolverConfig | None = None) -> ComparisonTrajectory:
    """Integrate the comparison system from a finite, nonnegative initial vector.

    Fixed-step RK4 on each segment record; of cfg it reads only dt and
    record_stride, and a method other than "rk4" raises ValueError.  A
    time-varying record's E and beta are sampled at the RK4 stage times,
    with pair bounds read once per segment as (T, P) blocks.  Every E used
    must be Metzler (nonnegative off the diagonal) and beta and xi0 finite
    and nonnegative, so that the exact solution stays in the positive cone;
    ValueError names the first bad time and entry, or index of xi0.  The
    output is clipped at zero, which then only removes rounding below zero.
    t0 and t_end must be finite with t_end > t0, as for ``integrate``.
    """
    _horizon(t0, t_end)
    cfg = cfg or SolverConfig()
    if cfg.method != "rk4":
        raise ValueError(f"method must be 'rk4' for comparison_solve, got {cfg.method!r}")
    u0 = _nonnegative(np.asarray(xi0, dtype=float).reshape(cs.dim), "initial comparison state")
    # recorded as the trajectory integrator records: every record_stride-th
    # step plus every segment end, which the next segment starts from
    rec = _Recorder(cfg.record_stride, t0, u0)
    for seg in cs._segments(t0, t_end):
        a = seg.a
        n_steps, h, ends = _uniform_steps(a, seg.b, cfg.dt)
        ends = list(ends)
        if seg.const:
            out = kern.rk4_const_linear(next(seg.E_rows([a])), next(seg.b_rows([a])),
                                        rec.states[-1], h, n_steps)
        else:
            ts = np.array([a] + ends)
            stages = kern.stage_times(ts)
            out = kern.rk4_sampled_linear(seg.E_rows(stages), seg.b_rows(stages), ts,
                                          rec.states[-1])
        for s, t in enumerate(ends, 1):
            rec.step_done(t, out[s], force=s == n_steps)
    return ComparisonTrajectory(times=np.asarray(rec.times),
                                u=np.maximum(np.asarray(rec.states), 0.0))


class DecayCheck(_Record):
    """Fields: gamma_bar, verified, max_ratio and anchors (the anchor times)."""


def dominance_decay_check(cs: ComparisonSystem, grid, max_anchors: int = 8,
                          tol: float = 1e-6, substeps: int = 4) -> DecayCheck:
    """Row-dominance margin and numerical verification of the decay bound.

    gamma_bar is the grid infimum of the segment records' margins -(row sum
    of E(t)), which equals min-pair gamma_ij whenever the diagonal is
    negative; a network-built record takes them from the pair sums, so E is
    assembled once per constant segment, for propagation only.  E(t) must be
    Metzler (nonnegative off the diagonal), or ValueError names the time.
    For a Metzler E the largest row sum is the log-norm mu_inf(E), so by
    Coppel's inequality ||U(t, s)||_inf <= exp(-gamma_bar (t - s)) whenever
    the margin stays above gamma_bar (Soderlind 2006, BIT 46).

    verified is True only when gamma_bar > 0 and the propagated principal
    solution satisfies ||U(t, s)||_inf <= exp(-gamma_bar (t-s))(1+tol) from
    sampled anchors s.  E Metzler makes U(t, s) entrywise nonnegative
    (Farina & Rinaldi, Positive Linear Systems), so ||U||_inf = ||U 1||_inf:
    one vector per anchor is propagated, all anchors together as one block.
    The bound is tight to first order for the dominant row, so propagation
    subdivides each grid interval (``substeps``) to keep the integration
    error well below tol.  Row dominance is sufficient, not necessary: a
    stable system can still return verified=False, and so does a NaN ratio.
    The grid must hold at least two finite, nondecreasing times, max_anchors
    and substeps must be integers >= 1 and tol finite and >= 0, or ValueError
    names the parameter.
    """
    for name, v in (("max_anchors", max_anchors), ("substeps", substeps)):
        if not isinstance(v, (int, np.integer)) or v < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    grid = _grid("grid", grid, 2)
    segs = cs._segments(grid[0], np.nextafter(grid[-1], np.inf))  # a cut at grid[-1] counts
    gamma_bar = min(float(segs[s].margins(grid[run][:1] if segs[s].const else grid[run]).min())
                    for s, run in _segment_runs([seg.a for seg in segs], grid))
    if gamma_bar <= 0:
        return DecayCheck(gamma_bar=gamma_bar, verified=False, max_ratio=np.inf, anchors=[])

    anchor_idx = np.unique(np.linspace(0, len(grid) - 2, min(max_anchors, len(grid) - 1))
                           .astype(int))
    norms = _anchor_norms(cs.dim, segs, grid, anchor_idx, substeps)
    ratios = [np.max(norms[ai:, k] / np.exp(-gamma_bar * (grid[ai:] - grid[ai])))
              for k, ai in enumerate(anchor_idx)]
    max_ratio = float(np.max(ratios))  # a NaN ratio stays NaN, so verified is False
    return DecayCheck(gamma_bar=gamma_bar, verified=max_ratio <= 1.0 + tol, max_ratio=max_ratio,
                      anchors=[float(grid[i]) for i in anchor_idx])


def _metzler(E: np.ndarray, t: float) -> np.ndarray:
    """E itself, after checking it is finite and no off-diagonal entry is negative."""
    _finite(E, lambda i, j: f"comparison matrix E(t) at t={t:.6g}: entry ({i + 1}, {j + 1})")
    neg = E < 0
    np.fill_diagonal(neg, False)
    if neg.any():
        i, j = np.argwhere(neg)[0]
        raise ValueError(f"comparison matrix E(t) at t={t:.6g} is not Metzler: entry "
                         f"({i + 1}, {j + 1}) = {E[i, j]:.6g} < 0")
    return E


def _nonnegative(v: np.ndarray, where: str) -> np.ndarray:
    """v itself, after checking every entry is finite and >= 0; the first bad one is named."""
    bad = np.flatnonzero(~(np.isfinite(v) & (v >= 0)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"{where}: entry {k + 1} = {v[k]:.6g} "
                         f"{'< 0' if np.isfinite(v[k]) else 'is not finite'}")
    return v


def _anchor_norms(dim, segs, grid, anchor_idx, substeps):
    """||U(t, grid[a]) 1||_inf at every grid time t, one column per anchor a.

    Column k of one (dim, K) block is set to 1 at its anchor and propagated
    with the others; before its anchor it is 0.  The timeline is the grid
    merged with the segment boundaries inside it, so no RK4 step straddles
    a coefficient jump, and each interval is split into ``substeps`` steps.
    On a constant segment, interval lengths that differ by no more than the
    rounding of the times themselves (4 ulp of the largest |t|) are stepped
    as one length, so a uniform grid needs one RK4 map per segment.
    """
    starts = [seg.a for seg in segs]
    cuts = [a for a in starts if grid[0] < a < grid[-1]]
    timeline = np.union1d(grid, cuts)
    anchor_tl = np.searchsorted(timeline, grid[anchor_idx])
    same = 4.0 * np.spacing(np.abs(timeline).max())
    norms_tl = np.zeros((len(timeline), len(anchor_idx)))
    V = np.zeros((dim, len(anchor_idx)))
    for s, run in _segment_runs(starts, timeline[:-1]):
        pos, end = run.start, run.stop
        seg = segs[s]
        tseg = timeline[pos:end + 1]
        lengths = np.diff(tseg)
        first = (anchor_tl - pos) * substeps  # the step before which each column starts
        if seg.const:
            for q in range(1, lengths.size):
                close = np.abs(lengths[:q] - lengths[q]) <= same
                if close.any():
                    lengths[q] = lengths[np.argmax(close)]
            E = next(seg.E_rows(tseg[:1]))
            out, V = kern.rk4_const_principal(E, np.repeat(lengths / substeps, substeps), V, first)
        else:
            ts = (tseg[:-1, None] + (lengths / substeps)[:, None] * np.arange(substeps)).ravel()
            ts = np.append(ts, tseg[-1])
            out, V = kern.rk4_sampled_principal(seg.E_rows(kern.stage_times(ts)), ts, V, first)
        norms_tl[pos:end + 1] = out[::substeps]
    return norms_tl[np.searchsorted(timeline, grid)]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class Verdict(SimpleNamespace):
    """Fields: status ("holds" | "fails"), condition ("delta" | "gamma"), pair
    (0-based node indices) and t; the last three are None when it holds.
    Verdicts compare equal field by field."""

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def render(self) -> str:
        if self.holds:
            return "holds"
        i, j = self.pair
        return f"fails({self.condition},({i + 1},{j + 1}),t={self.t:.6g})"


class GridSpec(_Record):
    """Fields: t0, t1 and step of a verdict grid."""

    def to_dict(self) -> dict:
        return {"t0": self.t0, "t1": self.t1, "step": self.step}


class SyncCertificate(_Record):
    """Fields: n_nodes, grid (a GridSpec), delta_min and delta_max (per pair),
    gamma_bar, mu1, mu2 (None for the full network), rho, bound_M, epsilon,
    verdict, asymptotic_bound and settle_time (None unless it holds) and
    assumptions (a list of strings)."""

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


class ClusterCertificate(SyncCertificate):
    """A SyncCertificate's fields plus cluster (a ClusterSpec), gamma_bar_J and
    combined_mu (the heterogeneity level the verdict used)."""

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
    for name, v in (("bound_M", bound_M), ("epsilon", epsilon), ("horizon", horizon),
                    ("grid_step", grid_step), ("t0", t0), ("margin", margin)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin!r}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if horizon <= 0 or grid_step <= 0 or horizon < grid_step:
        raise ValueError("horizon and grid step must define a nonempty grid")
    n_sub, N = len(nodes), system.n_nodes
    if (t0 + horizon) - t0 < 1.0 - 1e-9 and not (bounds.time_constant and n_sub == N):
        raise ValueError(f"horizon={horizon!r} is shorter than the unit time window over which "
                         "mu1 (time-varying bounds) and mu2 (nodes outside J) are taken")

    def pinned(step):  # t0, t0 + step, ... with the last time pinned to t0 + horizon
        ts = t0 + step * np.arange(int(round(horizon / step)) + 1)
        ts[-1] = t0 + horizon
        return ts

    times = pinned(grid_step)
    delta, gamma, (iu, ju) = _grid_delta_gamma(system, bounds, times, nodes)

    mu_times = times if grid_step <= 1e-2 else pinned(1e-2)  # the mu1/mu2 window grid
    mu1 = compute_mu1(bounds, mu_times, pairs=np.column_stack([iu, ju]))
    mu2 = None if cluster is None else compute_mu2(system, cluster, bounds.rho, mu_times)
    combined = mu1 if mu2 is None else mu1 + mu2 * (N - n_sub) * math.sqrt(
        2.0 * n_sub * (n_sub - 1)
    )
    if bound_M <= combined:
        raise ValueError(
            f"bound_M={bound_M} must exceed the heterogeneity level {combined}"
        )
    threshold = -math.log1p(-combined / bound_M)
    gamma_bar = float(gamma.min())

    verdict = Verdict(status="holds", condition=None, pair=None, t=None)
    bad = np.argwhere(delta > -margin)  # row-major: (time, pair) lexicographic order
    if bad.size:
        k, p = bad[0]
        verdict = Verdict(status="fails", condition="delta", pair=(int(iu[p]), int(ju[p])),
                          t=float(times[k]))
    elif gamma_bar < threshold + margin:
        # the tie band of check_full_sync's docstring; 4|delta| - gamma = 2|delta| + D
        band = 8.0 * N * np.finfo(float).eps * float(np.max(4.0 * np.abs(delta) - gamma))
        k, p = np.argwhere(gamma <= gamma_bar + band)[0]
        verdict = Verdict(status="fails", condition="gamma", pair=(int(iu[p]), int(ju[p])),
                          t=float(times[k]))

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
        grid=GridSpec(t0=float(times[0]), t1=float(times[-1]), step=float(grid_step)),
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
    justification behind rho.  bound_M, epsilon, horizon, grid_step and t0
    must be finite and margin finite and >= 0, or ValueError names the
    parameter.
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
    the full-network one.  The bounds are read on the pairs within J only,
    so a non-finite or negative bound on a pair outside J does not raise.
    """
    cluster.validate_for(system.n_nodes)
    return _certify(
        system, bounds, list(cluster.indices), horizon, bound_M, epsilon,
        t0, grid_step, margin, cluster=cluster,
    )


class RefinedBounds(_Record):
    """Fields: asymptotic_bound (epsilon + bound_M / c), linf_bound (epsilon +
    |beta|_inf / (c gamma_bar), or None) and sharp_sync."""


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
    out = RefinedBounds(asymptotic_bound=cert.epsilon + cert.bound_M / c, linf_bound=None,
                        sharp_sync=False)
    if beta_inf is not None:
        if beta_inf < 0:
            raise ValueError("beta_inf must be nonnegative")
        out.linf_bound = cert.epsilon + beta_inf / (c * cert.gamma_bar)
        out.sharp_sync = beta_inf == 0.0
    return out


class PersistenceMargins(_Record):
    """Fields: heterogeneity_bound (node perturbation size -> error bound) and
    adjacency_margin, a bound on the max row sum of |Delta A(t)| of the
    effective adjacency c A(t) at every t (see persistence_margins)."""


def persistence_margins(cert: SyncCertificate, rho: float, n_nodes: int) -> PersistenceMargins:
    """Perturbation tolerances inherited from a sharp baseline certificate.

    A node-field perturbation of sup size delta keeps the squared pairwise
    errors within 4 rho delta sqrt(N(N-1)/2) / gamma_bar.  An adjacency
    perturbation preserves sharp synchronization when, at every t, the max
    row sum eps = max_i sum_k |Delta a_ik(t)| of its effective part
    c Delta A(t) stays below adjacency_margin = gamma_bar / 4.  The pair sums
    then move by |Delta S_ij| + |Delta D_ij| / 2 <= 2 eps, so every gamma_ij
    by at most 4 eps and every delta_ij by at most 2 eps < |delta_ij|.  The
    factor is tight: Delta a_ij = Delta a_ji = -eps lowers gamma_ij by
    exactly 4 eps.  In the entrywise max norm the claim is false.
    """
    if not cert.verdict.holds:
        raise ValueError("persistence margins require a certificate that holds")
    if cert.mu1 != 0.0:
        raise ValueError("persistence margins require a sharp baseline (mu1 = 0)")
    gb = cert.gamma_bar
    factor = 4.0 * rho * math.sqrt(n_nodes * (n_nodes - 1) / 2.0) / gb
    return PersistenceMargins(heterogeneity_bound=lambda d: factor * d, adjacency_margin=gb / 4.0)


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
