"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the formulas, not from tempsync's code, and
uses only numpy:

* the pair sums S (coupling) and D (cross differences) and the
  segment-exact certificate verdict for piecewise-constant schedules with
  constant pair bounds;
* the exact cross-cluster mismatch mu2 for piecewise-constant schedules;
* the closed-form static coupling threshold max_p 2 l / (2 S_p - D_p);
* the bounded entire solution of x' = a x + s sin t + k (acceptance
  criterion 11);
* the pairwise-error columns of a trajectory CSV.
"""

from __future__ import annotations

import math

import numpy as np

MARGIN = 1e-9  # the certificate's default margin


def pairs(nodes):
    """Unordered pairs (i, j), i < j, of ``nodes`` in lexicographic order."""
    nodes = list(nodes)
    return [(nodes[a], nodes[b]) for a in range(len(nodes)) for b in range(a + 1, len(nodes))]


def pair_sums(A, nodes):
    """(S, D) per pair of ``nodes`` for one adjacency with zero diagonal.

    S = a_ij + a_ji + 1/2 sum_{k != i, j} (a_ik + a_jk) over all nodes;
    D = sum_{k in nodes, k != i, j} |a_jk - a_ik|.
    """
    n = A.shape[0]
    S, D = [], []
    for i, j in pairs(nodes):
        others = [k for k in range(n) if k not in (i, j)]
        S.append(A[i, j] + A[j, i] + 0.5 * sum(A[i, k] + A[j, k] for k in others))
        D.append(sum(abs(A[j, k] - A[i, k]) for k in nodes if k not in (i, j)))
    return np.array(S), np.array(D)


def zero_diagonal(A):
    A = np.array(A, dtype=float)
    np.fill_diagonal(A, 0.0)
    return A


def segments_meeting(segments, t0, t1):
    """Segments of a piecewise-constant schedule that meet the closed [t0, t1].

    ``segments`` is a list of (start, matrix); the last extends to +inf and
    the first is held constant before its start.
    """
    out = []
    for k, (start, A) in enumerate(segments):
        end = segments[k + 1][0] if k + 1 < len(segments) else math.inf
        if (k == 0 or start <= t1) and end > t0:
            out.append((max(start, t0), min(end, t1), zero_diagonal(A)))
    return out


def active(starts, times):
    """Index of the piece active at each of ``times`` for pieces starting at
    ``starts``: right-continuous, the first piece held before its start."""
    return np.clip(np.searchsorted(starts, times, side="right") - 1, 0, len(starts) - 1)


def certificate_grid(t0, horizon, step):
    """The certificate's grid t0 + step k, k = 0..round(horizon / step), with
    the last point moved to t0 + horizon."""
    times = t0 + step * np.arange(int(round(horizon / step)) + 1)
    times[-1] = t0 + horizon
    return times


def window_sup(segments, t0, t1, values):
    """sup over tau in [t0, t1 - 1] of the integral of a piecewise-constant
    function over [tau, tau + 1]; ``values[k]`` is its value on segment k of
    segments_meeting(...).  The integral is piecewise linear in tau, so the
    sup sits where tau or tau + 1 meets a breakpoint or an end of the range.
    """
    kept = [(s, v) for s, v in zip(segments, values) if s[1] > s[0]]
    segments, values = [s for s, _ in kept], [v for _, v in kept]
    knots = np.array([a for a, _, _ in segments] + [segments[-1][1]])
    F = np.concatenate([[0.0], np.cumsum(np.asarray(values) * np.diff(knots))])
    cands = {t0, t1 - 1.0}
    for b in knots:
        cands.update((b, b - 1.0))
    taus = np.array(sorted(c for c in cands if t0 <= c <= t1 - 1.0))
    return float(np.max(np.interp(taus + 1.0, knots, F) - np.interp(taus, knots, F)))


def mu2_exact(segments, t0, t1, c, cluster, rho):
    """2 rho^2 max over (i, j in J, k outside J) of the sliding unit-window
    integral of |a_jk - a_ik| (effective adjacency), exact."""
    segs = segments_meeting(segments, t0, t1)
    n = segs[0][2].shape[0]
    outside = [k for k in range(n) if k not in cluster]
    worst = 0.0
    for i, j in pairs(cluster):
        for k in outside:
            vals = [abs(c * (A[j, k] - A[i, k])) for _, _, A in segs]
            if any(vals):
                worst = max(worst, window_sup(segs, t0, t1, vals))
    return 2.0 * rho * rho * worst


def heterogeneity(mu1, mu2, n_nodes, cluster):
    """Combined heterogeneity level of a full (cluster None) or cluster check."""
    if cluster is None:
        return mu1
    m = len(cluster)
    return mu1 + mu2 * (n_nodes - m) * math.sqrt(2.0 * m * (m - 1))


def threshold(combined, bound_M):
    return -math.log1p(-combined / bound_M)


def pair_values(value, n, nodes):
    """Symmetrized per-pair values of a scalar or (n, n) array."""
    v = np.broadcast_to(np.asarray(value, dtype=float), (n, n))
    return np.array([0.5 * (v[i, j] + v[j, i]) for i, j in pairs(nodes)])


def segment_margins(segments, t0, t1, c, alpha, nodes, grid_step=None):
    """(max delta, min gamma) over every segment meeting [t0, t1], for
    constant pair rates alpha and the pairs of ``nodes``.

    With ``grid_step``, only the segments active at some point of the
    certificate's grid count: the program's sampling today, which skips a
    segment that holds no grid point (ROADMAP item 2).
    """
    segs = segments_meeting(segments, t0, t1)
    if grid_step is not None:
        hit = active([a for a, _, _ in segs], certificate_grid(t0, t1 - t0, grid_step))
        segs = [segs[k] for k in np.unique(hit)]
    a_p = pair_values(alpha, segs[0][2].shape[0], nodes)
    delta_max, gamma_bar = -math.inf, math.inf
    for _, _, A in segs:
        S, D = pair_sums(c * A, nodes)
        delta = a_p - S
        delta_max = max(delta_max, float(delta.max()))
        gamma_bar = min(gamma_bar, float((2.0 * np.abs(delta) - D).min()))
    return delta_max, gamma_bar


def certify_verdict(segments, t0, horizon, c, alpha, beta, rho, bound_M,
                    cluster=None, mu2_slack=0.0, grid_step=None):
    """Segment-exact holds/fails status of a certificate.

    Every segment that meets [t0, t0 + horizon] is evaluated once:
    delta = alpha - S and gamma = 2|delta| - D, with D restricted to the
    cluster.  The rule is the certificate's: fails if some delta > -margin,
    else fails if min gamma < threshold + margin, else holds.  alpha and
    beta are constant per pair (scalars or (n, n) arrays).  Returns
    "holds", "fails" or "either" when gamma_bar is within the rounding
    band of the threshold, or within the band that a grid-sampled mu2 may
    move it (``mu2_slack``, cluster checks only).  ``grid_step`` evaluates
    delta and gamma only on the segments the certificate's grid meets (see
    segment_margins).
    """
    t1 = t0 + horizon
    n = segments[0][1].shape[0]
    nodes = list(range(n)) if cluster is None else list(cluster)
    delta_max, gamma_bar = segment_margins(segments, t0, t1, c, alpha, nodes, grid_step)
    if delta_max > -MARGIN:
        return "fails"
    mu1 = float(np.sqrt(np.sum((2.0 * pair_values(beta, n, nodes)) ** 2)))
    mu2 = None if cluster is None else mu2_exact(segments, t0, t1, c, nodes, rho)
    levels = [threshold(heterogeneity(mu1, mu2, n, cluster), bound_M) + MARGIN]
    if cluster is not None and mu2_slack > 0:
        for m in (max(0.0, mu2 - mu2_slack), mu2 + mu2_slack):
            level = heterogeneity(mu1, m, n, cluster)
            if level < bound_M:
                levels.append(threshold(level, bound_M) + MARGIN)
    band = 1e-9 * (1.0 + abs(gamma_bar))
    if gamma_bar < min(levels) - band:
        return "fails"
    if gamma_bar > max(levels) + band:
        return "holds"
    return "either"


def static_threshold(A, l_rho):
    """({pair: 2 S - D}, least certifying coupling or None).

    The coupling is the closed form max_p 2 l / (2 S_p - D_p) (0 when
    l <= 0); None when some pair violates the hypothesis 2 S - D > 0.
    """
    A = zero_diagonal(A)
    n = A.shape[0]
    S, D = pair_sums(A, list(range(n)))
    hyp = 2.0 * S - D
    values = dict(zip(pairs(range(n)), hyp.tolist()))
    if (hyp <= 0).any():
        return values, None
    return values, float(np.max(2.0 * l_rho / hyp)) if l_rho > 0 else 0.0


def pullback_exact(a, s, k, t):
    """Bounded entire solution of x' = a x + s sin t + k (a < 0) at time t."""
    return (-a * s * math.sin(t) - s * math.cos(t)) / (1.0 + a * a) - k / a


def coupled_gamma(segments, t0, t1, c, rates, times=None):
    """Exact inf over [t0, t1] of min_i -l_i - 2 sum_k a_ik (constant rates);
    with ``times``, the inf over the segments active at those times only."""
    segs = segments_meeting(segments, t0, t1)
    if times is not None:
        segs = [segs[k] for k in np.unique(active([a for a, _, _ in segs], times))]
    gamma = math.inf
    for _, _, A in segs:
        gamma = min(gamma, float(np.min(-np.asarray(rates) - 2.0 * (c * A).sum(axis=1))))
    return gamma


def read_csv(path):
    """(header, rows) of a numeric CSV written by the program."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, body


def check_error_csvs(traj_path, err_path, n, m):
    """Check errors.csv against the squared pairwise distances and the
    max-spread error recomputed from trajectory.csv.  Returns an error
    message or None, and the parsed (times, xi, e_hat) for further checks.
    """
    th, tb = read_csv(traj_path)
    eh, eb = read_csv(err_path)
    pl = pairs(range(n))
    want_th = ["t"] + [f"x_{i + 1}_{q + 1}" for i in range(n) for q in range(m)]
    want_eh = ["t"] + [f"xi_{i + 1}_{j + 1}" for i, j in pl] + ["e_hat"]
    if th != want_th or eh != want_eh:
        return "CSV header mismatch", None
    if tb.shape[0] != eb.shape[0] or not np.array_equal(tb[:, 0], eb[:, 0]):
        return "trajectory and error CSVs disagree on times", None
    times = tb[:, 0]
    if not (np.all(np.diff(times) > 0) and np.isfinite(tb).all()):
        return "trajectory times not increasing or states not finite", None
    X = tb[:, 1:].reshape(len(times), n, m)
    iu = np.array([i for i, _ in pl])
    ju = np.array([j for _, j in pl])
    d = X[:, iu, :] - X[:, ju, :]
    xi = (d * d).sum(axis=2)
    spread = X.max(axis=1) - X.min(axis=1)
    e_hat = np.sqrt((spread * spread).sum(axis=1))
    got_xi, got_e = eb[:, 1:-1], eb[:, -1]
    if not np.allclose(got_xi, xi, rtol=1e-12, atol=1e-300):
        k = np.unravel_index(np.argmax(np.abs(got_xi - xi)), xi.shape)
        return f"errors.csv xi differs from trajectory.csv at row {k[0]}, column {k[1]}", None
    if not np.allclose(got_e, e_hat, rtol=1e-12, atol=1e-300):
        return "errors.csv e_hat differs from trajectory.csv", None
    return None, (times, got_xi, got_e)
