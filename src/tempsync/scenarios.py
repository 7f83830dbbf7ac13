"""End-to-end experiment harnesses at desk scale.

Four scenario families: heterogeneous van der Pol oscillators on a randomly
switching topology, a signed consensus ring with a compensated contrarian
node, recurrent cluster formation in a FitzHugh-Nagumo network driven by two
leader neurons, and chaotic Lorenz nodes on a directed star.  Runs are fully
seeded; identical (scenario, seed, config) produce bit-identical CSV output.
Acceptance predicates are order-of-magnitude contrasts and monotone trends,
not curve matching.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import _kernels as kern
from .certificates import check_full_sync
from .integrate import SolverConfig, _Record, integrate, pairwise_errors
from .model import (
    AdjacencySchedule,
    NetworkSystem,
    NodeField,
    build_switching_schedule,
    pair_bounds_for_identical_nodes,
    static_schedule,
)


class RunReport(_Record):
    """One scenario run: scenario, seed, parameters, metrics and passed; the
    written file names trajectory_csv, errors_csv, certificate_json and
    report_json, and series (the ErrorSeries), stay None unless set."""

    trajectory_csv = errors_csv = certificate_json = report_json = series = None

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "parameters": self.parameters,
            "metrics": self.metrics,
            "passed": self.passed,
            "files": {
                "trajectory": self.trajectory_csv,
                "errors": self.errors_csv,
                "certificate": self.certificate_json,
            },
        }


def _report(scenario, args, traj, err, metrics, passed, certificate=None) -> RunReport:
    """The RunReport of a runner called with arguments args (its locals at
    entry): parameters are args less seed, out_dir and return_series.  With
    out_dir set, the CSVs, the certificate and report.json are written there."""
    out_dir, seed, keep_series = (args.pop(k) for k in ("out_dir", "seed", "return_series"))
    report = RunReport(scenario=scenario, seed=seed, parameters=args, metrics=metrics,
                       passed=passed, series=err if keep_series else None)
    if out_dir is None:
        return report
    os.makedirs(out_dir, exist_ok=True)
    report.trajectory_csv, report.errors_csv = "trajectory.csv", "errors.csv"
    traj.to_csv(os.path.join(out_dir, report.trajectory_csv))
    err.to_csv(os.path.join(out_dir, report.errors_csv))
    if certificate is not None:
        report.certificate_json = "certificate.json"
        certificate.write_json(os.path.join(out_dir, report.certificate_json))
    report.report_json = "report.json"
    report.write_json(os.path.join(out_dir, report.report_json))
    return report


def _tail_mask(times, horizon):
    return times >= 0.75 * horizon  # the final quarter of [0, horizon]


def _connected_undirected(support: np.ndarray) -> bool:
    n = support.shape[0]
    und = support | support.T
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(und[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return bool(seen.all())


def _random_connected_symmetric(rng, n, density):
    draws = 1000
    for _ in range(draws):
        upper = rng.random((n, n)) < density
        m = np.triu(upper, k=1)
        m = m | m.T
        if _connected_undirected(m):
            return m.astype(float)
    raise ValueError(f"no connected topology in {draws} draws at density {density}")


def run_jobs(fn, kwargs_list, workers: int = 1):
    """Run independent scenario jobs, optionally across processes."""
    if workers <= 1:
        return [fn(**kw) for kw in kwargs_list]
    from concurrent.futures import ProcessPoolExecutor  # costly to import; only pools need it

    with ProcessPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(fn, **kw) for kw in kwargs_list]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# van der Pol oscillators on a randomly switching topology
# ---------------------------------------------------------------------------

def _vdp_system(n_nodes, delta_t, c, horizon, rng, eps0, density):
    b = rng.uniform(0.5, 1.0, n_nodes)
    omega = rng.uniform(1.0, 2.0, n_nodes)
    n_segments = int(math.ceil(horizon / delta_t))
    segments = [
        (k * delta_t, _random_connected_symmetric(rng, n_nodes, density))
        for k in range(n_segments)
    ]
    schedule = build_switching_schedule(n_nodes, segments)

    last = [None, None]  # (t, -eps0 (1 + sin(omega t)/2)) of the latest call
    # the literals as 0-d arrays: numpy converts a Python float operand on every call
    neg_eps0, one, half, three = (np.array(lit) for lit in (-eps0, 1.0, 0.5, 3.0))

    def stacked(t, X):
        if last[0] != t:
            last[:] = t, neg_eps0 * (one + half * np.sin(omega * t))
        u = X[:, 0]
        v = X[:, 1]
        out = np.empty_like(X)  # each column written by its last ufunc, not copied in
        np.subtract(v + b * u, u ** three / three, out=out[:, 0])
        np.multiply(last[1], u, out=out[:, 1])
        return out

    return NetworkSystem(NodeField(2, stacked), schedule, global_coupling=c / n_nodes)


def run_vdp(n_nodes=5, delta_t=50.0, c=1.0, seed=0, horizon=150.0, *,
            eps0=0.1, density=0.5, dt=2e-3, out_dir=None, return_series=False) -> RunReport:
    """Heterogeneous van der Pol network; coupling is c/N times 0/1 weights.

    Amplitudes b_i are uniform in (1/2, 1) and the time-dependent parameter
    is eps0 (1 + sin(omega_i t)/2) with omega_i uniform in (1, 2).  The 0/1
    topology is resampled every delta_t units with connectivity enforced by
    rejection.  Metrics cover the final quarter of the horizon.
    """
    args = dict(locals())
    if c < 0:
        raise ValueError("c must be nonnegative")
    rng = np.random.default_rng(seed)
    system = _vdp_system(n_nodes, delta_t, c, horizon, rng, eps0, density)
    x0 = rng.uniform(-2.0, 2.0, (n_nodes, 2))
    cfg = SolverConfig(dt=dt, record_stride=10)
    traj = integrate(system, 0.0, x0, horizon, cfg)
    err = pairwise_errors(traj)
    tail = _tail_mask(err.times, horizon)
    metrics = {
        "tail_max_e_hat": float(err.e_hat[tail].max()),
        "tail_mean_e_hat": float(err.e_hat[tail].mean()),
        "tail_max_xi": float(err.xi[tail].max()),
    }
    return _report("vdp", args, traj, err, metrics, passed=True)


def run_vdp_sweep(c_values, n_nodes=5, delta_t=50.0, seed=0, horizon=150.0,
                  workers=1, separation=0.2, **kw):
    """Sweep the global coupling; returns (reports, trend_ok).

    trend_ok demands the tail mean error strictly decrease along c_values
    with at least the given relative separation between consecutive values.
    """
    jobs = [
        dict(n_nodes=n_nodes, delta_t=delta_t, c=c, seed=seed, horizon=horizon, **kw)
        for c in c_values
    ]
    reports = run_jobs(run_vdp, jobs, workers=workers)
    means = [r.metrics["tail_mean_e_hat"] for r in reports]
    trend_ok = all(b <= (1.0 - separation) * a for a, b in zip(means[:-1], means[1:]))
    return reports, trend_ok


# ---------------------------------------------------------------------------
# consensus ring with a compensated contrarian node
# ---------------------------------------------------------------------------

def build_contrarian_ring(n_nodes, a, a12, time_varying=False, rng=None) -> NetworkSystem:
    """Two-nearest-neighbor ring of scalar consensus agents with one contrarian.

    Node 0 influences its four ring neighbors {1, 2, n-2, n-1} with weight
    -a (or -1/2 + sin(omega_i t)/2 in the time-varying variant) and receives
    only the compensation edge a12 from node 1; every other ring edge has
    conformist weight 1.  With a = 0, a12 = 0 and static weights there is no
    contrarian at all and the plain conformist ring is returned.
    """
    if n_nodes < 7:
        raise ValueError("the ring construction needs at least 7 nodes")
    base = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        for off in (-2, -1, 1, 2):
            base[i, (i + off) % n_nodes] = 1.0
    influenced = [1, 2, n_nodes - 2, n_nodes - 1]
    if a != 0.0 or a12 != 0.0 or time_varying:
        base[0, :] = 0.0
        base[0, 1] = a12
        for i in influenced:
            base[i, 0] = -a
    if time_varying:
        rng = rng or np.random.default_rng(0)
        omegas = rng.uniform(1.0, 2.0, len(influenced))

        def piece(t, base=base.copy()):
            m = base.copy()
            for w, i in zip(omegas, influenced):
                m[i, 0] = -0.5 + 0.5 * math.sin(w * t)
            return m

        schedule = AdjacencySchedule(n_nodes, [0.0], [piece])
    else:
        schedule = static_schedule(base)
    return NetworkSystem(NodeField(1, lambda t, X: np.zeros_like(X)), schedule)


def run_ring_contrarian(n_nodes=10, a=0.5, a12=1.0, time_varying=False, seed=0,
                        horizon=60.0, *, dt=1e-3, out_dir=None,
                        return_series=False) -> RunReport:
    """Signed consensus on the contrarian ring.

    The consensus predicate is tail max pairwise |x_i - x_j| < 1e-6 over the
    final quarter of the horizon.  With out_dir given a synchronization
    certificate for the ring is evaluated and exported.
    """
    args = dict(locals())
    rng = np.random.default_rng(seed)
    system = build_contrarian_ring(n_nodes, a, a12, time_varying=time_varying, rng=rng)
    x0 = rng.uniform(-1.0, 1.0, (n_nodes, 1))
    cfg = SolverConfig(dt=dt, record_stride=10)
    traj = integrate(system, 0.0, x0, horizon, cfg)
    err = pairwise_errors(traj)
    tail = _tail_mask(err.times, horizon)
    tail_disagreement = float(np.sqrt(err.xi[tail].max()))
    consensus = tail_disagreement < 1e-6
    metrics = {
        "tail_max_disagreement": tail_disagreement,
        "tail_max_xi": float(err.xi[tail].max()),
        "consensus": consensus,
    }
    certificate = None
    if out_dir is not None:
        rho = 1.5 * float(np.abs(traj.states).max())
        bounds = pair_bounds_for_identical_nodes(n_nodes, 0.0, max(rho, 1e-6))
        certificate = check_full_sync(
            system, bounds, min(horizon, 20.0), bound_M=1.0, epsilon=1e-6
        )
        metrics["certificate_verdict"] = certificate.verdict.render()
        metrics["gamma_bar"] = certificate.gamma_bar
    return _report("ring-contrarian", args, traj, err, metrics, consensus, certificate)


def ring_symbolic_certificate(a, a12, n_nodes) -> dict:
    """Published closed forms for the contrarian ring's near-pair rates.

    Cross-check contract: direct evaluation on the constructed ring matches
    delta_12, delta_13, gamma_12 and gamma_13 to machine precision.  The
    published delta_23 (and hence gamma_23) is inconsistent with the general
    pair formula on this topology; both values are reported so the
    discrepancy stays visible.

    The *_direct entries follow from the pair formula
    S_ij = a_ij + a_ji + (1/2) sum_{k != i, j} (a_ik + a_jk), the coefficient
    of e_ij in d/dt (x_i - x_j) after splitting the k != i, j terms evenly.
    Besides a_23 = a_32 = 1, node 2 receives a_21 = -a, a_24 = 1 and
    a_2N = 1, and node 3 receives a_31 = -a, a_34 = 1 and a_35 = 1, so
    S_23 = 2 + (2 - a + 2 - a)/2 = 4 - a, delta_23_direct = -(4 - a) and
    gamma_23_direct = 2|4 - a| - 2.  The published delta_23 = -(5/2 - a)
    lies exactly 3/2 above it; matching it would need a_23 + a_32 = -1,
    which no conformist pair allows.  The published gamma_23 =
    2|5/2 - a| - 2 inherits the slip and, for a < 5/2, lies exactly 3 below
    gamma_23_direct.
    """
    if n_nodes < 7:
        raise ValueError("the ring construction needs at least 7 nodes")
    d12 = -(a12 + 1.5 - a)
    d13 = -(0.5 * a12 + 1.5 - a)
    d23 = -(2.5 - a)
    return {
        "delta_12": d12,
        "delta_13": d13,
        "delta_23": d23,
        "gamma_12": 2.0 * abs(d12) - 3.0,
        "gamma_13": 2.0 * abs(d13) - abs(1.0 - a12) - 2.0,
        "gamma_23": 2.0 * abs(d23) - 2.0,
        "delta_23_direct": -(4.0 - a),
        "gamma_23_direct": 2.0 * abs(4.0 - a) - 2.0,
    }


# ---------------------------------------------------------------------------
# FitzHugh-Nagumo clusters driven by two leader neurons
# ---------------------------------------------------------------------------

def _random_fhn_graph(rng, n, leaders, density):
    """A connected support in which each leader has at least two out-neighbours
    (so n >= 3: the diagonal is empty)."""
    draws = 2000
    for _ in range(draws):
        m = (rng.random((n, n)) < density)
        np.fill_diagonal(m, False)
        if not _connected_undirected(m):
            continue
        if all(int(m[:, l].sum()) >= 2 for l in leaders):
            return m.astype(float)
    raise ValueError(
        f"no connected topology with two out-neighbours per leader in {draws} draws "
        f"at density {density}")


_FHN_BACKGROUND = 0.01  # every edge's weight outside its leader's active windows


def _fhn_schedule(n_nodes, support, leaders, a_bar, omegas, horizon):
    """Piecewise-constant schedule with leader out-weights gated by sin signs.

    Breakpoints sit at every sign change of sin(omega_l t) and sin(omega_k t),
    so the integrator grid aligns exactly with the weight switches.
    """
    cuts = {0.0}
    for w in omegas:
        m = 1
        while m * math.pi / w < horizon:
            cuts.add(m * math.pi / w)
            m += 1
    cuts = sorted(cuts)
    segments = []
    probe = 1e-6  # far below any window length, safely past the crossing
    for t_start in cuts:
        m = support * _FHN_BACKGROUND
        for leader, w in zip(leaders, omegas):
            level = a_bar if math.sin(w * (t_start + probe)) >= 0.0 else _FHN_BACKGROUND
            m[:, leader] = support[:, leader] * level
        segments.append((t_start, m))
    return build_switching_schedule(n_nodes, segments)


def _fhn_system(n_nodes, rng, leaders, a_bar, omegas, horizon, density):
    cpar = rng.uniform(0.75, 1.0, n_nodes)
    apar = rng.uniform(-0.3, 0.3, n_nodes)
    bpar = rng.uniform(0.1, 2.0, n_nodes)
    ipar = rng.uniform(0.0, 0.01, n_nodes)
    for leader, pars in zip(leaders, [(0.5, 0.1, 0.3, 1.4), (0.75, 0.15, 0.3, 1.4)]):
        cpar[leader], ipar[leader], apar[leader], bpar[leader] = pars
    support = _random_fhn_graph(rng, n_nodes, leaders, density)
    schedule = _fhn_schedule(n_nodes, support, leaders, a_bar, omegas, horizon)

    three, eps = np.array(3.0), np.array(0.05)  # 0-d operands, as in _vdp_system

    def stacked(t, X):
        x = X[:, 0]
        y = X[:, 1]
        out = np.empty_like(X)
        np.add(cpar * x - x ** three - y, ipar, out=out[:, 0])
        np.multiply(eps, x + apar - bpar * y, out=out[:, 1])  # time-scale ratio eps
        return out

    system = NetworkSystem(NodeField(2, stacked), schedule)
    return system, support


def _window_contrast(times, states, cluster, omega, metrics_start):
    """(in-window, out-window) max cluster spread, measured on the settled
    part (last half) of each sign window of sin(omega t)."""
    sub = states[:, cluster, :]
    spread = kern.e_hat_series(sub)
    in_window = np.sin(omega * times) >= 0.0
    edges = np.nonzero(np.diff(in_window.astype(int)))[0] + 1
    bounds = np.concatenate([[0], edges, [len(times)]])
    in_vals, out_vals = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        t_lo, t_hi = times[lo], times[hi - 1]
        if t_hi <= metrics_start or t_hi == t_lo:
            continue
        settled = times[lo:hi] >= t_lo + 0.5 * (t_hi - t_lo)
        settled &= times[lo:hi] >= metrics_start
        if not settled.any():
            continue
        val = float(spread[lo:hi][settled].max())
        (in_vals if in_window[lo] else out_vals).append(val)
    in_metric = max(in_vals) if in_vals else math.nan
    out_metric = max(out_vals) if out_vals else math.nan
    return in_metric, out_metric


def run_fhn_clusters(n_nodes=15, a_bar=3.0, omega_l=0.10, omega_k=0.063, seed=0,
                     horizon=240.0, *, density=0.3, dt=5e-3, metrics_start=50.0,
                     contrast=0.1, out_dir=None, return_series=False) -> RunReport:
    """Recurrent cluster synchronization around two leader neurons.

    Leader out-weights switch between a_bar and the 1/100 background by the
    sign of sin(omega t); within active windows the leader plus its
    out-neighbors synchronize.  The predicate compares the settled in-window
    cluster spread against the out-window spread for both leaders.
    """
    args = dict(locals())
    if a_bar <= _FHN_BACKGROUND:
        raise ValueError(f"a_bar must exceed the background weight {_FHN_BACKGROUND}")
    if n_nodes < 3:
        raise ValueError(
            f"n_nodes must be at least 3 (each leader needs two out-neighbours), got {n_nodes}")
    rng = np.random.default_rng(seed)
    leaders = rng.choice(n_nodes, size=2, replace=False)
    leaders = [int(leaders[0]), int(leaders[1])]
    omegas = [omega_l, omega_k]
    system, support = _fhn_system(
        n_nodes, rng, leaders, a_bar, omegas, horizon, density
    )
    x0 = np.column_stack(
        [rng.uniform(-1.0, 1.0, n_nodes), rng.uniform(-0.5, 0.5, n_nodes)]
    )
    cfg = SolverConfig(dt=dt, record_stride=4)
    traj = integrate(system, 0.0, x0, horizon, cfg)
    err = pairwise_errors(traj)

    clusters = [
        sorted({leader} | set(np.nonzero(support[:, leader])[0].tolist()))
        for leader in leaders
    ]
    ratios = {}
    for name, leader, cluster, w in zip(("l", "k"), leaders, clusters, omegas):
        iv, ov = _window_contrast(traj.times, traj.states, cluster, w, metrics_start)
        ratios[name] = {
            "leader": leader + 1,
            "cluster": [i + 1 for i in cluster],
            "in_window": iv,
            "out_window": ov,
            "ratio": iv / ov if ov and not math.isnan(ov) else math.nan,
        }
    passed = all(
        not math.isnan(r["ratio"]) and r["ratio"] <= contrast for r in ratios.values()
    )
    metrics = {
        "ratio_l": ratios["l"]["ratio"],
        "ratio_k": ratios["k"]["ratio"],
        "windows": ratios,
    }
    return _report("fhn-clusters", args, traj, err, metrics, passed)


# ---------------------------------------------------------------------------
# Lorenz nodes on a directed star
# ---------------------------------------------------------------------------

class StarFeasibility(_Record):
    """Fields: case ("feasible-A" | "feasible-B" | "infeasible"), feasible,
    hub_pair_value and satellite_ok (the satellite-pair condition a > 0)."""

    def to_json_dict(self) -> dict:
        return dict(vars(self))  # the four fields, each a JSON value


def star_feasibility(a, b, n_nodes) -> StarFeasibility:
    """Coupling-threshold feasibility of the directed star.

    The hub-satellite pair hypothesis reads 2(b + a) + (N - 2)(b - |b|) > 0:
    with b < 0 it needs a > -b(N - 1) (case A), with b >= 0 any a > -b works
    (case B).  Satellite pairs additionally need a > 0.
    """
    value = 2.0 * (b + a) + (n_nodes - 2) * (b - abs(b))
    feasible = value > 0.0
    if not feasible:
        case = "infeasible"
    else:
        case = "feasible-A" if b < 0 else "feasible-B"
    return StarFeasibility(case=case, feasible=feasible, hub_pair_value=value,
                           satellite_ok=a > 0.0)


def star_matrix(n_nodes, a, b) -> np.ndarray:
    """Hub node 0 sends weight a to every leaf; leaves send b back."""
    m = np.zeros((n_nodes, n_nodes))
    m[1:, 0] = a
    m[0, 1:] = b
    return m


def _wobble(star, freqs):
    """t -> star (1 + 0.1 sin(freqs t)), its literals as 0-d operands."""
    one, tenth = np.array(1.0), np.array(0.1)

    def wobble(t):
        return star * (one + tenth * np.sin(freqs * t))

    return wobble


def _lorenz_system(n_nodes, schedule, c, rng, heterogeneous):
    sigma = np.full(n_nodes, 10.0)
    rho = np.full(n_nodes, 28.0)
    beta = np.full(n_nodes, 8.0 / 3.0)
    if heterogeneous:
        sigma[1:] = rng.uniform(9.0, 11.0, n_nodes - 1)
        rho[1:] = rng.uniform(27.0, 29.0, n_nodes - 1)
        beta[1:] = rng.uniform(8.0 / 3.0 - 1.0, 8.0 / 3.0 + 1.0, n_nodes - 1)

    def stacked(t, X):
        x, y, z = X[:, 0], X[:, 1], X[:, 2]
        out = np.empty_like(X)
        np.multiply(sigma, y - x, out=out[:, 0])
        np.subtract(x * (rho - z), y, out=out[:, 1])
        np.subtract(x * y, beta * z, out=out[:, 2])
        return out

    return NetworkSystem(NodeField(3, stacked), schedule, global_coupling=c)


def run_lorenz_star(n_nodes=5, a=5.0, b=-1.0, c=2.0, heterogeneous=False,
                    perturb=None, seed=0, horizon=60.0, *, t_on=10.0,
                    out_dir=None, return_series=False) -> RunReport:
    """Chaotic Lorenz nodes on a directed star, coupling switched on at t_on.

    perturb: None for static weights, "sin" for a +-10% sinusoidal weight
    modulation with random frequencies in (pi, 2 pi), "tanh" for the slow
    hub ramp a(t) = 4 + 3 tanh((t - t_on)/5) active from t = 0.  The sync
    predicate compares the mean spread error after t_on + 20 against the
    decoupled window [0, t_on).
    """
    args = dict(locals())
    rng = np.random.default_rng(seed)
    star = star_matrix(n_nodes, a, b)
    if perturb is None:
        schedule = build_switching_schedule(
            n_nodes, [(0.0, np.zeros((n_nodes, n_nodes))), (t_on, star)]
        )
    elif perturb == "sin":
        freqs = rng.uniform(math.pi, 2 * math.pi, (n_nodes, n_nodes))
        schedule = AdjacencySchedule(
            n_nodes, [0.0, t_on],
            [np.zeros((n_nodes, n_nodes)), _wobble(star.copy(), freqs)],
        )
    elif perturb == "tanh":
        def ramp(t, b=b, t_on=t_on, n=n_nodes):
            m = np.zeros((n, n))
            m[1:, 0] = 4.0 + 3.0 * math.tanh((t - t_on) / 5.0)
            m[0, 1:] = b
            return m

        schedule = AdjacencySchedule(n_nodes, [0.0], [ramp])
    else:
        raise ValueError("perturb must be None, 'sin' or 'tanh'")
    system = _lorenz_system(n_nodes, schedule, c, rng, heterogeneous)
    x0 = rng.uniform(-1.0, 1.0, (n_nodes, 3))
    traj = integrate(system, 0.0, x0, horizon, SolverConfig(method="rk45", rtol=1e-6, atol=1e-9))
    err = pairwise_errors(traj)
    pre = err.times < t_on
    post = err.times >= t_on + 20.0
    pre_mean = float(err.e_hat[pre].mean()) if pre.any() else math.nan
    post_mean = float(err.e_hat[post].mean()) if post.any() else math.nan
    ratio = post_mean / pre_mean if pre_mean else math.nan
    feas = star_feasibility(a, b, n_nodes)
    metrics = {
        "pre_mean_e_hat": pre_mean,
        "post_mean_e_hat": post_mean,
        "ratio": ratio,
        "tail_max_e_hat": float(err.e_hat[_tail_mask(err.times, horizon)].max()),
        "feasibility": feas.case,
    }
    passed = not math.isnan(ratio) and ratio <= 1e-2
    return _report("lorenz-star", args, traj, err, metrics, passed, feas)
