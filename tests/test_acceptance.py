"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 1 checks the contrarian ring's closed forms against direct
evaluation: the published delta_12 and gamma_13, and the pair formula's
delta_23 = -(4 - a) and gamma_23 = 2|4 - a| - 2.  The published delta_23,
-(5/2 - a), is pinned at its exact offset of 3/2 from the pair formula, so the
misprint stays visible without failing the suite.
"""

import math

import numpy as np
import pytest

import tempsync as ts
from tempsync._kernels import pair_index
from tempsync.certificates import ComparisonSystem


def _line(num, status, detail=""):
    print(f"ACCEPTANCE {num:>2}: {status}" + (f" - {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# criterion 1: ring closed-form agreement (100 random draws, N=10, <=1e-12)
# ---------------------------------------------------------------------------

def test_criterion_01_ring_closed_form():
    # pair (2,3): node 2's other in-weights are a_21 = -a, a_24 = 1 and
    # a_2N = 1; node 3's are a_31 = -a, a_34 = 1 and a_35 = 1, so the pair
    # formula gives S_23 = a_23 + a_32 + (2 - a + 2 - a)/2 = 4 - a
    n = 10
    rng = np.random.default_rng(1)
    bounds = ts.PairBoundSet.constant(n, 0.0, 0.0, rho=1.0)
    worst = {"delta_12": 0.0, "delta_23": 0.0, "gamma_23": 0.0, "gamma_13": 0.0,
             "published delta_23 offset": 0.0}
    for _ in range(100):
        a = float(rng.uniform(0.05, 1.4))
        a12 = float(rng.uniform(0.0, 2.0))
        system = ts.build_contrarian_ring(n, a, a12)
        _, delta, gamma = ts.evaluate_comparison(system, bounds, 0.0)
        tbl = ts.ring_symbolic_certificate(a, a12, n)
        d23 = -(4.0 - a)
        g23 = 2.0 * abs(4.0 - a) - 2.0
        errs = {
            "delta_12": abs(delta[pair_index(0, 1, n)] - tbl["delta_12"]),
            "delta_23": max(abs(delta[pair_index(1, 2, n)] - d23),
                            abs(tbl["delta_23_direct"] - d23)),
            "gamma_23": max(abs(gamma[pair_index(1, 2, n)] - g23),
                            abs(tbl["gamma_23_direct"] - g23)),
            "gamma_13": abs(gamma[pair_index(0, 2, n)] - tbl["gamma_13"]),
            # the published -(5/2 - a) sits exactly 3/2 above the pair formula
            "published delta_23 offset": abs(
                (tbl["delta_23"] - delta[pair_index(1, 2, n)]) - 1.5
            ),
        }
        worst = {k: max(worst[k], errs[k]) for k in worst}
    ok = {k: v <= 1e-12 for k, v in worst.items()}
    status = "PASS" if all(ok.values()) else "FAIL"
    _line(1, status, ", ".join(f"{k}: max err {v:.3g}" for k, v in worst.items()))
    assert all(ok.values()), worst


# ---------------------------------------------------------------------------
# criterion 2: ring behavioral dichotomy with time-varying contrarians
# ---------------------------------------------------------------------------

def test_criterion_02_ring_behavioral_dichotomy():
    good = ts.run_ring_contrarian(
        10, a=0.5, a12=1.0, time_varying=True, seed=1, horizon=60.0,
        certify=False, return_series=True,
    )
    sync_err = good.series
    late = sync_err.times >= 40.0
    settled = float(np.sqrt(sync_err.xi[late].max()))
    bad = ts.run_ring_contrarian(
        10, a=0.5, a12=0.0, time_varying=True, seed=1, horizon=60.0,
        certify=False, return_series=True,
    )
    tail = bad.series.times >= 45.0
    diverged = float(np.sqrt(bad.series.xi[tail].max()))
    ok = settled < 1e-6 and diverged > 1e-1
    _line(2, "PASS" if ok else "FAIL",
          f"compensated: {settled:.2e} < 1e-6; uncompensated: {diverged:.2e} > 1e-1")
    assert settled < 1e-6
    assert diverged > 1e-1


# ---------------------------------------------------------------------------
# criteria 3 and 4: comparison soundness and row-dominance decay on a
# seeded ensemble of random switching signed networks (N <= 4)
# ---------------------------------------------------------------------------

def _ensemble_instance(seed):
    rng = np.random.default_rng(10_000 + seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 3))
    contractive = seed % 2 == 0
    lo, hi = (-0.05, 0.85) if contractive else (-0.3, 0.9)
    n_seg = int(rng.integers(1, 4))
    starts = [0.0] + sorted(rng.uniform(0.5, 3.5, n_seg - 1).tolist())
    segments = [(t, rng.uniform(lo, hi, (n, n))) for t in starts]
    schedule = ts.build_switching_schedule(n, segments)
    if contractive:
        system = ts.NetworkSystem(ts.NodeField(m, lambda t, X: -X), schedule)
        bounds = ts.PairBoundSet.constant(n, -1.0, 0.0, rho=3.0)
    else:
        system = ts.NetworkSystem(
            ts.NodeField(m, lambda t, X: -X + math.sin(t)), schedule
        )
        bounds = ts.pair_bounds_for_identical_nodes(n, 1.0, rho=3.0)
    x0 = rng.uniform(-1.0, 1.0, (n, m))
    return system, bounds, x0


@pytest.fixture(scope="module")
def soundness_ensemble():
    horizon = 4.0
    cfg = ts.SolverConfig(dt=1e-3, record_stride=10)
    grid = np.arange(0.0, horizon + 1e-9, 0.01)
    results = []
    for seed in range(100):
        system, bounds, x0 = _ensemble_instance(seed)
        traj = ts.integrate(system, 0.0, x0, horizon, cfg)
        err = ts.pairwise_errors(traj)
        cs = ComparisonSystem.from_network(system, bounds)
        comp = ts.comparison_solve(cs, 0.0, err.xi[0], horizon, cfg)
        assert comp.times.shape == err.times.shape
        dominated = bool(
            np.all(err.xi <= comp.u + 1e-6 * np.maximum(1.0, comp.u))
        )
        decay = ts.dominance_decay_check(cs, grid)
        results.append((seed, dominated, decay))
    return results


def test_criterion_03_comparison_soundness(soundness_ensemble):
    bad = [seed for seed, dominated, _ in soundness_ensemble if not dominated]
    _line(3, "PASS" if not bad else "FAIL",
          f"{len(soundness_ensemble)} seeded networks, unsound: {bad}")
    assert not bad


def test_criterion_04_row_dominance_decay(soundness_ensemble):
    certified = [(s, d) for s, _, d in soundness_ensemble if d.gamma_bar > 0]
    unverified = [s for s, d in certified if not d.verified]
    worst = max((d.max_ratio for _, d in certified), default=0.0)
    ok = len(certified) >= 10 and not unverified
    _line(4, "PASS" if ok else "FAIL",
          f"{len(certified)} certified instances, worst norm ratio {worst:.9f}")
    assert len(certified) >= 10, "ensemble produced too few certified systems"
    assert not unverified


# ---------------------------------------------------------------------------
# criterion 5: certificate bound realization under global coupling
# ---------------------------------------------------------------------------

def test_criterion_05_bound_realization():
    n = 3
    drift = np.array([0.0, 0.3, 0.6])
    A = np.ones((n, n)) - np.eye(n)

    def system_for(c):
        return ts.NetworkSystem(
            ts.NodeField(1, lambda t, X: -X + (drift * math.sin(t))[:, None]),
            ts.static_schedule(A), global_coupling=c,
        )

    bounds = ts.PairBoundSet(
        n, 2.0,
        alpha=lambda i, j, t: -0.5,
        beta=lambda i, j, t: 0.5 * (drift[i] - drift[j]) ** 2 * math.sin(t) ** 2,
        global_bounds=True,
    )
    eps = 0.05
    cert = ts.check_full_sync(system_for(1.0), bounds, 10.0, bound_M=1.0, epsilon=eps)
    assert cert.verdict.holds
    x0 = np.random.default_rng(11).uniform(-1, 1, (n, 1))
    cfg = ts.SolverConfig(dt=1e-3, record_stride=10)
    realized = []
    for c in (1.0, 2.0, 5.0, 10.0):
        traj = ts.integrate(system_for(c), 0.0, x0, 12.0, cfg)
        err = ts.pairwise_errors(traj)
        tail_max = float(err.xi[err.times >= cert.settle_time].max())
        bound = ts.refined_bounds(cert, c).asymptotic_bound
        realized.append((c, tail_max, bound))
    ok = all(t <= b for _, t, b in realized)
    _line(5, "PASS" if ok else "FAIL",
          "; ".join(f"c={c:g}: {t:.2e} <= {b:.3g}" for c, t, b in realized))
    for c, tail_max, bound in realized:
        assert tail_max <= bound, (c, tail_max, bound)


# ---------------------------------------------------------------------------
# criterion 6: static coupling threshold in closed form
# ---------------------------------------------------------------------------

def test_criterion_06_static_threshold():
    # complete graph N=3, unit weights, rate 1: delta = 1 - 3c and
    # gamma = 2(3c - 1), both satisfied exactly for c > 1/3
    A = np.ones((3, 3)) - np.eye(3)
    c_bar = ts.static_threshold(A, 1.0)
    err = abs(c_bar - 1.0 / 3.0)
    _line(6, "PASS" if err <= 1e-9 else "FAIL", f"c_bar = {c_bar!r}, |err| = {err:.2e}")
    assert err <= 1e-9


# ---------------------------------------------------------------------------
# criterion 7: star feasibility against direct hypothesis evaluation
# ---------------------------------------------------------------------------

def test_criterion_07_star_feasibility():
    assert ts.star_feasibility(5.0, -1.0, 5).case == "feasible-A"
    assert ts.star_feasibility(3.0, -1.0, 5).case == "infeasible"
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(1000):
        a = float(rng.uniform(-3, 9))
        b = float(rng.uniform(-2.5, 2.5))
        n = int(rng.integers(3, 16))
        direct = 2 * (b + a) + (n - 2) * (b - abs(b)) > 0
        if ts.star_feasibility(a, b, n).feasible != direct:
            mismatches += 1
    _line(7, "PASS" if mismatches == 0 else "FAIL",
          f"1000 random draws, {mismatches} disagreements")
    assert mismatches == 0


# ---------------------------------------------------------------------------
# criterion 8: Lorenz star error collapse, with and without perturbation
# ---------------------------------------------------------------------------

def test_criterion_08_lorenz_star_trend():
    ratios = {}
    for label, perturb in (("static", None), ("perturbed", "sin")):
        report = ts.run_lorenz_star(
            5, a=5.0, b=-1.0, c=2.0, perturb=perturb, seed=3, horizon=60.0
        )
        ratios[label] = report.metrics["ratio"]
    ok = all(r <= 1e-2 for r in ratios.values())
    _line(8, "PASS" if ok else "FAIL",
          "; ".join(f"{k}: mean ratio {v:.2e}" for k, v in ratios.items()))
    for label, r in ratios.items():
        assert r <= 1e-2, (label, r)


# ---------------------------------------------------------------------------
# criterion 9: van der Pol error decreases with coupling
# ---------------------------------------------------------------------------

def test_criterion_09_vdp_trend():
    reports, trend_ok = ts.run_vdp_sweep(
        [0.5, 4.0, 40.0], n_nodes=5, delta_t=50.0, seed=0, horizon=150.0
    )
    means = [r.metrics["tail_mean_e_hat"] for r in reports]
    _line(9, "PASS" if trend_ok else "FAIL",
          "tail mean e_hat: " + " > ".join(f"{m:.4f}" for m in means))
    assert trend_ok, means


# ---------------------------------------------------------------------------
# criterion 10: FitzHugh-Nagumo window contrast over five seeds
# ---------------------------------------------------------------------------

def test_criterion_10_fhn_cluster_contrast():
    worst = 0.0
    failing = []
    for seed in range(5):
        report = ts.run_fhn_clusters(15, a_bar=3.0, seed=seed, horizon=240.0)
        r = max(report.metrics["ratio_l"], report.metrics["ratio_k"])
        worst = max(worst, r)
        if not report.passed:
            failing.append(seed)
    _line(10, "PASS" if not failing else "FAIL",
          f"5 seeds, worst in/out ratio {worst:.3f} (threshold 0.1)")
    assert not failing, failing


# ---------------------------------------------------------------------------
# criterion 11: pullback estimate against the forced-linear closed form
# ---------------------------------------------------------------------------

def test_criterion_11_pullback_oracle():
    worst = 0.0
    for t in np.linspace(0.0, 9.0, 10):
        est = ts.pullback_trajectory(
            lambda s, x: -x + math.sin(s), float(t), 64.0, np.array([3.0])
        )
        exact = (math.sin(t) - math.cos(t)) / 2.0
        worst = max(worst, abs(est.state[0] - exact))
        assert est.converged
    _line(11, "PASS" if worst < 1e-6 else "FAIL", f"worst error {worst:.2e}")
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# criterion 12: certified per-node contraction of two coupled runs
# ---------------------------------------------------------------------------

def test_criterion_12_boundedness_witness():
    A = np.ones((2, 2)) - np.eye(2)
    system = ts.NetworkSystem(
        ts.NodeField(1, lambda t, X: -2.0 * X), ts.static_schedule(A)
    )
    chk = ts.coupled_comparison_check(system, [-4.0, -4.0], np.linspace(0, 1, 11))
    assert chk.gamma == pytest.approx(2.0)
    rng = np.random.default_rng(5)
    ya = rng.uniform(-1, 1, (2, 1))
    za = rng.uniform(-1, 1, (2, 1))
    delta0 = float(np.max(np.sum((ya - za) ** 2, axis=1)))
    T = math.log(delta0 / 1e-8) / chk.gamma
    cfg = ts.SolverConfig(dt=1e-3, record_stride=10)
    ty = ts.integrate(system, 0.0, ya, T + 0.5, cfg)
    tz = ts.integrate(system, 0.0, za, T + 0.5, cfg)
    sq = np.sum((ty.states - tz.states) ** 2, axis=2)
    worst = float(sq[ty.times >= T].max())
    ok = chk.verdict and worst <= 1e-8
    _line(12, "PASS" if ok else "FAIL",
          f"gamma = {chk.gamma}, per-node sq diff at T = {worst:.2e} <= 1e-8")
    assert ok


# ---------------------------------------------------------------------------
# criterion 13: exact degeneracies
# ---------------------------------------------------------------------------

def test_criterion_13_degeneracies():
    rng = np.random.default_rng(13)
    A = rng.uniform(0.1, 1.0, (4, 4))
    system = ts.NetworkSystem(
        ts.NodeField(1, lambda t, X: np.zeros_like(X)), ts.static_schedule(A),
    )
    bounds = ts.PairBoundSet.constant(4, -0.5, 0.02, rho=1.0)
    full = ts.check_full_sync(system, bounds, 3.0, bound_M=1.0, epsilon=0.05)
    clus = ts.check_cluster_sync(
        system, bounds, ts.ClusterSpec([0, 1, 2, 3]), 3.0, bound_M=1.0, epsilon=0.05
    )
    same = (
        clus.gamma_bar_J == full.gamma_bar
        and clus.mu1 == full.mu1
        and clus.combined_mu == full.mu1
        and clus.verdict == full.verdict
        and clus.asymptotic_bound == full.asymptotic_bound
        and clus.settle_time == full.settle_time
    )
    ident = ts.pair_bounds_for_identical_nodes(4, 1.0, rho=1.0)
    mu1 = ts.compute_mu1(ident, np.arange(0, 2, 0.01))
    cluster_system = ts.NetworkSystem(
        [ts.zero_dynamics(1)] * 4,
        ts.static_schedule(np.ones((4, 4)) - np.eye(4)),
    )
    mu2 = ts.compute_mu2(
        cluster_system, ts.ClusterSpec([0, 1, 2]), 1.0, np.arange(0, 2, 0.01)
    )
    ok = same and mu1 == 0.0 and mu2 == 0.0
    _line(13, "PASS" if ok else "FAIL",
          f"full-set cluster == full: {same}; mu1 = {mu1}; mu2 = {mu2}")
    assert same
    assert mu1 == 0.0
    assert mu2 == 0.0
