"""Comparison-system evaluation, window bounds, and certificate verdicts."""

import json
import math
import types
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import tempsync as ts
from exact_pairs import exact_gammas
from tempsync import certificates
from tempsync._kernels import pair_arrays, pair_index, pair_sums
from tempsync.certificates import ComparisonSystem, _grid_delta_gamma


def _zero_system(A, c=1.0):
    n = A.shape[0]
    return ts.NetworkSystem(
        ts.NodeField(1, lambda t, X: np.zeros_like(X)),
        ts.static_schedule(A),
        global_coupling=c,
    )


def _decay_system(schedule, m=1, rate=1.0):
    return ts.NetworkSystem(ts.NodeField(m, lambda t, X: -rate * X), schedule)


# -- pointwise evaluation ----------------------------------------------------

def test_two_node_comparison_is_scalar():
    A = np.array([[0.0, 0.7], [0.4, 0.0]])
    system = _zero_system(A)
    bounds = ts.PairBoundSet.constant(2, 0.3, 0.0, rho=1.0)
    E, delta, gamma = ts.evaluate_comparison(system, bounds, 0.0)
    assert E.shape == (1, 1)
    assert delta[0] == 0.3 - (0.7 + 0.4)
    assert gamma[0] == 2 * abs(delta[0])
    assert E[0, 0] == 2 * delta[0]


def test_complete_graph_three_nodes():
    A = np.ones((3, 3)) - np.eye(3)
    system = _zero_system(A)
    bounds = ts.PairBoundSet.constant(3, 1.0, 0.0, rho=1.0)
    E, delta, gamma = ts.evaluate_comparison(system, bounds, 0.0)
    assert np.allclose(delta, -2.0)
    assert np.allclose(gamma, 4.0)
    assert np.allclose(E, -4.0 * np.eye(3))


def test_global_coupling_scales_adjacency():
    A = np.ones((3, 3)) - np.eye(3)
    system = _zero_system(A, c=2.0)
    bounds = ts.PairBoundSet.constant(3, 1.0, 0.0, rho=1.0)
    _, delta, _ = ts.evaluate_comparison(system, bounds, 0.0)
    assert np.allclose(delta, 1.0 - 6.0)


def test_offdiagonal_entries_nonnegative_for_signed_networks():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        system = _zero_system(A)
        bounds = ts.PairBoundSet.constant(n, float(rng.normal()), 0.0, rho=1.0)
        E, delta, gamma = ts.evaluate_comparison(system, bounds, 0.0)
        off = E - np.diag(np.diag(E))
        assert np.all(off >= 0.0)
        assert np.allclose(np.diag(E), 2.0 * delta)
        # row margin equals gamma whenever delta < 0
        margins = -E.sum(axis=1)
        neg = delta < 0
        assert np.allclose(margins[neg], gamma[neg])


def test_ring_direct_values_match_hand_derivation():
    # the constructed contrarian ring, evaluated directly: delta_23 comes out
    # as -(4 - a) on this topology (see ring_symbolic_certificate notes)
    a, a12, n = 0.5, 1.0, 10
    system = ts.build_contrarian_ring(n, a, a12)
    bounds = ts.PairBoundSet.constant(n, 0.0, 0.0, rho=1.0)
    _, delta, gamma = ts.evaluate_comparison(system, bounds, 0.0)
    assert abs(delta[pair_index(0, 1, n)] - (-(a12 + 1.5 - a))) < 1e-14
    assert abs(delta[pair_index(0, 2, n)] - (-(a12 / 2 + 1.5 - a))) < 1e-14
    assert abs(delta[pair_index(1, 2, n)] - (-(4.0 - a))) < 1e-14
    assert abs(gamma[pair_index(1, 2, n)] - (2 * abs(4.0 - a) - 2.0)) < 1e-14


def test_pointwise_gamma_matches_certificate_grid_bit_for_bit():
    # delta and gamma have one formula site: the instant evaluation and the
    # certificate grid give the same bits on sparse signed networks
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        A = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
        system = _zero_system(A, c=float(rng.uniform(0.5, 2.0)))
        bounds = ts.PairBoundSet.constant(n, rng.normal(size=(n, n)), 0.0, rho=1.0)
        _, delta, gamma = ts.evaluate_comparison(system, bounds, 0.0)
        g_delta, g_gamma, _ = _grid_delta_gamma(system, bounds, np.array([0.0, 0.5]), range(n))
        assert np.array_equal(g_delta[0], delta)
        assert np.array_equal(g_gamma[0], gamma)


def test_pair_bound_forms_give_bit_identical_certificates():
    # the same bounds, alpha = l and beta = 0 on every pair, in the three
    # input forms, on a seeded switching network
    rng = np.random.default_rng(5)
    n, l, rho = 5, -0.5, 1.5
    segs = [(t, rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.7))
            for t in (0.0, 0.37, 1.1, 1.6)]
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * n, ts.build_switching_schedule(n, segs))
    forms = [
        ts.PairBoundSet(n, rho, lambda i, j, t: l, lambda i, j, t: 0.0, global_bounds=True),
        ts.PairBoundSet.constant(n, l, 0.0, rho),
        ts.pair_bounds_for_identical_nodes(n, l, rho),
    ]
    xi0 = rng.uniform(0.0, 1.0, n * (n - 1) // 2)
    docs, solves = [], []
    for b in forms:
        full = ts.check_full_sync(system, b, 2.0, 1.0, 1e-3)
        clus = ts.check_cluster_sync(system, b, ts.ClusterSpec([0, 2, 3]), 2.0, 100.0, 1e-3)
        docs.append(json.dumps([full.to_json_dict(), clus.to_json_dict()], sort_keys=True))
        solves.append(ts.comparison_solve(ComparisonSystem.from_network(system, b), 0.0, xi0, 2.0))
    assert docs[0] == docs[1] == docs[2]
    assert [b.time_constant for b in forms] == [False, True, True]
    # the two stored-vector forms step each segment with one frozen RK4 map
    assert np.array_equal(solves[1].times, solves[2].times)
    assert np.array_equal(solves[1].u, solves[2].u)
    # per-pair callables may depend on t, so that form samples E at every
    # RK4 stage (as before pair vectors); same times, u within 1e-12 relative
    assert np.array_equal(solves[0].times, solves[1].times)
    assert np.abs(solves[0].u - solves[1].u).max() <= 1e-12 * np.abs(solves[1].u).max()


def test_transposed_functional_piece_loses_its_diagonal():
    # a piece returning a transposed (Fortran-ordered) matrix with self-loops
    # must be sampled and certified exactly like the same C-ordered matrix
    n = 4
    B = np.random.default_rng(8).uniform(0.5, 2.0, (n, n))
    w = lambda t: 1.0 + 0.5 * np.sin(t)
    assert (B.T * w(0.0)).flags.f_contiguous and np.all(np.diag(B) > 0.0)
    f_sched = ts.AdjacencySchedule(n, [0.0], [lambda t: B.T * w(t)])
    c_sched = ts.AdjacencySchedule(n, [0.0], [lambda t: np.ascontiguousarray(B.T) * w(t)])
    for t in (0.0, 0.3, 1.7):
        assert np.all(np.diag(f_sched.sample(t)) == 0.0)
        assert np.array_equal(f_sched.sample(t), c_sched.sample(t))
    bounds = ts.PairBoundSet.constant(n, -0.5, 0.0, rho=1.0)
    docs = [json.dumps(ts.check_full_sync(ts.NetworkSystem([ts.zero_dynamics(1)] * n, s),
                                          bounds, 2.0, 1.0, 1e-3).to_json_dict(), sort_keys=True)
            for s in (f_sched, c_sched)]
    assert docs[0] == docs[1]


def test_functional_grid_in_chunks_matches_per_time_loop():
    # a functional piece is stacked over its grid times in chunks; across
    # several chunks delta and gamma keep the bits of one pair_sums per time
    from tempsync import model
    rng = np.random.default_rng(21)
    n, c = 12, 1.3
    B, W = rng.normal(size=(2, n, n))
    piece = lambda t: B * np.cos(t) + W * np.sin(2.0 * t)
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * n, ts.AdjacencySchedule(n, [0.0], [piece]),
                              global_coupling=c)
    a0 = rng.normal(size=n * (n - 1) // 2)
    bounds = ts.PairBoundSet(n, 1.0, lambda i, j, t: a0[pair_index(i, j, n)] + np.sin(t + i),
                             lambda i, j, t: 0.0)
    times = np.linspace(0.0, 6.0, 601)
    for nodes in (np.arange(n), np.array([1, 4, 5, 9])):
        iu, ju = (nodes[k] for k in pair_arrays(len(nodes))[:2])
        assert times.size > model._STACK_SIZE // (len(iu) * n)  # more than one chunk
        delta, gamma, _ = _grid_delta_gamma(system, bounds, times, nodes)
        sel = pair_arrays(n)[2][iu, ju]
        for k, t in enumerate(times):
            S, D = pair_sums(c * system.schedule.sample(t), iu, ju, nodes)
            d = bounds.alpha(t)[sel] - S
            assert delta[k].tobytes() == d.tobytes()
            assert gamma[k].tobytes() == (2.0 * np.abs(d) - D).tobytes()


# -- window bounds -----------------------------------------------------------

def test_mu1_zero_for_identical_nodes():
    bounds = ts.pair_bounds_for_identical_nodes(3, 1.0, rho=1.0)
    assert ts.compute_mu1(bounds, np.arange(0, 2, 0.01)) == 0.0


def test_mu1_constant_beta_is_exact():
    # |2 beta| = b for a single pair with beta = b/2
    bounds = ts.PairBoundSet.constant(2, 0.0, 0.35, rho=1.0)
    mu1 = ts.compute_mu1(bounds, np.arange(0, 2, 0.01))
    assert mu1 == pytest.approx(0.7, abs=1e-12)


def _window_sup_oracle(fn, t0, t1, h):
    """Independent brute-force sliding-window quadrature."""
    ts_ = np.arange(t0, t1 + h / 2, h)
    vals = np.array([fn(t) for t in ts_])
    best = -np.inf
    n_win = int(round(1.0 / h))
    for k in range(len(ts_) - n_win):
        seg = vals[k:k + n_win + 1]
        best = max(best, float(np.trapezoid(seg, dx=h)))
    return best


def test_mu1_abs_sine_matches_quadrature_oracle():
    bounds = ts.PairBoundSet(
        2, 1.0,
        alpha=lambda i, j, t: 0.0,
        beta=lambda i, j, t: 0.5 * abs(math.sin(t)),
    )
    grid = np.arange(0.0, 8.0 + 1e-12, 1e-3)
    mu1 = ts.compute_mu1(bounds, grid)
    oracle = _window_sup_oracle(lambda t: abs(math.sin(t)), 0.0, 8.0, 1e-3)
    closed_form = 2.0 * math.sin(0.5)  # window centred on the sine peak
    assert mu1 == pytest.approx(oracle, abs=1e-9)
    assert mu1 == pytest.approx(closed_form, abs=1e-6)


def test_mu1_monotone_under_pointwise_increase():
    rng = np.random.default_rng(9)
    grid = np.arange(0.0, 4.0, 5e-3)
    for _ in range(10):
        c1 = rng.uniform(0.1, 1.0)
        c2 = c1 + rng.uniform(0.0, 1.0)
        b1 = ts.PairBoundSet(2, 1.0, lambda i, j, t: 0.0,
                             lambda i, j, t, c=c1: c * (1 + math.sin(t) ** 2))
        b2 = ts.PairBoundSet(2, 1.0, lambda i, j, t: 0.0,
                             lambda i, j, t, c=c2: c * (1 + math.sin(t) ** 2))
        assert ts.compute_mu1(b1, grid) <= ts.compute_mu1(b2, grid) + 1e-12


def test_mu2_zero_when_external_columns_equal():
    A = np.ones((4, 4)) - np.eye(4)
    system = _zero_system(A)
    cluster = ts.ClusterSpec([0, 1, 2])
    grid = np.arange(0.0, 2.0, 0.01)
    assert ts.compute_mu2(system, cluster, 1.0, grid) == 0.0


def test_mu2_constant_difference():
    A = np.zeros((4, 4))
    A[0, 3] = 0.8  # node 0 sees external node 3 with weight 0.8, others 0
    system = _zero_system(A)
    cluster = ts.ClusterSpec([0, 1, 2])
    grid = np.arange(0.0, 2.0, 0.01)
    rho = 1.3
    mu2 = ts.compute_mu2(system, cluster, rho, grid)
    assert mu2 == pytest.approx(2 * rho ** 2 * 0.8, rel=1e-12)


def test_mu2_no_external_nodes():
    A = np.ones((3, 3)) - np.eye(3)
    system = _zero_system(A)
    cluster = ts.ClusterSpec([0, 1, 2])
    assert ts.compute_mu2(system, cluster, 1.0, np.arange(0, 2, 0.01)) == 0.0


# -- grid reads of the schedule ----------------------------------------------

def _mu2_reference(system, cluster, rho, times):
    """compute_mu2 with A sampled at every time and one series per (i, j, k)."""
    J = list(cluster.indices)
    outside = [k for k in range(system.n_nodes) if k not in J]
    samples = np.stack([system.global_coupling * system.schedule.sample(t) for t in times])
    worst = 0.0
    for a in range(len(J)):
        for b in range(a + 1, len(J)):
            for k in outside:
                series = np.abs(samples[:, J[b], k] - samples[:, J[a], k])
                if series.any():
                    worst = max(worst, certificates._sliding_unit_window_sup(times, series))
    return 2.0 * rho * rho * worst


def _coupled_reference(system, rates, grid):
    """(gamma, verdict) of coupled_comparison_check with A sampled at every time."""
    gamma, sup_l = math.inf, -math.inf
    for t in grid:
        A = system.global_coupling * system.schedule.sample(t)
        lv = np.array([r(t) for r in rates])
        sup_l = max(sup_l, float(lv.max()))
        gamma = min(gamma, float((-lv - 2.0 * A.sum(axis=1)).min()))
    return gamma, sup_l < 0.0 and gamma > 0.0


def _grid_read_instances(seed):
    rng = np.random.default_rng(seed)
    for trial in range(12):
        n = 4 + trial % 3
        breaks = np.unique(np.round(rng.uniform(0.0, 2.5, 3), 3))
        pieces = []
        for q in range(breaks.size):
            B, W = rng.uniform(0.0, 1.0, (2, n, n)) * (rng.random((2, n, n)) < 0.7)
            functional = trial % 4 == 1 or (trial % 4 == 2 and q == 0)
            pieces.append((lambda t, B=B, W=W: B + W * np.sin(2.0 * t) ** 2) if functional else B)
        grid = rng.uniform(-0.6, 0.3) + np.linspace(0.0, 2.0 + rng.uniform(0.0, 1.0), 231)
        system = ts.NetworkSystem([ts.zero_dynamics(1)] * n, ts.AdjacencySchedule(n, breaks, pieces),
                                  global_coupling=rng.uniform(0.5, 2.0))
        yield rng, system, grid  # grids start before or after the first breakpoint


def test_grid_reads_match_per_time_sample_reference():
    # constant, functional and mixed schedules; the readers equal a loop
    # that samples A at every grid time, bit for bit
    for rng, system, grid in _grid_read_instances(5):
        n = system.n_nodes
        for J in ([0, 1], [0, 2, n - 1], list(range(n - 1))):
            cluster = ts.ClusterSpec(J)
            got = ts.compute_mu2(system, cluster, 1.3, grid)
            assert got.hex() == _mu2_reference(system, cluster, 1.3, grid).hex()
        rates = [(lambda t, r=r: -r - np.cos(t)) for r in rng.uniform(1.0, 12.0, n)]
        chk = ts.coupled_comparison_check(system, rates, grid)
        gamma, verdict = _coupled_reference(system, rates, grid)
        assert (chk.gamma.hex(), chk.verdict) == (gamma.hex(), verdict)


def test_grid_reads_do_not_sample_piecewise_constant_schedules(monkeypatch):
    def no_sample(self, t):
        raise AssertionError("sampled per time")
    for _, system, grid in _grid_read_instances(7):
        if system.schedule.is_piecewise_constant:
            break
    monkeypatch.setattr(ts.AdjacencySchedule, "sample", no_sample)
    assert ts.compute_mu2(system, ts.ClusterSpec([0, 1]), 1.0, grid) > 0.0
    ts.coupled_comparison_check(system, [-50.0] * system.n_nodes, grid)


def test_switch_at_the_last_grid_time_counts_far_from_zero():
    # at t = 1e5 the old segment end grid[-1] + 1e-12 rounded to grid[-1], so
    # the switch to A = 0 at the last grid time was dropped (gamma_bar 8, not 2)
    A = np.ones((3, 3)) - np.eye(3)
    bounds = ts.PairBoundSet.constant(3, -1.0, 0.0, rho=1.0)
    for t0 in (0.0, 1e5):
        sched = ts.build_switching_schedule(3, [(t0, A), (t0 + 2.0, np.zeros((3, 3)))])
        system = ts.NetworkSystem([ts.zero_dynamics(1)] * 3, sched)
        cs = ComparisonSystem.from_network(system, bounds)
        assert ts.dominance_decay_check(cs, t0 + np.linspace(0.0, 2.0, 21)).gamma_bar == 2.0
        assert ts.check_full_sync(system, bounds, 2.0, 1.0, 1e-3, t0=t0).gamma_bar == 2.0


def test_grid_readers_reject_bad_grids():
    system = _zero_system(np.ones((3, 3)) - np.eye(3))
    cs = ComparisonSystem.from_network(system, ts.PairBoundSet.constant(3, -1.0, 0.0, rho=1.0))
    unsorted = np.array([0.0, 0.5, 1.5, 1.2, 2.0])
    cluster = ts.ClusterSpec([0, 1])
    for bad in ([], [0.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="window_grid must contain at least two times"):
            ts.compute_mu2(system, cluster, 1.0, bad)
    for call in (lambda g: ts.compute_mu2(system, cluster, 1.0, g),
                 lambda g: ts.coupled_comparison_check(system, [-9.0] * 3, g),
                 lambda g: ts.dominance_decay_check(cs, g)):
        with pytest.raises(ValueError, match=r"grid must be nondecreasing: \w*grid\[3\] = 1.2"):
            call(unsorted)
        call(np.array([0.0, 0.5, 1.5, 1.5, 2.0]))  # a repeated time is in order


# -- comparison solve and decay ----------------------------------------------

def test_comparison_solve_zero_stays_zero():
    cs = ComparisonSystem(
        2, lambda t: np.array([[-1.0, 0.2], [0.1, -2.0]]), lambda t: np.zeros(2),
        piecewise_constant=True,
    )
    out = ts.comparison_solve(cs, 0.0, np.zeros(2), 2.0)
    assert np.all(out.u == 0.0)


def test_comparison_solve_scalar_closed_form():
    cs = ComparisonSystem(
        1, lambda t: np.array([[-2.0]]), lambda t: np.zeros(1),
        piecewise_constant=True,
    )
    out = ts.comparison_solve(cs, 1.0, np.ones(1), 4.0, ts.SolverConfig(dt=1e-3))
    assert out.u[-1, 0] == pytest.approx(math.exp(-6.0), rel=1e-10)
    with pytest.raises(ValueError):
        ts.comparison_solve(cs, 0.0, -np.ones(1), 1.0)


def test_comparison_solve_rejects_a_method_it_does_not_run():
    # it integrates by fixed-step RK4 only; an rk45 config was once run as rk4
    cs = ComparisonSystem.from_network(
        _zero_system(np.ones((3, 3)) - np.eye(3)), ts.PairBoundSet.constant(3, 0.5, 0.1, 1.0))
    rk4 = ts.comparison_solve(cs, 0.0, np.ones(3), 1.0, ts.SolverConfig(dt=0.1))
    assert rk4.u.shape == (11, 3)
    with pytest.raises(ValueError, match="method must be 'rk4'"):
        ts.comparison_solve(cs, 0.0, np.ones(3), 1.0,
                            ts.SolverConfig(method="rk45", dt=0.1, rtol=1e-12, atol=1e-14))


def test_comparison_dominates_simulation_on_random_network():
    rng = np.random.default_rng(2024)
    segs = [
        (0.0, rng.uniform(-0.2, 0.8, (3, 3))),
        (1.2, rng.uniform(-0.2, 0.8, (3, 3))),
    ]
    sched = ts.build_switching_schedule(3, segs)
    system = _decay_system(sched, m=2)
    bounds = ts.PairBoundSet.constant(3, -1.0, 0.0, rho=3.0)
    cfg = ts.SolverConfig(dt=1e-3, record_stride=10)
    traj = ts.integrate(system, 0.0, rng.uniform(-1, 1, (3, 2)), 3.0, cfg)
    err = ts.pairwise_errors(traj)
    cs = ComparisonSystem.from_network(system, bounds)
    comp = ts.comparison_solve(cs, 0.0, err.xi[0], 3.0, cfg)
    assert np.allclose(comp.times, err.times)
    assert np.all(err.xi <= comp.u + 1e-6 * np.maximum(1.0, comp.u))


def test_decay_check_scalar_exponential():
    cs = ComparisonSystem(
        1, lambda t: np.array([[-1.0]]), lambda t: np.zeros(1),
        piecewise_constant=True,
    )
    grid = np.linspace(0.0, 4.0, 401)
    chk = ts.dominance_decay_check(cs, grid)
    assert chk.gamma_bar == pytest.approx(1.0)
    assert chk.verified
    assert chk.max_ratio <= 1 + 1e-6


def test_decay_check_constant_row_dominant_margin():
    E = np.array([[-3.0, 1.0, 0.5], [0.2, -2.0, 0.3], [0.0, 1.0, -4.0]])
    margin = float(np.min(-E.sum(axis=1)))
    cs = ComparisonSystem(3, lambda t: E, lambda t: np.zeros(3), piecewise_constant=True)
    chk = ts.dominance_decay_check(cs, np.linspace(0, 3, 301))
    assert chk.gamma_bar == pytest.approx(margin)
    assert chk.verified


def test_decay_check_rejects_a_non_finite_grid():
    # [0, 1, inf] on K3 returned verified=True with max_ratio 0: the ratios at
    # t = inf were NaN, and Python's max dropped them
    k3 = _zero_system(np.ones((3, 3)) - np.eye(3), c=0.2)
    cs = ComparisonSystem.from_network(k3, ts.PairBoundSet.constant(3, -1.0, 0.0, rho=1.0))
    for grid, msg in (([0.0, 1.0, math.inf], r"grid\[2\] = inf"),
                      ([math.nan, 1.0], r"grid\[0\] = nan")):
        with pytest.raises(ValueError, match=rf"^grid must be finite: {msg}$"):
            ts.dominance_decay_check(cs, grid)
    with pytest.raises(ValueError, match=r"^window_grid must be finite: window_grid\[1\] = -inf$"):
        ts.compute_mu2(k3, ts.ClusterSpec([0, 1]), 1.0, [0.0, -math.inf, 2.0])


def test_decay_check_nan_ratio_is_not_verified(monkeypatch):
    k3 = _zero_system(np.ones((3, 3)) - np.eye(3), c=0.2)
    cs = ComparisonSystem.from_network(k3, ts.PairBoundSet.constant(3, -1.0, 0.0, rho=1.0))
    grid = np.linspace(0.0, 1.0, 11)
    assert ts.dominance_decay_check(cs, grid, substeps=16).verified
    propagate = certificates._anchor_norms

    def one_nan(*args):
        norms = propagate(*args)
        norms[-1, -1] = math.nan
        return norms

    monkeypatch.setattr(certificates, "_anchor_norms", one_nan)
    chk = ts.dominance_decay_check(cs, grid, substeps=16)
    assert math.isnan(chk.max_ratio) and not chk.verified


def test_decay_check_not_dominant_returns_false():
    E = np.array([[-1.0, 2.0], [0.0, -1.0]])  # row sum positive in row 0
    cs = ComparisonSystem(2, lambda t: E, lambda t: np.zeros(2), piecewise_constant=True)
    chk = ts.dominance_decay_check(cs, np.linspace(0, 2, 101))
    assert chk.gamma_bar < 0 and not chk.verified


def test_comparison_solve_rejects_non_metzler_e():
    # with u0 = (0, 1) the first component turns negative at once; clipping
    # the output at zero would hide that the cone argument does not hold
    E = np.array([[-0.1, -2.0], [0.0, -0.1]])
    for const in (False, True):
        cs = ComparisonSystem(2, lambda t: E, lambda t: np.zeros(2), piecewise_constant=const)
        with pytest.raises(ValueError, match=r"t=0 is not Metzler: entry \(1, 2\) = -2"):
            ts.comparison_solve(cs, 0.0, np.array([0.0, 1.0]), 2.0)


def test_comparison_checks_reject_nonfinite_e():
    E = np.array([[-2.0, np.nan], [0.5, -2.0]])
    cs = ComparisonSystem(2, lambda t: E, lambda t: np.zeros(2), piecewise_constant=True)
    with pytest.raises(ValueError, match=r"t=0: entry \(1, 2\) = nan is not finite"):
        ts.dominance_decay_check(cs, np.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError, match=r"t=0: entry \(1, 2\) = nan is not finite"):
        ts.comparison_solve(cs, 0.0, np.array([1.0, 1.0]), 1.0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_constant_segment_overflowing_diagonal_is_named():
    # a constant piece checks its off-diagonal part once per build and then
    # only each sample's diagonal 2 (alpha(t) - S); alpha = 1e308 on pair
    # (0, 2) from t = 0.5 overflows that diagonal entry to inf
    system = _decay_system(ts.static_schedule(np.ones((3, 3))))
    bounds = ts.PairBoundSet(3, 1.0, lambda i, j, t: 1e308 if (i, j) == (0, 2) and t >= 0.5
                             else -1.0, lambda i, j, t: 0.0)
    cs = ComparisonSystem.from_network(system, bounds)
    msg = r"comparison matrix E\(t\) at t=0.5: entry \(2, 2\) = inf is not finite"
    with pytest.raises(ValueError, match=msg):
        ts.comparison_solve(cs, 0.0, np.ones(cs.dim), 1.0, ts.SolverConfig(dt=0.25))
    with pytest.raises(ValueError, match=msg):
        ts.dominance_decay_check(cs, np.linspace(0.0, 1.0, 11))


def test_comparison_solve_rejects_a_bad_horizon():
    # a hand-built system returned times == [t0] and u == xi0 for t_end <= t0,
    # and failed inside the step count for a non-finite t_end
    cs = ComparisonSystem(2, lambda t: -np.eye(2), lambda t: np.zeros(2), piecewise_constant=True)
    for t0, t_end, msg in ((0.0, 0.0, "t_end must exceed t0"), (1.0, 0.5, "t_end must exceed t0"),
                           (0.0, math.nan, "t_end must be finite, got nan"),
                           (0.0, math.inf, "t_end must be finite, got inf"),
                           (-math.inf, 1.0, "t0 must be finite, got -inf")):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            ts.comparison_solve(cs, t0, np.ones(2), t_end)


def test_comparison_solve_rejects_nonfinite_start():
    cs = ComparisonSystem(3, lambda t: -np.eye(3), lambda t: np.zeros(3), piecewise_constant=True)
    for bad, msg in ((np.nan, "nan is not finite"), (np.inf, "inf is not finite"),
                     (-1.0, "-1 < 0")):
        with pytest.raises(ValueError, match=rf"initial comparison state: entry 2 = {msg}"):
            ts.comparison_solve(cs, 0.0, np.array([1.0, bad, bad]), 1.0)


def test_hand_built_inputs_are_checked():
    # a negative b drove component 1 below zero, and clipping returned
    # u(1) = (0, 0.368), which no longer dominates; a NaN b gave all NaN
    for const in (True, False):
        for b, msg in (([-5.0, 0.0], "entry 1 = -5 < 0"), ([0.0, np.nan], "entry 2 = nan is not")):
            cs = ComparisonSystem(2, lambda t: -np.eye(2), lambda t, b=b: b,
                                  piecewise_constant=const)
            with pytest.raises(ValueError, match=rf"beta\(t\) at t=0: {msg}"):
                ts.comparison_solve(cs, 0.0, np.ones(2), 1.0)
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            ComparisonSystem(dim, lambda t: -np.eye(1), lambda t: np.zeros(1))
    for cuts in ([np.nan], [0.5, np.inf]):
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            ComparisonSystem(1, lambda t: -np.eye(1), lambda t: np.zeros(1), breakpoints=cuts)


def test_record_margins_match_row_sums_of_full_e():
    # a network-built record takes its margins -(2 delta + D) from the pair
    # sums instead of summing the rows of E; on 200 seeded signed switching
    # networks (half with a functional piece, half with time-varying alpha)
    # both agree within the tie band 8 N eps (|2 delta| + D) of each row,
    # the row's sum of |E| entries, and the decay check's gamma_bar is the
    # least record margin (checked on every tenth network, as propagation
    # dominates the cost)
    from tempsync import model
    rng = np.random.default_rng(8)
    grid = np.linspace(0.0, 2.0, 201)
    exact = 0
    for trial in range(200):
        n = int(rng.integers(3, 9))
        breaks = np.sort(rng.uniform(0.0, 2.0, int(rng.integers(1, 6))))
        breaks[0] = 0.0
        pieces = []
        for _ in breaks:
            A = rng.uniform(0.2, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
            pieces.append(A * np.where(rng.random((n, n)) < 0.2, -1.0, 1.0))
        if trial % 2:
            M, w = pieces[-1], rng.uniform(1.0, 4.0)
            pieces[-1] = lambda t, M=M, w=w: M * (1.0 + 0.3 * np.sin(w * t))
        system = ts.NetworkSystem([ts.zero_dynamics(1)] * n, ts.AdjacencySchedule(n, breaks, pieces),
                                  global_coupling=rng.uniform(0.5, 2.0))
        level = rng.uniform(-30.0, 0.0)
        bounds = (ts.pair_bounds_for_identical_nodes(n, lambda t, r: level + np.cos(3.0 * t), 1.0)
                  if trial % 4 >= 2 else ts.pair_bounds_for_identical_nodes(n, level, 1.0))
        cs = ComparisonSystem.from_network(system, bounds)
        segs = cs._segments(grid[0], np.nextafter(grid[-1], np.inf))
        runs = model._segment_runs([seg.a for seg in segs], grid)
        got = np.concatenate([segs[s].margins(grid[run]) for s, run in runs])
        want, scale = [], []
        for s, run in runs:
            # E is fixed on a constant record, so one full build stands for its run
            for t in grid[run][:1] if segs[s].const else grid[run]:
                E = ts.evaluate_comparison(system, bounds, t)[0]
                k = run.stop - run.start if segs[s].const else 1
                want += [-E.sum(axis=1)] * k
                scale += [np.abs(E).sum(axis=1)] * k
        want = np.array(want)
        assert np.all(np.abs(got - want) <= 8.0 * n * np.finfo(float).eps * np.array(scale))
        exact += np.array_equal(got, want)
        if trial % 10 == 0:
            assert ts.dominance_decay_check(cs, grid).gamma_bar == got.min()
    assert 0 < exact < 200  # the two sums round differently on some instances


def test_decay_check_rejects_non_metzler_e():
    E = np.array([[-2.0, 0.3], [-0.1, -2.0]])  # negative off-diagonal entry
    cs = ComparisonSystem(2, lambda t: E, lambda t: np.zeros(2), piecewise_constant=True)
    with pytest.raises(ValueError, match=r"t=0 is not Metzler: entry \(2, 1\)"):
        ts.dominance_decay_check(cs, np.linspace(0, 2, 21))
    # time-varying: the entry turns negative after t = 1
    cs = ComparisonSystem(
        2, lambda t: np.array([[-2.0, 1.0 - t], [0.1, -2.0]]), lambda t: np.zeros(2),
    )
    with pytest.raises(ValueError, match=r"t=1\.1 is not Metzler: entry \(1, 2\)"):
        ts.dominance_decay_check(cs, np.linspace(0, 2, 21))


def _signed_switching_instance(seed, n, time_varying):
    """Seeded signed switching network with pair rates that keep every
    segment row dominant (gamma >= 2 kappa, kappa in (0.2, 1))."""
    rng = np.random.default_rng(seed)
    segs, t = [], 0.0
    while t < 2.0:
        A = rng.uniform(0.2, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
        A *= np.where(rng.random((n, n)) < 0.2, -1.0, 1.0)
        np.fill_diagonal(A, 0.0)
        segs.append((t, A))
        t += float(rng.uniform(0.3, 0.8))
    iu, ju, _ = pair_arrays(n)
    worst = np.full(len(iu), np.inf)
    for _, A in segs:
        delta0, gamma0 = ts._kernels.delta_gamma(A, np.zeros(len(iu)))  # delta0 = -S
        worst = np.minimum(worst, -delta0 - 0.5 * (2 * np.abs(delta0) - gamma0))
    rate = worst - rng.uniform(0.2, 1.0, len(iu))
    alpha = np.zeros((n, n))
    alpha[iu, ju] = alpha[ju, iu] = rate
    w = rng.uniform(1.0, 3.0, (n, n))
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * n, ts.build_switching_schedule(n, segs))
    if time_varying:
        bounds = ts.PairBoundSet(
            n, 1.0, lambda i, j, t: alpha[i, j] + 0.3 * (math.sin(w[i, j] * t) - 1.0),
            lambda i, j, t: 0.0,
        )
    else:
        bounds = ts.PairBoundSet.constant(n, alpha, 0.0, 1.0)
    return ComparisonSystem.from_network(system, bounds)


def _principal_norms_reference(cs, grid, anchor_idx, substeps=4):
    """||U(t, s)||_inf from the full P x P principal matrix, propagated by
    stage-form RK4 for one anchor s at a time on the grid merged with the
    segment boundaries, E sampled at every stage."""
    segs = cs._segments(grid[0], grid[-1] + 1e-12)
    starts = [seg.a for seg in segs]
    out = []
    for ai in anchor_idx:
        cuts = [a for a in starts if grid[ai] < a < grid[-1]]
        timeline = np.union1d(grid[ai:], cuts)
        U = np.eye(cs.dim)
        norms = [1.0]
        for t0, t1 in zip(timeline[:-1], timeline[1:]):
            E_rows = segs[int(np.searchsorted(starts, t0, side="right")) - 1].E_rows
            h = (t1 - t0) / substeps
            for r in range(substeps):
                t = t0 + r * h
                E0, Em, E1 = (E.copy() for E in E_rows([t, t + h / 2, t + h]))
                K1 = E0 @ U
                K2 = Em @ (U + h / 2 * K1)
                K3 = Em @ (U + h / 2 * K2)
                K4 = E1 @ (U + h * K3)
                U = U + h / 6 * (K1 + 2 * K2 + 2 * K3 + K4)
            norms.append(np.abs(U).sum(axis=1).max())
        out.append(np.array(norms)[np.isin(timeline, grid)])
    return out


@pytest.mark.parametrize("n", [4, 10])
@pytest.mark.parametrize("time_varying", [False, True])
def test_decay_check_block_norms_match_principal_matrix(n, time_varying):
    from tempsync.certificates import _anchor_norms
    grid = np.linspace(0.0, 2.0, 21)
    for seed in range(3):
        cs = _signed_switching_instance(100 * n + seed, n, time_varying)
        chk = ts.dominance_decay_check(cs, grid)
        assert chk.gamma_bar > 0
        anchor_idx = np.searchsorted(grid, chk.anchors)
        block = _anchor_norms(cs.dim, cs._segments(grid[0], grid[-1] + 1e-12), grid,
                              anchor_idx, 4)
        ref = _principal_norms_reference(cs, grid, anchor_idx)
        ratio = 0.0
        for k, ai in enumerate(anchor_idx):
            assert np.all(block[:ai, k] == 0.0)
            np.testing.assert_allclose(block[ai:, k], ref[k], rtol=1e-12, atol=0)
            bound = np.exp(-chk.gamma_bar * (grid[ai:] - grid[ai]))
            ratio = max(ratio, float(np.max(ref[k] / bound)))
        assert chk.max_ratio == pytest.approx(ratio, rel=1e-12)
        assert chk.verified == (ratio <= 1.0 + 1e-6)


def test_constant_segments_build_e_once_per_pass_with_time_varying_bounds(monkeypatch):
    # per-pair callable bounds on a 3-segment constant schedule: a solve
    # assembles E once per segment, and so does a decay check, whose margins
    # come from the pair sums, so E is built for propagation only; every
    # sampled E still equals the full build at its time bit for bit
    from tempsync import model
    rng = np.random.default_rng(17)
    n = 4
    segs = [(t, rng.uniform(1.0, 2.0, (n, n))) for t in (0.0, 1.0, 2.0)]
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * n, ts.build_switching_schedule(n, segs),
                              global_coupling=1.5)
    w = rng.uniform(1.0, 3.0, (n, n))
    bounds = ts.PairBoundSet(n, 1.0, lambda i, j, t: 0.3 * math.sin(w[i, j] * t) - 0.2,
                             lambda i, j, t: 0.1 * (1.0 + math.cos(t)))
    cs = ComparisonSystem.from_network(system, bounds)
    samples, assembled = [], []
    original_segments = cs._segments

    def recording_segments(t0, t1):
        segs = original_segments(t0, t1)
        for seg, (_, _, piece) in zip(segs, system.schedule.segments_between(t0, t1)):
            def E_rec(times, E_rows=seg.E_rows, A=piece.matrix):
                for t, E in zip(times, E_rows(times)):
                    samples.append((t, A, E.copy()))
                    yield E
            seg.E_rows = E_rec
        return segs

    original_assemble = ts._kernels.assemble_comparison
    monkeypatch.setattr(cs, "_segments", recording_segments)
    monkeypatch.setattr(ts._kernels, "assemble_comparison",
                        lambda *args: assembled.append(1) or original_assemble(*args))
    ts.comparison_solve(cs, 0.0, np.ones(cs.dim), 3.0, ts.SolverConfig(dt=0.05))
    assert len(assembled) == len(segs)
    del assembled[:]
    chk = ts.dominance_decay_check(cs, np.linspace(0.0, 3.0, 31))
    assert len(assembled) == len(segs)
    assert chk.gamma_bar > 0 and len(samples) > 100
    for t, A, E in samples:
        delta, _ = ts._kernels.delta_gamma(1.5 * A, bounds.alpha(t))
        assert E.tobytes() == original_assemble(1.5 * A, delta).tobytes()


@pytest.mark.parametrize("kwargs", [{"max_anchors": 0}, {"max_anchors": -1},
                                    {"max_anchors": 2.0}, {"substeps": 0}, {"substeps": -2},
                                    {"tol": math.nan}, {"tol": math.inf}, {"tol": -1e-9}])
def test_decay_check_rejects_arguments_that_verify_nothing(kwargs):
    # no anchor, no substep or a tol that no ratio can exceed would verify
    # nothing, so each raises naming its parameter
    E = np.array([[-8.0, 0.5], [0.5, -8.0]])
    cs = ComparisonSystem(2, lambda t: E, lambda t: np.zeros(2), piecewise_constant=True)
    grid = np.linspace(0.0, 2.0, 21)
    (name, _), = kwargs.items()
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ts.dominance_decay_check(cs, grid, **kwargs)
    assert ts.dominance_decay_check(cs, grid, max_anchors=1, tol=0.0, substeps=1).anchors == [0.0]


# -- block reads of time-varying bounds ----------------------------------------

def _tv_instance(kind, seed, n=5):
    """Seeded per-pair callable time-varying bounds, with every call recorded,
    on a constant, functional or periodic row-dominant schedule."""
    rng = np.random.default_rng(seed)
    M = [rng.uniform(0.5, 2.0, (n, n)) for _ in range(3)]
    wobble = rng.uniform(1.0, 4.0, (n, n))

    def func(t, M=M[1]):
        return M * (1.0 + 0.3 * np.sin(3.0 * t + wobble))

    if kind == "constant":
        sched = ts.build_switching_schedule(n, [(0.0, M[0]), (0.37, M[1]), (0.9, M[2])])
    elif kind == "functional":
        sched = ts.AdjacencySchedule(n, [0.0, 0.55, 1.1], [M[0], func, M[2]])
    else:
        sched = ts.AdjacencySchedule(n, [0.0, 0.3], [M[0], func], extension="periodic",
                                     period=0.7)
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * n, sched, global_coupling=1.5)
    a, w = rng.uniform(-1.0, 0.0, (n, n)), rng.uniform(1.0, 3.0, (n, n))
    calls = {"alpha": [], "beta": []}
    bounds = ts.PairBoundSet(
        n, 1.0,
        lambda i, j, t: calls["alpha"].append((i, j, t)) or a[i, j] + 0.3 * math.sin(w[i, j] * t),
        lambda i, j, t: calls["beta"].append((i, j, t)) or 0.01 * (1.0 + math.cos(w[i, j] * t)))
    return system, bounds, calls


def _per_time_reference(monkeypatch):
    """Read the bounds with one scalar read per time, build every sampled E
    in full from A(t) and alpha(t), as the per-time code did, and take the
    margins -(2 delta + D) from one pair_sums call per time."""
    for name in ("alpha", "beta"):
        def read(self, t, subset=None, scalar=getattr(ts.PairBoundSet, name)):
            cols = slice(None) if subset is None else subset
            if np.ndim(t) == 0:
                return scalar(self, t)[cols]
            return np.array([scalar(self, s)[cols] for s in t]).reshape(len(t), -1)
        monkeypatch.setattr(ts.PairBoundSet, name, read)

    def from_network(cls, system, bounds):
        c, n = system.global_coupling, system.n_nodes
        iu, ju, _ = pair_arrays(n)

        def E_rows(times, piece):
            for t in times:
                A = c * np.asarray(piece(t), float)
                delta, _ = ts._kernels.delta_gamma(A, bounds.alpha(t))
                yield certificates._metzler(ts._kernels.assemble_comparison(A, delta), t)

        def margins(times, piece):
            rows = []
            for t in times:
                S, D = pair_sums(c * np.asarray(piece(t), float), iu, ju, np.arange(n))
                rows.append(-(2.0 * (bounds.alpha(t) - S) + D))
            return np.array(rows)

        cs = original(system, bounds)
        cs._segments = lambda t0, t1: [types.SimpleNamespace(
            a=a, b=b, const=False, E_rows=lambda times, p=piece: E_rows(times, p),
            b_rows=lambda times: (2.0 * bounds.beta(t) for t in times),
            margins=lambda times, p=piece: margins(times, p))
            for a, b, piece in system.schedule.segments_between(t0, t1)]
        return cs
    original = ComparisonSystem.from_network
    monkeypatch.setattr(ComparisonSystem, "from_network", classmethod(from_network))


@pytest.mark.parametrize("kind", ["constant", "functional", "periodic"])
def test_block_reads_match_per_time_reads_bit_for_bit(kind, monkeypatch):
    def run():
        system, bounds, _ = _tv_instance(kind, 5)
        cs = ComparisonSystem.from_network(system, bounds)
        traj = ts.comparison_solve(cs, 0.0, np.ones(cs.dim), 1.6,
                                   ts.SolverConfig(dt=0.05, record_stride=1))
        chk = ts.dominance_decay_check(cs, np.linspace(0.0, 1.6, 17))
        assert chk.gamma_bar > 0 and len(chk.anchors) == 8
        full = ts.check_full_sync(system, bounds, 1.6, 1.0, 1e-3)
        cluster = ts.check_cluster_sync(system, bounds, ts.ClusterSpec([0, 2, 3]), 1.6, 100.0,
                                        1e-3)
        return (traj.times.tobytes(), traj.u.tobytes(), chk.gamma_bar, chk.verified,
                chk.max_ratio, chk.anchors, json.dumps(full.to_json_dict()),
                json.dumps(cluster.to_json_dict()))

    blocks = run()
    _per_time_reference(monkeypatch)
    assert run() == blocks


@pytest.mark.parametrize("kind", ["constant", "functional", "periodic"])
def test_per_pair_callables_run_once_per_pair_and_sample_time(kind):
    # a solve samples each segment at its stage times, a certificate at its
    # grid times (alpha) and its window times (beta); a segment end is a
    # sample time of both segments it bounds
    system, bounds, calls = _tv_instance(kind, 6)
    pairs = list(zip(*(k.tolist() for k in pair_arrays(5)[:2])))
    cs = ComparisonSystem.from_network(system, bounds)
    dt = 0.05
    ts.comparison_solve(cs, 0.0, np.ones(cs.dim), 1.6, ts.SolverConfig(dt=dt))
    stages = []
    for a, b, _ in system.schedule.segments_between(0.0, 1.6):
        n = max(1, int(np.ceil((b - a) / dt - 1e-12)))
        steps = a + (b - a) / n * np.arange(n + 1)
        steps[-1] = b
        stages += ts._kernels.stage_times(steps).tolist()
    for name in ("alpha", "beta"):
        assert Counter(calls[name]) == Counter((i, j, t) for t in stages for i, j in pairs)
        del calls[name][:]
    ts.check_full_sync(system, bounds, 1.6, 1.0, 1e-3)
    for name in ("alpha", "beta"):
        assert len(calls[name]) == len(set(calls[name])) == 161 * len(pairs)


def test_cluster_certificate_reads_only_its_own_pairs():
    n, J = 6, [1, 3, 4]
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * n, ts.static_schedule(np.ones((n, n))))
    calls = Counter()

    def alpha(i, j, t):
        calls["alpha"] += 1
        return math.nan if (i, j) == (0, 5) else -1.0

    def beta(i, j, t):
        calls["beta"] += 1
        return math.inf if (i, j) == (2, 3) else 0.01

    bounds = ts.PairBoundSet(n, 1.0, alpha, beta)
    cert = ts.check_cluster_sync(system, bounds, ts.ClusterSpec(J), 2.0, 1.0, 1e-3)
    assert cert.verdict.holds
    assert calls == {"alpha": 3 * 201, "beta": 3 * 201}  # |pairs(J)| x the 201 grid times
    with pytest.raises(ValueError, match=r"alpha\(0, 5, 0\.0\) = nan is not finite"):
        ts.check_full_sync(system, bounds, 2.0, 1.0, 1e-3)
    in_J = ts.PairBoundSet(n, 1.0, lambda i, j, t: math.nan if (i, j) == (3, 4) and t >= 1.0
                           else -1.0, lambda i, j, t: 0.0)
    with pytest.raises(ValueError, match=r"alpha\(3, 4, 1\.0\) = nan is not finite"):
        ts.check_cluster_sync(system, in_J, ts.ClusterSpec(J), 2.0, 1.0, 1e-3)


# -- certificates ------------------------------------------------------------

def test_full_sync_identical_complete_graph_holds():
    A = np.ones((3, 3)) - np.eye(3)
    system = _decay_system(ts.static_schedule(A))
    bounds = ts.PairBoundSet.constant(3, -1.0, 0.0, rho=2.0)
    cert = ts.check_full_sync(system, bounds, 5.0, bound_M=0.5, epsilon=0.1)
    assert cert.verdict.holds
    assert cert.mu1 == 0.0
    assert cert.gamma_bar == pytest.approx(2 * (1 + 3))
    assert cert.asymptotic_bound == pytest.approx(0.1 + 0.5)
    assert cert.settle_time == pytest.approx(
        math.log(4 * 4 / 0.1) / cert.gamma_bar
    )


def test_full_sync_parameter_errors():
    A = np.ones((2, 2)) - np.eye(2)
    system = _decay_system(ts.static_schedule(A))
    bounds = ts.PairBoundSet.constant(2, -1.0, 0.5, rho=1.0)  # mu1 = 1
    with pytest.raises(ValueError):
        ts.check_full_sync(system, bounds, 5.0, bound_M=0.5, epsilon=0.1)
    good = ts.PairBoundSet.constant(2, -1.0, 0.0, rho=1.0)
    with pytest.raises(ValueError):
        ts.check_full_sync(system, good, 0.0, bound_M=1.0, epsilon=0.1)
    with pytest.raises(ValueError):
        ts.check_full_sync(system, good, 5.0, bound_M=1.0, epsilon=-1.0)


@pytest.mark.parametrize("name", ["bound_M", "epsilon", "horizon", "grid_step", "t0", "margin"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_certificate_rejects_nonfinite_parameters(name, value):
    # with bound_M = 0.11 this instance fails on gamma; a NaN used to turn
    # the comparisons against it into "holds"
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * 2, ts.static_schedule(np.ones((2, 2))))
    bounds = ts.PairBoundSet.constant(2, 1.9, 0.05, rho=1)
    args = dict(horizon=1.0, bound_M=0.11, epsilon=1e-3)
    assert ts.check_full_sync(system, bounds, **args).verdict.render() == "fails(gamma,(1,2),t=0)"
    args[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ts.check_full_sync(system, bounds, **args)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ts.check_cluster_sync(system, bounds, ts.ClusterSpec([0, 1]), **args)
    with pytest.raises(ValueError, match="^margin must be >= 0"):
        ts.check_full_sync(system, bounds, 1.0, 0.11, 1e-3, margin=-1e-9)


def test_horizon_shorter_than_the_unit_window_is_named():
    # mu1 of time-varying bounds and mu2 of a cluster with nodes outside it
    # are sups over unit time windows, which a horizon of 0.7 cannot hold
    short = r"^horizon=0\.7 is shorter than the unit time window"
    K3 = ts.NetworkSystem([ts.zero_dynamics(1)] * 3, ts.static_schedule(np.ones((3, 3))))
    varying = ts.PairBoundSet(3, 1.0, lambda i, j, t: -1.0,
                              lambda i, j, t: 0.01 * (1.0 + math.sin(t)))
    with pytest.raises(ValueError, match=short):
        ts.check_full_sync(K3, varying, 0.7, bound_M=1.0, epsilon=0.1)
    ts.check_full_sync(K3, varying, 1.0, bound_M=1.0, epsilon=0.1)
    A = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=float)
    C4 = ts.NetworkSystem([ts.zero_dynamics(1)] * 4, ts.static_schedule(A))
    const = ts.PairBoundSet.constant(4, -1.0, 0.0, rho=1.0)
    with pytest.raises(ValueError, match=short):
        ts.check_cluster_sync(C4, const, ts.ClusterSpec([0, 1]), 0.7, bound_M=1.0, epsilon=0.1)
    assert ts.check_cluster_sync(C4, const, ts.ClusterSpec([0, 1]), 1.0, bound_M=100.0,
                                 epsilon=0.1).mu2 > 0
    # constant bounds over all nodes need no window: mu1 is |2 beta| itself
    for J in ([0, 1, 2, 3], None):
        cert = (ts.check_full_sync(C4, const, 0.7, bound_M=1.0, epsilon=0.1) if J is None else
                ts.check_cluster_sync(C4, const, ts.ClusterSpec(J), 0.7, 1.0, 0.1))
        assert cert.mu1 == 0.0


def test_full_sync_failure_names_pair_and_condition():
    system = ts.build_contrarian_ring(10, 0.5, 0.0)
    bounds = ts.pair_bounds_for_identical_nodes(10, 0.0, rho=1.0)
    cert = ts.check_full_sync(system, bounds, 5.0, bound_M=1.0, epsilon=1e-6)
    assert not cert.verdict.holds
    assert cert.verdict.condition == "gamma"
    assert cert.verdict.pair == (0, 1)  # rendered 1-based as (1,2)
    assert cert.verdict.render().startswith("fails(gamma,(1,2)")


def test_gamma_failure_names_first_exact_tie():
    # six pairs of this ring tie exactly in gamma; their float values differ
    # in the last bits, and the verdict must still name the first of them
    a, a12, l = 1.7697859081537268, 1.5314170531151312, -0.9356027982336892
    system = ts.build_contrarian_ring(10, a=a, a12=a12)
    bounds = ts.pair_bounds_for_identical_nodes(10, l, rho=2.0)
    cert = ts.check_full_sync(system, bounds, 3.0, bound_M=1.0, epsilon=1e-3)
    exact = exact_gammas(system.schedule.sample(0.0), l)
    tied = [p for p in sorted(exact) if exact[p] == min(exact.values())]
    assert tied == [(0, 8), (1, 6), (2, 7), (2, 8), (3, 8), (4, 9)]
    assert cert.verdict.render() == "fails(gamma,(1,9),t=0)"


def test_assumptions_print_grid_times_as_plain_floats():
    system = ts.build_contrarian_ring(7, a=2.0, a12=1.0)
    bounds = ts.pair_bounds_for_identical_nodes(7, -0.5, rho=1.0)
    cert = ts.check_full_sync(system, bounds, 2.0, bound_M=1.0, epsilon=1e-3)
    assert cert.assumptions[1] == "grid-verified on [0.0, 2.0] with step 0.01"
    assert cert.to_json_dict()["assumptions"][1] == cert.assumptions[1]


def test_result_records_compare_by_identity_and_verdicts_by_fields():
    system = _decay_system(ts.static_schedule(np.ones((3, 3)) - np.eye(3)))
    bounds = ts.PairBoundSet.constant(3, -1.0, 0.0, rho=2.0)
    a, b = (ts.check_full_sync(system, bounds, 2.0, bound_M=0.5, epsilon=0.1) for _ in "ab")
    assert a == a and a != b and not a == b  # delta_min is an array field: no field compare
    assert len({a, b, a}) == 2
    assert (a in [b]) is False and a in [b, a]
    assert a.verdict == b.verdict and not a.verdict != b.verdict
    assert a.verdict != ts.Verdict(status="fails", condition="gamma", pair=(0, 1), t=0.0)


@pytest.mark.parametrize("horizon,last", [(2.506, 2.506), (2.504, 2.504), (2.5, 2.5)])
def test_window_grid_ends_at_the_horizon(horizon, last):
    # mu1 reads beta on the verdict grid, which ends exactly at t0 + horizon
    reads = []
    bounds = ts.PairBoundSet(3, 1.0, lambda i, j, t: -1.0,
                             lambda i, j, t: reads.append(t) or 0.01)
    system = _decay_system(ts.static_schedule(np.ones((3, 3)) - np.eye(3)))
    cert = ts.check_full_sync(system, bounds, horizon, bound_M=1.0, epsilon=0.1)
    assert max(reads) == last == cert.grid.t1


def test_certificate_json_export_contract(tmp_path):
    A = np.ones((3, 3)) - np.eye(3)
    system = _decay_system(ts.static_schedule(A))
    bounds = ts.PairBoundSet.constant(3, -1.0, 0.0, rho=2.0)
    cert = ts.check_full_sync(system, bounds, 5.0, bound_M=0.5, epsilon=0.1)
    path = tmp_path / "certificate.json"
    cert.write_json(path)
    doc = json.loads(path.read_text())
    for key in ("verdict", "gamma_bar", "mu1", "mu2", "bound_M",
                "asymptotic_bound", "settle_time", "grid", "assumptions"):
        assert key in doc
    assert doc["verdict"] == "holds"
    assert doc["grid"] == {"t0": 0.0, "t1": 5.0, "step": 0.01}
    assert any(a.startswith("rho=") for a in doc["assumptions"])
    assert any("grid-verified" in a for a in doc["assumptions"])
    before = path.read_bytes()
    cert.write_json(path)
    assert path.read_bytes() == before


def test_refined_bounds_values_and_errors():
    A = np.ones((3, 3)) - np.eye(3)
    system = _decay_system(ts.static_schedule(A))
    bounds = ts.PairBoundSet.constant(3, -1.0, 0.0, rho=2.0)
    cert = ts.check_full_sync(system, bounds, 5.0, bound_M=1.0, epsilon=1e-12)
    rb = ts.refined_bounds(cert, 10.0)
    assert rb.asymptotic_bound == pytest.approx(1e-12 + 0.1)
    rb0 = ts.refined_bounds(cert, 1.0, beta_inf=0.0)
    assert rb0.sharp_sync and rb0.linf_bound == pytest.approx(1e-12)
    # beta_inf = 2, gamma_bar = 4, c = 1 -> 0.5; build a matching certificate
    cert.gamma_bar = 4.0
    rb2 = ts.refined_bounds(cert, 1.0, beta_inf=2.0)
    assert rb2.linf_bound == pytest.approx(1e-12 + 0.5)
    with pytest.raises(ValueError):
        ts.refined_bounds(cert, 0.5)
    failing = ts.check_full_sync(
        ts.build_contrarian_ring(10, 0.5, 0.0),
        ts.pair_bounds_for_identical_nodes(10, 0.0, rho=1.0),
        2.0, bound_M=1.0, epsilon=1e-6,
    )
    with pytest.raises(ValueError):
        ts.refined_bounds(failing, 2.0)


def test_persistence_margins_formulas():
    A = np.ones((5, 5)) - np.eye(5)
    system = _decay_system(ts.static_schedule(A))
    bounds = ts.PairBoundSet.constant(5, -1.0, 0.0, rho=1.0)
    cert = ts.check_full_sync(system, bounds, 3.0, bound_M=1.0, epsilon=1e-6)
    cert.gamma_bar = 2.0  # pin the margin to check the closed forms
    pm = ts.persistence_margins(cert, rho=1.0, n_nodes=5)
    assert pm.adjacency_margin == pytest.approx(0.5)
    assert pm.heterogeneity_bound(0.0) == 0.0
    assert pm.heterogeneity_bound(0.1) == pytest.approx(
        4 * 1.0 * 0.1 * math.sqrt(10.0) / 2.0
    )
    cert.mu1 = 0.3
    with pytest.raises(ValueError):
        ts.persistence_margins(cert, 1.0, 5)


def test_row_sum_perturbation_lowers_gamma_bar_by_exactly_four_eps():
    # Delta a_01 = Delta a_10 = -eps has max row sum eps and lowers gamma_01
    # by exactly 4 eps, the factor of adjacency_margin = gamma_bar / 4; every
    # other pair of K4 moves by at most 2 eps.  At eps = the margin the
    # certified gamma_bar reaches 0, so the margin is tight.
    A = np.ones((4, 4)) - np.eye(4)
    bounds = ts.PairBoundSet.constant(4, -1.0, 0.0, rho=1.0)
    base = ts.check_full_sync(_decay_system(ts.static_schedule(A)), bounds, 3.0, 1.0, 1e-6)
    margin = ts.persistence_margins(base, rho=1.0, n_nodes=4).adjacency_margin
    exact_bar = min(exact_gammas(A, -1.0).values())
    assert base.gamma_bar == exact_bar == 10 and margin == 2.5
    for eps in (Fraction(1, 8), Fraction(3, 4), Fraction(margin)):
        dA = np.zeros((4, 4))
        dA[0, 1] = dA[1, 0] = -float(eps)
        assert np.abs(dA).sum(axis=1).max() == eps
        gammas = exact_gammas(A + dA, -1.0)
        assert min(gammas.values()) == gammas[(0, 1)] == exact_bar - 4 * eps
        assert all(g >= exact_bar - 2 * eps for p, g in gammas.items() if p != (0, 1))
        cert = ts.check_full_sync(_decay_system(ts.static_schedule(A + dA)), bounds, 3.0, 1.0,
                                  1e-6)
        assert cert.gamma_bar == float(exact_bar - 4 * eps)
        assert cert.verdict.holds == (eps < margin)


def test_static_threshold_complete_graph_closed_form():
    A = np.ones((3, 3)) - np.eye(3)
    c_bar = ts.static_threshold(A, 1.0)
    assert abs(c_bar - 1.0 / 3.0) < 1e-9
    # negative one-sided rate: already certified without coupling
    assert ts.static_threshold(A, -0.5) == 0.0


def test_static_threshold_star_cases():
    feasible = ts.star_matrix(5, 5.0, -1.0)
    c_bar = ts.static_threshold(feasible, 1.0)
    assert np.isfinite(c_bar) and c_bar > 0
    # beyond the threshold both inequality families hold
    iu, ju, _ = pair_arrays(5)
    S, D = pair_sums(feasible, iu, ju, np.arange(5))
    for c in (c_bar * 1.001, c_bar * 10):
        d = 1.0 - c * S
        g = 2 * np.abs(d) - c * D
        assert (d < 0).all() and (g > 0).all()
    with pytest.raises(ts.InfeasibleTopologyError) as exc:
        ts.static_threshold(ts.star_matrix(5, 3.0, -1.0), 1.0)
    assert exc.value.pair == (1, 2)


def test_static_threshold_on_rounded_feasibility_boundary():
    # Pair (1, 2) has 2 S - D = 2(-0.2 - 0.5) + 2(min(0.9, 0.9) +
    # min(-0.2, 0.2)) = 0 in exact arithmetic, but the rounded coupling sum S
    # leaves a positive value near 1e-16.  The closed form returns the huge
    # finite threshold 2 l / (2 S - D) at once, where a bisection to an
    # absolute width of 1e-9 near c = 1e16 never ends.
    A = [[0.0, -0.2, 0.9, -0.2], [-0.5, 0.0, 0.9, 0.2],
         [1.0, 0.7, 0.0, -0.3], [1.2, 0.0, 0.9, 0.0]]
    c_bar = ts.static_threshold(A, 1.0)
    assert math.isfinite(c_bar) and c_bar > 1e15
    assert ts.static_threshold(A, 0.0) == 0.0
    # the threshold is the largest per-pair bound, set by the boundary pair
    iu, ju, _ = pair_arrays(4)
    S, D = pair_sums(np.array(A), iu, ju, np.arange(4))
    assert c_bar == 2.0 / (2.0 * S[0] - D[0])
    # here D sums its terms directly and S is exact, so the zero is exact and
    # the pair is infeasible
    A = [[0.0, 0.6, 0.0, 0.0], [-0.6, 0.0, 0.7, 0.0],
         [0.7, 0.7, 0.0, 1.3], [0.1, 0.7, 0.0, 0.0]]
    with pytest.raises(ts.InfeasibleTopologyError) as exc:
        ts.static_threshold(A, 1.0)
    assert exc.value.pair == (1, 2) and exc.value.value == 0.0


def test_static_threshold_rejects_nonfinite_input():
    A = np.ones((3, 3))
    A[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"A_static entry \(2, 1\) = nan is not finite"):
        ts.static_threshold(A, 1.0)
    A[1, 0], A[2, 2] = 1.0, np.inf  # the diagonal is dropped, so it is no entry
    assert ts.static_threshold(A, 1.0) == ts.static_threshold(np.ones((3, 3)), 1.0)
    with pytest.raises(ValueError, match=r"l_rho = nan is not finite"):
        ts.static_threshold(A, math.nan)


# -- cluster certificates ----------------------------------------------------

def _cluster_test_system(d, w=0.3):
    A = np.zeros((4, 4))
    for i in range(3):
        for j in range(3):
            if i != j:
                A[i, j] = w
    A[0, 3] = d
    return _zero_system(A)


def test_full_set_cluster_equals_full_certificate():
    rng = np.random.default_rng(3)
    A = rng.uniform(0.2, 1.0, (4, 4))
    system = _zero_system(A)
    bounds = ts.PairBoundSet.constant(4, -0.5, 0.01, rho=1.5)
    full = ts.check_full_sync(system, bounds, 4.0, bound_M=1.0, epsilon=0.05)
    clus = ts.check_cluster_sync(
        system, bounds, ts.ClusterSpec([0, 1, 2, 3]), 4.0, bound_M=1.0, epsilon=0.05
    )
    assert clus.gamma_bar_J == full.gamma_bar
    assert clus.mu1 == full.mu1
    assert clus.mu2 == 0.0
    assert clus.combined_mu == full.mu1
    assert clus.verdict == full.verdict
    assert clus.asymptotic_bound == full.asymptotic_bound
    assert clus.settle_time == full.settle_time
    assert np.array_equal(clus.delta_min, full.delta_min)


def test_cluster_flip_point_matches_direct_inequality():
    # gamma_bar_J = 6w is d-independent; combined_mu = 4 sqrt(3) d; the
    # verdict flips where the margin meets -log(1 - combined/M)
    w, M, eps, rho = 0.3, 1.0, 1e-3, 1.0
    bounds = ts.PairBoundSet.constant(4, 0.0, 0.0, rho=rho)
    cluster = ts.ClusterSpec([0, 1, 2])

    def holds(d):
        cert = ts.check_cluster_sync(
            _cluster_test_system(d, w), bounds, cluster, 3.0,
            bound_M=M, epsilon=eps,
        )
        assert cert.gamma_bar_J == pytest.approx(6 * w)
        return cert.verdict.holds

    assert holds(0.0)
    assert not holds(0.14)
    lo, hi = 0.0, 0.14
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    d_star = M * (1.0 - math.exp(-6 * w)) / (4 * math.sqrt(3.0))
    assert abs(0.5 * (lo + hi) - d_star) < 1e-4


def test_cluster_combined_mu_linear_in_external_difference():
    bounds = ts.PairBoundSet.constant(4, 0.0, 0.0, rho=1.0)
    cluster = ts.ClusterSpec([0, 1, 2])
    vals = []
    for d in (0.02, 0.04, 0.08):
        cert = ts.check_cluster_sync(
            _cluster_test_system(d), bounds, cluster, 3.0, bound_M=1.0, epsilon=1e-3
        )
        vals.append(cert.combined_mu)
    assert vals[1] == pytest.approx(2 * vals[0], rel=1e-9)
    assert vals[2] == pytest.approx(4 * vals[0], rel=1e-9)


def test_cluster_precondition_error():
    bounds = ts.PairBoundSet.constant(4, 0.0, 0.0, rho=1.0)
    with pytest.raises(ValueError):
        ts.check_cluster_sync(
            _cluster_test_system(0.5), bounds, ts.ClusterSpec([0, 1, 2]),
            3.0, bound_M=1e-3, epsilon=1e-3,
        )


def test_suggest_bound_m_and_estimate_rho():
    assert ts.suggest_bound_M(0.0) == 1.0
    assert ts.suggest_bound_M(0.4) == 0.8
    A = np.ones((2, 2)) - np.eye(2)
    system = _decay_system(ts.static_schedule(A))
    rho = ts.estimate_rho(system, np.array([[1.0], [-1.0]]), 0.0, 1.0)
    assert rho == pytest.approx(1.5 * 1.0)
