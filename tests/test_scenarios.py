"""Scenario harness behavior: construction, determinism, metrics, reports."""

import json
import math

import numpy as np
import pytest

import tempsync as ts
from tempsync._kernels import pair_index
from tempsync.scenarios import _connected_undirected, _window_contrast


def test_ring_symbolic_certificate_reference_points():
    tbl = ts.ring_symbolic_certificate(0.5, 1.0, 10)
    assert tbl["delta_12"] == pytest.approx(-2.0)
    assert tbl["gamma_23"] == pytest.approx(2.0)
    # published threshold structure: gamma_23 hits zero at a = 3/2
    assert ts.ring_symbolic_certificate(1.5, 1.0, 10)["gamma_23"] == pytest.approx(0.0)
    # near a = 1 the gamma_13 constraint is violated for any compensation
    tbl_boundary = ts.ring_symbolic_certificate(1.0, 0.7, 10)
    assert tbl_boundary["gamma_13"] < 0.0
    with pytest.raises(ValueError):
        ts.ring_symbolic_certificate(0.5, 1.0, 6)


def test_ring_symbolic_agreement_on_consistent_components():
    # the four components consistent with the general pair formula agree with
    # direct evaluation to 1e-12 over random draws; delta_23/gamma_23 carry a
    # known publication slip and are exposed via *_direct instead
    rng = np.random.default_rng(7)
    n = 10
    bounds = ts.PairBoundSet.constant(n, 0.0, 0.0, rho=1.0)
    for _ in range(20):
        a = float(rng.uniform(0.05, 1.4))
        a12 = float(rng.uniform(0.0, 2.0))
        system = ts.build_contrarian_ring(n, a, a12)
        _, delta, gamma = ts.evaluate_comparison(system, bounds, 0.0)
        tbl = ts.ring_symbolic_certificate(a, a12, n)
        assert abs(delta[pair_index(0, 1, n)] - tbl["delta_12"]) <= 1e-12
        assert abs(delta[pair_index(0, 2, n)] - tbl["delta_13"]) <= 1e-12
        assert abs(gamma[pair_index(0, 1, n)] - tbl["gamma_12"]) <= 1e-12
        assert abs(gamma[pair_index(0, 2, n)] - tbl["gamma_13"]) <= 1e-12
        assert abs(delta[pair_index(1, 2, n)] - tbl["delta_23_direct"]) <= 1e-12
        assert abs(gamma[pair_index(1, 2, n)] - tbl["gamma_23_direct"]) <= 1e-12


def test_contrarian_ring_matrix_structure():
    n = 9
    system = ts.build_contrarian_ring(n, 0.4, 1.2)
    A = system.schedule.sample(0.0)
    assert A[0, 1] == 1.2
    assert np.all(A[0, 2:] == 0.0)
    for i in (1, 2, n - 2, n - 1):
        assert A[i, 0] == -0.4
    assert A[4, 2] == 1.0 and A[4, 3] == 1.0 and A[4, 5] == 1.0 and A[4, 6] == 1.0
    assert A[4, 0] == 0.0


def test_contrarian_ring_time_varying_weights():
    rng = np.random.default_rng(3)
    system = ts.build_contrarian_ring(8, 0.5, 1.0, time_varying=True, rng=rng)
    A0 = system.schedule.sample(0.0)
    # at t = 0 every contrarian weight sits at -1/2
    for i in (1, 2, 6, 7):
        assert A0[i, 0] == pytest.approx(-0.5)
    At = system.schedule.sample(1.3)
    assert any(At[i, 0] != A0[i, 0] for i in (1, 2, 6, 7))


def test_plain_positive_ring_reaches_consensus():
    # no contrarian, no compensation: classical consensus
    report = ts.run_ring_contrarian(
        8, a=0.0, a12=0.0, seed=2, horizon=30.0, dt=2e-3
    )
    assert report.metrics["tail_max_disagreement"] < 1e-6
    assert report.passed


def test_star_feasibility_cases_and_random_agreement():
    assert ts.star_feasibility(5.0, -1.0, 5).case == "feasible-A"
    assert ts.star_feasibility(3.0, -1.0, 5).case == "infeasible"
    assert ts.star_feasibility(1.0, 0.0, 5).case == "feasible-B"
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = float(rng.uniform(-2, 8))
        b = float(rng.uniform(-2, 2))
        n = int(rng.integers(3, 12))
        direct = 2 * (b + a) + (n - 2) * (b - abs(b)) > 0
        assert ts.star_feasibility(a, b, n).feasible == direct


def test_star_matrix_shape():
    m = ts.star_matrix(4, 2.0, -0.5)
    assert np.all(m[1:, 0] == 2.0)
    assert np.all(m[0, 1:] == -0.5)
    assert m[1, 2] == 0.0 and m[0, 0] == 0.0


def test_connectivity_helper():
    ring = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        ring[i, (i + 1) % 4] = True
    assert _connected_undirected(ring)
    split = np.zeros((4, 4), dtype=bool)
    split[0, 1] = split[2, 3] = True
    assert not _connected_undirected(split)


def test_vdp_schedule_segments_are_connected_binary_graphs():
    from tempsync.scenarios import _vdp_system

    rng = np.random.default_rng(21)
    system = _vdp_system(5, 10.0, 1.0, 50.0, rng, eps0=0.1, density=0.5)
    for k in range(5):
        A = system.schedule.sample(10.0 * k + 0.5)
        assert set(np.unique(A)) <= {0.0, 1.0}
        assert np.allclose(A, A.T)
        assert _connected_undirected(A > 0)


def test_vdp_run_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    kw = dict(n_nodes=4, delta_t=5.0, c=1.0, seed=9, horizon=10.0, dt=5e-3)
    ts.run_vdp(out_dir=out1, **kw)
    ts.run_vdp(out_dir=out2, **kw)
    for name in ("trajectory.csv", "errors.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_vdp_decoupled_keeps_oscillation_scale_error():
    report = ts.run_vdp(n_nodes=4, delta_t=10.0, c=0.0, seed=1, horizon=40.0, dt=5e-3)
    assert report.metrics["tail_mean_e_hat"] > 0.3


def test_vdp_rejects_negative_coupling():
    with pytest.raises(ValueError):
        ts.run_vdp(c=-1.0)


def test_window_contrast_on_synthetic_series():
    times = np.linspace(0.0, 40.0, 4001)
    omega = 2 * math.pi / 20.0  # in-window on [0,10), out on [10,20), ...
    small, big = 0.05, 2.0
    level = np.where(np.sin(omega * times) >= 0, small, big)
    states = np.zeros((len(times), 2, 1))
    states[:, 1, 0] = level
    iv, ov = _window_contrast(times, states, [0, 1], omega, metrics_start=0.0)
    assert iv == pytest.approx(small)
    assert ov == pytest.approx(big)


def test_fhn_run_reports_cluster_windows(tmp_path):
    report = ts.run_fhn_clusters(
        n_nodes=8, a_bar=3.0, seed=4, horizon=120.0, dt=8e-3,
        metrics_start=30.0, out_dir=tmp_path,
    )
    w = report.metrics["windows"]
    assert set(w) == {"l", "k"}
    for side in w.values():
        assert len(side["cluster"]) >= 2
        assert side["in_window"] > 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["scenario"] == "fhn-clusters"
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "errors.csv").exists()


def test_fhn_rejects_weak_leader_weight():
    with pytest.raises(ValueError):
        ts.run_fhn_clusters(a_bar=0.005)


def test_lorenz_star_writes_feasibility_certificate(tmp_path):
    report = ts.run_lorenz_star(
        4, a=5.0, b=-1.0, c=2.0, seed=1, horizon=35.0, out_dir=tmp_path
    )
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["case"] == "feasible-A"
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["files"]["certificate"] == "certificate.json"
    assert report.metrics["ratio"] < 1.0


def test_lorenz_star_tanh_ramp_runs():
    report = ts.run_lorenz_star(
        4, b=-1.0, c=1.0, perturb="tanh", seed=5, horizon=30.0
    )
    assert math.isfinite(report.metrics["post_mean_e_hat"])
    with pytest.raises(ValueError):
        ts.run_lorenz_star(4, perturb="spam", horizon=5.0)


def test_run_report_json_round_trip(tmp_path):
    report = ts.run_ring_contrarian(
        8, a=0.5, a12=1.0, seed=0, horizon=8.0, dt=5e-3, out_dir=tmp_path
    )
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["scenario"] == "ring-contrarian"
    assert doc["seed"] == 0
    assert doc["metrics"]["tail_max_disagreement"] == report.metrics["tail_max_disagreement"]
    assert doc["files"]["trajectory"] == "trajectory.csv"
    assert (tmp_path / "certificate.json").exists()
