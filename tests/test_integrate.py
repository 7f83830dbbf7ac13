"""Integrator contracts: closed forms, breakpoint alignment, error series."""

import math

import numpy as np
import pytest

import tempsync as ts


def _consensus_pair(w=1.0):
    A = np.array([[0.0, w], [w, 0.0]])
    nodes = [ts.zero_dynamics(1) for _ in range(2)]
    return ts.NetworkSystem(
        nodes, ts.static_schedule(A), stacked_rhs=lambda t, X: np.zeros_like(X)
    )


def test_zero_field_keeps_state_constant():
    system = ts.NetworkSystem(
        [ts.zero_dynamics(2) for _ in range(3)],
        ts.static_schedule(np.zeros((3, 3))),
    )
    x0 = np.arange(6.0).reshape(3, 2)
    traj = ts.integrate(system, 0.0, x0, 1.0, ts.SolverConfig(dt=1e-2))
    assert np.array_equal(traj.states[-1], x0)


def test_coupled_rhs_examples():
    system = _consensus_pair()
    out = ts.coupled_rhs(system, 0.0, np.array([1.0, 3.0]))
    assert np.allclose(out, [2.0, -2.0])
    # zero coupling: block i is f_i alone
    rng = np.random.default_rng(1)
    nodes = [ts.NodeDynamics(2, lambda t, x, i=i: (i + 1.0) * x) for i in range(2)]
    dec = ts.NetworkSystem(nodes, ts.static_schedule(np.zeros((2, 2))))
    x = rng.normal(size=4)
    out = ts.coupled_rhs(dec, 0.0, x)
    assert np.allclose(out[:2], x[:2])
    assert np.allclose(out[2:], 2.0 * x[2:])
    # identical states annihilate the coupling term
    A = rng.normal(size=(3, 3))
    sys3 = ts.NetworkSystem(
        [ts.NodeDynamics(1, lambda t, x: np.sin(x))] * 3,
        ts.static_schedule(A),
    )
    out = ts.coupled_rhs(sys3, 0.0, np.array([0.7, 0.7, 0.7]))
    assert np.allclose(out, math.sin(0.7), atol=1e-12)


def test_two_node_consensus_matches_exponential_decay():
    system = _consensus_pair()
    x0 = np.array([[1.0], [3.0]])
    traj = ts.integrate(system, 0.0, x0, 2.0, ts.SolverConfig(dt=1e-3))
    e_end = traj.states[-1, 0, 0] - traj.states[-1, 1, 0]
    exact = -2.0 * math.exp(-2.0 * 2.0)
    assert abs(e_end - exact) / abs(exact) < 1e-9


def test_rk4_grid_refinement_is_fourth_order():
    system = _consensus_pair()
    x0 = np.array([[1.0], [3.0]])
    exact = -2.0 * math.exp(-2.0)

    def err(dt):
        traj = ts.integrate(system, 0.0, x0, 1.0, ts.SolverConfig(dt=dt))
        return abs((traj.states[-1, 0, 0] - traj.states[-1, 1, 0]) - exact)

    ratio = err(2e-2) / err(1e-2)
    assert 12.0 < ratio < 20.0


def test_breakpoints_appear_exactly_in_step_grid():
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    A2 = 2.0 * A1
    sched = ts.build_switching_schedule(2, [(0.0, A1), (0.5, A2)])
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * 2, sched)
    traj = ts.integrate(
        system, 0.0, np.array([[1.0], [-1.0]]), 1.0, ts.SolverConfig(dt=1e-3)
    )
    assert 0.5 in traj.times
    # piecewise decay rates 2w: e(t) = e0 exp(-2 t) then exp(-4 (t - 1/2))
    e_end = traj.states[-1, 0, 0] - traj.states[-1, 1, 0]
    exact = 2.0 * math.exp(-2.0 * 0.5) * math.exp(-4.0 * 0.5)
    assert abs(e_end - exact) / exact < 1e-9


def test_consensus_manifold_is_invariant():
    rng = np.random.default_rng(5)
    A = np.abs(rng.normal(size=(4, 4)))
    node = ts.NodeDynamics(2, lambda t, x: np.array([x[1], -x[0]]))
    system = ts.NetworkSystem([node] * 4, ts.static_schedule(A))
    v = rng.normal(size=2)
    x0 = np.tile(v, (4, 1))
    traj = ts.integrate(system, 0.0, x0, 3.0, ts.SolverConfig(dt=1e-3, record_stride=50))
    err = ts.pairwise_errors(traj)
    assert err.xi.max() < 1e-20


def test_pairwise_errors_hand_values_and_cone():
    times = np.array([0.0, 1.0])
    states = np.array([[[0.0], [1.0], [3.0]], [[2.0], [2.0], [2.0]]])
    traj = ts.Trajectory(times, states)
    err = ts.pairwise_errors(traj)
    assert np.allclose(err.xi[0], [1.0, 9.0, 4.0])
    assert err.e_hat[0] == 3.0
    assert np.all(err.xi[1] == 0.0) and err.e_hat[1] == 0.0
    assert np.all(err.xi >= 0.0)


def test_pairwise_errors_two_nodes_scalar():
    traj = ts.Trajectory(np.array([0.0]), np.array([[[1.0], [3.0]]]))
    err = ts.pairwise_errors(traj)
    assert err.xi[0, 0] == 4.0 and err.e_hat[0] == 2.0


def test_rk45_matches_closed_form_with_forcing():
    # x' = -x + sin t -> x(t) = (sin t - cos t)/2 + C e^{-t}
    node = ts.NodeDynamics(1, lambda t, x: -x + math.sin(t))
    system = ts.NetworkSystem([node], ts.static_schedule(np.zeros((1, 1))))
    x0 = np.array([[0.0]])
    cfg = ts.SolverConfig(method="rk45", rtol=1e-9, atol=1e-12)
    traj = ts.integrate(system, 0.0, x0, 5.0, cfg)
    exact = (math.sin(5.0) - math.cos(5.0)) / 2.0 + 0.5 * math.exp(-5.0)
    assert abs(traj.states[-1, 0, 0] - exact) < 1e-7


def test_rk45_splits_at_breakpoints():
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sched = ts.build_switching_schedule(2, [(0.0, 0 * A1), (1.0, A1)])
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * 2, sched)
    cfg = ts.SolverConfig(method="rk45", rtol=1e-8, atol=1e-11)
    traj = ts.integrate(system, 0.0, np.array([[1.0], [-1.0]]), 2.0, cfg)
    assert 1.0 in traj.times
    e_end = traj.states[-1, 0, 0] - traj.states[-1, 1, 0]
    assert abs(e_end - 2.0 * math.exp(-2.0)) < 1e-6


def test_non_finite_node_output_raises_with_location():
    node_ok = ts.NodeDynamics(1, lambda t, x: -x)
    node_bad = ts.NodeDynamics(1, lambda t, x: np.array([math.nan]))
    system = ts.NetworkSystem(
        [node_ok, node_bad], ts.static_schedule(np.zeros((2, 2)))
    )
    with pytest.raises(ts.IntegrationError) as exc:
        ts.integrate(system, 0.0, np.zeros((2, 1)), 1.0, ts.SolverConfig())
    assert exc.value.node == 1


@pytest.mark.filterwarnings("ignore:overflow")
def test_blow_up_reports_last_valid_time():
    node = ts.NodeDynamics(1, lambda t, x: x * x)  # finite-time blow-up at t=1
    system = ts.NetworkSystem([node], ts.static_schedule(np.zeros((1, 1))))
    with pytest.raises(ts.IntegrationError) as exc:
        ts.integrate(system, 0.0, np.array([[1.0]]), 2.0, ts.SolverConfig(dt=1e-3))
    assert 0.9 < exc.value.t_last <= 2.0


def test_rk45_raises_when_minimum_step_is_rejected():
    # a forcing jump of 1e6 at t = 0.5 inside one segment: no step across it
    # can meet the tolerances, so the step shrinks to 1e-12 and must fail
    # loudly instead of being accepted with its error unchecked
    system = ts.NetworkSystem(
        [ts.zero_dynamics(1)] * 2, ts.static_schedule(np.zeros((2, 2))),
        stacked_rhs=lambda t, X: np.full_like(X, 1e6 if t > 0.5 else 0.0),
    )
    cfg = ts.SolverConfig(method="rk45", rtol=1e-10, atol=1e-12)
    with pytest.raises(ts.IntegrationError, match="rejected") as exc:
        ts.integrate(system, 0.0, np.zeros((2, 1)), 1.0, cfg)
    assert 0.49 < exc.value.t_last <= 0.5


def test_trajectory_and_error_csv_headers(tmp_path):
    system = _consensus_pair()
    traj = ts.integrate(
        system, 0.0, np.array([[1.0], [3.0]]), 0.01,
        ts.SolverConfig(dt=1e-2),
    )
    err = ts.pairwise_errors(traj)
    tp = tmp_path / "trajectory.csv"
    ep = tmp_path / "errors.csv"
    traj.to_csv(tp)
    err.to_csv(ep)
    assert tp.read_text().splitlines()[0] == "t,x_1_1,x_2_1"
    assert ep.read_text().splitlines()[0] == "t,xi_1_2,e_hat"
    # identical inputs produce identical bytes
    before = tp.read_bytes()
    traj.to_csv(tp)
    assert tp.read_bytes() == before


def test_record_stride_thins_output_but_keeps_breakpoints():
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sched = ts.build_switching_schedule(2, [(0.0, A1), (0.3, A1)])
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * 2, sched)
    cfg = ts.SolverConfig(dt=1e-2, record_stride=7)
    traj = ts.integrate(system, 0.0, np.array([[1.0], [0.0]]), 1.0, cfg)
    assert 0.3 in traj.times and 1.0 in traj.times
    assert len(traj.times) < 102
    assert np.all(np.diff(traj.times) > 0)


def test_periodic_schedule_integrates_like_unrolled():
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    A2 = 3.0 * A1
    periodic = ts.build_switching_schedule(
        2, [(0.0, A1), (1.0, A2)], extension="periodic", period=2.0
    )
    unrolled = ts.build_switching_schedule(
        2, [(0.0, A1), (1.0, A2), (2.0, A1), (3.0, A2)]
    )
    x0 = np.array([[1.0], [-0.5]])
    cfg = ts.SolverConfig(dt=1e-3)
    sys_p = ts.NetworkSystem([ts.zero_dynamics(1)] * 2, periodic)
    sys_u = ts.NetworkSystem([ts.zero_dynamics(1)] * 2, unrolled)
    end_p = ts.integrate(sys_p, 0.0, x0, 4.0, cfg).final_state()
    end_u = ts.integrate(sys_u, 0.0, x0, 4.0, cfg).final_state()
    assert np.allclose(end_p, end_u, rtol=0, atol=1e-15)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        ts.SolverConfig(method="euler")
    with pytest.raises(ValueError):
        ts.SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        ts.SolverConfig(record_stride=0)
    with pytest.raises(ValueError):
        ts.integrate(_consensus_pair(), 1.0, np.zeros((2, 1)), 1.0, ts.SolverConfig())
