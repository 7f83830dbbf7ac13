"""Integrator contracts: closed forms, breakpoint alignment, error series."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import tempsync as ts
from tempsync import _kernels as kern
from tempsync.integrate import _RKF_A, _RKF_B5, _RKF_C, _RKF_E, _write_csv
from tempsync.model import _ConstPiece, _FuncPiece


def _consensus_pair(w=1.0):
    A = np.array([[0.0, w], [w, 0.0]])
    return ts.NetworkSystem(
        ts.NodeField(1, lambda t, X: np.zeros_like(X)), ts.static_schedule(A)
    )


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_node_dynamics_adapter_matches_node_field_bitwise(method):
    # heterogeneous per-node contracts and the same formula as one field
    # with per-node parameter vectors give the same trajectory bit for bit
    rng = np.random.default_rng(11)
    n = 4
    k = rng.uniform(0.1, 0.5, n)
    w = rng.uniform(1.0, 2.0, n)
    nodes = [
        ts.NodeDynamics(2, lambda t, x, i=i: np.array(
            [x[1] - k[i] * x[0] * x[0] * x[0], -(w[i] + t) * x[0]]))
        for i in range(n)
    ]

    def field(t, X):
        out = np.empty_like(X)
        out[:, 0] = X[:, 1] - k * X[:, 0] * X[:, 0] * X[:, 0]
        out[:, 1] = -(w + t) * X[:, 0]
        return out

    sched = ts.build_switching_schedule(
        n, [(0.0, _signed(rng, n)), (0.4, _signed(rng, n)), (1.1, _signed(rng, n))]
    )
    cfg = ts.SolverConfig(method=method, dt=2.0 ** -7, rtol=1e-8, atol=1e-10)
    x0 = rng.uniform(-1.0, 1.0, (n, 2))
    a = ts.integrate(ts.NetworkSystem(nodes, sched, 0.7), 0.0, x0, 2.0, cfg)
    b = ts.integrate(ts.NetworkSystem(ts.NodeField(2, field), sched, 0.7), 0.0, x0, 2.0, cfg)
    assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)


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


def test_pairwise_errors_need_two_nodes():
    traj = ts.Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1, 2)))
    with pytest.raises(ValueError, match="^need at least two nodes$"):
        ts.pairwise_errors(traj)


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
        ts.NodeField(1, lambda t, X: np.full_like(X, 1e6 if t > 0.5 else 0.0)),
        ts.static_schedule(np.zeros((2, 2))),
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
    assert all(isinstance(piece, _ConstPiece)
               for _, _, piece in periodic.segments_between(-1.5, 4.0))
    sys_p = ts.NetworkSystem([ts.zero_dynamics(1)] * 2, periodic)
    sys_u = ts.NetworkSystem([ts.zero_dynamics(1)] * 2, unrolled)
    end_p = ts.integrate(sys_p, 0.0, x0, 4.0, cfg).final_state()
    end_u = ts.integrate(sys_u, 0.0, x0, 4.0, cfg).final_state()
    assert np.allclose(end_p, end_u, rtol=0, atol=1e-15)


def test_blinking_periodic_consensus_integrates_like_unrolled():
    # 3-node consensus coupled only on [0.1, 0.2) of each period 0.3: ten
    # unit-weight windows of 0.1 shrink the disagreement (1, -1, 0) by
    # exp(-3 * 1.0); before, 7 of 30 segments held the previous piece
    p, K3, Z = 0.3, np.ones((3, 3)) - np.eye(3), np.zeros((3, 3))
    segs = [(0.0, Z), (0.1, K3), (0.2, Z)]
    periodic = ts.build_switching_schedule(3, segs, extension="periodic", period=p)
    unrolled = ts.build_switching_schedule(3, [(b + k * p, m) for k in range(10) for b, m in segs])
    x0 = np.array([[1.0], [-1.0], [0.0]])
    ends = [ts.integrate(ts.NetworkSystem([ts.zero_dynamics(1)] * 3, s), 0.0, x0, 3.0,
                         ts.SolverConfig(dt=1e-3)).final_state() for s in (periodic, unrolled)]
    assert ends[0].tobytes() == ends[1].tobytes()
    assert abs(abs(ends[0][0, 0]) - math.exp(-3.0)) < 1e-9


def test_solver_config_validation():
    with pytest.raises(ValueError):
        ts.SolverConfig(method="euler")
    with pytest.raises(ValueError):
        ts.SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        ts.SolverConfig(record_stride=0)
    with pytest.raises(ValueError):
        ts.integrate(_consensus_pair(), 1.0, np.zeros((2, 1)), 1.0, ts.SolverConfig())
    # NaN passed the old "<= 0" tests: rk45 with a NaN dt, rtol or atol never
    # returned, and rk4 with a NaN dt raised numpy's NaN-to-integer error
    for name in ("dt", "rtol", "atol"):
        for bad in (math.nan, math.inf, -math.inf, 0.0):
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
                ts.SolverConfig(method="rk45", **{name: bad})
    # t_end = inf used to return a one-sample trajectory at t0 under rk45
    for method in ("rk4", "rk45"):
        for t0, t_end, name in ((0.0, math.inf, "t_end"), (0.0, math.nan, "t_end"),
                                (math.nan, 1.0, "t0"), (-math.inf, 1.0, "t0")):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                ts.integrate(_consensus_pair(), t0, np.zeros((2, 1)), t_end,
                             ts.SolverConfig(method=method))


def test_write_csv_matches_per_cell_format(tmp_path):
    times = np.array([0.0, -0.0, 5e-324])
    body = np.array([[-0.0, math.inf, 1.0 / 3.0],
                     [-math.inf, math.nan, 5e-324],
                     [1e300, -2.5e-17, 0.1]])
    path = tmp_path / "table.csv"
    _write_csv(path, ["t", "a", "b", "c"], times, body)
    want = "t,a,b,c\n" + "".join(
        ",".join(format(v, ".17g") for v in [t, *row]) + "\n"
        for t, row in zip(times.tolist(), body.tolist()))
    assert path.read_bytes() == want.encode()


def _per_cell_csv(header, times, *columns):
    rows = np.column_stack([times, *columns]).tolist()
    return (",".join(header) + "\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in rows)).encode()


@pytest.mark.parametrize("scenario", ["fhn", "vdp"])
def test_scenario_csvs_match_per_cell_format(tmp_path, monkeypatch, scenario):
    # the FHN errors.csv has 1 + 435 + 1 = 437 columns, so its 385 rows span
    # 22 blocks of the writer
    written = {}
    to_csv = ts.Trajectory.to_csv
    monkeypatch.setattr(ts.Trajectory, "to_csv",
                        lambda self, path: (written.setdefault("traj", self), to_csv(self, path)))
    if scenario == "fhn":
        report = ts.run_fhn_clusters(n_nodes=30, horizon=3.0, dt=2 ** -9, metrics_start=0.0,
                                     out_dir=tmp_path, return_series=True)
    else:
        report = ts.run_vdp(n_nodes=6, delta_t=0.5, horizon=3.0, dt=2 ** -9,
                            out_dir=tmp_path, return_series=True)
    traj, err = written["traj"], report.series
    n, m = traj.states.shape[1:]
    iu, ju, _ = kern.pair_arrays(n)
    want_traj = _per_cell_csv(
        ["t"] + [f"x_{i + 1}_{q + 1}" for i in range(n) for q in range(m)],
        traj.times, traj.states.reshape(len(traj.times), -1))
    want_err = _per_cell_csv(
        ["t"] + [f"xi_{i + 1}_{j + 1}" for i, j in zip(iu, ju)] + ["e_hat"],
        err.times, err.xi, err.e_hat)
    assert (tmp_path / "trajectory.csv").read_bytes() == want_traj
    assert (tmp_path / "errors.csv").read_bytes() == want_err
    if scenario == "fhn":
        assert err.xi.shape == (385, 435)


def test_write_csv_header_only_and_t_only_tables(tmp_path):
    path = tmp_path / "table.csv"
    _write_csv(path, ["t", "a", "b"], np.zeros(0), np.zeros((0, 2)))
    assert path.read_bytes() == b"t,a,b\n"
    times = np.array([0.0, 0.1, 1e-300, -2.5e17])
    _write_csv(path, ["t"], times, np.zeros((4, 0)))
    assert path.read_bytes() == _per_cell_csv(["t"], times)


# -- the Laplacian stage form against the per-stage formula it replaces -----

_FEHLBERG = (  # (c_s, a_s*, b5_s) of RKF45, stage by stage
    (0.0, (), 16 / 135),
    (1 / 4, (1 / 4,), 0.0),
    (3 / 8, (3 / 32, 9 / 32), 6656 / 12825),
    (12 / 13, (1932 / 2197, -7200 / 2197, 7296 / 2197), 28561 / 56430),
    (1.0, (439 / 216, -8.0, 3680 / 513, -845 / 4104), -9 / 50),
    (1 / 2, (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40), 2 / 55),
)


def _reference_replay(system, method, traj):
    """Re-take every recorded step of ``traj`` from its start, one stage at a
    time, with the coupling as c (A X - (A 1) X) and A sampled per stage.

    Replaying the accepted steps keeps RKF45's step-size choice, which
    follows the rounding of its error estimate, out of the comparison.
    """
    c = system.global_coupling
    segs = system.schedule.segments_between(traj.times[0], traj.times[-1])
    X = traj.states[0]
    out = [X]
    for t, t_next in zip(traj.times[:-1], traj.times[1:]):
        piece = next(p for a, b, p in segs if a <= t < b)

        def f(t, X):
            A = piece(t)
            return system.eval_nodes(t, X) + c * (A @ X - A.sum(axis=1)[:, None] * X)

        h = t_next - t
        if method == "rk4":
            k1 = f(t, X)
            k2 = f(t + 0.5 * h, X + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, X + 0.5 * h * k2)
            k4 = f(t + h, X + h * k3)
            X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            ks = []
            for cs, row, _ in _FEHLBERG:
                Xs = X.copy()
                for a, k in zip(row, ks):
                    Xs += h * a * k
                ks.append(f(t + cs * h, Xs))
            X = X + h * sum(b5 * k for (_, _, b5), k in zip(_FEHLBERG, ks))
        out.append(X)
    return np.array(out)


def test_rkf45_error_weights_are_b5_minus_b4():
    b5 = [Fraction(16, 135), 0, Fraction(6656, 12825), Fraction(28561, 56430),
          Fraction(-9, 50), Fraction(2, 55)]
    b4 = [Fraction(25, 216), 0, Fraction(1408, 2565), Fraction(2197, 4104),
          Fraction(-1, 5), 0]
    assert _RKF_E.tolist() == [float(x - y) for x, y in zip(b5, b4)]


def _signed(rng, n):
    return rng.uniform(-0.5, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)


def _schedule(kind, rng, n):
    M = [_signed(rng, n) for _ in range(3)]
    if kind == "constant":
        return ts.build_switching_schedule(n, [(0.0, M[0]), (0.37, M[1]), (0.9, M[2])])
    wobble = np.sin(rng.uniform(1.0, 4.0, (n, n)))

    def func(t, M=M[1]):
        return M * (1.0 + 0.3 * np.sin(3.0 * t + wobble))

    if kind == "functional":
        return ts.AdjacencySchedule(n, [0.0, 0.55, 1.1], [M[0], func, M[2]])
    return ts.AdjacencySchedule(n, [0.0, 0.3], [M[0], func],
                                extension="periodic", period=0.7)


@pytest.mark.parametrize("n", [4, 10, 30])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_laplacian_stages_match_per_stage_formula(n, method):
    rng = np.random.default_rng(100 + n)
    cfg = ts.SolverConfig(method=method, dt=2.0 ** -6, rtol=1e-8, atol=1e-10)
    for m in (1, 2, 3):
        for kind in ("constant", "functional", "periodic"):
            phase = rng.uniform(0.0, 3.0, (n, m))
            system = ts.NetworkSystem(
                ts.NodeField(m, lambda t, X, p=phase: 0.5 * X - X ** 3 + np.sin(t + p)),
                _schedule(kind, rng, n), global_coupling=0.4,
            )
            traj = ts.integrate(system, 0.0, rng.uniform(-1.0, 1.0, (n, m)), 2.0, cfg)
            ref = _reference_replay(system, method, traj)
            tol = 1e-12 * np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(traj.states - ref) <= tol), (m, kind)


def _stage_by_stage_run(system, x0, t_end, cfg):
    """(times, states) of integrate(system, 0, x0, t_end, cfg) at record_stride 1,
    with every float operation of the integrator written out in its order: the
    RK4 step as one expression per stage, the coupling as L @ X and the RKF45
    stage, solution and error products as @, and finiteness by isfinite(...).all().
    """
    c = system.global_coupling
    X = np.array(x0, dtype=float)
    times, states, h = [0.0], [X], cfg.dt
    for a, b, piece in system.schedule.segments_between(0.0, t_end):
        L = kern.laplacian(piece.matrix) if isinstance(piece, _ConstPiece) else None

        def f(t, X, piece=piece, L=L):
            F = system.eval_nodes(t, X)
            assert np.isfinite(F).all()
            LX = (kern.laplacian(piece(t)) if L is None else L) @ X
            return F + (LX if c == 1.0 else c * LX)

        t = a
        if cfg.method == "rk4":
            n_steps = max(1, int(np.ceil((b - a) / cfg.dt - 1e-12)))
            hs = (b - a) / n_steps
            for s in range(n_steps):
                k1 = f(t, X)
                k2 = f(t + 0.5 * hs, X + 0.5 * hs * k1)
                k3 = f(t + 0.5 * hs, X + 0.5 * hs * k2)
                k4 = f(t + hs, X + hs * k3)
                X = X + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t = a + (s + 1) * hs if s + 1 < n_steps else b
                assert np.isfinite(X).all()
                times.append(t)
                states.append(X)
            continue
        K = np.empty((6,) + X.shape)
        Kf = K.reshape(6, -1)
        h = min(h, b - a)
        while t < b - 1e-14 * max(1.0, abs(b)):
            h = min(h, b - t)
            hA = h * _RKF_A
            K[0] = f(t, X)
            for s in range(1, 6):
                K[s] = f(t + _RKF_C[s] * h, X + (hA[s, :s] @ Kf[:s]).reshape(X.shape))
            X5 = X + ((h * _RKF_B5) @ Kf).reshape(X.shape)
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(X), np.abs(X5))
            q = ((h * _RKF_E) @ Kf / scale.reshape(-1)) ** 2
            err = math.sqrt(np.add.reduce(q) / q.size)
            if err <= 1.0:
                t, X = t + h, X5
                assert np.isfinite(X).all()
                times.append(t)
                states.append(X)
            h = h * min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
    return np.array(times), np.array(states)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_integrate_equals_its_stage_by_stage_form_exactly(method):
    # a zero-tolerance guard beside the 1e-12 per-stage formula test: the
    # integrator's fewer-call forms (ndarray.dot, one step expression, the
    # byte-scan finiteness check) must give exactly the same floats
    rng = np.random.default_rng(300)
    cfg = ts.SolverConfig(method=method, dt=2.0 ** -6, rtol=1e-8, atol=1e-10)
    for n in (3, 10):
        for m in (1, 2, 3):
            for kind in ("constant", "functional", "periodic"):
                for c in (1.0, 0.4):
                    phase = rng.uniform(0.0, 3.0, (n, m))
                    system = ts.NetworkSystem(
                        ts.NodeField(m, lambda t, X, p=phase: 0.5 * X - X ** 3 + np.sin(t + p)),
                        _schedule(kind, rng, n), global_coupling=c,
                    )
                    x0 = rng.uniform(-1.0, 1.0, (n, m))
                    traj = ts.integrate(system, 0.0, x0, 2.0, cfg)
                    times, states = _stage_by_stage_run(system, x0, 2.0, cfg)
                    assert np.array_equal(traj.times, times), (n, m, kind, c)
                    assert np.array_equal(traj.states, states), (n, m, kind, c)


def test_coupled_rhs_does_not_depend_on_the_input_layout():
    # a one-column state with a negative stride is copied to C order first,
    # where the coupling product gives the same bits as on a fresh array
    rng = np.random.default_rng(301)
    for n in (2, 5, 15):
        A = rng.uniform(-0.5, 1.0, (n, n))
        system = ts.NetworkSystem(ts.NodeField(1, lambda t, X: -X), ts.static_schedule(A),
                                  global_coupling=0.7)
        x = rng.normal(size=2 * n)
        view = x[::-2]
        assert view.strides[0] < 0
        assert ts.coupled_rhs(system, 0.3, view).tobytes() == \
            ts.coupled_rhs(system, 0.3, view.copy()).tobytes()


def test_fixed_step_field_evaluations_are_four_per_step(monkeypatch):
    calls = {"eval_nodes": 0, "coupling_term": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ts.NetworkSystem, "eval_nodes",
                        counted("eval_nodes", ts.NetworkSystem.eval_nodes))
    monkeypatch.setattr(kern, "coupling_term", counted("coupling_term", kern.coupling_term))
    rng = np.random.default_rng(7)
    breaks = [0.0, 0.37, 0.9, 1.4]
    sched = ts.build_switching_schedule(5, [(b, _signed(rng, 5)) for b in breaks])
    system = ts.NetworkSystem(ts.NodeField(2, lambda t, X: -X), sched)
    dt = 2.0 ** -7
    ts.integrate(system, 0.0, rng.normal(size=(5, 2)), 2.0, ts.SolverConfig(dt=dt))
    ends = breaks + [2.0]
    expected = 4 * sum(math.ceil((Fraction(b) - Fraction(a)) / Fraction(dt))
                       for a, b in zip(ends[:-1], ends[1:]))
    assert calls == {"eval_nodes": expected, "coupling_term": expected}


def test_rk45_zero_weight_stage_fault_names_node_and_stage_time():
    # stage 2 of RKF45 has weight 0 in the propagated 5th-order solution,
    # so only the per-stage check can catch a fault that appears there
    count = [0]

    def field(t, X):
        count[0] += 1
        out = -X
        if count[0] == 2:
            out = out.copy()
            out[2] = math.nan
        return out

    system = ts.NetworkSystem(ts.NodeField(1, field), ts.static_schedule(np.ones((4, 4))))
    cfg = ts.SolverConfig(method="rk45", dt=0.1)
    with pytest.raises(ts.IntegrationError, match=r"node 2 .* t=0\.025") as exc:
        ts.integrate(system, 0.0, np.ones((4, 1)), 1.0, cfg)
    assert exc.value.node == 2 and exc.value.t_last == 0.025


def test_rk45_evaluations_are_six_per_attempt_and_samples_at_most_five(monkeypatch):
    # each RKF45 attempt evaluates the node fields at its six stages; the
    # adjacency is sampled at most five times per attempt, since stage 0
    # reuses the previous attempt's c = 1 sample (accepted) or stage-0 sample
    # (rejected)
    calls = {"eval_nodes": 0, "piece": 0}
    eval_nodes = ts.NetworkSystem.eval_nodes

    def counted_eval_nodes(self, t, X):
        calls["eval_nodes"] += 1
        return eval_nodes(self, t, X)

    monkeypatch.setattr(ts.NetworkSystem, "eval_nodes", counted_eval_nodes)
    rng = np.random.default_rng(3)
    B = _signed(rng, 4)
    freqs = rng.uniform(2.0, 6.0, (4, 4))

    def piece(t):
        calls["piece"] += 1
        return B * (1.0 + 0.5 * np.sin(freqs * t))

    system = ts.NetworkSystem(ts.NodeField(1, lambda t, X: -3.0 * X + np.sin(5.0 * t)),
                              ts.AdjacencySchedule(4, [0.0], [piece]))
    cfg = ts.SolverConfig(method="rk45", dt=1.0, rtol=1e-8, atol=1e-10)
    traj = ts.integrate(system, 0.0, rng.normal(size=(4, 1)), 3.0, cfg)
    accepted = len(traj.times) - 1
    attempts, rest = divmod(calls["eval_nodes"], 6)
    assert rest == 0 and attempts > accepted >= 10  # some steps were rejected
    assert calls["piece"] <= 5 * attempts + 1


def _fault_at(call, value, node=2, then=None):
    """-X, with ``value`` written into ``node`` at the ``call``-th evaluation;
    ``then`` maps every later output (None leaves it as it is)."""
    count = [0]

    def field(t, X):
        count[0] += 1
        out = -X
        if count[0] == call:
            out = out.copy()
            out[node] = value
        elif count[0] > call and then is not None:
            out = then(out)
        return out

    return field


_PIECES = {
    "constant": ts.static_schedule(np.ones((4, 4))),
    "functional": ts.AdjacencySchedule(
        4, [0.0], [lambda t: np.ones((4, 4)) * (1.0 + 0.1 * np.sin(t))]),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["constant", "functional"])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_rk4_stage_fault_names_node_and_stage_time(stage, kind, value):
    # the fault sits in stage ``stage`` of the third step; the step result is
    # screened once, and the scan names the first non-finite stage output
    system = ts.NetworkSystem(ts.NodeField(1, _fault_at(8 + stage, value)), _PIECES[kind])
    h = 2.0 ** -4
    t_stage = 2 * h + (0.0, 0.5 * h, 0.5 * h, h)[stage - 1]
    with pytest.raises(ts.IntegrationError, match=rf"node 2 .* t={t_stage}$") as exc:
        ts.integrate(system, 0.0, np.ones((4, 1)), 1.0, ts.SolverConfig(dt=h))
    assert exc.value.node == 2 and exc.value.t_last == t_stage


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("stage", [0, 2, 3, 4, 5])
def test_rk45_stage_fault_names_node_and_stage_time(stage, value):
    # stage 1 is test_rk45_zero_weight_stage_fault_names_node_and_stage_time;
    # the others enter the error estimate, which is screened once per attempt
    system = ts.NetworkSystem(ts.NodeField(1, _fault_at(stage + 1, value)),
                              _PIECES["constant"])
    t_stage = _RKF_C[stage] * 0.1  # the first attempt: t = 0, h = dt
    with pytest.raises(ts.IntegrationError, match=rf"node 2 .* t={t_stage}$") as exc:
        ts.integrate(system, 0.0, np.ones((4, 1)), 1.0, ts.SolverConfig(method="rk45", dt=0.1))
    assert exc.value.node == 2 and exc.value.t_last == t_stage


def test_non_finite_adjacency_names_entry_and_first_bad_stage_time():
    # A(t) has a NaN at (2, 1) from t = 0.045: the first RKF45 attempt
    # (t = 0, h = 0.1) reads its stage times 0.025, 0.0375, 0.0923, 0.1, 0.05
    # as one block, and the fault names stage 3's time, the first bad one in
    # stage order, though stage 5's is earlier; a scalar callable and a
    # block function name the same
    def sample(t):
        A = np.ones((4, 4))
        if t >= 0.045:
            A[2, 1] = math.nan
        return A

    def block(times):
        return np.array([sample(t) for t in times])

    t_stage = 0.0 + _RKF_C[3] * 0.1
    msg = rf"^adjacency entry \(2, 1\) at t={re.escape(str(t_stage))} = nan is not finite$"
    for piece in (sample, _FuncPiece(block, 4)):
        system = ts.NetworkSystem(ts.NodeField(1, lambda t, X: -X),
                                  ts.AdjacencySchedule(4, [0.0], [piece]))
        with pytest.raises(ValueError, match=msg):
            ts.integrate(system, 0.0, np.ones((4, 1)), 1.0,
                         ts.SolverConfig(method="rk45", dt=0.1))
        with pytest.raises(ValueError, match=r"\(2, 1\) at t=0\.05 = nan"):  # RK4: t + h/2
            ts.integrate(system, 0.0, np.ones((4, 1)), 1.0, ts.SolverConfig(dt=0.1))


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_fault_is_caught_when_later_stages_map_nan_to_finite(method):
    # the second evaluation faults and every later one is made finite again:
    # the kept stage outputs still name the fault
    field = _fault_at(2, math.nan, node=1, then=np.nan_to_num)
    system = ts.NetworkSystem(ts.NodeField(1, field), ts.static_schedule(np.zeros((4, 4))))
    cfg = ts.SolverConfig(method=method, dt=0.1)
    t_stage = 0.05 if method == "rk4" else 0.025
    with pytest.raises(ts.IntegrationError, match=rf"node 1 .* t={t_stage}$") as exc:
        ts.integrate(system, 0.0, np.ones((4, 1)), 1.0, cfg)
    assert exc.value.node == 1 and exc.value.t_last == t_stage


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_one_node_fault_raises_no_runtime_warning(method, value):
    # at n = m = 1 numpy's own dot loop flags 0 * inf as invalid; the later
    # stages of the faulty step meet it, and no warning leaves the integrator
    system = ts.NetworkSystem(ts.NodeField(1, _fault_at(3, value, node=0)),
                              ts.static_schedule(np.zeros((1, 1))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ts.IntegrationError) as exc:
            ts.integrate(system, 0.0, np.ones((1, 1)), 1.0, ts.SolverConfig(method=method, dt=0.1))
    assert exc.value.node == 0


def test_non_finite_initial_state_names_the_entry():
    x0 = np.zeros((3, 2))
    x0[1, 0] = math.nan
    with pytest.raises(ValueError, match=r"^initial state must be finite: x0\[1, 0\] = nan$"):
        ts.integrate(ts.NetworkSystem(ts.NodeField(2, lambda t, X: -X),
                                      ts.static_schedule(np.zeros((3, 3)))),
                     0.0, x0, 1.0, ts.SolverConfig())


@pytest.mark.filterwarnings("ignore:overflow")
def test_state_fault_names_the_first_non_finite_node():
    # every field value is finite, but node 1's RK4 step sum overflows
    def field(t, X):
        out = np.zeros_like(X)
        out[1] = 1e308
        return out

    system = ts.NetworkSystem(ts.NodeField(1, field), ts.static_schedule(np.zeros((3, 3))))
    with pytest.raises(ts.IntegrationError,
                       match=r"^state became non-finite at t=0\.0625, first at node 1$") as exc:
        ts.integrate(system, 0.0, np.zeros((3, 1)), 1.0, ts.SolverConfig(dt=2.0 ** -4))
    assert exc.value.node == 1 and exc.value.t_last == 0.0625


@pytest.mark.filterwarnings("ignore:overflow")
def test_rk45_nan_error_estimate_shrinks_the_step_until_it_fails():
    # finite field values, but the coupling product overflows: the error
    # estimate is NaN at every step size, so each attempt is rejected and the
    # step shrinks until it underflows, instead of growing and retrying forever
    A = np.array([[0.0, 1e300], [1e300, 0.0]])
    system = ts.NetworkSystem(ts.NodeField(1, lambda t, X: np.zeros_like(X)),
                              ts.static_schedule(A))
    with pytest.raises(ts.IntegrationError, match="step size underflow at t=0.0") as exc:
        ts.integrate(system, 0.0, np.array([[1e10], [-1e10]]), 1.0,
                     ts.SolverConfig(method="rk45", dt=0.1))
    assert exc.value.t_last == 0.0
