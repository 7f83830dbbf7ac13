"""Dissipativity, pullback estimation, and coupled-comparison checks."""

import math

import numpy as np
import pytest

import tempsync as ts


def test_dissipativity_pair_formulas():
    alpha, beta, gb = ts.dissipativity_from_onesided(
        -2.0, 1.0, gamma=2.0, eps=0.5
    )
    assert alpha(3.0) == -1.0
    assert beta(3.0) == 4.0
    assert gb == pytest.approx(2.0 - 1.0)


def test_dissipativity_zero_forcing_gives_zero_beta():
    _, beta, _ = ts.dissipativity_from_onesided(-2.0, 0.0, gamma=2.0, eps=0.1)
    assert beta(0.0) == 0.0


def test_dissipativity_small_eps_limit():
    alpha, _, _ = ts.dissipativity_from_onesided(
        lambda t: -2.0 + math.sin(t), 1.0, gamma=1.0, eps=1e-6
    )
    for t in (0.0, 1.0, 2.5):
        assert alpha(t) - (-2.0 + math.sin(t)) == pytest.approx(2e-6, rel=1e-9)


def test_dissipativity_eps_range_checked():
    with pytest.raises(ValueError):
        ts.dissipativity_from_onesided(-2.0, 1.0, gamma=2.0, eps=1.0)
    with pytest.raises(ValueError):
        ts.dissipativity_from_onesided(-2.0, 1.0, gamma=2.0, eps=0.0)


def test_dissipativity_data_envelope_check():
    data = ts.DissipativityData.build(-2.0, 1.0, K=1.0, gamma=2.0, eps=0.5)
    assert data.envelope_holds_on(np.linspace(0, 5, 101))
    loose = ts.DissipativityData.build(-1.0, 1.0, K=1.0, gamma=2.0, eps=0.5)
    assert not loose.envelope_holds_on(np.linspace(0, 5, 101))


def test_fit_sl2_envelope_recovers_constant_rate():
    K, gamma, certified = ts.fit_sl2_envelope(-2.0, np.linspace(0, 10, 501))
    assert gamma == pytest.approx(2.0, rel=1e-9)
    assert 1.0 <= K <= 1.02
    assert certified


def test_fit_sl2_envelope_oscillating_rate():
    # the least-squares intercept underestimates K for oscillating rates:
    # the fit recovers the mean rate but certification honestly rejects it
    rate = lambda t: -1.0 + 0.5 * math.sin(2 * t)  # noqa: E731
    grid = np.linspace(0, 20, 2001)
    K, gamma, certified = ts.fit_sl2_envelope(rate, grid)
    assert gamma == pytest.approx(1.0, abs=0.05)
    assert not certified
    # raising K to cover the oscillation makes the envelope valid at the
    # true mean rate (worst pair contributes exp(0.25 (cos 2s - cos 2t)))
    data = ts.DissipativityData.build(
        rate, 0.0, K=math.exp(0.5) * 1.01, gamma=1.0, eps=0.25
    )
    assert data.envelope_holds_on(grid)


def test_pullback_matches_forced_linear_closed_form():
    def rhs(t, x):
        return -x + math.sin(t)

    for t in np.linspace(0.0, 9.0, 10):
        est = ts.pullback_trajectory(rhs, float(t), 64.0, np.array([3.0]))
        exact = (math.sin(t) - math.cos(t)) / 2.0
        assert est.converged
        assert abs(est.state[0] - exact) < 1e-6


def test_pullback_trivial_fixed_points():
    est0 = ts.pullback_trajectory(lambda t, x: -x, 1.0, 64.0, np.array([2.0]))
    assert abs(est0.state[0]) < 1e-8
    est1 = ts.pullback_trajectory(lambda t, x: -x + 1.0, 1.0, 64.0, np.array([2.0]))
    assert abs(est1.state[0] - 1.0) < 1e-8


def test_pullback_non_convergence_reports_gap():
    # contraction too slow for the allotted depth: no exception, gap reported
    est = ts.pullback_trajectory(
        lambda t, x: -0.01 * x + math.sin(t), 0.0, 4.0, np.array([50.0])
    )
    assert not est.converged
    assert est.gap > 1e-8
    with pytest.raises(ValueError):
        ts.pullback_trajectory(lambda t, x: -x, 0.0, 0.0, np.array([1.0]))


def test_pullback_agrees_with_forward_limit():
    def rhs(t, x):
        return -x + np.array([math.cos(2 * t)])

    est = ts.pullback_trajectory(rhs, 30.0, 64.0, np.array([4.0]))
    system = ts.NetworkSystem(
        ts.NodeField(1, lambda t, X: rhs(t, X[0])[None]), ts.static_schedule(np.zeros((1, 1)))
    )
    fwd = ts.integrate(system, -10.0, np.array([[-3.0]]), 30.0, ts.SolverConfig(dt=1e-3))
    assert abs(est.state[0] - fwd.final_state()[0, 0]) < 1e-6


def test_ultimate_bound_values():
    assert ts.ultimate_bound(1.0, 1.0, 0.0) == 0.0
    assert ts.ultimate_bound(1.0, math.log(2.0), 1.0) == pytest.approx(2.0)
    one = ts.ultimate_bound(1.5, 0.7, 0.3)
    assert ts.ultimate_bound(3.0, 0.7, 0.3) == pytest.approx(2 * one)
    with pytest.raises(ValueError):
        ts.ultimate_bound(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ts.ultimate_bound(0.5, 1.0, 1.0)


def _coupled_pair(rate=2.0, weight=1.0):
    A = weight * (np.ones((2, 2)) - np.eye(2))
    return ts.NetworkSystem(
        ts.NodeField(1, lambda t, X: -rate * X), ts.static_schedule(A)
    )


def test_coupled_comparison_two_node_example():
    system = _coupled_pair()
    chk = ts.coupled_comparison_check(system, [-4.0, -4.0], np.linspace(0, 1, 11))
    C = chk.matrix(0.0)
    assert np.allclose(C, [[-4.0, 2.0], [2.0, -4.0]])
    assert chk.gamma == pytest.approx(2.0)
    assert chk.verdict
    # eigen-decomposition oracle: slowest mode decays like exp(-2 t)
    w = np.linalg.eigvalsh(C)
    assert np.allclose(sorted(w), [-6.0, -2.0])


def test_coupled_comparison_decoupled_rates():
    system = ts.NetworkSystem(
        [ts.NodeDynamics(1, lambda t, x: -x)] * 3,
        ts.static_schedule(np.zeros((3, 3))),
    )
    chk = ts.coupled_comparison_check(
        system, [-1.0, -2.5, -4.0], np.linspace(0, 1, 5)
    )
    assert chk.verdict and chk.gamma == pytest.approx(1.0)


def test_coupled_comparison_margin_failure():
    system = _coupled_pair(weight=1.0)
    chk = ts.coupled_comparison_check(system, [-1.0, -1.0], np.linspace(0, 1, 5))
    assert chk.gamma == pytest.approx(-1.0)
    assert not chk.verdict


def test_coupled_comparison_rejects_negative_weights():
    A = np.array([[0.0, -0.5], [1.0, 0.0]])
    system = ts.NetworkSystem(
        [ts.zero_dynamics(1)] * 2, ts.static_schedule(A)
    )
    with pytest.raises(ts.HypothesisError):
        ts.coupled_comparison_check(system, [-1.0, -1.0], np.linspace(0, 1, 5))


def test_coupled_comparison_rejects_nonfinite_rates():
    # a NaN dropped out of max/min and the check returned verdict=True, gamma=inf
    system = _coupled_pair(weight=0.0)
    with pytest.raises(ValueError, match=r"^rate l_2\(t\) = nan is not finite at t=0.0$"):
        ts.coupled_comparison_check(system, [-4.0, math.nan], np.linspace(0, 1, 5))
    late = lambda t: -4.0 if t < 0.6 else -math.inf
    with pytest.raises(ValueError, match=r"^rate l_1\(t\) = -inf is not finite at t=0.75$"):
        ts.coupled_comparison_check(system, [late, -4.0], np.linspace(0, 1, 5))


def test_boundedness_witness_decay_and_export(tmp_path):
    system = _coupled_pair()
    chk = ts.coupled_comparison_check(system, [-4.0, -4.0], np.linspace(0, 1, 11))
    rng = np.random.default_rng(1)
    ya = rng.uniform(-1, 1, (2, 1))
    za = rng.uniform(-1, 1, (2, 1))
    delta0 = float(np.max(np.sum((ya - za) ** 2, axis=1)))
    T = math.log(delta0 / 1e-8) / chk.gamma
    cfg = ts.SolverConfig(dt=1e-3, record_stride=10)
    ty = ts.integrate(system, 0.0, ya, T + 0.5, cfg)
    tz = ts.integrate(system, 0.0, za, T + 0.5, cfg)
    sq = np.sum((ty.states - tz.states) ** 2, axis=2)
    assert np.all(sq[ty.times >= T] <= 1e-8)
    path = tmp_path / "witness.json"
    chk.write_json(path)
    import json

    doc = json.loads(path.read_text())
    assert doc == {
        "gamma": 2.0,
        "verdict": True,
        "nodes": 2,
        "grid": {"t0": 0.0, "t1": 1.0, "step": pytest.approx(0.1)},
    }


def test_full_sync_certificate_records_the_boundedness_witness():
    system = _coupled_pair()
    chk = ts.coupled_comparison_check(system, [-4.0, -4.0], np.linspace(0, 1, 11))
    bounds = ts.pair_bounds_for_identical_nodes(2, 0.0, 1.0)
    plain = ts.check_full_sync(system, bounds, 2.0, 1.0, 1e-3)
    line = "boundedness witness: gamma=2.0, verdict=True, nodes=2"
    for witness in (chk, chk.to_json_dict()):
        cert = ts.check_full_sync(system, bounds, 2.0, 1.0, 1e-3, boundedness_witness=witness)
        assert cert.assumptions == plain.assumptions + [line]
        assert cert.to_json_dict()["assumptions"][-1] == line
        assert cert.verdict.render() == plain.verdict.render()
