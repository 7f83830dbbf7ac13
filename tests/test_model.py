"""Schedules, pair bounds, clusters, and system construction contracts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tempsync as ts
from tempsync.model import _ConstPiece


def _eye_offdiag(n):
    return np.ones((n, n)) - np.eye(n)


def test_single_segment_schedule_zeroes_diagonal():
    m = np.ones((3, 3))
    sched = ts.build_switching_schedule(3, [(0.0, m)])
    for t in (-5.0, 0.0, 0.3, 100.0):
        A = ts.sample_adjacency(sched, t)
        assert np.all(np.diag(A) == 0.0)
        assert np.all(A[~np.eye(3, dtype=bool)] == 1.0)


def test_breakpoint_sampling_is_right_continuous():
    A1 = _eye_offdiag(2)
    A2 = 2.0 * _eye_offdiag(2)
    sched = ts.build_switching_schedule(2, [(0.0, A1), (50.0, A2)])
    assert np.allclose(sched.sample(49.999), A1)
    assert np.allclose(sched.sample(50.0), A2)


def test_functional_piece_matches_formula():
    def piece(t):
        m = np.zeros((2, 2))
        m[0, 1] = -0.5 + 0.5 * math.sin(1.3 * t)
        return m

    sched = ts.AdjacencySchedule(2, [0.0], [piece])
    for t in np.linspace(0, 10, 37):
        assert sched.sample(t)[0, 1] == -0.5 + 0.5 * math.sin(1.3 * t)


def test_periodic_extension_wraps():
    A1 = _eye_offdiag(2)
    A2 = 3.0 * _eye_offdiag(2)
    sched = ts.build_switching_schedule(
        2, [(0.0, A1), (1.0, A2)], extension="periodic", period=2.0
    )
    for t in (0.2, 1.7, 0.9):
        assert np.allclose(sched.sample(t + 2.0), sched.sample(t))
        assert np.allclose(sched.sample(t + 8.0), sched.sample(t))


def test_extension_none_raises_before_domain():
    sched = ts.build_switching_schedule(2, [(1.0, _eye_offdiag(2))], extension="none")
    with pytest.raises(ts.ScheduleDomainError):
        sched.sample(0.5)
    sched.sample(1.0)  # in-domain


def test_constant_extension_clamps_functional_piece():
    sched = ts.AdjacencySchedule(
        2, [1.0], [lambda t: np.full((2, 2), math.sin(t))]
    )
    before = sched.sample(-3.0)
    at_start = sched.sample(1.0)
    assert np.allclose(before, at_start)


def test_schedule_construction_errors():
    with pytest.raises(ValueError):
        ts.build_switching_schedule(2, [])
    with pytest.raises(ValueError):
        ts.build_switching_schedule(2, [(0.0, _eye_offdiag(3))])
    with pytest.raises(ValueError):
        ts.build_switching_schedule(
            2, [(0.0, _eye_offdiag(2)), (0.0, _eye_offdiag(2))]
        )
    with pytest.raises(ValueError):
        ts.AdjacencySchedule(2, [0.0, 1.0], [_eye_offdiag(2)] * 2, extension="periodic")


def test_schedule_json_round_trip():
    sched = ts.build_switching_schedule(
        2, [(0.0, _eye_offdiag(2)), (5.0, 2 * _eye_offdiag(2))]
    )
    doc = json.loads(sched.to_json())
    again = ts.AdjacencySchedule.from_json(json.dumps(doc))
    for t in (0.0, 4.9, 5.0, 8.0):
        assert np.array_equal(sched.sample(t), again.sample(t))
    fn_sched = ts.AdjacencySchedule(2, [0.0], [lambda t: np.zeros((2, 2))])
    with pytest.raises(ValueError):
        fn_sched.to_json()


@given(
    t=st.floats(-1e3, 1e3, allow_nan=False),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=60, deadline=None)
def test_sampling_is_pure_and_diag_free(t, seed):
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(3, 3)) for _ in range(2)]
    sched = ts.build_switching_schedule(3, [(0.0, mats[0]), (1.0, mats[1])])
    first = sched.sample(t)
    second = sched.sample(t)
    assert np.array_equal(first, second)
    assert np.all(np.diag(first) == 0.0)


def test_segments_between_covers_interval_and_respects_pieces():
    A1, A2 = _eye_offdiag(2), 2 * _eye_offdiag(2)
    sched = ts.build_switching_schedule(2, [(0.0, A1), (50.0, A2)])
    segs = sched.segments_between(0.0, 80.0)
    assert [(a, b) for a, b, _ in segs] == [(0.0, 50.0), (50.0, 80.0)]
    assert np.allclose(segs[0][2](25.0), A1)
    assert np.allclose(segs[1][2](60.0), A2)


def test_periodic_segments_hold_their_piece_at_the_right_endpoint():
    def piece_a(t):
        return np.full((2, 2), math.sin(t))

    def piece_b(t):
        return np.full((2, 2), 10.0 + t)

    sched = ts.AdjacencySchedule(
        2, [0.0, 1.0], [piece_a, piece_b], extension="periodic", period=2.0
    )
    segs = sched.segments_between(0.0, 4.0)
    assert [(a, b) for a, b, _ in segs] == [
        (0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)
    ]
    for a, b, fn in segs:
        mid = 0.5 * (a + b)
        assert np.allclose(fn(mid), sched.sample(mid))
        # the right endpoint is evaluated on the same piece (left limit),
        # not on the next period's first piece
        base = a % 2.0
        expected_end = piece_a(base + 1.0) if base == 0.0 else piece_b(base + 1.0)
        np.fill_diagonal(expected_end, 0.0)
        assert np.allclose(fn(b), expected_end)


def test_identical_node_bounds_are_lipschitz_with_zero_beta():
    b = ts.pair_bounds_for_identical_nodes(4, 1.0, rho=2.0)
    for t in np.linspace(-3, 3, 7):
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                assert b.alpha(i, j, t) == 1.0
                assert b.beta(i, j, t) == 0.0
        iu, ju = np.triu_indices(4, k=1)
        assert np.array_equal(b.alpha_vec(iu, ju, t), np.ones(6))
        assert np.array_equal(b.beta_vec(ju, iu, t), np.zeros(6))
    assert b.time_constant and b.global_bounds


def test_consensus_bounds_give_zero_mu1():
    b = ts.pair_bounds_for_identical_nodes(3, 0.0, rho=1.0)
    grid = np.arange(0.0, 3.0, 0.01)
    assert ts.compute_mu1(b, grid) == 0.0


def test_callable_lipschitz_coefficient_uses_rho():
    b = ts.pair_bounds_for_identical_nodes(3, lambda t, r: r + t, rho=2.0)
    assert b.alpha(0, 1, 1.0) == 3.0
    assert b.beta(2, 0, 1.0) == 0.0
    assert np.array_equal(b.alpha_vec([0, 2], [1, 0], 1.0), [3.0, 3.0])
    assert np.array_equal(b.beta_vec([0, 2], [1, 0], 1.0), [0.0, 0.0])


def test_pair_bounds_symmetric_access_and_validation():
    rng = np.random.default_rng(0)
    alpha = rng.normal(size=(3, 3))
    b = ts.PairBoundSet.constant(3, alpha, 0.1, rho=1.0)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert b.alpha(i, j, 0.0) == b.alpha(j, i, 0.0)
    iu, ju = np.array([0, 0, 1, 2]), np.array([1, 2, 2, 0])
    expected = [b.alpha(i, j, 0.0) for i, j in zip(iu, ju)]
    assert np.array_equal(b.alpha_vec(iu, ju, 0.0), expected)
    assert np.array_equal(b.alpha_vec(ju, iu, 0.0), expected)
    assert np.array_equal(b.beta_vec(iu, ju, 0.0), np.full(4, 0.1))
    with pytest.raises(ValueError):
        b.alpha(0, 0, 0.0)
    with pytest.raises(ValueError, match=r"invalid pair \(1, 1\)"):
        b.alpha_vec([0, 1], [1, 1], 0.0)
    with pytest.raises(ValueError, match=r"invalid pair \(0, 3\)"):
        b.beta_vec([0, 0], [1, 3], 0.0)
    with pytest.raises(ValueError):
        ts.PairBoundSet.constant(3, 0.0, -1.0, rho=1.0)
    bad = ts.PairBoundSet(3, 1.0, lambda i, j, t: 0.0, lambda i, j, t: -t)
    with pytest.raises(ValueError):
        bad.beta(0, 1, 1.0)
    assert np.array_equal(bad.beta_vec([0, 1], [1, 2], 0.0), [0.0, 0.0])
    with pytest.raises(ValueError, match=r"beta\(0, 1, 1\.0\) = -1\.0 is negative"):
        bad.beta_vec([1, 2], [0, 1], 1.0)


def test_cluster_spec_validation():
    spec = ts.ClusterSpec([0, 2, 4])
    spec.validate_for(5)
    with pytest.raises(ValueError):
        spec.validate_for(4)
    with pytest.raises(ValueError):
        ts.ClusterSpec([3])
    with pytest.raises(ValueError):
        ts.ClusterSpec([2, 1])
    with pytest.raises(ValueError):
        ts.ClusterSpec([1, 1, 2])


def test_network_system_validation():
    sched = ts.static_schedule(_eye_offdiag(2))
    nodes = [ts.zero_dynamics(2), ts.zero_dynamics(2)]
    system = ts.NetworkSystem(nodes, sched)
    assert system.n_nodes == 2 and system.state_dim == 2
    with pytest.raises(ValueError):
        ts.NetworkSystem([ts.zero_dynamics(1)], sched)
    with pytest.raises(ValueError):
        ts.NetworkSystem([ts.zero_dynamics(1), ts.zero_dynamics(2)], sched)
    with pytest.raises(ValueError):
        ts.NetworkSystem(nodes, sched, global_coupling=-0.1)


def test_node_field_contract():
    sched = ts.static_schedule(_eye_offdiag(3))
    with pytest.raises(ValueError, match="state_dim"):
        ts.NodeField(0, lambda t, X: X)
    wide = ts.NetworkSystem(ts.NodeField(2, lambda t, X: np.zeros((3, 3))), sched)
    assert wide.n_nodes == 3 and wide.state_dim == 2
    with pytest.raises(ValueError, match=r"shape \(3, 3\), expected \(3, 2\)"):
        wide.eval_nodes(0.0, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="2 nodes but schedule is for 3"):
        ts.NetworkSystem([ts.zero_dynamics(2)] * 2, sched)
    with pytest.raises(ValueError, match="share one state_dim"):
        ts.NodeField.from_nodes([ts.zero_dynamics(1), ts.zero_dynamics(2)])
    with pytest.raises(ValueError):
        ts.NodeField.from_nodes([])


def test_node_dynamics_output_shape_checked():
    nd = ts.NodeDynamics(2, lambda t, x: np.zeros(3))
    with pytest.raises(ValueError):
        nd(0.0, np.zeros(2))


def test_const_piece_matrices_are_frozen():
    sched = ts.static_schedule(_eye_offdiag(3))
    piece = sched.pieces[0]
    assert isinstance(piece, _ConstPiece)
    with pytest.raises(ValueError):
        piece.matrix[0, 1] = 5.0
