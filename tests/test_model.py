"""Schedules, pair bounds, clusters, and system construction contracts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tempsync as ts
from tempsync.model import _all_finite, _ConstPiece, _FuncPiece
from tempsync.scenarios import _wobble


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


@pytest.mark.parametrize("p", [0.25, 0.3, 0.7, 1.1])
def test_periodic_segments_hold_the_piece_that_sample_returns(p):
    # cuts b_i + k p are floats; segments_between and sample locate pieces
    # with one rule, so every segment holds the piece sampled at its start
    # and midpoint (before, 20 of 50 segments disagreed at p = 0.3)
    mats = [np.full((2, 2), v) for v in (1.0, 2.0, 3.0)]
    sched = ts.build_switching_schedule(
        2, [(0.0, mats[0]), (p / 3, mats[1]), (2 * p / 3, mats[2])],
        extension="periodic", period=p)
    segs = sched.segments_between(0.0, 5.0)
    assert len(segs) == math.ceil(5.0 / (p / 3) - 1e-9)
    for a, b, piece in segs:
        for t in (a, 0.5 * (a + b)):
            assert np.array_equal(piece(t), sched.sample(t))


def test_periodic_functional_piece_sees_t_minus_k_period():
    seen = []
    sched = ts.AdjacencySchedule(
        2, [0.5, 1.0], [lambda t: seen.append(t) or np.zeros((2, 2)), np.eye(2)],
        extension="periodic", period=0.7)
    for t in (-0.7, 0.7, 3.5, 9.8):  # inside [0.5, 1.0) + k 0.7
        k = math.floor((t - 0.5) / 0.7)
        sched.sample(t)
        assert seen[-1] == t - k * 0.7
    (a, b, piece), = sched.segments_between(3.4, 3.5)
    piece(3.45)
    assert seen[-1] == 3.45 - 4 * 0.7


def _on_grid_schedules():
    rng = np.random.default_rng(3)
    B, W = rng.normal(size=(2, 3, 3))
    wave = lambda t: B + W * np.sin(3.0 * t)
    yield ts.build_switching_schedule(3, [(0.0, B), (0.4, W), (1.3, B)])
    yield ts.AdjacencySchedule(3, [0.2, 0.9], [wave, W])
    yield ts.AdjacencySchedule(3, [0.0, 0.1, 0.2], [B, wave, W], extension="periodic", period=0.3)


@pytest.mark.parametrize("width", [1, 5000, 2 ** 15])
def test_on_grid_rows_equal_sample_at_their_times(width):
    # the grid starts before the first breakpoint and repeats a time
    times = np.concatenate([np.linspace(-0.5, 2.0, 251), [2.0]])
    for sched in _on_grid_schedules():
        seen = np.zeros(times.size, dtype=int)
        for run, A in sched.on_grid(times, width):
            for q, t in enumerate(times[run]):  # a one-matrix stack holds for the whole run
                assert A[0 if len(A) == 1 else q].tobytes() == sched.sample(t).tobytes()
            seen[run] += 1
        assert (seen == 1).all()


def test_segment_runs_skip_segments_without_times():
    from tempsync.model import _segment_runs
    runs = _segment_runs([0.0, 1.0, 1.001, 2.0], np.array([-1.0, 0.5, 1.0, 1.5, 1.6, 3.0]))
    assert runs == [(0, slice(0, 2)), (1, slice(2, 3)), (2, slice(3, 5)), (3, slice(5, 6))]


def test_identical_node_bounds_are_lipschitz_with_zero_beta():
    b = ts.pair_bounds_for_identical_nodes(4, 1.0, rho=2.0)
    for t in np.linspace(-3, 3, 7):
        assert np.array_equal(b.alpha(t), np.ones(6))
        assert np.array_equal(b.beta(t), np.zeros(6))
    assert b.time_constant and b.global_bounds


def test_consensus_bounds_give_zero_mu1():
    b = ts.pair_bounds_for_identical_nodes(3, 0.0, rho=1.0)
    grid = np.arange(0.0, 3.0, 0.01)
    assert ts.compute_mu1(b, grid) == 0.0


def test_callable_lipschitz_coefficient_uses_rho():
    b = ts.pair_bounds_for_identical_nodes(3, lambda t, r: r + t, rho=2.0)
    assert np.array_equal(b.alpha(1.0), [3.0, 3.0, 3.0])
    assert np.array_equal(b.beta(1.0), [0.0, 0.0, 0.0])
    assert not b.time_constant


def test_callable_lipschitz_coefficient_is_called_once_per_time():
    calls = []
    b = ts.pair_bounds_for_identical_nodes(6, lambda t, r: calls.append(t) or -1.0, rho=1.0)
    assert np.array_equal(b.alpha(0.5), np.full(15, -1.0))
    assert calls == [0.5]
    calls.clear()
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * 6, ts.static_schedule(_eye_offdiag(6)))
    ts.check_full_sync(system, b, 1.0, bound_M=1.0, epsilon=1e-3, grid_step=0.1)
    assert len(calls) == 11  # one call per grid time, not one per pair
    assert sorted(calls) == pytest.approx(np.linspace(0.0, 1.0, 11), abs=1e-12)


def test_pair_bounds_symmetric_access_and_validation():
    rng = np.random.default_rng(0)
    alpha = rng.normal(size=(3, 3))
    b = ts.PairBoundSet.constant(3, alpha, 0.1, rho=1.0)
    # pairs are unordered: alpha and its transpose give the same pair vector
    iu, ju = np.triu_indices(3, k=1)
    assert np.array_equal(b.alpha(0.0), 0.5 * (alpha[iu, ju] + alpha[ju, iu]))
    assert np.array_equal(b.alpha(0.0), ts.PairBoundSet.constant(3, alpha.T, 0.1, 1.0).alpha(0.0))
    assert np.array_equal(b.beta(0.0), np.full(3, 0.1))
    grid = [0.0, 1.0]
    nb = ts.PairBoundSet.constant(3, 0.0, np.arange(9.0).reshape(3, 3), rho=1.0)
    for pair in [(1, 2), (2, 1)]:  # |2 beta_12| with beta_12 = (5 + 7) / 2
        assert ts.compute_mu1(nb, grid, pairs=[pair]) == 12.0
    with pytest.raises(ValueError, match=r"invalid pair \(1, 1\)"):
        ts.compute_mu1(b, grid, pairs=[(0, 1), (1, 1)])
    with pytest.raises(ValueError, match=r"invalid pair \(0, 3\)"):
        ts.compute_mu1(b, grid, pairs=[(0, 1), (0, 3)])
    with pytest.raises(ValueError):
        ts.PairBoundSet.constant(3, 0.0, -1.0, rho=1.0)
    bad = ts.PairBoundSet(3, 1.0, lambda i, j, t: 0.0, lambda i, j, t: -t)
    assert np.array_equal(bad.beta(0.0), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"beta\(0, 1, 1\.0\) = -1\.0 is negative"):
        bad.beta(1.0)


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


def _three_forms(n, seed):
    """Seeded time-varying bounds as per-pair callables and in function form,
    and constant bounds stored as vectors."""
    rng = np.random.default_rng(seed)
    a, w = rng.uniform(-2.0, 0.0, (n, n)), rng.uniform(1.0, 3.0, (n, n))
    per_pair = ts.PairBoundSet(n, 1.0, lambda i, j, t: a[i, j] + 0.3 * math.sin(w[i, j] * t),
                               lambda i, j, t: 0.1 * (1.0 + math.cos(w[i, j] * t)))
    func = ts.pair_bounds_for_identical_nodes(n, lambda t, r: -r * (1.5 + math.sin(t)), 2.0)
    return per_pair, func, ts.PairBoundSet.constant(n, a, 0.05, rho=1.0)


def test_pair_bound_block_reads_match_scalar_reads():
    # a (T, P) block, with or without a pair subset, holds the scalar reads
    # row by row, bit for bit, and is read-only
    times = np.linspace(-0.3, 2.0, 37)
    for b in _three_forms(5, 3):
        for subset in (None, [9, 0, 4], np.array([3])):
            cols = slice(None) if subset is None else subset
            for name in ("alpha", "beta"):
                read = getattr(b, name)
                block = read(times, subset)
                ref = np.array([read(t)[cols] for t in times])
                assert block.shape == ref.shape and block.tobytes() == ref.tobytes()
                assert read(times[4], subset).tobytes() == ref[4].tobytes()
                assert not block.flags.writeable
        assert b.alpha(times[:0]).shape == (0, 10)
    with pytest.raises(ValueError, match="1-d array of times"):
        b.alpha(np.zeros((2, 2)))


def test_per_pair_callables_run_once_per_pair_and_time_of_a_block():
    calls = []
    b = ts.PairBoundSet(4, 1.0, lambda i, j, t: calls.append((i, j, t)) or -1.0,
                        lambda i, j, t: 0.0)
    times = [0.0, 0.5, 1.0]
    b.alpha(times)
    assert sorted(calls) == sorted((i, j, t) for t in times for i in range(4)
                                   for j in range(i + 1, 4))
    del calls[:]
    b.alpha(times, subset=[5, 1])  # pairs (2, 3) and (0, 2)
    assert calls == [(2, 3, 0.0), (0, 2, 0.0), (2, 3, 0.5), (0, 2, 0.5), (2, 3, 1.0), (0, 2, 1.0)]


def test_bad_bound_in_a_block_names_the_earliest_bad_time():
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    # pair (0, 1) turns bad later than pair (1, 2), so the earliest bad time wins
    alpha = ts.PairBoundSet(
        3, 1.0, lambda i, j, t: (math.inf if (i, j) == (0, 1) and t >= 0.75 else
                                 math.nan if (i, j) == (1, 2) and t >= 0.5 else -1.0),
        lambda i, j, t: -1.0 if (i, j) == (0, 2) and t >= 0.25 else 0.0)
    with pytest.raises(ValueError, match=r"^alpha\(1, 2, 0\.5\) = nan is not finite$"):
        alpha.alpha(times)
    with pytest.raises(ValueError, match=r"^alpha\(0, 1, 0\.75\) = inf is not finite$"):
        alpha.alpha(times, subset=[0])
    assert np.array_equal(alpha.alpha(times, subset=[1]), np.full((5, 1), -1.0))
    with pytest.raises(ValueError, match=r"^beta\(0, 2, 0\.25\) = -1\.0 is negative$"):
        alpha.beta(times)
    func = ts.pair_bounds_for_identical_nodes(3, lambda t, r: math.nan if t > 0.3 else -r, 1.0)
    with pytest.raises(ValueError, match=r"^alpha\(0, 1, 0\.5\) = nan is not finite$"):
        func.alpha(times)
    with pytest.raises(ValueError, match=r"^alpha\(1, 2, 0\.5\) = nan is not finite$"):
        func.alpha(times, subset=[2])


# -- non-finite input -----------------------------------------------------------

def test_constant_bounds_reject_nonfinite_values():
    with pytest.raises(ValueError, match=r"alpha\(0, 1\) = nan is not finite"):
        ts.PairBoundSet.constant(3, math.nan, 0.0, rho=1.0)
    beta = np.zeros((3, 3))
    beta[2, 1] = np.inf
    with pytest.raises(ValueError, match=r"beta\(1, 2\) = inf is not finite"):
        ts.PairBoundSet.constant(3, 0.0, beta, rho=1.0)
    with pytest.raises(ValueError, match=r"alpha\(0, 1\) = nan is not finite"):
        ts.pair_bounds_for_identical_nodes(3, math.nan, rho=1.0)


def test_pair_bound_readers_reject_nonfinite_values():
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * 3, ts.static_schedule(_eye_offdiag(3)))
    nan_alpha = ts.PairBoundSet(
        3, 1.0, lambda i, j, t: math.nan if (i, j) == (1, 2) and t >= 1.0 else -1.0,
        lambda i, j, t: 0.0,
    )
    with pytest.raises(ValueError, match=r"alpha\(1, 2, 1\.0\) = nan is not finite"):
        ts.check_full_sync(system, nan_alpha, 2.0, 1.0, 1e-3)
    inf_beta = ts.PairBoundSet(
        3, 1.0, lambda i, j, t: -1.0, lambda i, j, t: math.inf if t >= 0.5 else 0.0
    )
    with pytest.raises(ValueError, match=r"beta\(0, 1, 0\.5\) = inf is not finite"):
        ts.check_full_sync(system, inf_beta, 2.0, 1.0, 1e-3)


def test_constant_piece_rejects_nonfinite_entry():
    A = _eye_offdiag(3)
    A[0, 2] = np.nan
    with pytest.raises(ValueError, match=r"adjacency entry \(0, 2\) = nan is not finite"):
        ts.static_schedule(A)
    A[0, 2], A[1, 1] = 1.0, np.inf  # the diagonal is dropped, so it is no entry
    assert np.array_equal(ts.static_schedule(A).sample(0.0), _eye_offdiag(3))


def test_functional_piece_rejects_nonfinite_sample_naming_time():
    def piece(t):
        A = _eye_offdiag(3)
        A[2, 1] = np.nan if t >= 1.0 else 1.0
        return A

    sched = ts.AdjacencySchedule(3, [0.0], [piece])
    sched.sample(0.5)
    with pytest.raises(ValueError, match=r"adjacency entry \(2, 1\) at t=1\.5 = nan is not finite"):
        sched.sample(1.5)
    system = ts.NetworkSystem([ts.zero_dynamics(1)] * 3, sched)
    with pytest.raises(ValueError, match=r"\(2, 1\) at t=1\.0 = nan is not finite"):
        ts.coupled_comparison_check(system, [-5.0] * 3, np.linspace(0.0, 2.0, 5))


def test_functional_piece_never_mutates_what_its_callable_returns():
    # the piece zeroes the diagonal of its own copy: a callable that returns
    # a read-only array, or one array it keeps and returns again, sees it
    # unchanged, and every sample still has a zero diagonal
    kept = np.random.default_rng(5).uniform(0.5, 2.0, (3, 3))
    frozen = kept.copy()
    frozen.setflags(write=False)
    before = kept.copy()
    for source in (kept, frozen, kept.T):
        sched = ts.AdjacencySchedule(3, [0.0], [lambda t, m=source: m])
        system = ts.NetworkSystem([ts.zero_dynamics(1)] * 3, sched)
        ts.integrate(system, 0.0, np.arange(3.0).reshape(3, 1), 0.1,
                     ts.SolverConfig(method="rk45", dt=0.05))
        for t in (0.0, 0.7):
            A = sched.sample(t)
            assert np.all(np.diag(A) == 0.0)
            assert np.array_equal(A + np.diag(np.diag(source)), source)
    assert np.array_equal(kept, before) and np.array_equal(frozen, before)


def test_all_finite_equals_isfinite_all():
    rng = np.random.default_rng(21)
    specials = [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                -0.0, 0.0]
    seen = set()
    for shape in [(0,), (1,), (9,), (0, 3), (4, 0), (6, 3), (15, 2), (0, 2, 2), (3, 4, 5)]:
        for _ in range(40):
            a = rng.normal(size=shape)
            k = int(rng.integers(0, 3)) if a.size else 0
            a.reshape(-1)[rng.integers(0, max(a.size, 1), k)] = rng.choice(specials, k)
            views = [a, a[::-1], a[::2], np.asfortranarray(a)]
            if a.ndim > 1:
                views += [a.T, a[:, ::-2], a[..., 1:]]
            for v in views:
                expected = bool(np.isfinite(v).all())
                assert _all_finite(v) is expected, (shape, v)
                seen.add(expected)
    assert seen == {True, False}


# -- functional pieces read as blocks of times ----------------------------------

def _wobble_pair(extension):
    """The Lorenz wobble on [0.5, 1.2) then the star, once as the public scalar
    callable and once as the scenario's block piece."""
    n = 6
    star = ts.star_matrix(n, 8.0, -1.0)
    freqs = np.random.default_rng(8).uniform(math.pi, 2 * math.pi, (n, n))
    period = 1.0 if extension == "periodic" else None
    return [ts.AdjacencySchedule(n, [0.5, 1.2], [piece, star], extension=extension,
                                 period=period)
            for piece in (_wobble(star, freqs), _FuncPiece(_wobble(star, freqs), n))]


@pytest.mark.parametrize("extension", ["constant", "periodic"])
def test_wobble_block_rows_equal_its_scalar_samples(extension):
    # before b_0 the "constant" extension reads the piece clamped at b_0, and
    # a periodic one reads it at t - k p in period k: each row of every block
    # equals the scalar callable's sample byte for byte
    scalar, block = _wobble_pair(extension)
    times = np.linspace(-1.0, 4.0, 201)
    forms = set()
    for a, b, piece in block.segments_between(-1.0, 4.0):
        inside = times[(times >= a) & (times < b)]
        if isinstance(piece, _ConstPiece) or not inside.size:
            continue
        forms.add("plain" if 0.5 <= a < 1.2 else
                  "clamped" if extension == "constant" else "shifted")
        rows = piece.block(inside)
        assert rows.shape == (inside.size, 6, 6)
        for t, row in zip(inside, rows):
            assert row.tobytes() == scalar.sample(t).tobytes() == block.sample(t).tobytes()
    assert forms == ({"clamped", "plain"} if extension == "constant" else {"plain", "shifted"})


def test_scalar_and_block_pieces_give_the_same_bytes():
    # on_grid, the comparison records and integrate read a block piece where
    # they read a scalar callable's stacked samples, with the same bytes
    def outputs(schedule):
        grid = np.linspace(0.0, 3.0, 151)
        rows = np.concatenate([np.broadcast_to(A, (run.stop - run.start, 6, 6))
                               for run, A in schedule.on_grid(grid, 36)])
        system = ts.NetworkSystem(ts.NodeField(1, lambda t, X: -X + np.sin(t)), schedule, 0.3)
        cs = ts.ComparisonSystem.from_network(
            system, ts.PairBoundSet.constant(6, -4.0, 0.0, rho=1.0))
        solve = ts.comparison_solve(cs, 0.0, np.ones(cs.dim), 3.0, ts.SolverConfig(dt=0.05))
        decay = ts.dominance_decay_check(cs, grid)
        x0 = np.linspace(-1.0, 1.0, 6).reshape(6, 1)
        trajs = [ts.integrate(system, 0.0, x0, 3.0, ts.SolverConfig(method=m, dt=0.01))
                 for m in ("rk4", "rk45")]
        return [rows.tobytes(), solve.u.tobytes(), decay.gamma_bar, decay.max_ratio,
                *(tr.times.tobytes() + tr.states.tobytes() for tr in trajs)]

    for extension in ("constant", "periodic"):
        scalar, block = _wobble_pair(extension)
        assert outputs(scalar) == outputs(block), extension
