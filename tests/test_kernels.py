"""Closed-form and reference checks for the hot kernels."""

import numpy as np
import pytest

from tempsync import _kernels as kern


def _rand_inputs(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    np.fill_diagonal(A, 0.0)
    return A, rng.normal(size=kern.n_pairs(n))


def test_pair_index_matches_pair_arrays():
    for n in (2, 3, 5, 9):
        iu, ju, pidx = kern.pair_arrays(n)
        for p, (i, j) in enumerate(zip(iu, ju)):
            assert kern.pair_index(i, j, n) == p
            assert pidx[i, j] == p == pidx[j, i]
    with pytest.raises(ValueError):
        kern.pair_index(2, 2, 5)


def test_pair_order_is_lexicographic():
    iu, ju, _ = kern.pair_arrays(3)
    assert list(zip(iu.tolist(), ju.tolist())) == [(0, 1), (0, 2), (1, 2)]


def test_coupling_zero_matrix_gives_zero():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4, 2))
    out = kern.coupling_term(np.zeros((4, 4)), X, 1.0)
    assert np.all(out == 0)


def test_coupling_vanishes_on_consensus_states():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(5, 5))
    np.fill_diagonal(A, 0.0)
    v = rng.normal(size=3)
    X = np.tile(v, (5, 1))
    out = kern.coupling_term(kern.laplacian(A), X, 2.0)
    assert np.allclose(out, 0.0, atol=1e-12)


@pytest.mark.parametrize("order", ["C", "F"])
def test_coupling_term_matches_matmul_bit_for_bit(order):
    # coupling_term takes L.dot(X); on C and F layouts it gives the bits of L @ X,
    # but for one node of one state (L = [[0]]) dot returns 0 * x, which is -0.0
    # for x < 0, where @ returns +0.0
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 15, 30):
        for m in (1, 2, 3):
            for c in (1.0, 0.4, 1.0 / 15):
                A = rng.uniform(-0.5, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
                L = kern.laplacian(A)
                X = np.array(rng.normal(size=(n, m)), order=order)
                LX = L @ X
                ref = LX if c == 1.0 else c * LX
                out = kern.coupling_term(L, X, c)
                if (n, m) == (1, 1):
                    assert np.array_equal(out, ref) and out.shape == ref.shape
                else:
                    assert out.tobytes() == ref.tobytes(), (n, m, c)


def test_laplacian_copies_and_the_in_place_kernel_writes_over_its_input():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(6, 6))
    A_before = A.copy()
    L = kern.laplacian(A.T)  # any layout; the copy is C-ordered
    assert np.array_equal(A, A_before)
    assert np.allclose(L, A.T - np.diag(A.T.sum(axis=1)), rtol=0, atol=1e-14)
    M = np.ascontiguousarray(A.T)
    assert kern._laplacian_in_place(M) is M and M.tobytes() == L.tobytes()


def test_xi_and_e_hat_hand_values():
    states = np.array([[[0.0], [1.0], [3.0]]])
    xi = kern.xi_series(states)
    assert np.allclose(xi[0], [1.0, 9.0, 4.0])
    assert np.allclose(kern.e_hat_series(states), [3.0])


def test_pair_sums_d_is_a_sum_of_its_own_terms():
    # D = sum_{k in cols, k != i, j} |a_jk - a_ik| on sparse signed draws:
    # never negative, exactly 0 for two nodes, and equal to the loop sum
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(2, 8))
        A = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(A, 0.0)
        iu, ju, _ = kern.pair_arrays(n)
        cols = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        for nodes in (np.arange(n), cols):
            _, D = kern.pair_sums(A, iu, ju, nodes)
            assert np.all(D >= 0.0)
            assert n > 2 or np.all(D == 0.0)
            ref = [sum(abs(A[j, k] - A[i, k]) for k in nodes if k not in (i, j))
                   for i, j in zip(iu, ju)]
            np.testing.assert_allclose(D, ref, rtol=1e-14, atol=0)
        # delta and gamma are built on the full-node sums
        S, D = kern.pair_sums(A, iu, ju, np.arange(n))
        delta, gamma = kern.delta_gamma(A, np.zeros(len(iu)))
        assert np.array_equal(delta, -S)
        assert np.array_equal(gamma, 2.0 * np.abs(delta) - D)


def test_pair_sums_on_a_stack_equals_per_matrix_calls():
    # a (T, n, n) stack gives, row by row, the bits of one call per matrix
    rng = np.random.default_rng(9)
    for n in range(2, 13):
        T = int(rng.integers(1, 6))
        A = rng.normal(size=(T, n, n)) * (rng.random((T, n, n)) < 0.6)
        cols = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        for nodes in (np.arange(n), cols):  # all pairs, then the pairs within cols
            iu, ju = (nodes[k] for k in kern.pair_arrays(len(nodes))[:2])
            S, D = kern.pair_sums(A, iu, ju, nodes)
            assert S.shape == D.shape == (T, len(iu))
            for t in range(T):
                S_t, D_t = kern.pair_sums(A[t], iu, ju, nodes)
                assert S[t].tobytes() == S_t.tobytes()
                assert D[t].tobytes() == D_t.tobytes()


def _assemble_comparison_loops(A, delta, iu, ju, pidx):
    """Per-entry loop form of the comparison matrix, the reference for the kernel."""
    P = iu.shape[0]
    n = A.shape[0]
    E = np.zeros((P, P))
    for p in range(P):
        i = iu[p]
        j = ju[p]
        for k in range(n):
            if k == i or k == j:
                continue
            dv = A[j, k] - A[i, k]
            if dv > 0.0:
                E[p, pidx[i, k]] += dv
            elif dv < 0.0:
                E[p, pidx[j, k]] -= dv
        E[p, p] = 2.0 * delta[p]
    return E


def test_assemble_comparison_matches_loop_reference():
    for seed, n in enumerate((2, 3, 6, 11)):
        A, alpha = _rand_inputs(seed, n)
        iu, ju, pidx = kern.pair_arrays(n)
        delta, _ = kern.delta_gamma(A, alpha)
        ref = _assemble_comparison_loops(A, delta, iu, ju, pidx)
        assert np.array_equal(kern.assemble_comparison(A, delta), ref)


def test_rk4_const_linear_matches_scalar_exponential():
    E = np.array([[-2.0]])
    out = kern.rk4_const_linear(E, np.zeros(1), np.ones(1), 1e-3, 2000)
    assert abs(out[-1, 0] - np.exp(-4.0)) < 1e-12


def _stage_rk4(E_at, b_at, ts, u0):
    """Textbook four-stage RK4 of u' = E(t) u + b(t) over the boundaries ts."""
    out = [np.array(u0, dtype=float)]
    for t0, t1 in zip(ts[:-1], ts[1:]):
        h = t1 - t0
        u = out[-1]
        k1 = E_at(t0) @ u + b_at(t0)
        k2 = E_at(t0 + h / 2) @ (u + h / 2 * k1) + b_at(t0 + h / 2)
        k3 = E_at(t0 + h / 2) @ (u + h / 2 * k2) + b_at(t0 + h / 2)
        k4 = E_at(t1) @ (u + h * k3) + b_at(t1)
        out.append(u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(out)


def _random_metzler(rng, d):
    E = rng.uniform(0.0, 1.0, (d, d)) * (rng.random((d, d)) < 0.5)
    np.fill_diagonal(E, -rng.uniform(1.0, 4.0, d) - E.sum(axis=1))
    return E


def test_rk4_const_linear_affine_form_matches_stage_form():
    # u <- R(hE) u + h Phi(hE) b is RK4 itself on a frozen E, up to rounding
    for seed in range(5):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 30))
        E, b = _random_metzler(rng, d), rng.uniform(0.0, 1.0, d)
        u0 = rng.uniform(0.0, 1.0, d)
        h, n = float(rng.uniform(1e-3, 5e-2)), 200
        got = kern.rk4_const_linear(E, b, u0, h, n)
        ref = _stage_rk4(lambda t: E, lambda t: b, h * np.arange(n + 1), u0)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_rk4_sampled_linear_matches_stage_form():
    rng = np.random.default_rng(7)
    E0, E1 = _random_metzler(rng, 6), _random_metzler(rng, 6)
    b = rng.uniform(0.0, 1.0, 6)

    def E_at(t):
        return E0 + np.sin(3 * t) ** 2 * E1

    def b_at(t):
        return (1 + np.cos(t)) * b

    ts_ = np.linspace(0.0, 1.5, 151)
    stages = kern.stage_times(ts_)
    got = kern.rk4_sampled_linear(map(E_at, stages), map(b_at, stages), ts_, np.ones(6))
    np.testing.assert_allclose(got, _stage_rk4(E_at, b_at, ts_, np.ones(6)), rtol=1e-12, atol=0)


def test_rk4_const_principal_norm_decay():
    E = np.array([[-1.0, 0.5], [0.5, -1.0]])
    # column 0 starts at step 0, column 1 at step 500; columns carry U(t, s) 1
    norms, V = kern.rk4_const_principal(E, np.full(1000, 1e-3), np.zeros((2, 2)), [0, 500])
    # row-dominance margin 0.5 -> inf-norm bounded by exp(-0.5 t)
    assert norms[0, 0] == 1.0 and norms[500, 1] == 1.0
    assert np.all(norms[:500, 1] == 0.0)
    assert norms[-1, 0] <= np.exp(-0.5) * (1 + 1e-9)
    # principal solution of a constant system is the matrix exponential
    w, Q = np.linalg.eigh(E)
    for k, t in enumerate((1.0, 0.5)):
        expm = Q @ np.diag(np.exp(w * t)) @ Q.T
        assert np.allclose(V[:, k], expm @ np.ones(2), atol=1e-10)
        assert np.max(np.abs(V[:, k])) == norms[-1, k]


def test_rk4_sampled_principal_matches_const_on_frozen_e():
    rng = np.random.default_rng(3)
    E = _random_metzler(rng, 8)
    ts_ = np.linspace(0.0, 1.0, 41)
    hs = np.diff(ts_)
    n_c, V_c = kern.rk4_const_principal(E, hs, np.zeros((8, 3)), [0, 10, 40])
    n_s, V_s = kern.rk4_sampled_principal([E] * (2 * len(ts_) - 1), ts_, np.zeros((8, 3)),
                                          [0, 10, 40])
    np.testing.assert_allclose(n_s, n_c, rtol=1e-12, atol=0)
    np.testing.assert_allclose(V_s, V_c, rtol=1e-12, atol=0)
    assert np.all(n_c[:, 2] == 0.0)  # a start beyond the last step never fires
