"""Hot numeric kernels, in numpy.

The pair kernels (coupling term, pairwise-error reductions, the pair sums
S and D behind delta and gamma, comparison matrix assembly), the RK4
propagators of the linear comparison system, whose work is BLAS matrix
products, and the cumulative trapezoid rule on a sampled grid.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# pair bookkeeping: pairs (i, j), i < j, in lexicographic order
# ---------------------------------------------------------------------------

_PAIR_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def n_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(iu, ju, pidx): pair endpoints and the symmetric (n, n) pair-index lookup.

    pidx[i, j] is the lexicographic index of the unordered pair {i, j};
    the diagonal holds -1.
    """
    cached = _PAIR_CACHE.get(n)
    if cached is None:
        iu, ju = np.triu_indices(n, k=1)
        iu = iu.astype(np.int64)
        ju = ju.astype(np.int64)
        pidx = np.full((n, n), -1, dtype=np.int64)
        pidx[iu, ju] = np.arange(len(iu), dtype=np.int64)
        pidx[ju, iu] = pidx[iu, ju]
        iu.setflags(write=False)
        ju.setflags(write=False)
        pidx.setflags(write=False)
        cached = (iu, ju, pidx)
        _PAIR_CACHE[n] = cached
    return cached


def pair_index(i: int, j: int, n: int) -> int:
    if i == j:
        raise ValueError("pair index requires i != j")
    i, j = (i, j) if i < j else (j, i)
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _f64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


# ---------------------------------------------------------------------------
# diffusive coupling:  row i of c L X is  c * sum_k a_ik (x_k - x_i),
# with L = A - diag(A 1) the graph Laplacian of A
# ---------------------------------------------------------------------------

def laplacian(A):
    """Graph Laplacian A - diag(A 1) of an (n, n) adjacency matrix."""
    return _laplacian_in_place(np.array(A, dtype=np.float64, order="C"))


def _laplacian_in_place(L):
    """L = A - diag(A 1), written over A itself, a C-ordered float64 (n, n) array or a
    (T, n, n) stack of them, each matrix's row sums reduced as for one (n, n) array."""
    n = L.shape[-1]
    # each diagonal, as a view, less the row sums (L.sum's reduction without its wrapper)
    L.reshape(L.shape[:-2] + (-1,))[..., :: n + 1] -= np.add.reduce(L, L.ndim - 1)
    return L


def coupling_term(L, X, c):
    """c * sum_k a_ik (x_k - x_i) stacked over nodes, as c L X; L (n, n), X (n, m).

    c is a float or a 0-d float64 array, which gives the same bits and saves
    numpy converting a Python float operand on every call.
    """
    # ndarray.dot makes the BLAS call of L @ X with less dispatch and gives its bits on a
    # C-ordered X, except that at n = m = 1 it keeps the sign of 0 * x (-0.0 for x < 0)
    LX = L.dot(X)
    # float(c) == 1.0, not c == 1.0: on a 0-d array the comparison is a ufunc call
    return LX if float(c) == 1.0 else c * LX  # 1.0 * v == v exactly


# ---------------------------------------------------------------------------
# pairwise squared errors and the max-spread error over a trajectory
# ---------------------------------------------------------------------------

def xi_series(states):
    """(T, P) squared pairwise distances from a (T, n, m) state stack."""
    states = _f64(states)
    iu, ju, _ = pair_arrays(states.shape[1])
    d = states[:, iu, :] - states[:, ju, :]
    return np.einsum("tpm,tpm->tp", d, d)


def e_hat_series(states):
    """Componentwise max-spread error sqrt(sum_q (max_i x_iq - min_i x_iq)^2)."""
    states = _f64(states)
    spread = states.max(axis=1) - states.min(axis=1)
    return np.sqrt(np.einsum("tm,tm->t", spread, spread))


# ---------------------------------------------------------------------------
# per-pair sums, contraction rates and row-dominance margins
#
#   S_p = a_ij + a_ji + 0.5 * sum_{k != i,j} (a_jk + a_ik)
#   D_p = sum_{k in cols, k != i,j} |a_jk - a_ik|
#   delta_p = alpha_p - S_p,   gamma_p = 2 |delta_p| - D_p
# ---------------------------------------------------------------------------

def pair_sums(A, iu, ju, cols):
    """Coupling sums S and cross-difference sums D for the pairs (iu, ju).

    A is one (n, n) matrix or a (T, n, n) stack; S and D are (P,) or (T, P).
    S runs over all nodes.  D runs over the node subset ``cols`` (all nodes
    for the full-network margin) and sums only its own terms, never adding
    and then subtracting |a_ij| and |a_ji|, so D >= 0 exactly.
    """
    A = _f64(A)
    rowsum = A.sum(axis=-1)
    cross = A[..., iu, ju] + A[..., ju, iu]
    S = cross + 0.5 * (rowsum[..., iu] + rowsum[..., ju] - cross)
    absdiff = np.abs(A[..., ju, :] - A[..., iu, :])
    rows = np.arange(len(iu))
    absdiff[..., rows, iu] = 0.0   # the terms k = i and k = j are no terms of D
    absdiff[..., rows, ju] = 0.0
    return S, absdiff[..., cols].sum(axis=-1)


def delta_gamma(A, alpha):
    """Per-pair contraction rates and row-dominance margins at one instant."""
    n = A.shape[0]
    iu, ju, _ = pair_arrays(n)
    S, D = pair_sums(A, iu, ju, np.arange(n))
    delta = _f64(alpha) - S
    return delta, 2.0 * np.abs(delta) - D


# ---------------------------------------------------------------------------
# comparison matrix assembly: diagonal 2*delta, off-diagonal positive parts
#
# row (i, j): coefficient eta(a_jk - a_ik) on pair (i, k) and
# eta(a_ik - a_jk) on pair (j, k), k != i, j, with eta the positive part.
# ---------------------------------------------------------------------------

def assemble_comparison(A, delta):
    """Comparison matrix: diagonal 2*delta, nonnegative off-diagonal parts."""
    A = _f64(A)
    n = A.shape[0]
    iu, ju, pidx = pair_arrays(n)
    P = iu.shape[0]
    karr = np.arange(n)
    rows, ks = np.nonzero((karr[None, :] != iu[:, None]) & (karr[None, :] != ju[:, None]))
    d = A[ju[rows], ks] - A[iu[rows], ks]          # a_jk - a_ik, k != i, j
    E = np.zeros((P, P))
    # within row (i, j) the columns {i, k} and {j, k} are all distinct, so
    # plain assignment places every coefficient
    E[rows, pidx[iu[rows], ks]] = np.maximum(d, 0.0)
    E[rows, pidx[ju[rows], ks]] = np.maximum(-d, 0.0)
    E[np.arange(P), np.arange(P)] = 2.0 * _f64(delta)
    return E


# ---------------------------------------------------------------------------
# RK4 on linear comparison systems u' = E(t) u + b(t)
#
# On a frozen E one RK4 step of size h is the affine map
#
#   u <- R(hE) u + h Phi(hE) b,
#   R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,   Phi(z) = 1 + z/2 + z^2/6 + z^3/24,
#
# R being RK4's stability function (Hairer, Norsett & Wanner, Solving ODEs I).
# The "sampled" variants draw E (and b) per stage from iterables, in the order
# of the stage times  ts[0], ts[0] + h_0/2, ts[1], ..., ts[-1]  (stage_times);
# the end sample of a step is the start sample of the next, so each distinct
# time is drawn once.  A drawn E is used before the next one is drawn, so a
# provider may rewrite one buffer in place, e.g. only its diagonal.
# ---------------------------------------------------------------------------

def rk4_map(E, h):
    """R(hE), the RK4 step map of u' = E u with E frozen (Horner form)."""
    Z = h * _f64(E)
    eye = np.eye(Z.shape[0])
    return eye + Z @ (eye + Z @ (0.5 * eye + Z @ (eye / 6.0 + Z / 24.0)))


def rk4_const_linear(E, b, u0, h, n_steps):
    """(n_steps + 1, d) RK4 states of u' = E u + b, E and b constant, step h."""
    E, b, u = _f64(E), _f64(b), _f64(u0)
    h = float(h)
    Z = h * E
    R = rk4_map(E, h)
    w = h * (b + Z @ (0.5 * b + Z @ (b / 6.0 + Z @ (b / 24.0))))
    out = np.empty((int(n_steps) + 1, u.shape[0]))
    out[0] = u
    for s in range(1, out.shape[0]):
        out[s] = R @ out[s - 1] + w
    return out


def stage_times(ts):
    """The 2 len(ts) - 1 RK4 stage times ts[0], ts[0] + h_0/2, ts[1], ... of steps ts."""
    ts = _f64(ts)
    out = np.empty(2 * ts.shape[0] - 1)
    out[0::2], out[1::2] = ts, ts[:-1] + 0.5 * (ts[1:] - ts[:-1])
    return out


def rk4_sampled_linear(E_rows, b_rows, ts, u0):
    """(len(ts), d) RK4 states of u' = E(t) u + b(t) over the step boundaries ts.

    E_rows and b_rows yield E and b at each of stage_times(ts) in order.
    """
    ts, u = _f64(ts), _f64(u0)
    E_rows, b_rows = iter(E_rows), iter(b_rows)
    out = np.empty((ts.shape[0], u.shape[0]))
    out[0] = u
    E1, b1 = _f64(next(E_rows)), _f64(next(b_rows))
    for s in range(ts.shape[0] - 1):
        h = ts[s + 1] - ts[s]
        k1 = E1 @ u + b1
        Em, bm = _f64(next(E_rows)), _f64(next(b_rows))
        k2 = Em @ (u + 0.5 * h * k1) + bm
        k3 = Em @ (u + 0.5 * h * k2) + bm
        E1, b1 = _f64(next(E_rows)), _f64(next(b_rows))
        k4 = E1 @ (u + h * k3) + b1
        out[s + 1] = u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def _injections(starts, n_steps):
    """{step: columns} for the columns that are set to 1 before that step."""
    out = {}
    for k, s in enumerate(np.asarray(starts, dtype=np.int64).tolist()):
        if 0 <= s < n_steps:
            out.setdefault(s, []).append(k)
    return out


def rk4_const_principal(E, hs, V, starts):
    """Propagate the (P, K) block V through RK4 steps hs of u' = E u, E constant.

    Before step s every column k with starts[k] == s is set to 1, so a
    column started at s carries U(t, t_s) 1; a start outside the steps
    never fires.  Each step is one product with
    R(hE), built once per distinct step length.  Returns (norms, V): the
    column inf-norms, (len(hs) + 1, K), at every step boundary, and the
    final block.
    """
    E, V = _f64(E), _f64(V).copy()
    inject = _injections(starts, len(hs))
    norms = np.empty((len(hs) + 1, V.shape[1]))
    maps = {}
    for s, h in enumerate(np.asarray(hs, dtype=float).tolist()):
        if s in inject:
            V[:, inject[s]] = 1.0
        norms[s] = np.abs(V).max(axis=0)
        R = maps.get(h)
        if R is None:
            R = maps[h] = rk4_map(E, h)
        V = R @ V
    norms[-1] = np.abs(V).max(axis=0)
    return norms, V


def rk4_sampled_principal(E_rows, ts, V, starts):
    """Propagate the (P, K) block V over the step boundaries ts of u' = E(t) u.

    E_rows yields E at each of stage_times(ts) in order; ``starts`` and the
    return value are as for :func:`rk4_const_principal`.
    """
    ts, V = _f64(ts), _f64(V).copy()
    E_rows = iter(E_rows)
    n_steps = ts.shape[0] - 1
    inject = _injections(starts, n_steps)
    norms = np.empty((n_steps + 1, V.shape[1]))
    E1 = _f64(next(E_rows))
    for s in range(n_steps):
        if s in inject:
            V[:, inject[s]] = 1.0
        norms[s] = np.abs(V).max(axis=0)
        h = ts[s + 1] - ts[s]
        K1 = E1 @ V
        Em = _f64(next(E_rows))
        K2 = Em @ (V + 0.5 * h * K1)
        K3 = Em @ (V + 0.5 * h * K2)
        E1 = _f64(next(E_rows))
        K4 = E1 @ (V + h * K3)
        V = V + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    norms[-1] = np.abs(V).max(axis=0)
    return norms, V


def cumtrapz(values, times):
    """Trapezoid integrals of values from times[0] to each of times."""
    return np.concatenate(
        [[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))]
    )
