"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

Backend selection happens once, at import time.  The jitted path is used
when numba is importable and ``SYNC_TOOLKIT_NO_NUMBA`` is unset (or "0");
setting the variable to anything else forces the numpy fallback.  Both
paths evaluate the same arithmetic on the same grids; they may differ in
floating-point summation order at the few-ulp level, so determinism is
guaranteed per backend, not across backends.

The RK4 propagators of the linear comparison system are numpy only (their
work is BLAS matrix products) and have no backend twin.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without the extra
    _njit = None
    _HAVE_NUMBA = False


def _disabled_by_env() -> bool:
    return os.environ.get("SYNC_TOOLKIT_NO_NUMBA", "").strip() not in ("", "0")


USE_NUMBA = _HAVE_NUMBA and not _disabled_by_env()


def backend() -> str:
    """Name of the kernel backend selected at import ("numba" or "numpy")."""
    return "numba" if USE_NUMBA else "numpy"


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


# ---------------------------------------------------------------------------
# diffusive coupling:  row i of the result is  c * sum_k a_ik (x_k - x_i)
# ---------------------------------------------------------------------------

def _coupling_term_np(A, X, c):
    return c * (A @ X - A.sum(axis=1)[:, None] * X)


def _coupling_term_loops(A, X, c):
    n, m = X.shape
    out = np.zeros((n, m))
    for i in range(n):
        for k in range(n):
            a = A[i, k]
            if a != 0.0:
                for q in range(m):
                    out[i, q] += a * (X[k, q] - X[i, q])
    return c * out


# ---------------------------------------------------------------------------
# pairwise squared errors and the max-spread error over a trajectory
# ---------------------------------------------------------------------------

def _xi_series_np(states, iu, ju):
    d = states[:, iu, :] - states[:, ju, :]
    return np.einsum("tpm,tpm->tp", d, d)


def _xi_series_loops(states, iu, ju):
    T, _, m = states.shape
    P = iu.shape[0]
    out = np.empty((T, P))
    for t in range(T):
        for p in range(P):
            s = 0.0
            for q in range(m):
                dv = states[t, iu[p], q] - states[t, ju[p], q]
                s += dv * dv
            out[t, p] = s
    return out


def _e_hat_series_np(states):
    spread = states.max(axis=1) - states.min(axis=1)
    return np.sqrt(np.einsum("tm,tm->t", spread, spread))


def _e_hat_series_loops(states):
    T, n, m = states.shape
    out = np.empty(T)
    for t in range(T):
        acc = 0.0
        for q in range(m):
            lo = states[t, 0, q]
            hi = lo
            for i in range(1, n):
                v = states[t, i, q]
                if v < lo:
                    lo = v
                if v > hi:
                    hi = v
            acc += (hi - lo) * (hi - lo)
        out[t] = np.sqrt(acc)
    return out


# ---------------------------------------------------------------------------
# per-pair contraction rates and row-dominance margins
#
#   delta_p = alpha_p - (a_ij + a_ji + 0.5 * sum_{k != i,j} (a_jk + a_ik))
#   gamma_p = 2 |delta_p| - sum_{k != i,j} |a_jk - a_ik|
# ---------------------------------------------------------------------------

def _delta_gamma_np(A, alpha, iu, ju):
    rowsum = A.sum(axis=1)
    cross = A[iu, ju] + A[ju, iu]
    delta = alpha - (cross + 0.5 * (rowsum[iu] + rowsum[ju] - cross))
    absdiff = np.abs(A[ju, :] - A[iu, :]).sum(axis=1)
    absdiff -= np.abs(A[ju, iu]) + np.abs(A[iu, ju])
    gamma = 2.0 * np.abs(delta) - absdiff
    return delta, gamma


def _delta_gamma_loops(A, alpha, iu, ju):
    P = iu.shape[0]
    n = A.shape[0]
    delta = np.empty(P)
    gamma = np.empty(P)
    for p in range(P):
        i = iu[p]
        j = ju[p]
        s = 0.0
        d = 0.0
        for k in range(n):
            if k == i or k == j:
                continue
            s += A[j, k] + A[i, k]
            d += abs(A[j, k] - A[i, k])
        dp = alpha[p] - (A[i, j] + A[j, i] + 0.5 * s)
        delta[p] = dp
        gamma[p] = 2.0 * abs(dp) - d
    return delta, gamma


# ---------------------------------------------------------------------------
# comparison matrix assembly: diagonal 2*delta, off-diagonal positive parts
#
# row (i, j): coefficient eta(a_jk - a_ik) on pair (i, k) and
# eta(a_ik - a_jk) on pair (j, k), k != i, j, with eta the positive part.
# ---------------------------------------------------------------------------

def _assemble_comparison_np(A, delta, iu, ju, pidx):
    P = iu.shape[0]
    n = A.shape[0]
    karr = np.arange(n)
    rows, ks = np.nonzero((karr[None, :] != iu[:, None]) & (karr[None, :] != ju[:, None]))
    d = A[ju[rows], ks] - A[iu[rows], ks]          # a_jk - a_ik, k != i, j
    E = np.zeros((P, P))
    # within row (i, j) the columns {i, k} and {j, k} are all distinct, so
    # plain assignment places every coefficient
    E[rows, pidx[iu[rows], ks]] = np.maximum(d, 0.0)
    E[rows, pidx[ju[rows], ks]] = np.maximum(-d, 0.0)
    E[np.arange(P), np.arange(P)] = 2.0 * delta
    return E


def _assemble_comparison_loops(A, delta, iu, ju, pidx):
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


# ---------------------------------------------------------------------------
# backend binding
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:
    _jit = _njit(cache=True)
    _coupling_term_nb = _jit(_coupling_term_loops)
    _xi_series_nb = _jit(_xi_series_loops)
    _e_hat_series_nb = _jit(_e_hat_series_loops)
    _delta_gamma_nb = _jit(_delta_gamma_loops)
    _assemble_comparison_nb = _jit(_assemble_comparison_loops)

IMPLEMENTATIONS = {
    "numpy": {
        "coupling_term": _coupling_term_np,
        "xi_series": _xi_series_np,
        "e_hat_series": _e_hat_series_np,
        "delta_gamma": _delta_gamma_np,
        "assemble_comparison": _assemble_comparison_np,
    }
}
if _HAVE_NUMBA:
    IMPLEMENTATIONS["numba"] = {
        "coupling_term": _coupling_term_nb,
        "xi_series": _xi_series_nb,
        "e_hat_series": _e_hat_series_nb,
        "delta_gamma": _delta_gamma_nb,
        "assemble_comparison": _assemble_comparison_nb,
    }

_ACTIVE = IMPLEMENTATIONS["numba" if USE_NUMBA else "numpy"]


def _f64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def coupling_term(A, X, c):
    """c * sum_k a_ik (x_k - x_i) stacked over nodes; A (n, n), X (n, m)."""
    return _ACTIVE["coupling_term"](_f64(A), _f64(X), float(c))


def xi_series(states):
    """(T, P) squared pairwise distances from a (T, n, m) state stack."""
    n = states.shape[1]
    iu, ju, _ = pair_arrays(n)
    return _ACTIVE["xi_series"](_f64(states), iu, ju)


def e_hat_series(states):
    """Componentwise max-spread error sqrt(sum_q (max_i x_iq - min_i x_iq)^2)."""
    return _ACTIVE["e_hat_series"](_f64(states))


def delta_gamma(A, alpha):
    """Per-pair contraction rates and row-dominance margins at one instant."""
    n = A.shape[0]
    iu, ju, _ = pair_arrays(n)
    return _ACTIVE["delta_gamma"](_f64(A), _f64(alpha), iu, ju)


def assemble_comparison(A, delta):
    """Comparison matrix: diagonal 2*delta, nonnegative off-diagonal parts."""
    n = A.shape[0]
    iu, ju, pidx = pair_arrays(n)
    return _ACTIVE["assemble_comparison"](_f64(A), _f64(delta), iu, ju, pidx)


# ---------------------------------------------------------------------------
# RK4 on linear comparison systems u' = E(t) u + b(t)
#
# These are numpy only: their work is BLAS matrix products.  On a frozen E
# one RK4 step of size h is the affine map
#
#   u <- R(hE) u + h Phi(hE) b,
#   R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,   Phi(z) = 1 + z/2 + z^2/6 + z^3/24,
#
# R being RK4's stability function (Hairer, Norsett & Wanner, Solving ODEs I).
# The "sampled" variants take E (and b) from a callable at the stage times
# t_s, t_s + h/2 and t_{s+1} of the step boundaries ts; the end sample of a
# step is the start sample of the next, so each distinct time is sampled once.
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


def rk4_sampled_linear(E_at, b_at, ts, u0):
    """(len(ts), d) RK4 states of u' = E(t) u + b(t) over the step boundaries ts."""
    ts, u = _f64(ts), _f64(u0)
    out = np.empty((ts.shape[0], u.shape[0]))
    out[0] = u
    E0, b0 = _f64(E_at(ts[0])), _f64(b_at(ts[0]))
    for s in range(ts.shape[0] - 1):
        h = ts[s + 1] - ts[s]
        tm = ts[s] + 0.5 * h
        Em, bm = _f64(E_at(tm)), _f64(b_at(tm))
        E1, b1 = _f64(E_at(ts[s + 1])), _f64(b_at(ts[s + 1]))
        k1 = E0 @ u + b0
        k2 = Em @ (u + 0.5 * h * k1) + bm
        k3 = Em @ (u + 0.5 * h * k2) + bm
        k4 = E1 @ (u + h * k3) + b1
        out[s + 1] = u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        E0, b0 = E1, b1
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


def rk4_sampled_principal(E_at, ts, V, starts):
    """Propagate the (P, K) block V over the step boundaries ts of u' = E(t) u.

    E comes from the callable E_at, sampled once per distinct stage time;
    ``starts`` and the return value are as for :func:`rk4_const_principal`.
    """
    ts, V = _f64(ts), _f64(V).copy()
    n_steps = ts.shape[0] - 1
    inject = _injections(starts, n_steps)
    norms = np.empty((n_steps + 1, V.shape[1]))
    E0 = _f64(E_at(ts[0]))
    for s in range(n_steps):
        if s in inject:
            V[:, inject[s]] = 1.0
        norms[s] = np.abs(V).max(axis=0)
        h = ts[s + 1] - ts[s]
        Em = _f64(E_at(ts[s] + 0.5 * h))
        E1 = _f64(E_at(ts[s + 1]))
        K1 = E0 @ V
        K2 = Em @ (V + 0.5 * h * K1)
        K3 = Em @ (V + 0.5 * h * K2)
        K4 = E1 @ (V + h * K3)
        V = V + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        E0 = E1
    norms[-1] = np.abs(V).max(axis=0)
    return norms, V
