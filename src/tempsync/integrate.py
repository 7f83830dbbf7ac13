"""Numerical integration of the coupled network and pairwise error extraction.

The integration grid is split exactly at every schedule breakpoint so no
step straddles a discontinuity of A(t); solutions are absolutely continuous
across switches, so restarting the one-step method at each breakpoint
preserves its order.  Fixed-step RK4 is the default; an embedded
Runge-Kutta-Fehlberg 4(5) pair provides an adaptive step size.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np

from . import _kernels as kern
from .model import NetworkSystem, _ConstPiece, _all_finite


class IntegrationError(RuntimeError):
    """Integration failed; carries the last time with a valid state."""

    def __init__(self, message: str, t_last: float, node: int | None = None):
        super().__init__(message)
        self.t_last = t_last
        self.node = node


class SolverConfig:
    """method "rk4" (fixed step dt) or "rk45" (adaptive, rtol/atol)."""

    def __init__(self, method: str = "rk4", dt: float = 1e-3, rtol: float = 1e-6,
                 atol: float = 1e-9, record_stride: int = 1):
        if method not in ("rk4", "rk45"):
            raise ValueError("method must be 'rk4' or 'rk45'")
        for name, v in (("dt", dt), ("rtol", rtol), ("atol", atol)):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        if record_stride < 1:
            raise ValueError("record_stride must be a positive integer")
        self.method = method
        self.dt = dt
        self.rtol = rtol
        self.atol = atol
        self.record_stride = record_stride

    def digest(self) -> str:
        return (
            f"{self.method},dt={self.dt!r},rtol={self.rtol!r},"
            f"atol={self.atol!r},stride={self.record_stride}"
        )


class Trajectory:
    """Sampled solution: times (T,), states (T, n, m)."""

    def __init__(self, times: np.ndarray, states: np.ndarray, provenance: dict | None = None):
        self.times = times
        self.states = states
        self.provenance = {} if provenance is None else provenance

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1]

    @property
    def state_dim(self) -> int:
        return self.states.shape[2]

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, path) -> None:
        n, m = self.states.shape[1:]
        header = ["t"] + [f"x_{i + 1}_{q + 1}" for i in range(n) for q in range(m)]
        flat = self.states.reshape(len(self.times), n * m)
        _write_csv(path, header, self.times, flat)


class _Record(SimpleNamespace):
    """A result record, built with one keyword per field; == and hash are by
    identity (SimpleNamespace's != would compare the fields, raising on arrays)."""

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def write_json(self, path) -> None:
        _write_json(path, self.to_json_dict())


class ErrorSeries(_Record):
    """Squared pairwise errors and the max-spread error; fields times (T,),
    xi (T, P) over lexicographic pairs, e_hat (T,) and n_nodes."""

    def to_csv(self, path) -> None:
        n = self.n_nodes
        iu, ju, _ = kern.pair_arrays(n)
        header = ["t"] + [f"xi_{i + 1}_{j + 1}" for i, j in zip(iu, ju)] + ["e_hat"]
        _write_csv(path, header, self.times, self.xi, self.e_hat)


def _write_json(path, doc) -> None:
    """The one format of every JSON output file: sorted keys, indent 2, final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


_CSV_BLOCK_CELLS = 2 ** 13


def _write_csv(path, header, times, *columns) -> None:
    """Write the header line, then one line per time: t and each column's row.

    ``columns`` are (T,) or (T, k) arrays.  Every value is written as
    ``"%.17g" % v``, so parsing it gives back the exact double; values are
    joined by "," and each line ends in "\\n".  The text comes from
    ``_g17text.G17Text``, which renders each value from a double-double
    product and hands the ones it cannot decide exactly to ``"%.17g" % v``:
    zero, inf, nan, |v| outside [1e-280, 1e290], and values whose rounding
    decision lies within 2**-30 of a half.  Rows go out in blocks of at most
    _CSV_BLOCK_CELLS values (one row if a row is longer), through one set of
    buffers and one write per block.
    """
    from ._g17text import G17Text  # first CSV write only; keeps it off the import path

    cols = [c if c.ndim == 2 else c[:, None] for c in (np.asarray(times), *columns)]
    edges = np.cumsum([0] + [c.shape[1] for c in cols]).tolist()
    text = G17Text(max(1, _CSV_BLOCK_CELLS // edges[-1]), edges[-1])
    block = np.empty((text.rows, edges[-1]))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for r0 in range(0, len(times), text.rows):
            m = min(text.rows, len(times) - r0)
            for c, a, b in zip(cols, edges, edges[1:]):
                block[:m, a:b] = c[r0:r0 + m]
            fh.write(text.render(block[:m].reshape(-1)))


def coupled_rhs(system: NetworkSystem, t: float, x: np.ndarray) -> np.ndarray:
    """Right-hand side of the coupled network on the flat state vector.

    Block i is f_i(t, x_i) + c * sum_k a_ik(t)(x_k - x_i); A is sampled with
    the right-continuous convention at breakpoints.  Raises on a non-finite
    output, naming the offending time and node.
    """
    n, m = system.n_nodes, system.state_dim
    X = np.array(x, dtype=float, order="C").reshape(n, m)  # no strides of x reach L.dot(X)
    F, k = _stages(system, system.schedule.sample)(t, X)
    if not _all_finite(F):
        _node_fault(t, F)
    return k.reshape(n * m)


def _stages(system: NetworkSystem, piece):
    """The coupled field (t, X) -> (F, k), k = F(t, X) + c L(t) X, while
    ``piece`` is active; F is the stacked node field output.

    The graph Laplacian L of the piece's adjacency is built once for a
    constant piece.  A functional piece keeps the Laplacians of its last six
    sample times, keyed by t (A(t) is deterministic per t): RK4's two
    midpoint stages share one sample, and an RKF45 attempt reuses the
    previous attempt's c = 1 sample after an accepted step, or its stage-0
    sample after a rejected one.  Nothing is checked here: the caller keeps
    each stage's F and screens the step's result once, then names the first
    non-finite F by its node and stage time (``_step_fault``).
    """
    c = np.array(system.global_coupling)  # 0-d: numpy converts a Python float on every call
    # looked up per segment, not at import, so wrappers installed later apply
    eval_nodes, coupling_term = system.eval_nodes, kern.coupling_term
    L = kern.laplacian(piece.matrix) if isinstance(piece, _ConstPiece) else None
    cache = {}  # a functional piece's sample time -> Laplacian, least recently used first

    def stage(t, X):
        F = eval_nodes(t, X)
        Lt = L
        if Lt is None:
            Lt = cache.pop(t, None)
            if Lt is None:
                Lt = kern._laplacian_in_place(piece(t))  # each sample is a fresh C array
                if len(cache) == 6:
                    del cache[next(iter(cache))]
            cache[t] = Lt
        return F, F + coupling_term(Lt, X, c)

    return stage


def _bad_node(A):
    """The first row of the (n, m) array A holding a non-finite value."""
    return int(np.nonzero(~np.isfinite(A).all(axis=1))[0][0])


def _node_fault(t, F):
    bad = _bad_node(F)
    raise IntegrationError(
        f"node {bad} produced a non-finite field value at t={t}", t, node=bad
    )


def _state_fault(t, X):
    bad = _bad_node(X)
    raise IntegrationError(
        f"state became non-finite at t={t}, first at node {bad}", t, node=bad
    )


def _step_fault(stages):
    """Raise _node_fault for the first non-finite F of ``stages``, (stage time,
    F) pairs in stage order; return if every F is finite."""
    for t, F in stages:
        if not _all_finite(F):
            _node_fault(t, F)


class _Recorder:
    def __init__(self, stride: int, t0: float, x0: np.ndarray):
        self.stride = stride
        self.count = 0
        self.times = [t0]
        self.states = [x0.copy()]

    def step_done(self, t: float, X: np.ndarray, force: bool = False) -> None:
        self.count += 1
        if force or self.count % self.stride == 0:
            if t > self.times[-1]:
                self.times.append(t)
                self.states.append(X)  # every step makes a fresh X

    def build(self, provenance: dict) -> Trajectory:
        return Trajectory(
            np.asarray(self.times), np.asarray(self.states), provenance
        )


def _uniform_steps(a, b, dt):
    """(n, h, ends) for the fewest n steps h = (b - a)/n <= dt over [a, b]: ends
    yields the step ends a + s h, s = 1..n, as floats with the last one b."""
    n = max(1, math.ceil((b - a) / dt - 1e-12))
    h = (b - a) / n
    return n, h, (a + s * h if s < n else b for s in range(1, n + 1))


def _rk4_segment(system, piece, a, b, dt, rec):
    """Classical RK4 over [a, b] with a uniform step h <= dt that lands on b.

    Every stage enters the step result elementwise with a nonzero weight, so
    one finiteness screen of the result covers the four node field outputs:
    only when it fails are they scanned, in stage order, for the fault to
    name.  A non-finite stage therefore still feeds the later stages of its
    step; numpy's ``invalid`` warnings are silenced while stepping.
    """
    n_steps, h, ends = _uniform_steps(a, b, dt)
    hh = 0.5 * h  # the stage times stay Python floats
    # the step's constant operands as 0-d arrays, the same floats at every stage
    w_hh, w_h, w_h6, two = np.array(hh), np.array(h), np.array(h / 6.0), np.array(2.0)
    f = _stages(system, piece)
    X = rec.states[-1]
    t = a
    with np.errstate(invalid="ignore"):
        for s, t_next in enumerate(ends, 1):
            F1, k1 = f(t, X)
            F2, k2 = f(t + hh, X + w_hh * k1)
            F3, k3 = f(t + hh, X + w_hh * k2)
            F4, k4 = f(t + h, X + w_h * k3)
            X = X + w_h6 * (k1 + two * k2 + two * k3 + k4)
            if not _all_finite(X):
                _step_fault(zip((t, t + hh, t + hh, t + h), (F1, F2, F3, F4)))
                _state_fault(t_next, X)
            t = t_next
            rec.step_done(t, X, force=s == n_steps)
    return X


# Runge-Kutta-Fehlberg 4(5) tableau; the 5th-order solution is propagated.
# Row s of _RKF_A weights the earlier stages in stage s's input; _RKF_E holds
# the exact differences B5 - B4 of the two solutions' weights.
_RKF_C = np.array([0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2])
_RKF_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 4, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 32, 9 / 32, 0.0, 0.0, 0.0, 0.0],
    [1932 / 2197, -7200 / 2197, 7296 / 2197, 0.0, 0.0, 0.0],
    [439 / 216, -8.0, 3680 / 513, -845 / 4104, 0.0, 0.0],
    [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40, 0.0],
])
_RKF_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
_RKF_E = np.array([1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55])


def _rk45_segment(system, piece, a, b, cfg, rec, h_start):
    """RKF45 over [a, b] from the step h_start; returns (X, the next step).

    Stages 0 and 2-5 enter the error estimate with nonzero weights, so its
    finiteness screens their node field outputs; stage 1 has weight 0 there
    and in the solution (a BLAS product may skip a zero weight) and is
    checked on its own.  As in ``_rk4_segment``, the outputs are scanned in
    stage order only when a screen fails.
    """
    f = _stages(system, piece)
    t = a
    X = rec.states[-1]
    K = np.empty((6,) + X.shape)  # stage buffer; Kf views it as (6, n*m)
    Kf = K.reshape(6, -1)
    F = [None] * 6  # each stage's node field output
    atol, rtol = np.array(cfg.atol), np.array(cfg.rtol)
    h = min(h_start, b - a)
    with np.errstate(invalid="ignore"):
        while t < b - 1e-14 * max(1.0, abs(b)):
            h = min(h, b - t)
            if h < 1e-13 * max(1.0, abs(t)):
                raise IntegrationError(f"step size underflow at t={t}", t)
            w_h = np.array(h)
            hA = w_h * _RKF_A  # row s, first s entries: stage s's input weights
            F[0], K[0] = f(t, X)
            for s in range(1, 6):
                F[s], K[s] = f(t + _RKF_C[s] * h,
                               X + hA[s, :s].dot(Kf[:s]).reshape(X.shape))
            X5 = X + (w_h * _RKF_B5).dot(Kf).reshape(X.shape)
            scale = atol + rtol * np.maximum(np.abs(X), np.abs(X5))
            q = ((w_h * _RKF_E).dot(Kf) / scale.reshape(-1)) ** 2
            err = math.sqrt(np.add.reduce(q) / q.size)  # == np.sqrt(np.mean(q))
            if not (math.isfinite(err) and _all_finite(F[1])):
                _step_fault(zip([t] + [t + _RKF_C[s] * h for s in range(1, 6)], F))
            if err > 1.0 and h <= 1e-12:
                raise IntegrationError(
                    f"step of size {h:.3g} at t={t} rejected (error ratio {err:.3g}); "
                    f"the tolerances cannot be met", t)
            if err <= 1.0:
                t_new = t + h
                if not _all_finite(X5):
                    _state_fault(t_new, X5)
                X = X5
                t = t_new
                rec.step_done(t, X, force=(t >= b - 1e-14 * max(1.0, abs(b))))
            # a NaN err (a non-finite product of finite field values) rejects and shrinks
            factor = 0.9 * err ** -0.2 if err > 0 else 5.0 if err == 0 else 0.2
            h = h * min(5.0, max(0.2, factor))
    return X, h


def integrate(system: NetworkSystem, t0: float, x0, t_end: float, cfg: SolverConfig) -> Trajectory:
    """Integrate the coupled network from (t0, x0) to t_end.

    x0 is the (n, m) stack of initial node states (a flat vector of length
    n*m is also accepted).  The solver grid contains every schedule
    breakpoint in [t0, t_end]; t0 and t_end must be finite.
    """
    for name, v in (("t0", t0), ("t_end", t_end)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    n, m = system.n_nodes, system.state_dim
    X0 = np.asarray(x0, dtype=float).reshape(n, m).copy()
    if not _all_finite(X0):
        i, q = np.argwhere(~np.isfinite(X0))[0]
        raise ValueError(f"initial state must be finite: x0[{i}, {q}] = {X0[i, q]}")
    segments = system.schedule.segments_between(t0, t_end)
    rec = _Recorder(cfg.record_stride, t0, X0)
    h = cfg.dt
    for a, b, piece in segments:
        if cfg.method == "rk4":
            _rk4_segment(system, piece, a, b, cfg.dt, rec)
        else:
            _, h = _rk45_segment(system, piece, a, b, cfg, rec, h)
    import hashlib  # only the digest below needs it; keeps it off the import path

    x0_digest = hashlib.sha1(np.ascontiguousarray(X0).tobytes()).hexdigest()[:12]
    provenance = {"t0": t0, "x0_digest": x0_digest, "config": cfg.digest()}
    return rec.build(provenance)


def pairwise_errors(traj: Trajectory) -> ErrorSeries:
    """Squared pairwise distances xi and the componentwise max-spread error.

    xi is ordered lexicographically by (i, j), i < j, and is nonnegative by
    construction; e_hat(t) aggregates the per-component spread
    max_ij |x_iq - x_jq| in the Euclidean norm over components.  Raises
    ValueError for an empty trajectory or one with fewer than two nodes.
    """
    if len(traj.times) == 0:
        raise ValueError("trajectory is empty")
    if traj.n_nodes < 2:
        raise ValueError("need at least two nodes")
    xi = kern.xi_series(traj.states)
    eh = kern.e_hat_series(traj.states)
    return ErrorSeries(times=traj.times.copy(), xi=xi, e_hat=eh, n_nodes=traj.n_nodes)
