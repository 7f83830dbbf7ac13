"""Data model for temporal networks.

The node-field contract, signed time-varying adjacency schedules, clusters,
and per-pair one-sided affine bounds on the difference of node vector fields.
Node indices are 0-based throughout the Python API; text exports (CSV
headers, verdict labels in JSON) use 1-based labels.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Sequence

import numpy as np

from . import _kernels as kern

EXTENSIONS = ("constant", "periodic", "none")


class ScheduleDomainError(ValueError):
    """Sampling time outside the domain of a schedule with extension "none"."""


class NodeField:
    """Internal dynamics of all n nodes as one vectorized field.

    rhs(t, X (n, m)) -> (n, m) has row i equal to f_i(t, x_i), m = state_dim,
    for every finite t (continuity in t is not required).  Heterogeneous
    nodes enter through per-node parameter vectors of length n inside rhs.
    """

    def __init__(self, state_dim: int, rhs: Callable[[float, np.ndarray], np.ndarray]):
        if state_dim < 1:
            raise ValueError("state_dim must be a positive integer")
        self.state_dim = state_dim
        self.rhs = rhs

    @classmethod
    def from_nodes(cls, nodes: Sequence["NodeDynamics"]) -> "NodeField":
        """Stack per-node dynamics into one field; row i calls nodes[i]."""
        nodes = tuple(nodes)
        dims = {nd.state_dim for nd in nodes}
        if len(dims) != 1:
            raise ValueError(f"all nodes must share one state_dim, got {sorted(dims)}")

        def rhs(t, X):
            out = np.empty_like(X)
            for i, nd in enumerate(nodes):
                out[i] = nd(t, X[i])
            return out

        return cls(dims.pop(), rhs)


class NodeDynamics:
    """Internal dynamics of one node, stacked by NodeField.from_nodes.

    rhs(t, x) -> dx/dt follows the NodeField contract for a single node and
    must return a vector of length state_dim.
    """

    def __init__(self, state_dim: int, rhs: Callable[[float, np.ndarray], np.ndarray]):
        if state_dim < 1:
            raise ValueError("state_dim must be a positive integer")
        self.state_dim = state_dim
        self.rhs = rhs

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.rhs(t, x), dtype=float)
        if out.shape != (self.state_dim,):
            raise ValueError(
                f"rhs returned shape {out.shape}, expected ({self.state_dim},)"
            )
        return out


def zero_dynamics(state_dim: int = 1) -> NodeDynamics:
    """Node with no internal dynamics (pure consensus agent)."""
    zero = np.zeros(state_dim)
    return NodeDynamics(state_dim, lambda t, x: zero)


def _all_finite(a) -> bool:
    """np.isfinite(a).all(), exactly, in fewer numpy calls (one mask, one byte scan)."""
    return b"\0" not in np.isfinite(a).tobytes()


def _finite(m: np.ndarray, entry: Callable[[int, int], str]) -> np.ndarray:
    """The matrix m itself, after checking every entry is finite; entry(i, j) names one."""
    if not _all_finite(m):
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValueError(f"{entry(i, j)} = {m[i, j]} is not finite")
    return m


_STACK_SIZE = 2 ** 15  # entries of the largest (T, P, n) pair_sums buffer or (T, P) bound block


def _chunks(times, width):
    """times in consecutive runs of at most _STACK_SIZE // width (at least 1)."""
    step = max(1, _STACK_SIZE // max(1, width))
    return (times[k:k + step] for k in range(0, len(times), step))


def _grid(name, times, least):
    """times as a 1-d float array of at least ``least`` (1 or 2) finite, nondecreasing times."""
    g = np.asarray(times, dtype=float)
    if g.ndim != 1 or g.size < least:
        raise ValueError(f"{name} must contain at least {('one time', 'two times')[least - 1]}")
    if not _all_finite(g):
        q = int(np.flatnonzero(~np.isfinite(g))[0])
        raise ValueError(f"{name} must be finite: {name}[{q}] = {g[q]}")
    down = np.flatnonzero(~(np.diff(g) >= 0))
    if down.size:
        q = int(down[0]) + 1
        raise ValueError(f"{name} must be nondecreasing: {name}[{q}] = {g[q]} "
                         f"follows {name}[{q - 1}] = {g[q - 1]}")
    return g


def _cuts(t0, t1, breaks):
    """The sorted times that cut [t0, t1] into segments: its ends and every break inside it."""
    return sorted({t0, t1, *(float(b) for b in breaks if t0 < b < t1)})


def _segment_runs(starts, times):
    """(s, slice of times) for each segment s that holds some of the sorted times.

    Segment s is [starts[s], starts[s + 1]), the last one unbounded; times
    before starts[0] count to segment 0.  A segment that holds no time
    yields nothing.
    """
    seg = np.maximum(np.searchsorted(starts, times, side="right") - 1, 0)
    cut = [0, *(np.flatnonzero(np.diff(seg)) + 1).tolist(), len(seg)]
    return [(int(seg[lo]), slice(lo, hi)) for lo, hi in zip(cut[:-1], cut[1:])]


class _ConstPiece:
    """Constant matrix segment; evaluation ignores t."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=float)
        np.fill_diagonal(m, 0.0)
        m.setflags(write=False)
        self.matrix = _finite(m, lambda i, j: f"adjacency entry ({i}, {j})")

    def __call__(self, t: float) -> np.ndarray:
        return self.matrix


class _FuncPiece:
    """Functional segment, read as blocks of times.

    block(times) is the checked (T, n, n) stack of A at a 1-d sequence of T
    times, row k at times[k]: ``read(tau)`` gives the raw samples, one
    (T, n, n) array or T (n, n) matrices, at the times ``tau`` the piece
    sees, which ``see`` maps from the times asked for (None: the same).  A
    public callable fn(t) -> (n, n) is read through ``scalar``, one call per
    time; a private block function such as the Lorenz wobble is passed as
    ``read`` itself.  Calling the piece at one time t gives block([t])[0].
    """

    __slots__ = ("read", "n", "see")

    def __init__(self, read, n: int, see=None):
        self.read = read
        self.n = n
        self.see = see

    @classmethod
    def scalar(cls, fn: Callable[[float], np.ndarray], n: int) -> "_FuncPiece":
        return cls(lambda times: [fn(t) for t in times], n)

    def seen_at(self, see) -> "_FuncPiece":
        """This piece read at see(times) in place of times (a period shift or a clamp)."""
        return _FuncPiece(self.read, self.n, see)

    def block(self, times) -> np.ndarray:
        tau = times if self.see is None else self.see(times)
        n = self.n
        m = np.array(self.read(tau), dtype=float, order="C")  # own copy, flat rows hold diagonals
        if m.shape != (len(tau), n, n):
            got = m.shape[1:] if m.shape[:1] == (len(tau),) else m.shape
            raise ValueError(f"piece returned shape {got}, expected ({n}, {n})")
        m.reshape(len(tau), -1)[:, :: n + 1] = 0.0  # every diagonal, as a view
        if not _all_finite(m):
            k, i, j = np.argwhere(~np.isfinite(m))[0]  # row-major: the first bad time first
            raise ValueError(f"adjacency entry ({i}, {j}) at t={tau[k]} = {m[k, i, j]} "
                             "is not finite")
        return m

    def __call__(self, t: float) -> np.ndarray:
        return self.block([t])[0]


class AdjacencySchedule:
    """Piecewise-defined weighted, signed adjacency A(t).

    Piece i is active on [breakpoints[i], breakpoints[i+1]); the last piece
    extends to +inf.  Pieces are right-continuous: at a breakpoint the
    right-hand piece is active.  Diagonal entries are forced to zero on
    every sample.  Pieces must be pointwise evaluable (and
    Riemann-integrable on their segment for the solvers to converge);
    weight functions that are merely locally integrable without pointwise
    values are not supported.  Extensions:

    * "constant": before the first breakpoint the first piece is evaluated
      with t clamped to the first breakpoint.
    * "periodic": requires an explicit ``period`` p strictly larger than
      the breakpoint span; in period k the cuts are the floats b_i + k p
      and a functional piece is evaluated at t - k p.
    * "none": sampling before the first breakpoint raises.

    One rule (_locate) picks the active piece: sample, segments_between and
    the grid reader on_grid all use it, so they agree at every time.  A
    piece is an (n, n) matrix or a callable t -> (n, n), called once per
    time; the integrator, on_grid and the comparison records read a
    functional piece as (T, n, n) blocks of times (_FuncPiece.block).
    """

    def __init__(self, n_nodes, breakpoints, pieces, extension="constant", period=None):
        if n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size == 0:
            raise ValueError("breakpoints must be a nonempty 1-d sequence")
        if bp.size > 1 and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(pieces) != bp.size:
            raise ValueError("need exactly one piece per breakpoint")
        if extension not in EXTENSIONS:
            raise ValueError(f"extension must be one of {EXTENSIONS}")
        if extension == "periodic":
            if period is None or period <= 0:
                raise ValueError("periodic extension requires period > 0")
            if period <= bp[-1] - bp[0]:
                raise ValueError("period must exceed the breakpoint span")
        self.n_nodes = int(n_nodes)
        self.breakpoints = bp
        self.breakpoints.setflags(write=False)
        self.extension = extension
        self.period = float(period) if period is not None else None
        wrapped = []
        for p in pieces:
            if isinstance(p, (_ConstPiece, _FuncPiece)):
                wrapped.append(p)
            elif callable(p):
                wrapped.append(_FuncPiece.scalar(p, self.n_nodes))
            else:
                m = np.asarray(p, dtype=float)
                if m.shape != (self.n_nodes, self.n_nodes):
                    raise ValueError(
                        f"segment matrix has shape {m.shape}, expected "
                        f"({self.n_nodes}, {self.n_nodes})"
                    )
                wrapped.append(_ConstPiece(m))
        self.pieces = tuple(wrapped)

    # -- sampling: one rule decides which piece is active at t ------------

    def _locate(self, t: float):
        """(i, k, tau): piece i is active at t, in period k, and sees time tau.

        In period k the cuts are b_i + k p (k = 0 off periodic schedules);
        the active piece is the one whose cut is the last at or before t, and
        it sees tau = t - k p.  Before b_0, extension "constant" gives the
        first piece at tau = b_0 and "none" raises.
        """
        b, k, tau = self.breakpoints, 0, t
        if self.extension == "periodic":
            p = self.period
            k = math.floor((t - b[0]) / p)
            k += int(b[0] + (k + 1) * p <= t) - int(b[0] + k * p > t)  # rounding of the floor
            b, tau = b + k * p, t - k * p
        elif t < b[0]:
            if self.extension == "none":
                raise ScheduleDomainError(f"t={t} is before the first breakpoint {b[0]} "
                                          "and the schedule has extension 'none'")
            return 0, 0, float(b[0])
        return int(np.searchsorted(b, t, side="right")) - 1, k, tau

    def sample(self, t: float) -> np.ndarray:
        """A(t) with zero diagonal as a fresh C array; deterministic for fixed (schedule, t)."""
        i, _, tau = self._locate(t)
        return np.array(self.pieces[i](tau), dtype=float, order="C")

    @property
    def is_piecewise_constant(self) -> bool:
        return all(isinstance(p, _ConstPiece) for p in self.pieces)

    def segments_between(self, t0: float, t1: float):
        """Maximal subintervals of [t0, t1] on which a single piece is active.

        Returns a list of (a, b, piece) with a < b covering [t0, t1], cut at
        the floats b_i + k p of _locate, which also picks each piece.  A
        constant piece is returned as is, since it ignores t.  A functional
        piece in period k != 0 is returned reading its block at t - k p, and
        one before b_0 on "constant" reading it at b_0; so at the segment's
        right end it gives the left limit.
        """
        if t1 <= t0:
            raise ValueError("need t1 > t0")
        b = self.breakpoints
        if self.extension == "periodic":
            k0, k1 = self._locate(t0)[1], self._locate(t1)[1]
            b = np.concatenate([b + k * self.period for k in range(k0, k1 + 1)])
        cuts = _cuts(t0, t1, b)
        out = []
        for a, e in zip(cuts[:-1], cuts[1:]):
            i, k, tau = self._locate(a)
            piece = self.pieces[i]
            if isinstance(piece, _FuncPiece) and k:
                piece = piece.seen_at(lambda times, s=k * self.period: [t - s for t in times])
            elif isinstance(piece, _FuncPiece) and tau != a:  # clamped before b_0
                piece = piece.seen_at(lambda times, tb=tau: [tb] * len(times))
            out.append((a, e, piece))
        return out

    def on_grid(self, times, width):
        """(slice, A) for each run of the sorted ``times`` inside one segment.

        A constant piece gives its matrix as a one-matrix stack (1, n, n) for
        the whole run; a functional piece gives its blocks, one per chunk of
        at most _STACK_SIZE // width times.  Each row equals sample(t) at its
        time t; segments that hold no time yield nothing.
        """
        segs = self.segments_between(times[0], np.nextafter(times[-1], np.inf))
        for s, run in _segment_runs([a for a, _, _ in segs], times):
            piece = segs[s][2]
            if isinstance(piece, _ConstPiece):
                yield run, piece.matrix[None]
                continue
            for r in _chunks(range(run.start, run.stop), width):
                yield slice(r.start, r.stop), piece.block(times[r.start:r.stop])

    # -- serialization (piecewise-constant schedules only) -----------------

    def to_json_dict(self) -> dict:
        if not self.is_piecewise_constant:
            raise ValueError("only piecewise-constant schedules serialize to JSON")
        doc = {
            "n": self.n_nodes,
            "extension": self.extension,
            "segments": [
                {"t": float(t), "A": p.matrix.tolist()}
                for t, p in zip(self.breakpoints, self.pieces)
            ],
        }
        if self.period is not None:
            doc["period"] = self.period
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AdjacencySchedule":
        segs = [(s["t"], np.asarray(s["A"], dtype=float)) for s in doc["segments"]]
        return build_switching_schedule(
            int(doc["n"]),
            segs,
            extension=doc.get("extension", "constant"),
            period=doc.get("period"),
        )

    @classmethod
    def from_json(cls, text: str) -> "AdjacencySchedule":
        return cls.from_json_dict(json.loads(text))


def build_switching_schedule(n_nodes, segments, extension="constant", period=None):
    """Schedule from (t_start, constant matrix) segments.

    Segment starts must be strictly increasing; each matrix must be
    n_nodes x n_nodes (diagonal is zeroed).  Sampling follows the
    right-continuous convention at segment starts.
    """
    if not segments:
        raise ValueError("segments must be nonempty")
    return AdjacencySchedule(n_nodes, [float(t) for t, _ in segments],
                             [np.asarray(m, dtype=float) for _, m in segments],
                             extension=extension, period=period)


def sample_adjacency(schedule: AdjacencySchedule, t: float) -> np.ndarray:
    """Sample A(t) from a schedule (zero diagonal, right-continuous)."""
    return schedule.sample(t)


def static_schedule(matrix) -> AdjacencySchedule:
    """Single-segment schedule holding one constant matrix for all t."""
    m = np.asarray(matrix, dtype=float)
    return build_switching_schedule(m.shape[0], [(0.0, m)])


# ---------------------------------------------------------------------------
# pair bounds (one-sided affine upper bounds for pairs of node fields)
# ---------------------------------------------------------------------------

class PairBoundSet:
    """Per-pair data (alpha_ij, beta_ij) valid on a ball of radius rho.

    For states x, y in the ball, <x - y, f_i(t, x) - f_j(t, y)> <=
    alpha_ij(t) |x - y|^2 + beta_ij(t) with beta >= 0.  alpha(t), beta(t)
    return one (P,) vector over the pairs i < j in _kernels.pair_arrays
    order at a scalar t, and one (T, P) block, row k at times[k], at a 1-d
    array of T times; ``subset`` (pair indices) keeps only those columns
    and evaluates only those pairs.  A non-finite value or a negative beta
    raises naming the pair and the first bad time in order.  The
    constructor stacks per-pair callables alpha(i, j, t), beta(i, j, t)
    (called with i < j); constant() and pair_bounds_for_identical_nodes
    store vectors or block functions, and time_constant says both are
    vectors.  global_bounds marks radius-independent bounds.
    """

    def __init__(self, n_nodes, rho, alpha, beta, global_bounds=False):
        pairs = self._setup(n_nodes, rho, global_bounds, False)._pairs

        def stacked(f):
            def block(times, cols):
                sub = pairs if isinstance(cols, slice) else [pairs[p] for p in cols.tolist()]
                rows = [[float(f(i, j, t)) for i, j in sub] for t in times]
                return np.array(rows).reshape(len(times), len(sub))
            return block

        self._alpha, self._beta = stacked(alpha), stacked(beta)

    def _setup(self, n_nodes, rho, global_bounds, time_constant):
        """Checks and fields shared by __init__ and _stored; returns self."""
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.n_nodes, self.rho = int(n_nodes), float(rho)
        self.global_bounds, self.time_constant = bool(global_bounds), time_constant
        self._pairs = list(zip(*(k.tolist() for k in kern.pair_arrays(self.n_nodes)[:2])))
        return self

    @classmethod
    def _stored(cls, n_nodes, rho, alpha, beta, global_bounds):
        """Bounds stored as given: each a (P,) vector or a function (times, cols) -> block."""
        const = not (callable(alpha) or callable(beta))
        out = cls.__new__(cls)._setup(n_nodes, rho, global_bounds, const)
        out._alpha, out._beta = (v if callable(v) else out._check(name, np.array(v, float))
                                 for name, v in (("alpha", alpha), ("beta", beta)))
        return out

    def alpha(self, t, subset=None) -> np.ndarray:
        """alpha_ij(t): (P,) at a scalar t, (T, P) at a 1-d array of T times."""
        return self._read("alpha", self._alpha, t, subset)

    def beta(self, t, subset=None) -> np.ndarray:
        """beta_ij(t): (P,) at a scalar t, (T, P) at a 1-d array of T times."""
        return self._read("beta", self._beta, t, subset)

    def _read(self, name, f, t, subset):
        """f at t on the pairs ``subset`` (pair indices; all pairs by default), checked."""
        scalar = np.ndim(t) == 0
        if np.ndim(t) > 1:
            raise ValueError(f"{name} takes a scalar time or a 1-d array of times")
        cols = slice(None) if subset is None else np.asarray(subset, dtype=np.int64)
        if not callable(f):  # a stored vector, checked when it was stored
            v = f[cols]
            return v if scalar else np.broadcast_to(v, (len(t), len(v)))
        times = [t] if scalar else np.asarray(t, dtype=float).tolist()
        block = self._check(name, f(times, cols), times, cols)
        return block[0] if scalar else block

    def _check(self, name, v, times=(None,), cols=slice(None)):
        """v, read-only, after checking it is finite, and nonnegative for beta;
        in a (len(times), k) block on the pairs ``cols``, the earliest bad row is named."""
        if not np.isfinite(v).all() or (name == "beta" and (v < 0).any()):
            rows = v.reshape(len(times), -1)
            bad = ~np.isfinite(rows) | ((rows < 0) if name == "beta" else False)
            k, p = divmod(int(np.argmax(bad)), rows.shape[1])
            i, j = self._pairs[p if isinstance(cols, slice) else int(cols[p])]
            at = "" if times[k] is None else f", {times[k]}"
            what = "is not finite" if not np.isfinite(rows[k, p]) else "is negative"
            raise ValueError(f"{name}({i}, {j}{at}) = {rows[k, p]} {what}")
        v.setflags(write=False)
        return v

    @classmethod
    def constant(cls, n_nodes, alpha, beta, rho, global_bounds=True):
        """Time-constant bounds; alpha, beta may be scalars or (n, n) arrays."""
        a = np.broadcast_to(np.asarray(alpha, dtype=float), (n_nodes, n_nodes))
        b = np.broadcast_to(np.asarray(beta, dtype=float), (n_nodes, n_nodes))
        if (b < 0).any():
            raise ValueError("beta must be nonnegative")
        iu, ju, _ = kern.pair_arrays(n_nodes)
        a, b = (0.5 * (m[iu, ju] + m[ju, iu]) for m in (a, b))  # pairs are unordered
        return cls._stored(n_nodes, rho, a, b, global_bounds)


def pair_bounds_for_identical_nodes(n_nodes, l, rho, global_bounds=False):
    """Bounds for a network of identical nodes with Lipschitz coefficient l.

    l may be a scalar or a contract (t, r) -> coefficient on the ball of
    radius r, called once per time; alpha_ij(t) = l(t, rho) for every pair
    and beta vanishes identically, which forces the heterogeneity window
    bound to zero.
    """
    P = kern.n_pairs(n_nodes)
    if np.isscalar(l):
        return PairBoundSet._stored(n_nodes, rho, np.full(P, float(l)), np.zeros(P), True)

    def block(times, cols):
        return np.array([np.full(P, float(l(t, rho))) for t in times]).reshape(-1, P)[:, cols]

    return PairBoundSet._stored(n_nodes, rho, block, np.zeros(P), global_bounds)


class ClusterSpec:
    """Ordered subset of node indices (0-based) singled out for analysis."""

    def __init__(self, indices: Sequence[int]):
        idx = tuple(int(i) for i in indices)
        if len(idx) < 2:
            raise ValueError("a cluster needs at least two nodes")
        if len(set(idx)) != len(idx):
            raise ValueError("cluster indices must be unique")
        if any(b <= a for a, b in zip(idx[:-1], idx[1:])):
            raise ValueError("cluster indices must be strictly increasing")
        if idx[0] < 0:
            raise ValueError("cluster indices must be nonnegative")
        self.indices = idx

    def validate_for(self, n_nodes: int) -> None:
        if self.indices[-1] >= n_nodes:
            raise ValueError(
                f"cluster index {self.indices[-1]} out of range for {n_nodes} nodes"
            )

    def __len__(self) -> int:
        return len(self.indices)


# ---------------------------------------------------------------------------
# the coupled network
# ---------------------------------------------------------------------------

class NetworkSystem:
    """N agents with diffusive coupling through a time-varying adjacency.

    Node i obeys  dx_i/dt = f_i(t, x_i) + c * sum_k a_ik(t) (x_k - x_i)
    with c = global_coupling.  field is a NodeField evaluating all f_i at
    once, or a sequence of one NodeDynamics per node, which is stacked with
    NodeField.from_nodes.  The node count is the schedule's.
    """

    def __init__(self, field, schedule, global_coupling=1.0):
        if not isinstance(field, NodeField):
            nodes = tuple(field)
            if len(nodes) != schedule.n_nodes:
                raise ValueError(
                    f"{len(nodes)} nodes but schedule is for {schedule.n_nodes}"
                )
            field = NodeField.from_nodes(nodes)
        if global_coupling < 0:
            raise ValueError("global_coupling must be nonnegative")
        self.field = field
        self.schedule = schedule
        self.global_coupling = float(global_coupling)

    @property
    def n_nodes(self) -> int:
        return self.schedule.n_nodes

    @property
    def state_dim(self) -> int:
        return self.field.state_dim

    def eval_nodes(self, t: float, X: np.ndarray) -> np.ndarray:
        """All node fields stacked into an (n, m) array."""
        out = np.asarray(self.field.rhs(t, X), dtype=float)
        if out.shape != X.shape:
            raise ValueError(
                f"node field returned shape {out.shape}, expected {X.shape}"
            )
        return out
