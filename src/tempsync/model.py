"""Data model for temporal networks.

The node-field contract, signed time-varying adjacency schedules, clusters,
and per-pair one-sided affine bounds on the difference of node vector fields.
Node indices are 0-based throughout the Python API; text exports (CSV
headers, verdict labels in JSON) use 1-based labels.
"""

from __future__ import annotations

import json
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


def _finite(m: np.ndarray, entry: Callable[[int, int], str]) -> np.ndarray:
    """The matrix m itself, after checking every entry is finite; entry(i, j) names one."""
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValueError(f"{entry(i, j)} = {m[i, j]} is not finite")
    return m


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
    """Functional segment; the wrapped callable is re-evaluated per sample."""

    __slots__ = ("fn", "n")

    def __init__(self, fn: Callable[[float], np.ndarray], n: int):
        self.fn = fn
        self.n = n

    def __call__(self, t: float) -> np.ndarray:
        m = np.array(self.fn(t), dtype=float, order="C")  # own copy, flat view = diagonal
        if m.shape != (self.n, self.n):
            raise ValueError(f"piece returned shape {m.shape}, expected ({self.n}, {self.n})")
        m.reshape(-1)[:: self.n + 1] = 0.0  # the diagonal, as a view
        return _finite(m, lambda i, j: f"adjacency entry ({i}, {j}) at t={t}")


class AdjacencySchedule:
    """Piecewise-defined weighted, signed adjacency A(t).

    Piece k is active on [breakpoints[k], breakpoints[k+1]); the last piece
    extends to +inf.  Sampling at a breakpoint returns the right-hand piece.
    Diagonal entries are forced to zero on every sample.  Pieces must be
    pointwise evaluable (and Riemann-integrable on their segment for the
    solvers to converge); weight functions that are merely locally
    integrable without pointwise values are not supported.  Extensions:

    * "constant": before the first breakpoint the first piece is evaluated
      with t clamped to the first breakpoint.
    * "periodic": requires an explicit ``period`` strictly larger than the
      breakpoint span; sample(t) == sample(t - period).
    * "none": sampling before the first breakpoint raises.
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
                wrapped.append(_FuncPiece(p, self.n_nodes))
            else:
                m = np.asarray(p, dtype=float)
                if m.shape != (self.n_nodes, self.n_nodes):
                    raise ValueError(
                        f"segment matrix has shape {m.shape}, expected "
                        f"({self.n_nodes}, {self.n_nodes})"
                    )
                wrapped.append(_ConstPiece(m))
        self.pieces = tuple(wrapped)

    # -- sampling ----------------------------------------------------------

    def _fold(self, t: float) -> float:
        b0 = self.breakpoints[0]
        if t < b0:
            if self.extension == "none":
                raise ScheduleDomainError(
                    f"t={t} is before the first breakpoint {b0} and the "
                    "schedule has extension 'none'"
                )
            if self.extension == "constant":
                return b0
            return b0 + (t - b0) % self.period
        if self.extension == "periodic":
            return b0 + (t - b0) % self.period
        return t

    def _piece_at(self, t: float):
        tau = self._fold(t)
        idx = int(np.searchsorted(self.breakpoints, tau, side="right")) - 1
        return self.pieces[idx], tau

    def sample(self, t: float) -> np.ndarray:
        """A(t) with zero diagonal; deterministic for fixed (schedule, t)."""
        piece, tau = self._piece_at(t)
        return np.array(piece(tau), dtype=float)

    @property
    def is_piecewise_constant(self) -> bool:
        return all(isinstance(p, _ConstPiece) for p in self.pieces)

    def segments_between(self, t0: float, t1: float):
        """Maximal subintervals of [t0, t1] on which a single piece is active.

        Returns a list of (a, b, piece) with a < b covering [t0, t1].  A
        constant piece is returned as is, since it ignores t.  A functional
        piece expects the folded time on periodic schedules and before the
        first breakpoint, so there its entry is a closure that folds.
        """
        if t1 <= t0:
            raise ValueError("need t1 > t0")
        self._fold(t0)  # domain check for extension "none"
        cuts = [t0, t1]
        b0 = self.breakpoints[0]
        if self.extension == "periodic":
            p = self.period
            k0 = int(np.floor((t0 - b0) / p))
            k1 = int(np.ceil((t1 - b0) / p))
            for k in range(k0, k1 + 1):
                for b in self.breakpoints:
                    tb = b + k * p
                    if t0 < tb < t1:
                        cuts.append(tb)
        else:
            for b in self.breakpoints:
                if t0 < b < t1:
                    cuts.append(float(b))
        cuts = sorted(set(cuts))
        out = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            piece, tau_a = self._piece_at(a)
            if isinstance(piece, _ConstPiece):
                out.append((a, b, piece))
            elif self.extension == "periodic":
                # translate into the piece's base interval so evaluation at
                # the segment's right endpoint stays on this piece (left
                # limit) instead of wrapping to the next period
                offset = tau_a - a
                fn = (lambda pc, off: lambda t: pc(t + off))(piece, offset)
                out.append((a, b, fn))
            elif self.extension == "constant" and a < b0:
                fn = (lambda pc, tb: lambda t: pc(tb))(piece, float(b0))
                out.append((a, b, fn))
            else:
                out.append((a, b, piece))
        return out

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
    times = [float(t) for t, _ in segments]
    if any(b <= a for a, b in zip(times[:-1], times[1:])):
        raise ValueError("segment start times must be strictly increasing")
    mats = []
    for _, m in segments:
        m = np.asarray(m, dtype=float)
        if m.shape != (n_nodes, n_nodes):
            raise ValueError(
                f"segment matrix has shape {m.shape}, expected ({n_nodes}, {n_nodes})"
            )
        mats.append(m)
    return AdjacencySchedule(n_nodes, times, mats, extension=extension, period=period)


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
    order; a non-finite value or a negative beta raises naming pair and t.
    The constructor stacks per-pair callables alpha(i, j, t), beta(i, j, t)
    (called with i < j); constant() and pair_bounds_for_identical_nodes
    store vectors or t -> (P,) functions, and time_constant says both are
    vectors.  global_bounds marks radius-independent bounds.
    """

    def __init__(self, n_nodes, rho, alpha, beta, global_bounds=False):
        pairs = self._setup(n_nodes, rho, global_bounds, False)._pairs
        self._alpha = lambda t: np.array([float(alpha(i, j, t)) for i, j in pairs])
        self._beta = lambda t: np.array([float(beta(i, j, t)) for i, j in pairs])

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
        """Bounds stored as given: each a (P,) vector or a function t -> (P,)."""
        const = not (callable(alpha) or callable(beta))
        out = cls.__new__(cls)._setup(n_nodes, rho, global_bounds, const)
        out._alpha, out._beta = (v if callable(v) else out._check(name, np.array(v, float))
                                 for name, v in (("alpha", alpha), ("beta", beta)))
        return out

    def alpha(self, t: float) -> np.ndarray:
        """alpha_ij(t) over the pairs, as one (P,) vector."""
        return self._check("alpha", self._alpha(t), t) if callable(self._alpha) else self._alpha

    def beta(self, t: float) -> np.ndarray:
        """beta_ij(t) over the pairs, as one (P,) vector."""
        return self._check("beta", self._beta(t), t) if callable(self._beta) else self._beta

    def _check(self, name, v, t=None):
        """v, read-only, after checking it is finite, and nonnegative for beta."""
        if not np.isfinite(v).all() or (name == "beta" and (v < 0).any()):
            p = int(np.argmax(~np.isfinite(v) | ((v < 0) if name == "beta" else False)))
            (i, j), at = self._pairs[p], "" if t is None else f", {t}"
            what = "is not finite" if not np.isfinite(v[p]) else "is negative"
            raise ValueError(f"{name}({i}, {j}{at}) = {v[p]} {what}")
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
    return PairBoundSet._stored(
        n_nodes, rho, lambda t: np.full(P, float(l(t, rho))), np.zeros(P), global_bounds
    )


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
