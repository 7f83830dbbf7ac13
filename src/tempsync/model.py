"""Data model for temporal networks.

Node dynamics contracts, signed time-varying adjacency schedules, clusters,
and per-pair one-sided affine bounds on the difference of node vector fields.
Node indices are 0-based throughout the Python API; text exports (CSV
headers, verdict labels in JSON) use 1-based labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

EXTENSIONS = ("constant", "periodic", "none")


class ScheduleDomainError(ValueError):
    """Sampling time outside the domain of a schedule with extension "none"."""


@dataclass(frozen=True)
class NodeDynamics:
    """Internal dynamics of one node.

    rhs(t, x) -> dx/dt must be defined for every finite t (piecewise
    definitions are fine; continuity in t is not required) and must return
    a vector of length state_dim.  lipschitz_bound(t, r), when given, bounds
    the Lipschitz constant of x -> rhs(t, x) on the ball of radius r.
    """

    state_dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    lipschitz_bound: Callable[[float, float], float] | None = None

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError("state_dim must be a positive integer")

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
    return NodeDynamics(state_dim, lambda t, x: zero, lambda t, r: 0.0)


class _ConstPiece:
    """Constant matrix segment; evaluation ignores t."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=float)
        np.fill_diagonal(m, 0.0)
        m.setflags(write=False)
        self.matrix = m

    def __call__(self, t: float) -> np.ndarray:
        return self.matrix


class _FuncPiece:
    """Functional segment; the wrapped callable is re-evaluated per sample."""

    __slots__ = ("fn", "n")

    def __init__(self, fn: Callable[[float], np.ndarray], n: int):
        self.fn = fn
        self.n = n

    def __call__(self, t: float) -> np.ndarray:
        m = np.array(self.fn(t), dtype=float)
        if m.shape != (self.n, self.n):
            raise ValueError(f"piece returned shape {m.shape}, expected ({self.n}, {self.n})")
        np.fill_diagonal(m, 0.0)
        return m


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

        Returns a list of (a, b, piece) with a < b covering [t0, t1].  The
        piece callable expects the folded time for periodic schedules, so
        entries carry a closure that folds internally.
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
            if self.extension == "periodic":
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

    The contracts satisfy, for states x, y in the ball,
    <x - y, f_i(t, x) - f_j(t, y)> <= alpha(i, j, t) |x - y|^2 + beta(i, j, t)
    with beta >= 0.  Access is symmetrized at construction: alpha(i, j, t)
    equals alpha(j, i, t), likewise beta.  global_bounds marks bounds that do
    not depend on the radius; time_constant marks bounds that do not depend
    on t (enables fast certificate grids).
    """

    def __init__(self, n_nodes, rho, alpha, beta, global_bounds=False, time_constant=False):
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.n_nodes = int(n_nodes)
        self.rho = float(rho)
        self._alpha = alpha
        self._beta = beta
        self.global_bounds = bool(global_bounds)
        self.time_constant = bool(time_constant)

    def _order(self, i, j):
        if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes) or i == j:
            raise ValueError(f"invalid pair ({i}, {j}) for {self.n_nodes} nodes")
        return (i, j) if i < j else (j, i)

    def alpha(self, i: int, j: int, t: float) -> float:
        i, j = self._order(i, j)
        return float(self._alpha(i, j, t))

    def beta(self, i: int, j: int, t: float) -> float:
        i, j = self._order(i, j)
        v = float(self._beta(i, j, t))
        if v < 0:
            raise ValueError(f"beta({i}, {j}, {t}) = {v} is negative")
        return v

    def _ordered(self, iu, ju):
        """The pairs (iu[p], ju[p]) as (min, max) int lists, validated at once."""
        iu, ju = np.asarray(iu, dtype=np.int64), np.asarray(ju, dtype=np.int64)
        lo, hi = np.minimum(iu, ju), np.maximum(iu, ju)
        bad = np.nonzero((lo < 0) | (hi >= self.n_nodes) | (lo == hi))[0]
        if bad.size:
            self._order(int(iu[bad[0]]), int(ju[bad[0]]))  # raises, naming the pair
        return lo.tolist(), hi.tolist()

    def alpha_vec(self, iu, ju, t: float) -> np.ndarray:
        """alpha(iu[p], ju[p], t) for every p, as one vector."""
        lo, hi = self._ordered(iu, ju)
        return np.array([float(self._alpha(i, j, t)) for i, j in zip(lo, hi)])

    def beta_vec(self, iu, ju, t: float) -> np.ndarray:
        """beta(iu[p], ju[p], t) for every p; a negative value raises."""
        lo, hi = self._ordered(iu, ju)
        v = np.array([float(self._beta(i, j, t)) for i, j in zip(lo, hi)])
        neg = np.nonzero(v < 0)[0]
        if neg.size:
            p = int(neg[0])
            raise ValueError(f"beta({lo[p]}, {hi[p]}, {t}) = {v[p]} is negative")
        return v

    @classmethod
    def constant(cls, n_nodes, alpha, beta, rho, global_bounds=True):
        """Time-constant bounds; alpha, beta may be scalars or (n, n) arrays."""
        a = np.broadcast_to(np.asarray(alpha, dtype=float), (n_nodes, n_nodes)).copy()
        b = np.broadcast_to(np.asarray(beta, dtype=float), (n_nodes, n_nodes)).copy()
        if (b < 0).any():
            raise ValueError("beta must be nonnegative")
        a = 0.5 * (a + a.T)  # symmetrize, pairs are unordered
        b = 0.5 * (b + b.T)
        return cls(
            n_nodes,
            rho,
            lambda i, j, t: a[i, j],
            lambda i, j, t: b[i, j],
            global_bounds=global_bounds,
            time_constant=True,
        )


def pair_bounds_for_identical_nodes(n_nodes, l, rho, global_bounds=False):
    """Bounds for a network of identical nodes with Lipschitz coefficient l.

    l may be a scalar or a contract (t, r) -> coefficient on the ball of
    radius r; alpha(i, j, t) = l(t, rho) for every pair and beta vanishes
    identically, which forces the heterogeneity window bound to zero.
    """
    if np.isscalar(l):
        lv = float(l)
        return PairBoundSet(
            n_nodes, rho,
            lambda i, j, t: lv,
            lambda i, j, t: 0.0,
            global_bounds=True,
            time_constant=True,
        )
    return PairBoundSet(
        n_nodes, rho,
        lambda i, j, t: float(l(t, rho)),
        lambda i, j, t: 0.0,
        global_bounds=global_bounds,
        time_constant=False,
    )


@dataclass(frozen=True)
class ClusterSpec:
    """Ordered subset of node indices (0-based) singled out for analysis."""

    indices: tuple[int, ...]

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
        object.__setattr__(self, "indices", idx)

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

@dataclass(frozen=True)
class NetworkSystem:
    """N agents with diffusive coupling through a time-varying adjacency.

    Node i obeys  dx_i/dt = f_i(t, x_i) + c * sum_k a_ik(t) (x_k - x_i)
    with c = global_coupling.  stacked_rhs, when provided, must evaluate all
    node fields at once ((t, X (n, m)) -> (n, m)) and is used by the
    integrator as a fast path; it must agree with the per-node contracts.
    """

    nodes: tuple[NodeDynamics, ...]
    schedule: AdjacencySchedule
    global_coupling: float = 1.0
    stacked_rhs: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __init__(self, nodes, schedule, global_coupling=1.0, stacked_rhs=None):
        nodes = tuple(nodes)
        if not nodes:
            raise ValueError("need at least one node")
        dims = {nd.state_dim for nd in nodes}
        if len(dims) != 1:
            raise ValueError(f"all nodes must share one state_dim, got {sorted(dims)}")
        if len(nodes) != schedule.n_nodes:
            raise ValueError(
                f"{len(nodes)} nodes but schedule is for {schedule.n_nodes}"
            )
        if global_coupling < 0:
            raise ValueError("global_coupling must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "global_coupling", float(global_coupling))
        object.__setattr__(self, "stacked_rhs", stacked_rhs)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def state_dim(self) -> int:
        return self.nodes[0].state_dim

    def eval_nodes(self, t: float, X: np.ndarray) -> np.ndarray:
        """All node fields stacked into an (n, m) array."""
        if self.stacked_rhs is not None:
            out = np.asarray(self.stacked_rhs(t, X), dtype=float)
            if out.shape != X.shape:
                raise ValueError(
                    f"stacked_rhs returned shape {out.shape}, expected {X.shape}"
                )
            return out
        out = np.empty_like(X)
        for i, nd in enumerate(self.nodes):
            out[i] = nd(t, X[i])
        return out
