"""Command-line front end: config loading, dispatch, deterministic seeding.

Exit status contract: 0 on success with all declared files written; 2 when
the run itself succeeded but the analysis verdict is negative (certificate
fails, scenario predicate false, infeasible topology, pullback did not
converge), with machine-readable detail in report.json; 1 on usage, schema
and I/O errors, and when an integration fails (a diverging simulation).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys

import numpy as np

from . import scenarios
from .attractors import pullback_trajectory
from .certificates import (
    InfeasibleTopologyError,
    check_cluster_sync,
    check_full_sync,
    static_threshold,
)
from .integrate import IntegrationError, SolverConfig, _write_json, integrate, pairwise_errors
from .model import (
    AdjacencySchedule,
    ClusterSpec,
    NetworkSystem,
    NodeField,
    PairBoundSet,
    pair_bounds_for_identical_nodes,
    static_schedule,
)


class CliError(Exception):
    """Usage/schema error; rendered to stderr and mapped to exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit 1, not argparse's 2
        raise CliError(message)


_MISSING = object()


def _is(val, kind) -> bool:
    """Whether a JSON value is of kind; a number (float) or int is never true/false."""
    return isinstance(val, (int, float) if kind is float else kind) and (
        kind is bool or not isinstance(val, bool))


def _field(cfg: dict, key: str, kind, default=_MISSING):
    """cfg[key] checked against kind, or default if the key is absent.

    kind is float (any number, returned as a float), int, bool, str, dict,
    list, [float] or [int] (a list of such values) or np.ndarray (a nested
    list of numbers, returned as a float array).  A missing key without a
    default or a value of another kind raises CliError naming the field.
    """
    if key not in cfg:
        if default is _MISSING:
            raise CliError(f"config field '{key}' is missing")
        return default
    val = cfg[key]
    item = kind[0] if isinstance(kind, list) else float if kind is np.ndarray else None
    if not _is(val, kind if item is None else list):
        raise CliError(f"config field '{key}' has the wrong type")
    if item is None:
        return float(val) if kind is float else val
    # a ragged entry of a nested list stays a list in the object array, which is no number
    entries = np.array(val, dtype=object).ravel() if kind is np.ndarray else val
    bad = [v for v in entries if not _is(v, item)]
    if bad:
        raise CliError(f"config field '{key}' is invalid: {bad[0]!r} is not "
                       f"{'an integer' if item is int else 'a number'}")
    return np.array(val, dtype=float) if kind is np.ndarray else [item(v) for v in val]


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

def _build_nodes(spec: dict, n: int) -> NodeField:
    kind = _field(spec, "type", str)
    state_dim = _field(spec, "state_dim", int, 1)
    if kind == "zero":
        return NodeField(state_dim, lambda t, X: np.zeros_like(X))
    if kind == "linear_decay":
        rate = _field(spec, "rate", float, 1.0)
        d = _field(spec, "forcing_sin", np.ndarray, np.zeros(n))
        if d.shape != (n,):
            raise CliError(f"config field 'forcing_sin' must list {n} amplitudes")
        return NodeField(state_dim, lambda t, X: -rate * X + (d * math.sin(t))[:, None])
    raise CliError(f"unknown node type '{kind}'")


def _build_network(cfg: dict, seed: int) -> NetworkSystem:
    kind = _field(cfg, "kind", str)
    coupling = _field(cfg, "global_coupling", float, 1.0)
    if kind == "ring-contrarian":
        system = scenarios.build_contrarian_ring(
            _field(cfg, "n", int),
            _field(cfg, "a", float),
            _field(cfg, "a12", float),
            time_varying=_field(cfg, "time_varying", bool, False),
            rng=np.random.default_rng(seed),
        )
        return NetworkSystem(system.field, system.schedule, coupling)
    if kind in ("complete", "star"):
        n = _field(cfg, "n", int)
        if kind == "complete":
            A = _field(cfg, "weight", float, 1.0) * (np.ones((n, n)) - np.eye(n))
        else:
            A = scenarios.star_matrix(n, _field(cfg, "a", float), _field(cfg, "b", float))
        field = _build_nodes(_field(cfg, "nodes", dict, {"type": "zero"}), n)
        return NetworkSystem(field, static_schedule(A), coupling)
    if kind == "explicit":
        sched_doc = _field(cfg, "schedule", dict)
        try:
            schedule = AdjacencySchedule.from_json_dict(sched_doc)
        except (KeyError, ValueError) as exc:
            raise CliError(f"config field 'schedule' is invalid: {exc}") from exc
        field = _build_nodes(_field(cfg, "nodes", dict), schedule.n_nodes)
        return NetworkSystem(field, schedule, coupling)
    raise CliError(f"unknown network kind '{kind}'")


def _build_bounds(cfg: dict, n: int) -> PairBoundSet:
    kind = _field(cfg, "kind", str)
    rho = _field(cfg, "rho", float)
    if kind == "identical":
        return pair_bounds_for_identical_nodes(n, _field(cfg, "l", float), rho)
    if kind == "constant":
        return PairBoundSet.constant(
            n, _field(cfg, "alpha", float), _field(cfg, "beta", float), rho
        )
    raise CliError(f"unknown bounds kind '{kind}'")


def _initial_state(cfg, n, m, seed):
    x0 = cfg.get("x0", {})
    if isinstance(x0, dict):
        scale = _field(x0, "random", float, 1.0)
        return np.random.default_rng(seed).uniform(-scale, scale, (n, m))
    arr = _field(cfg, "x0", np.ndarray)
    if arr.shape != (n, m):
        raise CliError(f"config field 'x0' must be a {n}x{m} array")
    return arr


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg, args, out):
    system = _build_network(_field(cfg, "network", dict), args.seed)
    t0 = _field(cfg, "t0", float, 0.0)
    t_end = _field(cfg, "t_end", float)
    x0 = _initial_state(cfg, system.n_nodes, system.state_dim, args.seed)
    solver = SolverConfig(
        method=_field(cfg, "method", str, "rk4"),
        dt=_field(cfg, "dt", float, 1e-3),
        rtol=_field(cfg, "rtol", float, 1e-6),
        atol=_field(cfg, "atol", float, 1e-9),
        record_stride=_field(cfg, "record_stride", int, 10),
    )
    traj = integrate(system, t0, x0, t_end, solver)
    err = pairwise_errors(traj)
    traj.to_csv(os.path.join(out, "trajectory.csv"))
    err.to_csv(os.path.join(out, "errors.csv"))
    _write_json(
        os.path.join(out, "report.json"),
        {
            "command": "simulate",
            "seed": args.seed,
            "t0": t0,
            "t_end": t_end,
            "samples": len(traj.times),
            "final_max_xi": float(err.xi[-1].max()),
            "files": {"trajectory": "trajectory.csv", "errors": "errors.csv"},
        },
    )
    return 0


def _certify_common(cfg, args, out, cluster=None):
    system = _build_network(_field(cfg, "network", dict), args.seed)
    bounds = _build_bounds(_field(cfg, "bounds", dict), system.n_nodes)
    horizon = _field(cfg, "horizon", float)
    epsilon = _field(cfg, "epsilon", float, 1e-3)
    bound_m = _field(cfg, "bound_M", float, 1.0)
    kwargs = dict(
        t0=_field(cfg, "t0", float, 0.0),
        grid_step=_field(cfg, "grid_step", float, 1e-2),
    )
    try:
        if cluster is None:
            cert = check_full_sync(system, bounds, horizon, bound_m, epsilon, **kwargs)
        else:
            cert = check_cluster_sync(
                system, bounds, cluster, horizon, bound_m, epsilon, **kwargs
            )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    cert.write_json(os.path.join(out, "certificate.json"))
    _write_json(
        os.path.join(out, "report.json"),
        {
            "command": "certify" if cluster is None else "cluster-certify",
            "seed": args.seed,
            "certificate": cert.to_json_dict(),
            "files": {"certificate": "certificate.json"},
        },
    )
    return 0 if cert.verdict.holds else 2


def _cmd_cluster_certify(cfg, args, out):
    try:
        cluster = ClusterSpec([i - 1 for i in _field(cfg, "cluster", [int])])  # 1-based in configs
    except ValueError as exc:
        raise CliError(f"config field 'cluster' is invalid: {exc}") from exc
    return _certify_common(cfg, args, out, cluster=cluster)


def _cmd_threshold(cfg, args, out):
    A = _field(cfg, "A", np.ndarray)
    l_rho = _field(cfg, "l_rho", float)
    try:
        doc = {"command": "threshold", "feasible": True, "c_bar": static_threshold(A, l_rho)}
    except InfeasibleTopologyError as exc:
        doc = {"command": "threshold", "feasible": False, "pair": list(exc.pair),
               "hypothesis_value": exc.value}
    _write_json(os.path.join(out, "report.json"), doc)
    return 0 if doc["feasible"] else 2


_SCENARIOS = {
    "vdp": scenarios.run_vdp,
    "ring": scenarios.run_ring_contrarian,
    "fhn": scenarios.run_fhn_clusters,
    "lorenz-star": scenarios.run_lorenz_star,
}


def _workers(args) -> int:
    """--workers, else SYNC_TOOLKIT_WORKERS, else 1; an integer >= 1."""
    source, raw = "--workers", args.workers
    if raw is None:
        source, raw = "SYNC_TOOLKIT_WORKERS", os.environ.get("SYNC_TOOLKIT_WORKERS") or "1"
    if not raw.isdecimal() or int(raw) < 1:
        raise CliError(f"{source} must be an integer >= 1, got {raw}")
    return int(raw)


def _cmd_scenario(cfg, args, out):
    name = args.name
    fn = _SCENARIOS[name]
    workers = _workers(args)
    params = dict(cfg)
    seeds = _field(params, "seeds", [int], [])
    params.pop("seeds", None)
    accepted = inspect.signature(fn).parameters
    for key in params:
        if key not in accepted:
            raise CliError(f"config field '{key}' is not a parameter of scenario '{name}'")
        default = accepted[key].default
        if default is not None:  # checked only: a 30 for a float stays 30 in report.json
            _field(params, key, type(default))
    if seeds:
        jobs = [dict(params, seed=s, out_dir=os.path.join(out, f"seed_{s}")) for s in seeds]
        reports = scenarios.run_jobs(fn, jobs, workers=workers)
    else:
        params.setdefault("seed", args.seed)
        params["out_dir"] = out
        reports = [fn(**params)]
    doc = {
        "command": f"scenario {name}",
        "runs": [r.to_json_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    _write_json(os.path.join(out, "report.json"), doc)
    return 0 if doc["passed"] else 2


def _cmd_pullback_check(cfg, args, out):
    lin = _field(cfg, "linear", dict)
    a = _field(lin, "a", float, -1.0)
    b_sin = _field(lin, "sin", float, 0.0)
    b_const = _field(lin, "const", float, 0.0)
    dim = _field(cfg, "dim", int, 1)

    def rhs(t, x):
        return a * x + (b_sin * math.sin(t) + b_const)

    times = _field(cfg, "times", [float])
    s_max = _field(cfg, "s_max", float, 64.0)
    tol = _field(cfg, "tol", float, 1e-8)
    results = []
    all_ok = True
    for t in times:
        est = pullback_trajectory(rhs, t, s_max, np.zeros(dim), tol=tol)
        results.append(
            {
                "t": t,
                "state": est.state.tolist(),
                "gap": est.gap,
                "depth": est.depth,
                "converged": est.converged,
            }
        )
        all_ok = all_ok and est.converged
    _write_json(
        os.path.join(out, "report.json"),
        {"command": "pullback-check", "results": results, "converged": all_ok},
    )
    return 0 if all_ok else 2


_COMMANDS = {
    "simulate": _cmd_simulate,
    "certify": _certify_common,
    "cluster-certify": _cmd_cluster_certify,
    "threshold": _cmd_threshold,
    "scenario": _cmd_scenario,
    "pullback-check": _cmd_pullback_check,
}

# The float options of each command besides --config, --out, --seed and --workers,
# each stored under the config key it overrides (dotted: a field of an object).
_CERTIFY_FLAGS = {"--t-end": "horizon", "--c": "network.global_coupling",
                  "--epsilon": "epsilon", "--bound-M": "bound_M"}
_FLAGS = {
    "simulate": {"--t-end": "t_end", "--dt": "dt", "--c": "network.global_coupling"},
    "certify": _CERTIFY_FLAGS,
    "cluster-certify": _CERTIFY_FLAGS,
    "threshold": {},
    "scenario": {"--t-end": "horizon", "--dt": "dt", "--c": "c"},
    "pullback-check": {},
}


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; parse_args keeps no state between calls."""
    parser = _Parser(prog="tempsync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)  # threshold --c is not --config
        if name == "scenario":
            p.add_argument("name", choices=_SCENARIOS)
            p.add_argument("--workers", default=None)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=0)
        for flag, key in _FLAGS[name].items():
            p.add_argument(flag, dest=key, type=float, default=None)
    return parser


def dispatch(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.seed < 0:
            raise CliError("--seed must be a nonnegative integer")
        cfg = _load_config(args.config)
        # each given flag overrides its config key; if the key's parent object
        # is missing, the flag is dropped and the command reports the parent
        for key in _FLAGS[args.command].values():
            parent, _, leaf = key.rpartition(".")
            node = cfg.get(parent) if parent else cfg
            if getattr(args, key) is not None and isinstance(node, dict):
                node[leaf] = getattr(args, key)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args, args.out)
    except (CliError, IntegrationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
