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


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise CliError(f"config field '{key}' is missing")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise CliError(f"config field '{key}' has the wrong type")
    return val


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return cfg


def _list_of(cfg: dict, key: str, kind) -> list:
    """cfg[key] as a list of kind, or CliError naming the field."""
    try:
        return [kind(v) for v in _require(cfg, key, list)]
    except (TypeError, ValueError) as exc:
        raise CliError(f"config field '{key}' is invalid: {exc}") from exc


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

def _build_nodes(spec: dict, n: int) -> NodeField:
    kind = _require(spec, "type", str)
    state_dim = int(spec.get("state_dim", 1))
    if kind == "zero":
        return NodeField(state_dim, lambda t, X: np.zeros_like(X))
    if kind == "linear_decay":
        rate = float(spec.get("rate", 1.0))
        forcing = spec.get("forcing_sin")
        d = np.zeros(n) if forcing is None else np.asarray(forcing, dtype=float)
        if d.shape != (n,):
            raise CliError(f"config field 'forcing_sin' must list {n} amplitudes")
        return NodeField(state_dim, lambda t, X: -rate * X + (d * math.sin(t))[:, None])
    raise CliError(f"unknown node type '{kind}'")


def _build_network(cfg: dict, seed: int) -> NetworkSystem:
    kind = _require(cfg, "kind", str)
    coupling = float(cfg.get("global_coupling", 1.0))
    if kind == "ring-contrarian":
        system = scenarios.build_contrarian_ring(
            int(_require(cfg, "n")),
            float(_require(cfg, "a")),
            float(_require(cfg, "a12")),
            time_varying=bool(cfg.get("time_varying", False)),
            rng=np.random.default_rng(seed),
        )
        return NetworkSystem(system.field, system.schedule, coupling)
    if kind in ("complete", "star"):
        n = int(_require(cfg, "n"))
        if kind == "complete":
            A = float(cfg.get("weight", 1.0)) * (np.ones((n, n)) - np.eye(n))
        else:
            A = scenarios.star_matrix(n, float(_require(cfg, "a")), float(_require(cfg, "b")))
        field = _build_nodes(cfg.get("nodes", {"type": "zero"}), n)
        return NetworkSystem(field, static_schedule(A), coupling)
    if kind == "explicit":
        sched_doc = _require(cfg, "schedule", dict)
        try:
            schedule = AdjacencySchedule.from_json_dict(sched_doc)
        except (KeyError, ValueError) as exc:
            raise CliError(f"config field 'schedule' is invalid: {exc}") from exc
        field = _build_nodes(_require(cfg, "nodes", dict), schedule.n_nodes)
        return NetworkSystem(field, schedule, coupling)
    raise CliError(f"unknown network kind '{kind}'")


def _build_bounds(cfg: dict, n: int) -> PairBoundSet:
    kind = _require(cfg, "kind", str)
    rho = float(_require(cfg, "rho"))
    if kind == "identical":
        return pair_bounds_for_identical_nodes(n, float(_require(cfg, "l")), rho)
    if kind == "constant":
        return PairBoundSet.constant(
            n, float(_require(cfg, "alpha")), float(_require(cfg, "beta")), rho
        )
    raise CliError(f"unknown bounds kind '{kind}'")


def _initial_state(cfg, n, m, seed):
    x0 = cfg.get("x0")
    if x0 is None:
        x0 = {"random": 1.0}
    if isinstance(x0, dict):
        scale = float(x0.get("random", 1.0))
        return np.random.default_rng(seed).uniform(-scale, scale, (n, m))
    arr = np.asarray(x0, dtype=float)
    if arr.shape != (n, m):
        raise CliError(f"config field 'x0' must be a {n}x{m} array")
    return arr


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg, args, out):
    system = _build_network(_require(cfg, "network", dict), args.seed)
    t0 = float(cfg.get("t0", 0.0))
    t_end = float(_require(cfg, "t_end"))
    x0 = _initial_state(cfg, system.n_nodes, system.state_dim, args.seed)
    solver = SolverConfig(
        method=str(cfg.get("method", "rk4")),
        dt=float(cfg.get("dt", 1e-3)),
        rtol=float(cfg.get("rtol", 1e-6)),
        atol=float(cfg.get("atol", 1e-9)),
        record_stride=int(cfg.get("record_stride", 10)),
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
    system = _build_network(_require(cfg, "network", dict), args.seed)
    bounds = _build_bounds(_require(cfg, "bounds", dict), system.n_nodes)
    horizon = float(_require(cfg, "horizon"))
    epsilon = float(cfg.get("epsilon", 1e-3))
    bound_m = float(cfg.get("bound_M", 1.0))
    kwargs = dict(
        t0=float(cfg.get("t0", 0.0)),
        grid_step=float(cfg.get("grid_step", 1e-2)),
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
        cluster = ClusterSpec([i - 1 for i in _list_of(cfg, "cluster", int)])  # 1-based in configs
    except ValueError as exc:
        raise CliError(f"config field 'cluster' is invalid: {exc}") from exc
    return _certify_common(cfg, args, out, cluster=cluster)


def _cmd_threshold(cfg, args, out):
    A = np.asarray(_require(cfg, "A", list), dtype=float)
    l_rho = float(_require(cfg, "l_rho"))
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
    seeds = params.pop("seeds", None)
    seeds = [] if seeds is None else _list_of(cfg, "seeds", int)
    accepted = inspect.signature(fn).parameters
    for key in params:
        if key not in accepted:
            raise CliError(f"config field '{key}' is not a parameter of scenario '{name}'")
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
    lin = _require(cfg, "linear", dict)
    a = float(lin.get("a", -1.0))
    b_sin = float(lin.get("sin", 0.0))
    b_const = float(lin.get("const", 0.0))
    dim = int(cfg.get("dim", 1))

    def rhs(t, x):
        return a * x + (b_sin * math.sin(t) + b_const)

    times = _list_of(cfg, "times", float)
    s_max = float(cfg.get("s_max", 64.0))
    tol = float(cfg.get("tol", 1e-8))
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
