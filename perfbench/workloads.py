"""The benchmark's workloads: seeded job lists and their output checks.

Every workload is a closed loop with one client: its jobs run back to back
in an order drawn from the workload seed, and each job's next call waits for
the previous one.  The multiset of job sizes is fixed per workload and only
the order, the random topologies, parameters and initial states come from
the seed, so the cost of a pass barely depends on the seed.

Jobs come in four families, each loading different layers:

* switching: CLI ``scenario vdp`` / ``scenario fhn`` over n = 5..30,
  writing CSVs and report.json.  Fixed-step RK4 on piecewise-constant
  segments, the coupling term and CSV writes do the work.
* functional: ``run_lorenz_star(perturb="sin")``, n = 5..10, with
  heterogeneous nodes on and off.  Adaptive RKF45 with rejections and a
  functional adjacency sampled at every stage; no CSV writes.
* comparison: ``ComparisonSystem.from_network``, ``comparison_solve`` and
  ``dominance_decay_check`` on seeded signed switching networks,
  n in {4, 10, 16} (P up to 120), constant bounds and a few small
  time-varying ones.  No network is integrated.
* certificates: many short CLI ``certify`` / ``cluster-certify`` /
  ``threshold`` / ``pullback-check`` jobs plus API certificate and coupled
  comparison checks.  Grid delta/gamma, mu1/mu2 sampling, pair-bound
  callbacks, JSON output and CLI overhead; nothing is integrated.

The workloads split them along the line between simulating and certifying,
so that a change to the integrator has a workload that exercises it and one
that bypasses it, and likewise a change to the comparison or certificate
layers:

* ``simulate``: the switching and functional families;
* ``certify``: the certificate and comparison families.

There are two workloads, not one per family, because steady medians on a
shared 2-core machine, whose speed drifted by about 15 % over tens of
seconds, needed runs of about a minute.

A job is (run, check): ``run`` is the timed call into tempsync; ``check``
inspects its result and files afterwards and returns an error message or
None.  Checks compare against ``oracle`` wherever a reference exists.  A
miss that the program's documented grid sampling explains is returned as a
``KnownDefect`` message (see there).
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("simulate", "certify")


class KnownDefect(str):
    """A check's failure message for an output that misses the segment-exact
    reference only because the program samples the schedule on its grid and
    skips every segment that holds no grid point (ROADMAP item 2): the output
    matches the same reference restricted to the program's grid.  The job
    counts as failed; the run's outputs still count as correct, since the
    program did what its grid semantics say.  Any other miss is an error."""


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    before: Callable[[], None] | None = None
    out: str | None = None              # output directory of a CLI job
    expected_evals: int | None = None   # RHS evaluations a fixed-step run must make


class Context:
    """tempsync's modules as imported for this run, a seeded generator and
    the run's scratch directory."""

    def __init__(self, ts, seed, workload, workdir):
        self.ts = ts
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.workdir = workdir
        self.count = 0
        self.notes = {"threshold_boundary_redraws": 0}

    def job_seed(self):
        return int(self.rng.integers(2**31 - 1))

    def paths(self):
        """(config path, out dir) for the next job."""
        self.count += 1
        return (os.path.join(self.workdir, "cfg", f"{self.count}.json"),
                os.path.join(self.workdir, "out", str(self.count)))


def build(ts, workload, seed, workdir):
    """Generate the job list of one workload and write its config files.
    Returns (jobs, notes): notes count what the generator had to redraw."""
    for sub in ("cfg", "out"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    ctx = Context(ts, seed, workload, workdir)
    if workload == "simulate":
        jobs = switching_jobs(ctx) + functional_jobs(ctx)
    else:
        jobs = certificate_jobs(ctx) + comparison_jobs(ctx)
    return [jobs[k] for k in ctx.rng.permutation(len(jobs))], ctx.notes


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cli_job(ctx, label, command, cfg, check):
    """A job running ``tempsync <command> --config cfg --out dir`` in process
    through ``tempsync.cli.dispatch``; ``check(code, out_dir)``."""
    cfg_path, out = ctx.paths()
    _write_json(cfg_path, cfg)
    argv = command.split() + ["--config", cfg_path, "--out", out,
                              "--seed", str(ctx.job_seed())]
    cli = ctx.ts.cli

    def before():
        shutil.rmtree(out, ignore_errors=True)

    def checked(code):
        if code not in (0, 2):
            return f"exit status {code}"
        return check(code, out)

    return Job(label, lambda: cli.dispatch(argv), checked, before, out)


# ---------------------------------------------------------------------------
# switching
# ---------------------------------------------------------------------------

# Fixed-step jobs cost the same at every seed, chaotic RKF45 jobs do not.  The
# 14 switching jobs with n <= 20 are the cheapest of the pass and outnumber
# the 8 others (n = 30 and the functional jobs), so the median job lies
# inside that cluster and job_s_p50 does not hop across a gap between two.
SWITCHING_SIZES = (5, 8, 10, 12, 15, 18, 20, 30)
SWITCHING_HORIZON = 3.0
SWITCHING_DT = 2.0 ** -9      # binary fractions keep the step counts exact
VDP_SEGMENT = 0.5


def fixed_step_evals(breaks, dt):
    """4 * sum of ceil(segment length / dt) over consecutive breakpoints."""
    return 4 * sum(math.ceil((Fraction(b) - Fraction(a)) / Fraction(dt))
                   for a, b in zip(breaks[:-1], breaks[1:]))


def switching_jobs(ctx):
    jobs = []
    for name, n in [(s, n) for n in SWITCHING_SIZES for s in ("vdp", "fhn")]:
        if name == "vdp":
            cfg = {"n_nodes": n, "horizon": SWITCHING_HORIZON, "dt": SWITCHING_DT,
                   "delta_t": VDP_SEGMENT, "c": float(ctx.rng.uniform(0.5, 3.0)),
                   "density": 0.5}
        else:
            cfg = {"n_nodes": n, "horizon": SWITCHING_HORIZON, "dt": SWITCHING_DT,
                   "density": 0.5, "metrics_start": 0.0,
                   "omega_l": float(ctx.rng.uniform(1.5, 2.5)),
                   "omega_k": float(ctx.rng.uniform(2.5, 3.5))}
        job = _cli_job(ctx, f"scenario {name} n={n}", f"scenario {name}", cfg,
                       lambda code, out, name=name, n=n: _check_scenario(name, n, code, out))
        if name == "vdp":
            k = math.ceil(SWITCHING_HORIZON / VDP_SEGMENT)
            breaks = [min(i * VDP_SEGMENT, SWITCHING_HORIZON) for i in range(k + 1)]
            job.expected_evals = fixed_step_evals(breaks, SWITCHING_DT)
        jobs.append(job)
    return jobs


def _check_scenario(name, n, code, out):
    report = _read_json(os.path.join(out, "report.json"))
    run = report["runs"][0]
    if code != (0 if run["passed"] else 2) or report["passed"] != run["passed"]:
        return f"exit status {code} disagrees with passed={run['passed']}"
    err, parsed = oracle.check_error_csvs(
        os.path.join(out, "trajectory.csv"), os.path.join(out, "errors.csv"), n, 2)
    if err:
        return err
    times, xi, e_hat = parsed
    if times[0] != 0.0 or times[-1] != SWITCHING_HORIZON:
        return f"trajectory spans [{times[0]}, {times[-1]}], not [0, {SWITCHING_HORIZON}]"
    m = run["metrics"]
    if name == "vdp":
        tail = times >= 0.75 * SWITCHING_HORIZON
        want = {"tail_max_e_hat": e_hat[tail].max(), "tail_mean_e_hat": e_hat[tail].mean(),
                "tail_max_xi": xi[tail].max()}
        for key, value in want.items():
            if not math.isclose(m[key], value, rel_tol=1e-12):
                return f"report {key}={m[key]} but errors.csv gives {value}"
    else:
        for key in ("l", "k"):
            w = m["windows"][key]
            if not math.isnan(w["ratio"]) and not math.isclose(
                    w["ratio"], w["in_window"] / w["out_window"], rel_tol=1e-12):
                return f"window ratio {key} inconsistent"
    return None


# ---------------------------------------------------------------------------
# functional
# ---------------------------------------------------------------------------

LORENZ_SIZES = (5, 7, 10)
LORENZ_HORIZON = 22.0     # the predicate compares t >= t_on + 20 against t < t_on
LORENZ_T_ON = 1.0


def functional_jobs(ctx):
    jobs = []
    for n, het in [(n, het) for n in LORENZ_SIZES for het in (False, True)]:
        # the directed star synchronizes only when a > (n - 1)|b|
        kw = dict(n_nodes=n, a=n + 2.0, b=-1.0, c=2.0, heterogeneous=het, perturb="sin",
                  seed=ctx.job_seed(), horizon=LORENZ_HORIZON, t_on=LORENZ_T_ON)
        scenarios = ctx.ts.scenarios
        jobs.append(Job(f"lorenz-star n={n} heterogeneous={het}",
                        lambda kw=kw: scenarios.run_lorenz_star(**kw),
                        lambda rep, het=het: _check_lorenz(rep, het)))
    return jobs


def _check_lorenz(report, heterogeneous):
    # Chaotic trajectories move with any legal change of floating-point
    # order, so the check is the predicate and the ratio's order of
    # magnitude: identical nodes synchronize (ratio far below the 1e-2
    # predicate), heterogeneous ones only approximately.
    m = report.metrics
    ratio = m["ratio"]
    if m["feasibility"] != "feasible-A" or not math.isfinite(m["tail_max_e_hat"]):
        return f"unexpected feasibility {m['feasibility']} or non-finite error"
    if report.passed != (ratio <= 1e-2):
        return f"passed={report.passed} disagrees with ratio {ratio}"
    if heterogeneous and not 1e-3 <= ratio <= 1.0:
        return f"heterogeneous ratio {ratio} outside [1e-3, 1]"
    if not heterogeneous and not ratio <= 1e-4:
        return f"identical-node ratio {ratio} above 1e-4"
    return None


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

# (n, time-varying bounds) of the comparison jobs of a pass
COMPARISON_SPECS = [(4, False)] * 2 + [(4, True)] * 2 + [(10, False)] * 3 + [(16, False)] * 3
COMPARISON_HORIZON = 2.0
COMPARISON_GRID = 21          # uniform decay-check grid over the horizon
COMPARISON_DT = 1e-2
TV_SWING = 0.3                # time-varying alpha swings in [alpha - 2 swing, alpha]


def signed_segments(rng, n, horizon, lengths, density=0.6, flip=0.2):
    """Piecewise-constant signed adjacency: (start, matrix) segments."""
    segs, t = [], 0.0
    while t < horizon:
        A = rng.uniform(0.2, 2.0, (n, n)) * (rng.random((n, n)) < density)
        A *= np.where(rng.random((n, n)) < flip, -1.0, 1.0)
        np.fill_diagonal(A, 0.0)
        segs.append((t, A))
        t += float(lengths(rng))
    return segs


def _stable_alpha(rng, segs, n):
    """Pair rates alpha_ij giving every segment delta < 0 and gamma >= 2 kappa
    with kappa in (0.2, 1): alpha = min over segments of (S - D/2) - kappa."""
    sums = [oracle.pair_sums(A, range(n)) for _, A in segs]
    worst = np.min([S - 0.5 * D for S, D in sums], axis=0)
    alpha = np.zeros((n, n))
    for (i, j), w in zip(oracle.pairs(range(n)), worst - rng.uniform(0.2, 1.0, len(worst))):
        alpha[i, j] = alpha[j, i] = w
    return alpha


def comparison_jobs(ctx):
    ts = ctx.ts
    jobs = []
    for n, tv in COMPARISON_SPECS:
        rng = np.random.default_rng(ctx.job_seed())
        segs = signed_segments(rng, n, COMPARISON_HORIZON, lambda r: r.uniform(0.3, 0.8))
        alpha = _stable_alpha(rng, segs, n)
        beta = rng.uniform(0.0, 0.1, (n, n))
        beta = 0.5 * (beta + beta.T)
        schedule = ts.model.build_switching_schedule(n, segs)
        system = ts.model.NetworkSystem([ts.model.zero_dynamics(1)] * n, schedule)
        if tv:
            w = rng.uniform(1.0, 3.0, (n, n))
            bounds = ts.model.PairBoundSet(
                n, 1.0,
                lambda i, j, t, a=alpha, w=w: a[i, j] + TV_SWING * (math.sin(w[i, j] * t) - 1.0),
                lambda i, j, t, b=beta, w=w: b[i, j] * (1.0 + 0.5 * math.sin(w[i, j] * t)))
            beta_max = 1.5 * beta
        else:
            bounds = ts.model.PairBoundSet.constant(n, alpha, beta, 1.0)
            beta_max = beta
        xi0 = rng.uniform(0.0, 1.0, n * (n - 1) // 2)
        _, gamma_exact = oracle.segment_margins(segs, 0.0, COMPARISON_HORIZON, 1.0, alpha,
                                                range(n))
        b_max = 2.0 * float(beta_max.max())
        margin_inf = (lambda segs=segs, alpha=alpha, w=w: _tv_margin_inf(segs, alpha, w)) \
            if tv else None
        jobs.append(Job(f"comparison n={n} time_varying={tv}",
                        _comparison_run(ts, system, bounds, xi0),
                        _comparison_check(xi0, gamma_exact, b_max, margin_inf)))
    return jobs


def _comparison_run(ts, system, bounds, xi0):
    cert = ts.certificates
    grid = np.linspace(0.0, COMPARISON_HORIZON, COMPARISON_GRID)
    cfg = ts.integrate.SolverConfig(dt=COMPARISON_DT)

    def run():
        cs = cert.ComparisonSystem.from_network(system, bounds)
        traj = cert.comparison_solve(cs, 0.0, xi0, COMPARISON_HORIZON, cfg)
        return traj, cert.dominance_decay_check(cs, grid)
    return run


def _tv_margin_inf(segs, alpha, w):
    """Inf over the horizon of the pair margin 2|delta| - D under the
    time-varying bounds, on a 1e-4 grid plus every switching time."""
    iu, ju = np.array(oracle.pairs(range(alpha.shape[0]))).T
    starts = [t for t, _ in segs]
    times = np.union1d(np.linspace(0.0, COMPARISON_HORIZON, 20001),
                       [t for t in starts if t <= COMPARISON_HORIZON])
    sums = [oracle.pair_sums(A, range(alpha.shape[0])) for _, A in segs]
    seg_of = oracle.active(starts, times)
    S = np.array([sums[k][0] for k in seg_of])
    D = np.array([sums[k][1] for k in seg_of])
    a = alpha[iu, ju] + TV_SWING * (np.sin(np.outer(times, w[iu, ju])) - 1.0)
    return float((2.0 * np.abs(a - S) - D).min())


def _comparison_check(xi0, gamma_exact, b_max, margin_inf=None):
    """``margin_inf`` (time-varying bounds only) gives the margin's inf over
    the horizon, which the grid infimum gamma_bar may overstate."""
    tv = margin_inf is not None

    def check(result):
        traj, decay = result
        if not (traj.times[0] == 0.0 and traj.times[-1] == COMPARISON_HORIZON
                and np.array_equal(traj.u[0], xi0)):
            return "comparison trajectory does not start at xi0 or end at the horizon"
        if not (np.isfinite(traj.u).all() and (traj.u >= 0).all()):
            return "comparison solution left the nonnegative cone"
        # row dominance with margin g: |u(t)| <= e^{-gt}|u0| + |b|/g (1 - e^{-gt})
        g = gamma_exact
        decay_t = np.exp(-g * traj.times)
        bound = decay_t * xi0.max() + b_max / g * (1.0 - decay_t)
        excess = traj.u.max(axis=1) / bound
        if excess.max() > 1.0 + 1e-4:
            return f"comparison solution exceeds its log-norm bound by {excess.max() - 1:.2e}"
        # constant bounds: gamma_bar is exact on every segment; time-varying
        # bounds only rise above the frozen worst case
        if tv:
            ok = decay.gamma_bar >= g - 1e-9 * (1.0 + abs(g))
        else:
            ok = math.isclose(decay.gamma_bar, g, rel_tol=1e-9, abs_tol=1e-12)
        if not ok:
            return f"gamma_bar {decay.gamma_bar} but the segments give {g}"
        if decay.verified != (decay.max_ratio <= 1.0 + 1e-6):
            return f"verified={decay.verified} disagrees with max_ratio {decay.max_ratio}"
        # The decay bound exp(-gamma_bar t) holds whenever the margin never
        # drops below gamma_bar.  gamma_bar is documented as the grid
        # infimum: with time-varying bounds the margin may dip below it
        # between grid points, and then the bound need not verify.
        if not decay.verified and not (tv and margin_inf() < decay.gamma_bar):
            return f"decay bound not verified (max_ratio {decay.max_ratio})"
        return None
    return check


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

# Sizes and horizons cycle through fixed ranges rather than being drawn, so
# the cost of a pass does not depend on the seed; weights, rates, signs and
# switching times are drawn.
CERTIFY_HORIZON = 2.5
GRID_STEP = 1e-2  # the certificates' default grid, also their mu1/mu2 window step


def cycle(q, lo, hi):
    return lo + q % (hi - lo + 1)


def ring_matrix(n, a, a12):
    """The contrarian ring of the CLI's ``ring-contrarian`` kind (static)."""
    A = np.zeros((n, n))
    for i in range(n):
        for off in (-2, -1, 1, 2):
            A[i, (i + off) % n] = 1.0
    if a == 0.0 and a12 == 0.0:
        return A
    A[0, :] = 0.0
    A[0, 1] = a12
    for i in (1, 2, n - 2, n - 1):
        A[i, 0] = -a
    return A


def star_matrix(n, a, b):
    A = np.zeros((n, n))
    A[1:, 0] = a
    A[0, 1:] = b
    return A


def exp_segments(rng, n, horizon, k, signed=True):
    """About k segments with exponential lengths: some are shorter than the
    certificate grid step, as switching times of real schedules can be."""
    return signed_segments(rng, n, horizon, lambda r: r.exponential(horizon / k),
                           density=0.7, flip=0.1 if signed else 0.0)


def schedule_doc(n, segs):
    return {"n": n, "extension": "constant",
            "segments": [{"t": t, "A": A.tolist()} for t, A in segs]}


def _mu2_upper(segs, c, cluster, rho):
    n = segs[0][1].shape[0]
    out = [k for k in range(n) if k not in cluster]
    worst = max((abs(c * (A[j, k] - A[i, k])) for _, A in segs
                 for i, j in oracle.pairs(cluster) for k in out), default=0.0)
    return 2.0 * rho * rho * worst


def _mu2_slack(segs, c, cluster, rho):
    """How far the mu2 of a certificate, a window integral sampled every
    GRID_STEP, may sit from the exact one: each jump in a unit window and each
    window end cost at most one step times the largest difference."""
    starts = np.array([t for t, _ in segs])
    per_window = max(int(np.sum((starts > s) & (starts <= s + 1.0))) for s in starts)
    return _mu2_upper(segs, c, cluster, rho) * GRID_STEP * (per_window + 2)


def _certificate_doc(out, code):
    cert = _read_json(os.path.join(out, "certificate.json"))
    report = _read_json(os.path.join(out, "report.json"))
    if report["certificate"] != cert:
        return None, "report.json and certificate.json disagree"
    status = cert["verdict_detail"]["status"]
    if code != (0 if status == "holds" else 2):
        return None, f"exit status {code} disagrees with verdict {cert['verdict']}"
    return cert, None


def _verdict_consistent(status, condition, gamma_bar, level, bound_M, delta_max=None):
    """The certificate's rule applied to its own reported numbers
    (certificate.json carries no delta_max, so only the API check passes it)."""
    level = oracle.threshold(level, bound_M) + oracle.MARGIN
    if status == "holds":
        return gamma_bar >= level and (delta_max is None or delta_max <= -oracle.MARGIN)
    if condition == "delta":
        return delta_max is None or delta_max > -oracle.MARGIN
    return gamma_bar < level


def _certify_check(segments=None, c=1.0, alpha=None, beta=0.0, rho=1.0, bound_M=1.0,
                   horizon=1.0, cluster=None):
    """Check of a CLI certificate; with ``segments`` (piecewise-constant
    schedule, constant bounds) its status must match the segment-exact
    oracle."""
    def check(code, out):
        cert, err = _certificate_doc(out, code)
        if err:
            return err
        status = cert["verdict_detail"]["status"]
        level = cert["mu1"] if cluster is None else cert["combined_mu"]
        if not _verdict_consistent(status, cert["verdict_detail"]["condition"],
                                   cert["gamma_bar"], level, cert["bound_M"]):
            return f"verdict {cert['verdict']} contradicts its own gamma_bar/mu"
        if segments is None:
            return None
        slack = 0.0 if cluster is None else _mu2_slack(segments, c, cluster, rho)
        args = (segments, 0.0, horizon, c, alpha, beta, rho, bound_M)
        want = oracle.certify_verdict(*args, cluster=cluster, mu2_slack=slack)
        if want in ("either", status):
            return None
        error = f"verdict {cert['verdict']} but the segment-exact oracle says {want}"
        on_grid = oracle.certify_verdict(*args, cluster=cluster, mu2_slack=slack,
                                         grid_step=GRID_STEP)
        if on_grid in ("either", status):
            return KnownDefect(f"{error}; a segment holds no grid point")
        return error
    return check


def _ring_jobs(ctx, count, time_varying):
    jobs = []
    for q in range(count):
        rng = ctx.rng
        n = cycle(q, 7, 12)
        a, a12 = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 2.0))
        c = float(rng.uniform(0.5, 3.0))
        l = float(rng.uniform(-3.0, 0.5))
        horizon = CERTIFY_HORIZON
        cfg = {"network": {"kind": "ring-contrarian", "n": n, "a": a, "a12": a12,
                           "time_varying": time_varying, "global_coupling": c},
               "bounds": {"kind": "identical", "l": l, "rho": 2.0},
               "horizon": horizon, "epsilon": 1e-3, "bound_M": 1.0}
        check = (_certify_check() if time_varying else
                 _certify_check([(0.0, ring_matrix(n, a, a12))], c, l, 0.0, 2.0, 1.0, horizon))
        jobs.append(_cli_job(ctx, f"certify ring n={n} tv={time_varying}", "certify", cfg, check))
    return jobs


def _static_jobs(ctx, count, kind):
    jobs = []
    for q in range(count):
        rng = ctx.rng
        if kind == "complete":
            n = cycle(q, 3, 12)
            w = float(rng.uniform(0.2, 2.0))
            net = {"kind": "complete", "n": n, "weight": w}
            A = w * (np.ones((n, n)) - np.eye(n))
        else:
            n = cycle(q, 4, 12)
            a, b = float(rng.uniform(0.5, 4.0)), float(rng.uniform(-1.0, 1.0))
            net = {"kind": "star", "n": n, "a": a, "b": b}
            A = star_matrix(n, a, b)
        c = float(rng.uniform(0.5, 2.0))
        net.update(global_coupling=c, nodes={"type": "linear_decay",
                                             "rate": float(rng.uniform(0.5, 2.0))})
        alpha, beta, rho = float(rng.uniform(-2.0, 0.5)), float(rng.uniform(0.0, 0.05)), 2.0
        mu1 = 2.0 * beta * math.sqrt(n * (n - 1) / 2.0)
        bound_M = mu1 * float(rng.uniform(1.5, 6.0)) + 0.01
        horizon = CERTIFY_HORIZON
        cfg = {"network": net,
               "bounds": {"kind": "constant", "alpha": alpha, "beta": beta, "rho": rho},
               "horizon": horizon, "epsilon": 1e-3, "bound_M": bound_M}
        jobs.append(_cli_job(ctx, f"certify {kind} n={n}", "certify", cfg,
                             _certify_check([(0.0, A)], c, alpha, beta, rho, bound_M, horizon)))
    return jobs


def _explicit_jobs(ctx, count, clustered):
    jobs = []
    for q in range(count):
        rng = ctx.rng
        n = cycle(q, 3, 8) + (2 if clustered else 0)
        horizon = CERTIFY_HORIZON
        segs = exp_segments(rng, n, horizon, cycle(q, 5, 40))
        c = float(rng.uniform(0.5, 2.0))
        alpha, beta, rho = float(rng.uniform(-4.0, 0.5)), float(rng.uniform(0.0, 0.05)), 1.0
        cfg = {"network": {"kind": "explicit", "schedule": schedule_doc(n, segs),
                           "global_coupling": c,
                           "nodes": {"type": "linear_decay", "rate": 1.0,
                                     "forcing_sin": rng.uniform(-1, 1, n).tolist()}},
               "bounds": {"kind": "constant", "alpha": alpha, "beta": beta, "rho": rho},
               "horizon": horizon, "epsilon": 1e-3}
        cluster = None
        m = len(oracle.pairs(range(n)))
        level = 2.0 * beta * math.sqrt(m)
        if clustered:
            size = cycle(q, 2, n - 2)
            cluster = sorted(int(k) for k in rng.choice(n, size, replace=False))
            cfg["cluster"] = [k + 1 for k in cluster]
            level = oracle.heterogeneity(2.0 * beta * math.sqrt(size * (size - 1) / 2.0),
                                         _mu2_upper(segs, c, cluster, rho), n, cluster)
        cfg["bound_M"] = bound_M = level * float(rng.uniform(1.5, 6.0)) + 0.01
        command = "cluster-certify" if clustered else "certify"
        jobs.append(_cli_job(ctx, f"{command} explicit n={n} segments={len(segs)}", command,
                             cfg, _certify_check(segs, c, alpha, beta, rho, bound_M, horizon,
                                                 cluster)))
    return jobs


def known_defect_job(ctx):
    """Three nodes, A = ones switching to A = 0 on [1.001, 1.009): the 1e-2
    grid has no point in the zero segment, where delta = alpha > 0."""
    ones = np.ones((3, 3)) - np.eye(3)
    segs = [(0.0, ones), (1.001, np.zeros((3, 3))), (1.009, ones)]
    cfg = {"network": {"kind": "explicit", "schedule": schedule_doc(3, segs),
                       "nodes": {"type": "zero"}},
           "bounds": {"kind": "constant", "alpha": 0.5, "beta": 0.0, "rho": 1.0},
           "horizon": 2.0, "epsilon": 1e-3, "bound_M": 1.0, "grid_step": 1e-2}
    return _cli_job(ctx, "certify short zero segment", "certify", cfg,
                    _certify_check(segs, 1.0, 0.5, 0.0, 1.0, 1.0, 2.0))


def _threshold_matrix(rng, n):
    A = rng.uniform(0.2, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    A *= np.where(rng.random((n, n)) < 0.15, -1.0, 1.0)
    np.fill_diagonal(A, 0.0)
    return A


def _threshold_jobs(ctx, count):
    # Sparse draws often give a pair whose hypothesis value 2 S - D is 0 in
    # exact arithmetic.  Such a topology sits on the feasibility boundary:
    # the program's rounded sums put the pair on either side, and on the
    # feasible side its bisection for a coupling near 1e16, to an absolute
    # width of 1e-9 that float spacing there cannot reach, never ends.
    # Boundary draws are drawn again and counted in the run's notes.
    jobs = []
    for q in range(count):
        rng = ctx.rng
        n = cycle(q, 3, 10)
        while True:
            A, l_rho = _threshold_matrix(rng, n), float(rng.uniform(0.1, 2.0))
            hyp, c_star = oracle.static_threshold(A, l_rho)
            if min(map(abs, hyp.values())) > 1e-9 * (1.0 + max(map(abs, hyp.values()))):
                break
            ctx.notes["threshold_boundary_redraws"] += 1

        def check(code, out, hyp=hyp, c_star=c_star):
            report = _read_json(os.path.join(out, "report.json"))
            if not report["feasible"]:
                # the first pair whose hypothesis value is not positive
                pair = tuple(k - 1 for k in report["pair"])
                if code == 2 and pair == next(p for p, h in hyp.items() if h <= 0):
                    return None
                return f"infeasible pair {pair} but the hypothesis values say otherwise"
            if c_star is None:
                return f"c_bar {report['c_bar']} but pair hypothesis fails"
            if code != 0 or abs(report["c_bar"] - c_star) > 1e-8 * max(1.0, c_star):
                return f"c_bar {report['c_bar']} but the closed form gives {c_star}"
            return None
        jobs.append(_cli_job(ctx, f"threshold n={n}", "threshold",
                             {"A": A.tolist(), "l_rho": l_rho}, check))
    return jobs


def _pullback_jobs(ctx, count):
    jobs = []
    for _ in range(count):
        rng = ctx.rng
        # a <= -3.5 converges at depth 8 for every draw, so the cost is fixed
        a, s, k = float(rng.uniform(-4.0, -3.5)), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        times = [float(rng.uniform(0.0, 10.0))]
        cfg = {"linear": {"a": a, "sin": s, "const": k}, "times": times,
               "s_max": 64.0, "dt": 1e-2, "tol": 1e-6}

        def check(code, out, a=a, s=s, k=k):
            report = _read_json(os.path.join(out, "report.json"))
            if code != 0 or not report["converged"]:
                return "pullback did not converge"
            for r in report["results"]:
                exact = oracle.pullback_exact(a, s, k, r["t"])
                if abs(r["state"][0] - exact) > 1e-6:
                    return f"pullback state {r['state'][0]} at t={r['t']}, exact {exact}"
            return None
        jobs.append(_cli_job(ctx, "pullback-check", "pullback-check", cfg, check))
    return jobs


def _tv_bound_jobs(ctx, count):
    """API certificates with time-varying pair bounds on explicit schedules.
    Their grid is the documented check, so the reference recomputes delta
    and gamma at the certificate's own grid times."""
    ts = ctx.ts
    jobs = []
    for q in range(count):
        rng = ctx.rng
        n = cycle(q // 2, 4, 7)
        horizon = CERTIFY_HORIZON
        segs = exp_segments(rng, n, horizon, cycle(q, 5, 20))
        a0, amp = float(rng.uniform(-4.0, 0.0)), float(rng.uniform(0.1, 0.5))
        b0, w = float(rng.uniform(0.0, 0.05)), float(rng.uniform(1.0, 3.0))
        bounds = ts.model.PairBoundSet(
            n, 1.0, lambda i, j, t, a0=a0, amp=amp, w=w: a0 + amp * math.sin(w * t + i - j),
            lambda i, j, t, b0=b0, w=w: b0 * (1.0 + 0.5 * math.sin(w * t)))
        system = ts.model.NetworkSystem([ts.model.zero_dynamics(1)] * n,
                                        ts.model.build_switching_schedule(n, segs))
        cluster = None
        if q % 2:
            cluster = sorted(int(k) for k in rng.choice(n, cycle(q // 2, 2, n - 1),
                                                        replace=False))
        nodes = list(range(n)) if cluster is None else cluster
        pl = oracle.pairs(nodes)
        level_hi = 3.0 * b0 * math.sqrt(len(pl))
        if cluster is not None:
            level_hi = oracle.heterogeneity(level_hi, _mu2_upper(segs, 1.0, cluster, 1.0),
                                            n, cluster)
        bound_M = level_hi * float(rng.uniform(1.5, 6.0)) + 0.01
        cert = ts.certificates

        def run(system=system, bounds=bounds, cluster=cluster, horizon=horizon,
                bound_M=bound_M):
            if cluster is None:
                return cert.check_full_sync(system, bounds, horizon, bound_M, 1e-3)
            return cert.check_cluster_sync(system, bounds, ts.model.ClusterSpec(cluster),
                                           horizon, bound_M, 1e-3)

        def check(c, segs=segs, nodes=nodes, pl=pl, a0=a0, amp=amp, w=w, b0=b0,
                  horizon=horizon, cluster=cluster):
            times = oracle.certificate_grid(0.0, horizon, GRID_STEP)
            seg_of = oracle.active([t for t, _ in segs], times)
            sums = [oracle.pair_sums(A, nodes) for _, A in segs]
            phase = np.array([i - j for i, j in pl])
            delta = np.array([a0 + amp * np.sin(w * t + phase) - sums[s][0]
                              for t, s in zip(times, seg_of)])
            gamma = 2.0 * np.abs(delta) - np.array([sums[s][1] for s in seg_of])
            if not math.isclose(c.gamma_bar, gamma.min(), rel_tol=1e-9, abs_tol=1e-12):
                return f"gamma_bar {c.gamma_bar} but the grid gives {gamma.min()}"
            # beta swings between b0/2 and 3 b0/2 on every pair
            if not b0 * math.sqrt(len(pl)) * (1 - 1e-12) <= c.mu1 <= \
                    3.0 * b0 * math.sqrt(len(pl)) * (1 + 1e-12):
                return f"mu1 {c.mu1} outside its envelope"
            level = c.mu1 if cluster is None else c.combined_mu
            if cluster is not None:
                exact = oracle.mu2_exact(segs, 0.0, horizon, 1.0, cluster, 1.0)
                if abs(c.mu2 - exact) > _mu2_slack(segs, 1.0, cluster, 1.0):
                    return f"mu2 {c.mu2} too far from the exact {exact}"
            if not _verdict_consistent(c.verdict.status, c.verdict.condition, c.gamma_bar,
                                       level, c.bound_M, float(delta.max())):
                return f"verdict {c.verdict.render()} contradicts the grid reference"
            return None
        jobs.append(Job(f"api {'cluster' if cluster else 'full'} tv-bounds n={n}", run, check))
    return jobs


def _coupled_jobs(ctx, count):
    ts = ctx.ts
    jobs = []
    for q in range(count):
        rng = ctx.rng
        n = cycle(q, 3, 7)
        horizon = CERTIFY_HORIZON
        segs = exp_segments(rng, n, horizon, cycle(q, 5, 20), signed=False)
        c = float(rng.uniform(0.2, 1.0))
        rowmax = max(float((c * A).sum(axis=1).max()) for _, A in segs)
        rates = (-2.0 * rowmax - rng.uniform(-0.5, 1.0, n)).tolist()
        system = ts.model.NetworkSystem([ts.model.zero_dynamics(1)] * n,
                                        ts.model.build_switching_schedule(n, segs), c)
        grid = np.linspace(0.0, horizon, 201)
        att = ts.attractors

        def check(res, segs=segs, c=c, rates=rates, horizon=horizon, grid=grid):
            def agrees(gamma):
                return (math.isclose(res.gamma, gamma, rel_tol=1e-9, abs_tol=1e-12)
                        and res.verdict == (max(rates) < 0 and gamma > 0))

            exact = oracle.coupled_gamma(segs, 0.0, horizon, c, rates)
            if agrees(exact):
                return None
            error = f"coupled gamma {res.gamma}, verdict {res.verdict}; the segments give {exact}"
            if agrees(oracle.coupled_gamma(segs, 0.0, horizon, c, rates, grid)):
                return KnownDefect(f"{error}; a segment holds no grid point")
            return error
        jobs.append(Job(f"coupled-comparison n={n}",
                        lambda system=system, rates=rates, grid=grid:
                        att.coupled_comparison_check(system, rates, grid), check))
    return jobs


# jobs per pass of each certificate kind
CERTIFY_MIX = {"ring": 10, "ring-tv": 5, "complete": 8, "star": 7, "explicit": 10,
               "cluster": 5, "threshold": 8, "api-tv": 4, "pullback": 2, "coupled": 2}


def certificate_jobs(ctx):
    mix = CERTIFY_MIX
    return (_ring_jobs(ctx, mix["ring"], False) + _ring_jobs(ctx, mix["ring-tv"], True)
            + _static_jobs(ctx, mix["complete"], "complete")
            + _static_jobs(ctx, mix["star"], "star")
            + _explicit_jobs(ctx, mix["explicit"], False)
            + _explicit_jobs(ctx, mix["cluster"], True)
            + [known_defect_job(ctx)] + _threshold_jobs(ctx, mix["threshold"])
            + _tv_bound_jobs(ctx, mix["api-tv"]) + _pullback_jobs(ctx, mix["pullback"])
            + _coupled_jobs(ctx, mix["coupled"]))
