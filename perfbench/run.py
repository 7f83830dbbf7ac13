#!/usr/bin/env python3
"""Outside-in benchmark of tempsync, end to end and layer by layer.

Run one workload from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 55 --trace 0

Workloads: simulate, certify (see perfbench/workloads.py for what each
stresses and why).  The program is imported from ./src; nothing is
installed.

Each run sets up the workload several times (fresh import of tempsync,
input generation, config files) and reports the median set-up time.  It
then runs passes over the seeded job list, back to back in one process,
until the next pass would overrun ``--seconds`` (at least one pass).  Every
job's output is checked; a job fails when it raises, exits 1 through the
CLI, or misses its check.  The result's ``correct`` is false when a job
fails for any reason other than the known grid-sampling defect of ROADMAP
item 2 (``workloads.KnownDefect``); those jobs still count in ``failed``.

With ``--trace 0`` the end-to-end metrics are reported:

* ``setup_s``      median set-up time;
* ``run_s``        median wall time of a pass over the whole job list;
* ``job_s_p50``    median per-job wall time over all passes;
* ``job_s_tail``   the highest per-job percentile of 50/75/90/99 that has
                   at least 10 jobs beyond it (named in the info line); the
                   coarse ladder keeps the percentile fixed per workload
                   while the pass count varies a little;
* ``peak_rss_mb``  the process's peak resident set size.

With ``--trace 1`` passes alternate untraced and traced, and the per-layer
metrics of the traced passes are reported per pass (see tracer.py), plus
``bench.trace_overhead_frac``, the traced over the untraced median pass
time minus one.

Standard output is a table of the metrics with units, including
``fail_frac`` (failed over attempted jobs), then two JSON lines: an info
line (machine, passes and their times, tail percentile, fail_frac, failures
and how many of them are the known defect, the generator's redraw counts,
absent layers, the RHS count identity) and the result line
``{"correct", "attempted", "failed", "metrics"}``.

Compare two sets of runs, each the concatenated standard output of any
number of runs (``... >> runs_a.txt``):

    python3 perfbench/run.py --compare runs_a.txt runs_b.txt

prints, per workload, each end-to-end metric's median ratio B/A and whether
it stays within the bound in BENCHMARK.json, then the per-layer ratios.
"""

import os

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)  # before numpy is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import EVALS, Tracer  # noqa: E402

SETUP_REPEATS = 11
TAIL_PERCENTILES = (99, 90, 75, 50)

END_TO_END = {"setup_s": "s", "run_s": "s", "job_s_p50": "s", "job_s_tail": "s",
              "peak_rss_mb": "MB"}

_CALLS_AND_SELF = ("model.eval_nodes", "model.schedule.sample", "model.pair_bounds",
                   "kernels.coupling_term", "kernels.delta_gamma",
                   "kernels.assemble_comparison", "certificates.comparison_solve",
                   "certificates.dominance_decay_check", "certificates.check_sync")
_SELF_ONLY = ("integrate.integrate", "integrate.pairwise_errors", "integrate.to_csv",
              "kernels.rk4_linear", "kernels.rk4_principal", "kernels.pair_series",
              "certificates.compute_mu1", "certificates.compute_mu2",
              "certificates.static_threshold", "attractors.pullback_trajectory",
              "attractors.coupled_comparison_check", "scenarios.run", "cli.dispatch")
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in _CALLS_AND_SELF},
    **{f"{layer}.self_s": "s" for layer in _CALLS_AND_SELF + _SELF_ONLY},
    "integrate.us_per_rhs_eval": "us",
    "integrate.steps_accepted": "count",
    "integrate.steps_rejected": "count",
    "integrate.accept_ratio": "fraction",
    "integrate.csv_bytes": "bytes",
    "bench.trace_overhead_frac": "fraction",
}


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_tempsync():
    """Import tempsync from ./src afresh; returns its submodules by name."""
    if not os.path.isfile(os.path.join(SRC, "tempsync", "__init__.py")):
        raise UsageError(f"no tempsync package under {SRC}; run from a repository checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "tempsync" or m.startswith("tempsync.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        sub: importlib.import_module(f"tempsync.{sub}")
        for sub in ("cli", "model", "integrate", "certificates", "attractors", "scenarios")})


def setup(workload, seed, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    return workloads.build(import_tempsync(), workload, seed, workdir)


def machine_block():
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "numba": importlib.util.find_spec("numba") is not None,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.job_s = []
        self.failures = []      # (message, is a KnownDefect)
        self.identity = None

    @property
    def run_s(self):
        return sum(self.job_s)


def run_pass(jobs, tracer=None):
    """One pass over the job list; only the calls into tempsync are timed."""
    p = Pass(tracer is not None)
    clock = time.perf_counter
    gc.collect()  # every pass starts from the same collector state
    for job in jobs:
        if job.before:
            job.before()
        evals0 = tracer.calls(EVALS) if tracer else 0
        t0 = clock()
        try:
            out = job.run()
        except Exception:
            p.job_s.append(clock() - t0)
            p.failures.append(
                (f"{job.label}: raised {traceback.format_exc(limit=-1).strip()}", False))
            continue
        p.job_s.append(clock() - t0)
        try:
            error = job.check(out)
        except Exception:
            error = f"check raised {traceback.format_exc(limit=-1).strip()}"
        if tracer and job.expected_evals is not None and p.identity is None \
                and EVALS not in tracer.absent():
            evals = tracer.calls(EVALS) - evals0
            p.identity = {"job": job.label, "evals": evals, "expected": job.expected_evals,
                          "holds": evals == job.expected_evals}
            if not p.identity["holds"] and error is None:
                error = f"{evals} RHS evaluations, expected {job.expected_evals}"
        if error:
            p.failures.append((f"{job.label}: {error}", isinstance(error, workloads.KnownDefect)))
    return p


def measure(jobs, seconds, trace):
    """Passes until the next one would overrun ``seconds``; with ``trace``
    they alternate untraced and traced (one pair at least)."""
    tracer = Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(jobs))
        if tracer:
            tracer.install()
            try:
                passes.append(run_pass(jobs, tracer))
            finally:
                tracer.uninstall()
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step > seconds:
            return passes, tracer


def tail(values):
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it."""
    for q in TAIL_PERCENTILES:
        if len(values) * (100 - q) / 100.0 >= 10:
            return q, float(np.percentile(values, q))
    return 50, float(np.percentile(values, 50))


def end_to_end(setups, passes):
    job_s = [t for p in passes for t in p.job_s]
    q, tail_s = tail(job_s)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p.run_s for p in passes),
        "job_s_p50": statistics.median(job_s),
        "job_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"job_s_tail_percentile": q, "jobs_timed": len(job_s),
                    "pass_s": [round(p.run_s, 4) for p in passes]}


def per_layer(tracer, passes):
    traced = [p for p in passes if p.traced]
    k = len(traced)
    values = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = tracer.calls(layer) / k
        elif kind == "self_s":
            values[name] = tracer.self_s(layer) / k
    evals = tracer.calls(EVALS)
    acc, rej = tracer.counters["steps_accepted"], tracer.counters["steps_rejected"]
    values["integrate.us_per_rhs_eval"] = (
        1e6 * tracer.total_s("integrate.integrate") / evals if evals else 0.0)
    values["integrate.steps_accepted"] = acc / k
    values["integrate.steps_rejected"] = rej / k
    values["integrate.accept_ratio"] = acc / (acc + rej) if acc + rej else 0.0
    values["integrate.csv_bytes"] = tracer.counters["csv_bytes"] / k
    untraced = statistics.median(p.run_s for p in passes if not p.traced)
    values["bench.trace_overhead_frac"] = statistics.median(p.run_s for p in traced) / untraced - 1
    return values


def run(args):
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            jobs, notes = setup(args.workload, args.seed, workdir)
            setups.append(time.perf_counter() - t0)
        passes, tracer = measure(jobs, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.job_s) for p in passes)
    e2e, info = end_to_end(setups, passes)
    if args.trace:
        values, units = per_layer(tracer, passes), PER_LAYER
        info["absent"] = tracer.absent()
        info["count_identity"] = next((p.identity for p in passes if p.identity), None)
    else:
        values, units = e2e, END_TO_END
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, machine=machine_block(), passes=len(passes),
                jobs_per_pass=len(jobs), fail_frac=len(failures) / attempted,
                known_defects=sum(known for _, known in failures), **notes,
                failures=[line for line, _ in failures[:20]])
    for line, known in failures[:20]:
        print(f"FAILED {'(known defect) ' if known else ''}{line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(jobs)} jobs, "
          f"job_s_tail = p{info['job_s_tail_percentile']} of {info['jobs_timed']} jobs")
    for name, unit in units.items():
        print(f"  {name:40} {values[name]:14.6g} {unit}")
    print(f"  {'fail_frac':40} {info['fail_frac']:14.6g} fraction "
          f"({len(failures)} of {attempted} jobs)")
    print(json.dumps({"bench": info}, sort_keys=True))
    print(json.dumps({
        "correct": all(known for _, known in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def load_runs(path):
    """{(workload, trace): {metric: [values]}} from concatenated run output."""
    runs = {}
    info = None
    with open(path) as fh:
        for line in fh:
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(doc, dict) and "bench" in doc:
                info = doc["bench"]
            elif isinstance(doc, dict) and "metrics" in doc and info is not None:
                slot = runs.setdefault((info["workload"], info["trace"]), {})
                for name, m in doc["metrics"].items():
                    slot.setdefault(name, []).append(m["value"])
                slot.setdefault("fail_frac", []).append(doc["failed"] / doc["attempted"])
                info = None
    return runs


def compare(path_a, path_b):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    a, b = load_runs(path_a), load_runs(path_b)
    ok = True
    print(f"end-to-end: median B / median A  (A = {path_a}, B = {path_b})")
    for w in spec["workloads"]:
        ra, rb = a.get((w["name"], 0), {}), b.get((w["name"], 0), {})
        if not ra or not rb:
            print(f"  {w['name']}: no untraced runs on both sides")
            continue
        for m in spec["end_to_end"]:
            ma, mb = statistics.median(ra[m["name"]]), statistics.median(rb[m["name"]])
            ratio = mb / ma
            within = ratio <= 1 + m["bound"] if m["better"] == "lower" else ratio >= 1 - m["bound"]
            ok &= within
            print(f"  {w['name']:16} {m['name']:12} {ma:12.6g} -> {mb:12.6g} {m['unit']:3}"
                  f"  x{ratio:.4f}  {'within' if within else 'OUTSIDE'} bound {m['bound']}"
                  f"  (runs {len(ra[m['name']])}/{len(rb[m['name']])})")
        print(f"  {w['name']:16} {'fail_frac':12} {statistics.median(ra['fail_frac']):12.6g}"
              f" -> {statistics.median(rb['fail_frac']):12.6g}")
    print("per-layer: median B / median A")
    for w in spec["workloads"]:
        ra, rb = a.get((w["name"], 1), {}), b.get((w["name"], 1), {})
        for m in spec["per_layer"]:
            if m["name"] in ra and m["name"] in rb:
                ma, mb = statistics.median(ra[m["name"]]), statistics.median(rb[m["name"]])
                if not (ma or mb):
                    continue  # the layer does no work on this workload
                ratio = f"x{mb / ma:.4f}" if ma else "n/a"
                print(f"  {w['name']:16} {m['name']:40} {ma:12.6g} -> {mb:12.6g} {ratio}")
    return 0 if ok else 3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    try:
        run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
