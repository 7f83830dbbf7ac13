"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They run every workload at a tiny size, check that a corrupted verdict or
CSV value is counted as a failure, that the tracer survives a wrapped name
the program no longer has, and that the references in oracle.py agree with
known closed forms.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "SWITCHING_SIZES": (5,),
    "LORENZ_SIZES": (5,),
    "COMPARISON_SPECS": [(4, False), (4, True), (10, False)],
    "CERTIFY_MIX": {k: 1 for k in workloads.CERTIFY_MIX},
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)


def _run_main(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["bench"], json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(tiny, capsys, workload):
    info, result = _run_main(capsys, "--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["passes"] == 1 and info["machine"]["blas_threads"] == 1
    # the only failure is the segment-exact defect reproduced in certify,
    # recognised as the known defect, so the outputs count as correct
    want = ["certify short zero segment"] if workload == "certify" else []
    assert [f.split(":")[0] for f in info["failures"]] == want
    assert result["failed"] == info["known_defects"] == len(want)
    assert result["correct"]


def test_traced_run_reports_layers_counts_and_the_identity(tiny, capsys):
    info, result = _run_main(capsys, "--workload", "simulate", "--seed", "1",
                             "--seconds", "0", "--trace", "1")
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert info["absent"] == []
    assert info["count_identity"]["holds"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["model.eval_nodes.calls"] == m["kernels.coupling_term.calls"] > 0
    assert m["integrate.csv_bytes"] > 0 and m["integrate.to_csv.self_s"] > 0
    assert m["integrate.steps_accepted"] > 0 and m["integrate.steps_rejected"] >= 0
    assert 0 < m["integrate.accept_ratio"] <= 1


def _first_job(jobs, prefix):
    return next(j for j in jobs if j.label.startswith(prefix))


def test_corrupted_csv_value_is_a_failure(tiny, tmp_path):
    jobs, _ = workloads.build(run.import_tempsync(), "simulate", 1, str(tmp_path))
    job = _first_job(jobs, "scenario vdp")
    job.before()
    code = job.run()
    assert job.check(code) is None
    path = os.path.join(job.out, "errors.csv")
    with open(path) as fh:
        lines = fh.readlines()
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))
    lines[5] = ",".join(cells)
    with open(path, "w") as fh:
        fh.writelines(lines)
    assert "errors.csv xi differs" in job.check(code)


def test_corrupted_verdict_is_counted_in_fail_frac(tiny, tmp_path):
    jobs, _ = workloads.build(run.import_tempsync(), "certify", 2, str(tmp_path))
    job = _first_job(jobs, "certify complete")
    original = job.run

    def flipped():
        code = original()
        docs = {}
        for name in ("certificate.json", "report.json"):
            with open(os.path.join(job.out, name)) as fh:
                docs[name] = json.load(fh)
        cert = docs["certificate.json"]
        holds = cert["verdict_detail"]["status"] == "holds"
        cert["verdict_detail"].update(status="fails" if holds else "holds",
                                      condition="delta" if holds else None)
        cert["verdict"] = "fails(delta,(1,2),t=0)" if holds else "holds"
        docs["report.json"]["certificate"] = cert
        for name, doc in docs.items():
            with open(os.path.join(job.out, name), "w") as fh:
                json.dump(doc, fh)
        return 2 if holds else 0

    job.run = flipped
    p = run.run_pass([job])
    assert len(p.failures) == 1
    message, known = p.failures[0]
    assert "oracle" in message and not known


def test_tracer_tolerates_missing_names():
    run.import_tempsync()
    layers = dict(tracer_mod.LAYERS)
    layers["kernels.rk4_principal"] = ["tempsync._kernels.rk4_gone_principal"]
    layers["kernels.coupling_term"] = ["tempsync._kernels.coupling_term",
                                       "tempsync.nowhere.coupling_term"]
    t = tracer_mod.Tracer(layers)
    t.install()
    try:
        from tempsync import _kernels
        _kernels.coupling_term(np.eye(2), np.ones((2, 1)), 1.0)
    finally:
        t.uninstall()
    assert t.absent() == ["kernels.rk4_principal"]
    assert "tempsync.nowhere.coupling_term" in t.missing
    assert t.calls("kernels.coupling_term") == 1
    assert t.self_s("kernels.rk4_principal") == 0.0
    assert not hasattr(_kernels.coupling_term, "__wrapped__")


def test_tracer_self_time_excludes_children():
    def leaf():
        return sum(range(20000))

    holder = type("Holder", (), {})
    holder.leaf = staticmethod(leaf)
    holder.outer = staticmethod(lambda: holder.leaf() + holder.leaf())
    t = tracer_mod.Tracer({})
    holder.leaf = t._wrap("leaf", leaf)
    holder.outer = t._wrap("outer", holder.outer)
    holder.outer()
    assert t.stats[("leaf", "outer")][0] == 2
    assert t.self_s("outer") == pytest.approx(t.total_s("outer") - t.total_s("leaf"))


def test_oracle_reproduces_the_short_segment_defect():
    ones = np.ones((3, 3)) - np.eye(3)
    segs = [(0.0, ones), (1.001, np.zeros((3, 3))), (1.009, ones)]
    args = (0.0, 2.0, 1.0, 0.5, 0.0, 1.0, 1.0)
    assert oracle.certify_verdict(segs, *args) == "fails"
    assert oracle.certify_verdict(segs[:1], *args) == "holds"
    # the 1e-2 grid holds no point of [1.001, 1.009), a 1e-3 grid does
    assert oracle.certify_verdict(segs, *args, grid_step=1e-2) == "holds"
    assert oracle.certify_verdict(segs, *args, grid_step=1e-3) == "fails"


def test_known_defect_is_failed_but_a_wrong_verdict_is_not_correct(tiny, tmp_path):
    jobs, _ = workloads.build(run.import_tempsync(), "certify", 2, str(tmp_path))
    job = _first_job(jobs, "certify short zero segment")
    p = run.run_pass([job])
    assert len(p.failures) == 1 and p.failures[0][1]
    # checked against a zero segment that grid points do fall in, the same
    # "holds" is an error, not the known defect
    ones = np.ones((3, 3)) - np.eye(3)
    check = workloads._certify_check([(0.0, ones), (1.0, np.zeros((3, 3))), (1.05, ones)],
                                     1.0, 0.5, 0.0, 1.0, 1.0, 2.0)
    job.before()
    code = job.run()
    error = check(code, job.out)
    assert error and not isinstance(error, workloads.KnownDefect)


def test_oracle_threshold_matches_the_program():
    ts = run.import_tempsync()
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.uniform(0.2, 2.0, (5, 5)) * (rng.random((5, 5)) < 0.7)
        np.fill_diagonal(A, 0.0)
        _, c_star = oracle.static_threshold(A, 0.7)
        if c_star is not None:
            assert abs(ts.certificates.static_threshold(A, 0.7) - c_star) < 1e-8


def test_oracle_pullback_is_criterion_11():
    for t in np.linspace(0.0, 9.0, 10):
        assert oracle.pullback_exact(-1.0, 1.0, 0.0, t) == pytest.approx(
            (math.sin(t) - math.cos(t)) / 2.0, abs=1e-15)


def test_oracle_window_sup_is_exact():
    segs = [(0.0, 0.5, None), (0.5, 2.0, None), (2.0, 3.0, None)]
    # value 4 on [0.5, 2): best unit window lies inside it
    assert oracle.window_sup(segs, 0.0, 3.0, [0.0, 4.0, 1.0]) == pytest.approx(4.0)
    assert oracle.window_sup(segs, 0.0, 3.0, [2.0, 0.0, 3.0]) == pytest.approx(3.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
