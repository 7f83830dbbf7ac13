"""Exit-status contract and file emission of the command-line front end."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tempsync
from tempsync import cli
from tempsync.cli import dispatch


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture
def ring_config(tmp_path):
    return _write(
        tmp_path / "ring.json",
        {
            "network": {"kind": "ring-contrarian", "n": 10, "a": 0.5, "a12": 1.0},
            "bounds": {"kind": "identical", "l": 0.0, "rho": 2.0},
            "horizon": 3.0,
            "epsilon": 1e-6,
            "bound_M": 1.0,
        },
    )


def test_certify_ring_reports_structural_gamma_failure(ring_config, tmp_path):
    # the compensated ring is consensus-stable in simulation, but far pairs
    # sharing no in-neighbors with the contrarian make the margin negative,
    # so the certificate honestly fails (exit 2 with detail in the report)
    out = tmp_path / "out"
    code = dispatch(["certify", "--config", ring_config, "--out", str(out)])
    assert code == 2
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"].startswith("fails(gamma,")
    assert cert["gamma_bar"] == -1.0
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["verdict_detail"]["condition"] == "gamma"


def test_certify_uncompensated_ring_fails_on_first_pair(tmp_path):
    cfg = _write(
        tmp_path / "ring0.json",
        {
            "network": {"kind": "ring-contrarian", "n": 10, "a": 0.5, "a12": 0.0},
            "bounds": {"kind": "identical", "l": 0.0, "rho": 2.0},
            "horizon": 3.0,
            "epsilon": 1e-6,
            "bound_M": 1.0,
        },
    )
    out = tmp_path / "out"
    assert dispatch(["certify", "--config", cfg, "--out", str(out)]) == 2
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"].startswith("fails(gamma,(1,2)")
    assert cert["verdict_detail"]["pair"] == [1, 2]


def test_certify_complete_graph_holds(tmp_path):
    cfg = _write(
        tmp_path / "complete.json",
        {
            "network": {"kind": "complete", "n": 3,
                        "nodes": {"type": "linear_decay", "rate": 1.0}},
            "bounds": {"kind": "constant", "alpha": -1.0, "beta": 0.0, "rho": 2.0},
            "horizon": 4.0,
            "epsilon": 0.1,
            "bound_M": 0.5,
        },
    )
    out = tmp_path / "out"
    assert dispatch(["certify", "--config", cfg, "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "holds"
    assert (out / "report.json").exists()


def test_cluster_certify_full_set(tmp_path):
    cfg = _write(
        tmp_path / "cluster.json",
        {
            "network": {"kind": "complete", "n": 3,
                        "nodes": {"type": "linear_decay", "rate": 1.0}},
            "bounds": {"kind": "constant", "alpha": -1.0, "beta": 0.0, "rho": 2.0},
            "cluster": [1, 2, 3],
            "horizon": 4.0,
            "epsilon": 0.1,
            "bound_M": 0.5,
        },
    )
    out = tmp_path / "out"
    assert dispatch(["cluster-certify", "--config", cfg, "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["cluster"] == [1, 2, 3]
    assert cert["mu2"] == 0.0


def test_cluster_certify_rejects_bad_indices(tmp_path, capsys):
    cfg = _write(
        tmp_path / "bad_cluster.json",
        {
            "network": {"kind": "complete", "n": 3},
            "bounds": {"kind": "identical", "l": 0.0, "rho": 1.0},
            "cluster": [0, 1],  # configs are 1-based; 0 is out of range
            "horizon": 1.0,
        },
    )
    assert dispatch(["cluster-certify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "cluster" in capsys.readouterr().err


def test_certify_rejects_nonfinite_bound(tmp_path, capsys):
    cfg = _write(  # json writes the float nan as the token NaN
        tmp_path / "nan.json",
        {
            "network": {"kind": "complete", "n": 3},
            "bounds": {"kind": "constant", "alpha": math.nan, "beta": 0.0, "rho": 1.0},
            "horizon": 2.0,
            "epsilon": 1e-3,
            "bound_M": 2.0,
        },
    )
    out = tmp_path / "out"
    assert dispatch(["certify", "--config", cfg, "--out", str(out)]) == 1
    assert r"alpha(0, 1) = nan is not finite" in capsys.readouterr().err
    assert not (out / "certificate.json").exists()


def test_parser_is_built_once_and_keeps_no_option_values(tmp_path, monkeypatch):
    seen = []
    for name in ("scenario", "simulate"):
        monkeypatch.setitem(
            cli._COMMANDS, name, lambda cfg, args, out: seen.append(dict(vars(args))) or 0
        )
    monkeypatch.delenv("SYNC_TOOLKIT_WORKERS", raising=False)
    cfg = _write(tmp_path / "empty.json", {})
    assert cli._build_parser() is cli._build_parser()
    first = ["scenario", "vdp", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "5",
             "--t-end", "2", "--dt", "0.1", "--c", "3", "--epsilon", "0.5", "--bound-M", "2",
             "--workers", "2"]
    assert dispatch(first) == 0
    assert dispatch(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert seen[0] == dict(command="scenario", name="vdp", config=cfg, out=str(tmp_path / "a"),
                           seed=5, t_end=2.0, dt=0.1, c=3.0, epsilon=0.5, bound_M=2.0, workers=2)
    assert seen[1] == dict(command="simulate", config=cfg, out=str(tmp_path / "b"), seed=0,
                           t_end=None, dt=None, c=None, epsilon=None, bound_M=None, workers=1)


@pytest.mark.filterwarnings("ignore:overflow")
def test_simulate_divergence_is_error_exit(tmp_path, capsys):
    cfg = _write(
        tmp_path / "sim.json",
        {"network": {"kind": "complete", "n": 3,
                     "nodes": {"type": "linear_decay", "rate": -800.0}},
         "t_end": 2.0, "dt": 0.01},
    )
    assert dispatch(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "non-finite field value" in capsys.readouterr().err


def test_missing_config_names_path(tmp_path, capsys):
    code = dispatch(["certify", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert dispatch(["frobnicate", "--config", "x.json"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_schema_violation_names_field(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.json", {"network": {"kind": "complete"}})
    assert dispatch(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "'n'" in capsys.readouterr().err


def test_threshold_command(tmp_path):
    cfg = _write(
        tmp_path / "thr.json",
        {"A": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "l_rho": 1.0},
    )
    out = tmp_path / "out"
    assert dispatch(["threshold", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert abs(doc["c_bar"] - 1.0 / 3.0) < 1e-9


def test_threshold_infeasible_exits_two(tmp_path):
    star = np.zeros((5, 5))
    star[1:, 0] = 3.0
    star[0, 1:] = -1.0
    cfg = _write(tmp_path / "thr.json", {"A": star.tolist(), "l_rho": 1.0})
    out = tmp_path / "out"
    assert dispatch(["threshold", "--config", cfg, "--out", str(out)]) == 2
    doc = json.loads((out / "report.json").read_text())
    assert doc["feasible"] is False and doc["pair"] == [1, 2]


def test_simulate_writes_deterministic_csv(tmp_path):
    cfg = _write(
        tmp_path / "sim.json",
        {
            "network": {"kind": "complete", "n": 2},
            "t_end": 1.0,
            "dt": 1e-2,
            "x0": [[1.0], [3.0]],
        },
    )
    out = tmp_path / "out"
    assert dispatch(["simulate", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "trajectory.csv").read_bytes()
    header = first.splitlines()[0].decode()
    assert header == "t,x_1_1,x_2_1"
    assert (out / "errors.csv").read_text().splitlines()[0] == "t,xi_1_2,e_hat"
    assert dispatch(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").read_bytes() == first


def test_simulate_t_end_override(tmp_path):
    cfg = _write(
        tmp_path / "sim.json",
        {"network": {"kind": "complete", "n": 2}, "t_end": 1.0, "x0": [[1.0], [0.0]]},
    )
    out = tmp_path / "out"
    assert dispatch(
        ["simulate", "--config", cfg, "--out", str(out), "--t-end", "0.5", "--dt", "1e-2"]
    ) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["t_end"] == 0.5


def test_scenario_command_ring(tmp_path):
    cfg = _write(
        tmp_path / "ring.json",
        {"n_nodes": 8, "a": 0.5, "a12": 1.0, "horizon": 25.0, "dt": 2e-3},
    )
    out = tmp_path / "out"
    code = dispatch(
        ["scenario", "ring", "--config", cfg, "--out", str(out), "--seed", "3"]
    )
    doc = json.loads((out / "report.json").read_text())
    assert doc["command"] == "scenario ring"
    assert (out / "trajectory.csv").exists()
    assert code == (0 if doc["passed"] else 2)


def test_scenario_multi_seed_subdirs_with_worker_pool(tmp_path):
    cfg = _write(
        tmp_path / "ring.json",
        {"n_nodes": 8, "a": 0.5, "a12": 1.0, "horizon": 20.0,
         "dt": 2e-3, "seeds": [0, 1]},
    )
    out = tmp_path / "out"
    code = dispatch(
        ["scenario", "ring", "--config", cfg, "--out", str(out), "--workers", "2"]
    )
    assert code in (0, 2)
    assert (out / "seed_0" / "report.json").exists()
    assert (out / "seed_1" / "report.json").exists()
    doc = json.loads((out / "report.json").read_text())
    assert len(doc["runs"]) == 2


def test_scenario_unknown_name(tmp_path, capsys):
    cfg = _write(tmp_path / "x.json", {})
    assert dispatch(["scenario", "bogus", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_pullback_check_command(tmp_path):
    cfg = _write(
        tmp_path / "pb.json",
        {"linear": {"a": -1.0, "sin": 1.0}, "times": [0.0, 2.0], "s_max": 64.0},
    )
    out = tmp_path / "out"
    assert dispatch(["pullback-check", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["converged"] is True
    assert len(doc["results"]) == 2


def test_pullback_check_nonconvergent_exits_two(tmp_path):
    cfg = _write(
        tmp_path / "pb.json",
        {"linear": {"a": -0.01, "sin": 1.0}, "times": [0.0], "s_max": 2.0},
    )
    out = tmp_path / "out"
    assert dispatch(["pullback-check", "--config", cfg, "--out", str(out)]) == 2


def test_pullback_check_divergent_exits_two(tmp_path):
    # the growing solution overflows before depth s_max: not converged, no warning
    cfg = _write(
        tmp_path / "pb.json",
        {"linear": {"a": 1.0, "sin": 1.0}, "times": [0.0], "s_max": 1024.0},
    )
    out = tmp_path / "out"
    assert dispatch(["pullback-check", "--config", cfg, "--out", str(out)]) == 2
    doc = json.loads((out / "report.json").read_text())
    assert doc["converged"] is False
    assert doc["results"][0]["gap"] == math.inf


@pytest.mark.parametrize("a,b_sin,b_const", [(-4.0, 1.0, 0.0), (-3.5, 0.0, -1.0),
                                             (-3.75, -0.6, 0.8)])
@pytest.mark.parametrize("dim", [1, 3])
def test_pullback_check_matches_closed_form(tmp_path, a, b_sin, b_const, dim):
    # x' = a x + b_sin sin t + b_const has the bounded solution
    # A sin t + B cos t - b_const / a with A = a B, B = -b_sin / (1 + a^2)
    times = [0.0, 2.5, 7.0, 9.5]
    cfg = _write(
        tmp_path / "pb.json",
        {"linear": {"a": a, "sin": b_sin, "const": b_const}, "dim": dim,
         "times": times, "s_max": 64.0, "tol": 1e-6},
    )
    out = tmp_path / "out"
    assert dispatch(["pullback-check", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    B = -b_sin / (1.0 + a * a)
    for r, t in zip(doc["results"], times):
        exact = a * B * math.sin(t) + B * math.cos(t) - b_const / a
        assert len(r["state"]) == dim
        assert max(abs(v - exact) for v in r["state"]) < 1e-6


def test_workers_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SYNC_TOOLKIT_WORKERS", "1")
    cfg = _write(
        tmp_path / "thr.json",
        {"A": [[0, 1], [1, 0]], "l_rho": 1.0},
    )
    assert dispatch(["threshold", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_explicit_network_from_schedule_json(tmp_path):
    cfg = _write(
        tmp_path / "exp.json",
        {
            "network": {
                "kind": "explicit",
                "schedule": {
                    "n": 2,
                    "extension": "constant",
                    "segments": [{"t": 0.0, "A": [[0, 1], [1, 0]]}],
                },
                "nodes": {"type": "zero"},
            },
            "bounds": {"kind": "identical", "l": 0.0, "rho": 1.0},
            "horizon": 2.0,
            "epsilon": 1e-3,
            "bound_M": 1.0,
        },
    )
    out = tmp_path / "out"
    assert dispatch(["certify", "--config", cfg, "--out", str(out)]) == 0


def test_import_generates_no_dataclasses_and_loads_no_process_pool():
    # every CLI call pays for importing tempsync: record classes are plain
    # classes, and the process pool is imported only when workers > 1
    probe = (
        "import sys, tempsync, tempsync.cli\n"
        "print([m for m in ('dataclasses', 'concurrent.futures') if m in sys.modules])\n"
        "print([f'{m.__name__}.{k}' for m in list(sys.modules.values())\n"
        "       if getattr(m, '__name__', '').split('.')[0] == 'tempsync'\n"
        "       for k, c in vars(m).items() if hasattr(c, '__dataclass_fields__')])\n"
    )
    src = os.path.dirname(os.path.dirname(tempsync.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]
