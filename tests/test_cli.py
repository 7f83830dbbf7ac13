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


def test_cluster_certify_names_a_horizon_shorter_than_the_unit_window(tmp_path, capsys):
    # hub 1 and leaf 2 of a star see the other leaves differently, so mu2 needs
    # a unit time window
    doc = {"network": {"kind": "star", "n": 4, "a": 2.0, "b": -1.0},
           "bounds": {"kind": "constant", "alpha": -5.0, "beta": 0.0, "rho": 1.0},
           "cluster": [1, 2], "horizon": 0.7, "bound_M": 100.0}
    cfg = _write(tmp_path / "short.json", doc)
    out = tmp_path / "out"
    assert dispatch(["cluster-certify", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: horizon=0.7 is shorter than the unit time window"), err
    assert not (out / "certificate.json").exists()
    doc["horizon"] = 1.0
    cfg = _write(tmp_path / "long.json", doc)
    assert dispatch(["cluster-certify", "--config", cfg, "--out", str(out)]) in (0, 2)


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


def test_certify_rejects_nan_bound_m(tmp_path, capsys):
    # this instance fails on gamma (exit 2); --bound-M nan used to exit 0 and
    # write a bare NaN into certificate.json
    cfg = _write(
        tmp_path / "pair.json",
        {
            "network": {"kind": "complete", "n": 2},
            "bounds": {"kind": "constant", "alpha": 1.9, "beta": 0.05, "rho": 1.0},
            "horizon": 1.0,
            "epsilon": 1e-3,
            "bound_M": 0.11,
        },
    )
    assert dispatch(["certify", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
    out = tmp_path / "b"
    assert dispatch(["certify", "--config", cfg, "--out", str(out), "--bound-M", "nan"]) == 1
    assert "bound_M must be finite, got nan" in capsys.readouterr().err
    assert not (out / "certificate.json").exists()


def test_parser_is_built_once_and_keeps_no_option_values(tmp_path, monkeypatch):
    seen = []
    for name in ("scenario", "simulate"):
        monkeypatch.setitem(
            cli._COMMANDS, name, lambda cfg, args, out: seen.append(dict(vars(args))) or (0, {})
        )
    cfg = _write(tmp_path / "empty.json", {})
    assert cli._build_parser() is cli._build_parser()
    first = ["scenario", "vdp", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "5",
             "--t-end", "2", "--dt", "0.1", "--c", "3", "--workers", "2"]
    assert dispatch(first) == 0
    assert dispatch(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    # each option is stored under the config key it overrides
    assert seen[0] == dict(command="scenario", name="vdp", config=cfg, out=str(tmp_path / "a"),
                           seed=5, horizon=2.0, dt=0.1, c=3.0, workers="2")
    assert seen[1] == {"command": "simulate", "config": cfg, "out": str(tmp_path / "b"),
                       "seed": 0, "t_end": None, "dt": None, "network.global_coupling": None}


# (command, flag) -> the config key the flag overrides, None for a flag that
# overrides no key; every pair not listed here must be rejected
_ALL_FLAGS = ("--config", "--out", "--seed", "--t-end", "--dt", "--c", "--epsilon",
              "--bound-M", "--workers")
_COMMON = {"--config": None, "--out": None, "--seed": None}
_CERTIFY = dict(_COMMON, **{"--t-end": "horizon", "--c": "network.global_coupling",
                            "--epsilon": "epsilon", "--bound-M": "bound_M"})
_FLAG_TABLE = {
    "simulate": dict(_COMMON, **{"--t-end": "t_end", "--dt": "dt",
                                 "--c": "network.global_coupling"}),
    "certify": _CERTIFY,
    "cluster-certify": _CERTIFY,
    "scenario": dict(_COMMON, **{"--t-end": "horizon", "--dt": "dt", "--c": "c",
                                 "--workers": None}),
    "threshold": _COMMON,
    "pullback-check": _COMMON,
}


def test_flag_table_has_33_pairs():
    assert set(_FLAG_TABLE) == set(cli._COMMANDS)
    assert sum(len(flags) for flags in _FLAG_TABLE.values()) == 33


@pytest.mark.parametrize("flag", _ALL_FLAGS)
@pytest.mark.parametrize("command", sorted(_FLAG_TABLE))
def test_no_flag_is_silently_ignored(tmp_path, monkeypatch, capsys, command, flag):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command,
                        lambda cfg, args, out: seen.append((cfg, vars(args))) or (0, {}))
    doc = {"network": {"kind": "complete"}, "t_end": 1.0, "horizon": 1.0}
    cfg, out = _write(tmp_path / "cfg.json", doc), str(tmp_path / "out")
    argv = [command] + (["vdp"] if command == "scenario" else [])
    argv += ["--config", cfg, "--out", out]
    if flag not in ("--config", "--out"):
        argv += [flag, "2"]
    if flag not in _FLAG_TABLE[command]:
        assert dispatch(argv) == 1
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert seen == []
        return
    assert dispatch(argv) == 0
    (got, args), = seen
    key = _FLAG_TABLE[command][flag]
    if key is None:
        expected = {"--config": cfg, "--out": out, "--seed": 2, "--workers": "2"}[flag]
        assert args[flag.lstrip("-")] == expected
        assert got == doc
        return
    parent, _, leaf = key.rpartition(".")
    assert (got[parent] if parent else got)[leaf] == 2.0
    (doc[parent] if parent else doc)[leaf] = 2.0
    assert got == doc  # nothing else changed


@pytest.mark.parametrize("command", sorted(_FLAG_TABLE))
def test_benchmark_argv_shape_parses_for_every_command(tmp_path, monkeypatch, command):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg, args, out: seen.append(args) or (0, {}))
    cfg = _write(tmp_path / "cfg.json", {})
    argv = command.split() + (["ring"] if command == "scenario" else [])
    assert dispatch(argv + ["--config", cfg, "--out", str(tmp_path / "o"), "--seed", "7"]) == 0
    assert seen[0].seed == 7


def test_flag_without_its_parent_object_reports_the_parent(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", {"t_end": 1.0})
    assert dispatch(["simulate", "--config", cfg, "--out", str(tmp_path), "--c", "2"]) == 1
    assert "config field 'network' is missing" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key,name", [
    (["scenario", "ring", "--c", "3"], "c", "ring"),
    (["scenario", "fhn", "--c", "3"], "c", "fhn"),
    (["scenario", "lorenz-star", "--dt", "0.5"], "dt", "lorenz-star"),
    (["scenario", "vdp"], "epsilon", "vdp"),
])
def test_scenario_rejects_keys_its_runner_does_not_take(tmp_path, capsys, argv, key, name):
    doc = {"epsilon": 0.1} if key == "epsilon" else {}
    cfg = _write(tmp_path / "cfg.json", doc)
    assert dispatch(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"config field '{key}' is not a parameter of scenario '{name}'" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_scenario_flag_sets_the_runner_parameter(tmp_path):
    cfg = _write(tmp_path / "vdp.json",
                 {"n_nodes": 3, "delta_t": 0.5, "horizon": 5.0, "dt": 0.01})
    out = tmp_path / "out"
    assert dispatch(["scenario", "vdp", "--config", cfg, "--out", str(out), "--c", "3",
                     "--t-end", "1", "--dt", "0.02"]) == 0
    params = json.loads((out / "report.json").read_text())["runs"][0]["parameters"]
    assert (params["c"], params["horizon"], params["dt"]) == (3.0, 1.0, 0.02)


@pytest.mark.parametrize("command", ["certify", "scenario vdp"])
@pytest.mark.parametrize("doc", [None, [1, 2], "vdp", 3])
def test_config_must_be_a_json_object(tmp_path, capsys, command, doc):
    cfg = _write(tmp_path / "cfg.json", doc)
    assert dispatch(command.split() + ["--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"config file {cfg} must hold a JSON object" in capsys.readouterr().err


def test_pullback_times_of_the_wrong_type_name_the_field(tmp_path, capsys):
    cfg = _write(tmp_path / "pb.json", {"linear": {"a": -1.0}, "times": [None]})
    assert dispatch(["pullback-check", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "config field 'times' is invalid" in capsys.readouterr().err


@pytest.mark.parametrize("seeds,message", [(5, "config field 'seeds' has the wrong type"),
                                           ([0, None], "config field 'seeds' is invalid")])
def test_scenario_seeds_of_the_wrong_type_name_the_field(tmp_path, capsys, seeds, message):
    cfg = _write(tmp_path / "ring.json", {"seeds": seeds})
    assert dispatch(["scenario", "ring", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


_RING = {"kind": "ring-contrarian", "n": 10, "a": 0.5, "a12": 1.0}
_CERTIFY = {"network": _RING, "bounds": {"kind": "identical", "l": 0.0, "rho": 2.0},
            "horizon": 1.0}
_SIMULATE = {"network": {"kind": "complete", "n": 3}, "t_end": 0.1}
_PULLBACK = {"linear": {"a": -1.0}, "times": [0.0]}


@pytest.mark.parametrize("command,doc,field,message", [
    ("certify", dict(_CERTIFY, horizon=None), "horizon", "has the wrong type"),
    ("certify", dict(_CERTIFY, horizon="2.5"), "horizon", "has the wrong type"),
    ("certify", dict(_CERTIFY, epsilon=True), "epsilon", "has the wrong type"),
    ("certify", dict(_CERTIFY, bounds={"kind": "identical", "l": [1], "rho": 2.0}), "l",
     "has the wrong type"),
    ("certify", dict(_CERTIFY, network=dict(_RING, time_varying="false")), "time_varying",
     "has the wrong type"),
    ("certify", dict(_CERTIFY, network=dict(_RING, n=10.7)), "n", "has the wrong type"),
    ("scenario vdp", {"n_nodes": "5"}, "n_nodes", "has the wrong type"),
    ("scenario vdp", {"horizon": None}, "horizon", "has the wrong type"),
    ("simulate", dict(_SIMULATE, record_stride=2.5), "record_stride", "has the wrong type"),
    ("simulate", dict(_SIMULATE, x0="abc"), "x0", "has the wrong type"),
    ("simulate", dict(_SIMULATE, x0=[[0.0], ["x"], [1.0]]), "x0", "is invalid"),
    ("pullback-check", dict(_PULLBACK, dim=1.5), "dim", "has the wrong type"),
    ("pullback-check", dict(_PULLBACK, linear={"a": "x"}), "a", "has the wrong type"),
    ("threshold", {"A": [[0, "x"], [1, 0]], "l_rho": 1.0}, "A", "is invalid"),
])
def test_config_values_of_the_wrong_type_name_the_field(tmp_path, capsys, command, doc,
                                                         field, message):
    # a value is never converted to the field's type: "false" is not False,
    # 10.7 nodes are not 10 and true is not 1.0
    cfg = _write(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    assert dispatch(command.split() + ["--config", cfg, "--out", str(out)]) == 1
    assert f"config field '{field}' {message}" in capsys.readouterr().err
    assert not (out / "report.json").exists()


# one small valid config per command (scenario: ring)
_MINIMAL = {
    "simulate": _SIMULATE,
    "certify": _CERTIFY,
    "cluster-certify": {"network": {"kind": "complete", "n": 3}, "bounds": _CERTIFY["bounds"],
                        "horizon": 1.0, "cluster": [1, 2]},
    "threshold": {"A": [[0, 1], [1, 0]], "l_rho": 1.0},
    "scenario": {"n_nodes": 7, "horizon": 0.5, "dt": 0.01},
    "pullback-check": _PULLBACK,
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_writes_report_json_unless_it_exits_one(tmp_path, command):
    argv = [command] + (["ring"] if command == "scenario" else [])
    good, bad = tmp_path / "good", tmp_path / "bad"
    cfg = _write(tmp_path / "good.json", _MINIMAL[command])
    assert dispatch(argv + ["--config", cfg, "--out", str(good)]) in (0, 2)
    assert json.loads((good / "report.json").read_text())["command"] == " ".join(argv)
    cfg = _write(tmp_path / "bad.json", {"horizon": "1"})  # missing or mistyped fields
    assert dispatch(argv + ["--config", cfg, "--out", str(bad)]) == 1
    assert not (bad / "report.json").exists()


def test_well_typed_scenario_values_reach_the_report_unconverted(tmp_path):
    cfg = _write(tmp_path / "vdp.json", {"n_nodes": 3, "delta_t": 1, "horizon": 1, "dt": 0.01,
                                         "eps0": 0})
    out = tmp_path / "out"
    assert dispatch(["scenario", "vdp", "--config", cfg, "--out", str(out)]) == 0
    params = json.loads((out / "report.json").read_text())["runs"][0]["parameters"]
    assert [repr(params[k]) for k in ("delta_t", "horizon", "eps0")] == ["1", "1", "0"]


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


def test_one_node_simulate_exits_one_before_writing_csv(tmp_path, capsys):
    # used to write both CSVs, then exit 1 with numpy's "zero-size array to
    # reduction operation maximum which has no identity"
    cfg = _write(tmp_path / "sim.json",
                 {"network": {"kind": "complete", "n": 1}, "t_end": 1, "dt": 0.1})
    out = tmp_path / "out"
    assert dispatch(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: need at least two nodes\n"
    assert os.listdir(out) == []


def test_one_node_scenario_names_the_node_count(tmp_path, capsys):
    cfg = _write(tmp_path / "vdp.json", {"n_nodes": 1, "horizon": 1.0})
    out = tmp_path / "out"
    assert dispatch(["scenario", "vdp", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: need at least two nodes\n"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("scenario, config, field", [
    ("fhn", {"n_nodes": 2, "horizon": 1.0, "dt": 0.01}, "n_nodes"),
    ("fhn", {"n_nodes": 1, "horizon": 1.0, "dt": 0.01}, "n_nodes"),
    ("vdp", {"n_nodes": 6, "horizon": 1.0, "dt": 0.01, "density": 0.0}, "density"),
])
def test_undrawable_topology_names_the_field(tmp_path, capsys, scenario, config, field):
    cfg = _write(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    assert dispatch(["scenario", scenario, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err
    assert not (out / "report.json").exists()


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
    counts = []
    monkeypatch.setattr(cli.scenarios, "run_jobs",
                        lambda fn, jobs, workers: counts.append(workers) or [])
    cfg = _write(tmp_path / "ring.json", {"seeds": [0, 1]})
    argv = ["scenario", "ring", "--config", cfg, "--out", str(tmp_path)]
    monkeypatch.setenv("SYNC_TOOLKIT_WORKERS", "3")
    assert dispatch(argv) == 0
    assert dispatch(argv + ["--workers", "2"]) == 0  # the flag wins
    monkeypatch.setenv("SYNC_TOOLKIT_WORKERS", "")
    assert dispatch(argv) == 0
    assert counts == [3, 2, 1]


@pytest.mark.parametrize("env,flag,message", [
    ("two", None, "SYNC_TOOLKIT_WORKERS must be an integer >= 1, got two"),
    ("0", None, "SYNC_TOOLKIT_WORKERS must be an integer >= 1, got 0"),
    ("1", "-3", "--workers must be an integer >= 1, got -3"),
    ("1", "two", "--workers must be an integer >= 1, got two"),
    ("1", "0", "--workers must be an integer >= 1, got 0"),
])
def test_bad_worker_count_names_its_source(tmp_path, monkeypatch, capsys, env, flag, message):
    monkeypatch.setenv("SYNC_TOOLKIT_WORKERS", env)
    cfg = _write(tmp_path / "ring.json", {"seeds": [0, 1]})
    argv = ["scenario", "ring", "--config", cfg, "--out", str(tmp_path / "out")]
    assert dispatch(argv + (["--workers", flag] if flag else [])) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_worker_variable_is_read_by_scenario_only(tmp_path, monkeypatch):
    monkeypatch.setenv("SYNC_TOOLKIT_WORKERS", "two")
    cfg = _write(tmp_path / "thr.json", {"A": [[0, 1], [1, 0]], "l_rho": 1.0})
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
