"""Command-line interface: dispatch, model files, output artifacts."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import standbymmap.cli
from standbymmap.assembler import _Assembly
from standbymmap.cli import (ModelFileError, bundled_model_path,
                             config_from_dict, config_to_dict, load_model,
                             main)

from example_model import example_fleet_config


def run(argv, tmp_path):
    """main() writing into tmp_path; build writes nothing, so no --out."""
    out = [] if argv[0] == "build" else ["--out", str(tmp_path)]
    return main(argv + out)


def test_bundled_model_loads():
    config = load_model(bundled_model_path())
    assert config.units == 4 and config.vacation_threshold == 3
    assert config.v == 2  # two-stage vacation


# the modules a CLI start-up must not load: together they were half of it
START_UP = """
import sys
import warnings
from standbymmap.cli import bundled_model_path, load_model
load_model(bundled_model_path())
print(*(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules))
"""


def test_start_up_loads_neither_scipy_stats_nor_scipy_optimize():
    """In a fresh interpreter, as every CLI command starts."""
    package_root = str(Path(standbymmap.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", START_UP], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def test_model_round_trip():
    config = example_fleet_config()
    doc = config_to_dict(config)
    again = config_from_dict(doc)
    np.testing.assert_allclose(again.internal.subgen, config.internal.subgen)
    assert again.costs.new_unit == config.costs.new_unit


def test_empty_phase_costs_load_as_zeros(tmp_path):
    doc = config_to_dict(example_fleet_config())
    doc["costs"]["operational"] = []
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    config = load_model(path)
    np.testing.assert_array_equal(config.costs.operational, np.zeros(config.m))
    again = config_to_dict(config_from_dict(config_to_dict(config)))
    assert again == config_to_dict(config)


def test_bundled_file_is_the_example_model():
    doc = json.loads(bundled_model_path().read_text())
    assert config_to_dict(example_fleet_config()) == doc


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["costs"].pop("new_unit"), "model.costs: missing field"),
    (lambda doc: doc["costs"].update(damage="high"), "model.costs.damage: not numeric"),
    (lambda doc: doc.update(damage_init=[[1.0, 0.0]]),
     "model.damage_init: expected 1-dimensional array"),
    (lambda doc: doc.update(units="four"), "model.units:"),
    # json reads NaN and Infinity; a model file must not
    (lambda doc: doc["costs"].update(gross_profit=float("nan")),
     "model.costs.gross_profit: not finite"),
    (lambda doc: doc["costs"]["operational"].__setitem__(0, float("inf")),
     "model.costs.operational: not finite"),
    (lambda doc: doc["shock_effect"][0].__setitem__(0, float("nan")),
     "model.shock_effect: not finite"),
    (lambda doc: doc["internal"]["subgen"][0].__setitem__(0, float("-inf")),
     "model.internal.subgen: not finite"),
    (lambda doc: doc.update(units=float("inf")), "model.units: not finite"),
    (lambda doc: doc.update(vacation={"family": "exponential",
                                      "params": [float("nan")]}),
     "model.vacation: .*finite"),
    # scalars keep their type: no fraction, bool or string for a number
    (lambda doc: doc.update(units=4.5), "model.units: expected an integer"),
    (lambda doc: doc.update(minor_internal=1.9),
     "model.minor_internal: expected an integer"),
    (lambda doc: doc.update(units=True), "model.units: expected a number"),
    (lambda doc: doc.update(units="4"), "model.units: expected a number"),
    (lambda doc: doc.update(pm_enabled="false"),
     "model.pm_enabled: expected true or false"),
    (lambda doc: doc.update(pm_enabled=0),
     "model.pm_enabled: expected true or false"),
    (lambda doc: doc.update(total_failure_prob=True),
     "model.total_failure_prob: expected a number"),
    (lambda doc: doc["costs"].update(new_unit="150"),
     "model.costs.new_unit: expected a number"),
    (lambda doc: doc["costs"].update(new_unit=10 ** 400),
     "model.costs.new_unit: not finite"),
])
def test_model_errors_name_the_field(edit, message):
    doc = config_to_dict(example_fleet_config())
    edit(doc)
    with pytest.raises(ModelFileError, match=message):
        config_from_dict(doc)


def test_an_integral_float_loads_as_an_int():
    doc = config_to_dict(example_fleet_config())
    doc.update(units=4.0, minor_internal=2.0)
    config = config_from_dict(doc)
    assert type(config.units) is int and config.units == 4
    assert config_to_dict(config) == config_to_dict(example_fleet_config())


@pytest.mark.parametrize("field,value", [("units", 4.5),
                                         ("pm_enabled", "false"),
                                         ("minor_internal", 1.9)])
def test_build_refuses_a_wrong_typed_scalar(field, value, tmp_path, capsys):
    doc = config_to_dict(example_fleet_config())
    doc[field] = value
    bad = tmp_path / "typed.json"
    bad.write_text(json.dumps(doc))
    assert main(["build", "--model", str(bad)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ModelFileError"
    assert f"{field}: expected" in record["message"]


def test_profit_rejects_a_nan_in_the_model_file(tmp_path, capsys):
    """json.dumps writes NaN, which json.loads reads back."""
    doc = config_to_dict(example_fleet_config())
    doc["costs"]["gross_profit"] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    assert "NaN" in bad.read_text()
    assert run(["profit", "--model", str(bad)], tmp_path) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ModelFileError"
    assert "gross_profit: not finite" in record["message"]


def test_build_reports_structure(capsys):
    assert main(["build"]) == 0
    out = capsys.readouterr().out
    assert "states: 3668" in out
    assert "conservation residual" in out


def test_build_rejects_malformed_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"units": 4}))
    assert main(["build", "--model", str(bad)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ModelFileError"


def test_build_rejects_bad_matrix_dims(tmp_path, capsys):
    doc = config_to_dict(example_fleet_config())
    doc["shock_effect"] = [0.1, 0.2]  # should be a matrix
    bad = tmp_path / "dims.json"
    bad.write_text(json.dumps(doc))
    assert main(["build", "--model", str(bad)]) == 1
    assert "shock_effect" in json.loads(capsys.readouterr().err)["message"]


def test_steady_sums_to_one(tmp_path):
    assert run(["steady"], tmp_path) == 0
    rows = (tmp_path / "steady.csv").read_text().strip().splitlines()[1:]
    total = sum(float(r.rsplit(",", 1)[1]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-4)  # 6-digit output rounding


def test_measures_reproduce_reference_table(tmp_path):
    assert run(["measures"], tmp_path) == 0
    doc = json.loads((tmp_path / "measures.json").read_text())
    assert doc["availability"] == pytest.approx(0.8210, abs=5e-4)
    assert doc["occupancy"]["4,1,v"] == pytest.approx(0.0847, abs=5e-4)
    assert doc["rates"]["repairable"] == pytest.approx(0.0487, abs=5e-4)


def test_transient_at_zero_equals_the_start(tmp_path):
    assert run(["transient", "--t-grid", "0,5"], tmp_path) == 0
    from standbymmap.assembler import assemble_all
    from standbymmap.solvers import initial_distribution
    config = example_fleet_config()
    gens = assemble_all(config, validate=False)
    phi = initial_distribution(config, gens.layout)
    rows = [line.split(",") for line in
            (tmp_path / "transient_distribution.csv").read_text().splitlines()[1:]]
    at_zero = np.array([float(p) for t, _, p in rows if float(t) == 0.0])
    np.testing.assert_allclose(at_zero, phi, atol=1e-6)


def test_transient_at_a_long_horizon_is_stationary(tmp_path):
    assert run(["transient", "--t-grid", "0,1e6"], tmp_path) == 0
    from standbymmap.assembler import assemble_all
    from standbymmap.measures import availability_stationary
    from standbymmap.solvers import stationary_direct
    gens = assemble_all(example_fleet_config(), validate=False)
    steady = availability_stationary(stationary_direct(gens), gens.layout)
    doc = json.loads((tmp_path / "transient.json").read_text())
    assert doc["t"] == [0.0, 1e6]
    assert doc["availability"][1] == pytest.approx(steady, abs=1e-9)


def test_profit_at_zero_is_the_initial_fleet_purchase(tmp_path):
    assert run(["profit", "--t-grid", "0,100"], tmp_path) == 0
    accumulated = json.loads((tmp_path / "profit.json").read_text())["accumulated"]
    assert list(accumulated) == ["0", "100"]
    # four units at 150 each, bought at t = 0 like one fleet renewal
    assert accumulated["0"] == pytest.approx(-600.0, abs=1e-9)


def test_profit_keeps_times_that_share_their_six_digits(tmp_path):
    """1e6 and 1,000,001 print alike to 6 digits; the JSON keys every time
    that would not read back by all its digits."""
    assert run(["profit", "--t-grid", "1000000,1000001,2e6"], tmp_path) == 0
    accumulated = json.loads((tmp_path / "profit.json").read_text())["accumulated"]
    assert list(accumulated) == ["1e+06", "1000001.0", "2e+06"]
    assert [float(key) for key in accumulated] == [1e6, 1000001.0, 2e6]
    values = list(accumulated.values())
    assert values[0] < values[1] < values[2]


def test_profit_rejects_a_negative_time(tmp_path, capsys):
    assert run(["profit", "--t-grid", "0,-5,100"], tmp_path) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SolverError"
    assert not (tmp_path / "profit.json").exists()


@pytest.mark.parametrize("command", ["transient", "profit"])
def test_empty_time_grid_is_rejected(command, tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run([command, "--t-grid", ","], tmp_path)
    assert exc.value.code == 2
    assert "--t-grid takes a comma-separated list" in capsys.readouterr().err
    monkeypatch.setenv("STANDBYMMAP_T_GRID", ",")
    assert run([command], tmp_path) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ArgumentTypeError"
    assert "STANDBYMMAP_T_GRID" in record["message"]
    assert list(tmp_path.iterdir()) == []


def test_policy_flags_override_the_model(capsys):
    assert main(["build", "--n", "2", "--R", "1", "--pm", "off"]) == 0
    out = capsys.readouterr().out
    assert "nnz[B]: 0" in out


def test_env_variables_mirror_flags(capsys, monkeypatch):
    monkeypatch.setenv("STANDBYMMAP_N", "2")
    monkeypatch.setenv("STANDBYMMAP_R", "1")
    assert main(["build"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    monkeypatch.delenv("STANDBYMMAP_N")
    monkeypatch.delenv("STANDBYMMAP_R")
    assert main(["build", "--n", "2", "--R", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == first


MODEL_FLAGS = ["--model", "--n", "--R", "--pm", "--vacation"]
SIM_FLAGS = ["--out", "--seed", "--horizon", "--reps", "--threads"]
# each command's flags besides the model flags, and one flag it does not read
COMMAND_FLAGS = {
    "build": ([], "--out"),
    "steady": (["--out"], "--seed"),
    "transient": (["--out", "--t-grid"], "--horizon"),
    "measures": (["--out"], "--t-grid"),
    "profit": (["--out", "--t-grid"], "--reps"),
    "optimize": (["--out", "--all"], "--threads"),
    "simulate": (SIM_FLAGS, "--t-grid"),
    "validate": (SIM_FLAGS, "--all"),
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_a_command_takes_only_the_flags_it_reads(command, capsys):
    """--help lists the command's own flags, and any other flag is a usage
    error, not a value that is silently ignored."""
    flags, unread = COMMAND_FLAGS[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert listed == {"--help", *MODEL_FLAGS, *flags}
    with pytest.raises(SystemExit) as exc:
        main([command, unread, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unread}" in capsys.readouterr().err


@pytest.mark.parametrize("flags,env,named", [
    (["--n", "3"], {}, "--n"),
    ([], {"STANDBYMMAP_PM": "off"}, "STANDBYMMAP_PM")], ids=["flag", "env"])
def test_optimize_all_refuses_a_policy_it_sweeps(flags, env, named, tmp_path,
                                                 capsys, monkeypatch):
    """The grid sweeps n, R, PM and the vacation family itself: a value for
    one, from its flag or its variable, is refused before anything runs."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    assert main(["optimize", "--all", *flags, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ArgumentTypeError"
    assert named in record["message"]
    assert not out.exists()


def test_env_switch_off_runs_one_cell(tmp_path, monkeypatch):
    monkeypatch.setenv("STANDBYMMAP_ALL", "0")
    assert run(["optimize", "--vacation", "exp", "--n", "2", "--R", "2"],
               tmp_path) == 0
    assert (tmp_path / "optimize.json").is_file()
    assert not (tmp_path / "grid.json").exists()


def test_malformed_env_switch_is_a_json_error(capsys, monkeypatch):
    monkeypatch.setenv("STANDBYMMAP_PM", "maybe")
    assert main(["build"]) == 1
    record = json.loads(capsys.readouterr().err)
    assert "STANDBYMMAP_PM" in record["message"]


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--seed", "7", "--horizon", "2000",
                     "--reps", "2", "--out", str(out)]) == 0
    assert (a / "simulate.json").read_text() == (b / "simulate.json").read_text()
    assert (a / "simulate.csv").read_text() == (b / "simulate.csv").read_text()


def test_simulate_rejects_an_infinite_horizon(tmp_path, capsys):
    assert main(["simulate", "--horizon", "inf", "--reps", "1",
                 "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_optimize_single_cell(tmp_path, capsys):
    assert run(["optimize", "--vacation", "exp", "--n", "2", "--R", "2"],
               tmp_path) == 0
    doc = json.loads((tmp_path / "optimize.json").read_text())
    assert doc["family"] == "exponential"
    assert doc["x"][0] > 0


def test_validate_passes_on_the_bundled_model(tmp_path, capsys):
    assert run(["validate", "--horizon", "30000", "--reps", "4",
                "--seed", "1"], tmp_path) == 0
    assert "overall: pass" in capsys.readouterr().out


@pytest.mark.parametrize("command,count", [
    ("build", 0),
    ("steady", 1),
    ("steady --n 6", 1),
    ("measures", 1),
    ("profit", 1),
    ("profit --t-grid 1e6", 1),
    ("transient", 1),
    ("transient --t-grid 0,1e4,1e6", 1),
    ("transient --t-grid 0,10,100", 0),
    ("validate --horizon 2e4 --reps 2", 1)])
def test_a_command_factors_the_generator_at_most_once(command, count,
                                                      tmp_path, solves):
    """pi is solved once per assembled model and read by every measure that
    needs it, the stationary tail of a long uniformization sweep included;
    short sweeps never reach the tail and solve nothing."""
    assert run(command.split(), tmp_path) == 0
    assert len(solves) == count


@pytest.mark.parametrize("command", ["build", "steady", "transient",
                                     "measures", "profit", "validate"])
def test_every_assembling_command_checks_conservation(command, tmp_path,
                                                      capsys, monkeypatch):
    """Without the fleet renewal the bundled model's last fresh-level row
    loses its exit: every command that assembles the model stops on the
    conservation check and writes nothing."""
    monkeypatch.setattr(_Assembly, "fleet_renewal", lambda self: None)
    assert run([command], tmp_path) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "AssemblyError"
    assert "row 3654" in record["message"]
    assert "k=1, s=0, x='nv'" in record["message"]
    assert not any(tmp_path.iterdir())


@pytest.fixture
def no_renewal_model(tmp_path):
    """The example fleet with every non-repairable failure made repairable,
    as a model file: the fleet is never renewed."""
    from test_simulator import no_nonrepairable_config
    path = tmp_path / "no-renewal.json"
    path.write_text(json.dumps(config_to_dict(no_nonrepairable_config())))
    return path


@pytest.mark.parametrize("command", [
    "steady", "measures", "profit", "validate", "optimize",
    "optimize --vacation exp"])
def test_a_fleet_that_is_never_renewed_is_refused(command, no_renewal_model,
                                                  tmp_path, capsys):
    """Every unit count is then a closed class and pi is not unique: the
    level cycle and the optimizer refuse the model before any solve, with
    no RuntimeWarning, and write nothing."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*command.split(), "--model", str(no_renewal_model),
                     "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SolverError"
    assert record["message"].startswith("no fleet renewal")
    assert not out.exists()


def test_a_one_unit_fleet_that_is_never_renewed_still_solves(no_renewal_model,
                                                             tmp_path):
    """One level is one class, renewal or not: the bordered solve stands."""
    assert main(["steady", "--model", str(no_renewal_model), "--n", "1",
                 "--R", "1", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "steady.json").read_text())
    assert summary["mass"] == pytest.approx(1.0)
