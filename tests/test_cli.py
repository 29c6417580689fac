"""Command-line interface: dispatch, model files, output artifacts."""

import json

import numpy as np
import pytest

from standbymmap.cli import (ModelFileError, bundled_model_path,
                             config_from_dict, config_to_dict, load_model,
                             main)
from standbymmap.config import example_fleet_config


def run(argv, tmp_path):
    return main(argv + ["--out", str(tmp_path)])


def test_bundled_model_loads():
    config = load_model(bundled_model_path())
    assert config.units == 4 and config.vacation_threshold == 3
    assert config.v == 2  # two-stage vacation


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
])
def test_model_errors_name_the_field(edit, message):
    doc = config_to_dict(example_fleet_config())
    edit(doc)
    with pytest.raises(ModelFileError, match=message):
        config_from_dict(doc)


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
