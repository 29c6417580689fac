"""Configuration validation and policy/vacation switching."""

import numpy as np
import pytest

from standbymmap.config import (ConfigError, ModelFileError, config_from_dict,
                                config_to_dict, vacation_from_params)

from example_model import example_fleet_config


def test_example_dimensions():
    c = example_fleet_config()
    assert (c.m, c.t, c.d, c.eps, c.v) == (4, 2, 2, 2, 2)
    assert c.z[1] == 3 and c.z[2] == 3
    assert c.units == 4 and c.vacation_threshold == 3 and c.pm_enabled


def test_with_policy_returns_modified_copy():
    base = example_fleet_config()
    other = base.with_policy(units=2, vacation_threshold=1, pm_enabled=False)
    assert (other.units, other.vacation_threshold, other.pm_enabled) == (2, 1, False)
    # original untouched
    assert base.units == 4 and base.pm_enabled


def test_threshold_must_not_exceed_units():
    with pytest.raises(ConfigError):
        example_fleet_config(units=2, vacation_threshold=3)


def test_internal_exit_split_checked():
    from dataclasses import replace
    c = example_fleet_config()
    bad = c.internal_exit_repairable.copy()
    bad[0] += 0.5
    with pytest.raises(ConfigError):
        replace(c, internal_exit_repairable=bad)


# (field, its entry set to -0.1, the field and entry that take up the
# difference so that every row sum still holds)
NEGATIVE_EDITS = [
    ("internal_exit_repairable", (3,), "internal_exit_nonrepairable", (3,)),
    ("internal_exit_nonrepairable", (3,), "internal_exit_repairable", (3,)),
    ("shock_effect", (3, 2), "shock_repairable", (3,)),
    ("shock_repairable", (3,), "shock_effect", (3, 3)),
    ("shock_nonrepairable", (3,), "shock_effect", (3, 3)),
    ("damage_matrix", (0, 0), "damage_exit", (0,)),
    ("damage_exit", (0,), "damage_matrix", (0, 1)),
]


@pytest.mark.parametrize("field,at,partner,partner_at", NEGATIVE_EDITS)
def test_negative_probabilities_are_rejected(field, at, partner, partner_at):
    from dataclasses import replace
    c = example_fleet_config()
    edited = {name: getattr(c, name).copy() for name in (field, partner)}
    edited[partner][partner_at] += edited[field][at] + 0.1
    edited[field][at] = -0.1
    with pytest.raises(ConfigError, match=f"{field} has a negative entry"):
        replace(c, **edited)


def test_shock_outcome_rows_checked():
    from dataclasses import replace
    c = example_fleet_config()
    bad = c.shock_effect.copy()
    bad[1, 1] += 0.3
    with pytest.raises(ConfigError):
        replace(c, shock_effect=bad)


@pytest.mark.parametrize("family,params,order", [
    ("exp", [0.5], 1),
    ("exponential", [2.0], 1),
    ("erlang2", [0.8, 0.9], 2),
    ("erlang", [1.0, 1.0], 2),
])
def test_vacation_families(family, params, order):
    ph = vacation_from_params(family, params)
    assert ph.order == order


def test_vacation_rejects_bad_input():
    with pytest.raises(ConfigError):
        vacation_from_params("exp", [0.5, 0.5])
    with pytest.raises(ConfigError):
        vacation_from_params("erlang2", [1.0, -1.0])
    with pytest.raises(ConfigError):
        vacation_from_params("weibull", [1.0])


def test_exponential_vacation_is_one_phase():
    ph = vacation_from_params("exponential", [0.25])
    assert ph.subgen.item() == -0.25


def test_erlang2_vacation_chains_the_stages():
    ph = vacation_from_params("erlang2", [0.8, 0.9])
    np.testing.assert_allclose(ph.subgen, [[-0.8, 0.8], [0.0, -0.9]])
    np.testing.assert_allclose(ph.init, [1.0, 0.0])


def test_model_file_vacation_by_family_and_rates():
    """A model file may give the vacation as {"family", "params"}: the
    published Erlang rates load to the bundled vacation."""
    bundled = config_to_dict(example_fleet_config())
    doc = dict(bundled, vacation={"family": "erlang2",
                                  "params": [0.8297104, 0.8297099]})
    assert config_to_dict(config_from_dict(doc)) == bundled


def test_model_file_vacation_of_an_unknown_family_names_the_field():
    doc = config_to_dict(example_fleet_config())
    doc["vacation"] = {"family": "weibull", "params": [1.0, 2.0]}
    with pytest.raises(ModelFileError, match=r"model\.vacation: .*weibull"):
        config_from_dict(doc)
