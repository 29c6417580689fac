import pytest

from standbymmap import solvers
from standbymmap.assembler import assemble_all
from standbymmap.solvers import stationary_direct

from example_model import example_fleet_config


@pytest.fixture(scope="session")
def optimal_config():
    """The bundled four-unit fleet (n=4, R=3, PM on) with the published
    optimal Erlang vacation rates (0.8297104, 0.8297099).  They are the
    optimum under the published cost convention, 9 per repairable failure
    (TABLE4_REPAIRABLE_FIXED in test_acceptance.py); under the bundled
    costs optimize() puts the optimum at 0.82949."""
    return example_fleet_config()


@pytest.fixture(scope="session")
def optimal_gens(optimal_config):
    return assemble_all(optimal_config, validate=False)


@pytest.fixture(scope="session")
def optimal_pi(optimal_gens):
    return stationary_direct(optimal_gens)


@pytest.fixture
def solves(monkeypatch):
    """The bordered solves made while the test runs, one list entry each."""
    calls = []
    solve = solvers.bordered_stationary
    monkeypatch.setattr(solvers, "bordered_stationary",
                        lambda *a, **kw: calls.append(a) or solve(*a, **kw))
    return calls
