import pytest

from standbymmap import solvers
from standbymmap.assembler import assemble_all, label_matrices
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
def optimal_labels(optimal_config, optimal_gens):
    """label -> the labelled generator D_l of the bundled fleet."""
    return label_matrices(optimal_config, optimal_gens.layout)


@pytest.fixture(scope="session")
def optimal_pi(optimal_gens):
    return stationary_direct(optimal_gens)


@pytest.fixture
def solves(monkeypatch):
    """The stationary solves made while the test runs, one list entry each:
    bordered solves and level cycles.  A solve made inside another (the
    level cycle's bordered solve at n = 1, or of a generator without a
    layout) is not counted again."""
    calls, depth = [], [0]

    def counted(solve):
        def wrapper(*args, **kwargs):
            if not depth[0]:
                calls.append(args)
            depth[0] += 1
            try:
                return solve(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper
    for name in ("bordered_stationary", "stationary_block"):
        monkeypatch.setattr(solvers, name, counted(getattr(solvers, name)))
    return calls
