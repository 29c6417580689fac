"""The layout carries no phase that nothing reads.

The coarsest ordinary lumping of the labelled generator is found by
signature refinement (Buchholz 1994, "Exact and ordinary lumpability in
finite Markov chains"; Derisavi, Hermanns and Sanders 2003, "Optimal
state-space lumping in Markov chains").  It starts from the states' reward
nr, repair cost nc, down mask and labelled exit rates, and splits a block
until every state in it has the same rate of each label into each block.
A nontrivial lumping would mean that the chain carries a phase that no
event, cost or rate reads; with PM off, the inspection phase was one.

Only the bundled model is checked: a random PH may have redundant phases
of its own, which the layout cannot know of.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest
import scipy.sparse as sp

from standbymmap.assembler import assemble_all, label_matrices
from standbymmap.config import config_to_dict
from standbymmap.economics import build_nc, build_nr, profit_stationary
from standbymmap.measures import (availability_stationary, down_mask,
                                  event_rates_stationary)
from standbymmap.ph import PhDistribution
from standbymmap.solvers import stationary_direct

from example_model import example_fleet_config

DIGITS = 9   # rates are compared rounded to this many decimals


def _numbered(keys) -> np.ndarray:
    """Block number of each key, numbered in order of first appearance."""
    ids = {}
    return np.array([ids.setdefault(key, len(ids)) for key in keys])


def coarsest_lumping(config) -> np.ndarray:
    """Block number of each state in the coarsest ordinary lumping that
    keeps nr, nc, the down mask and the labelled exit rates."""
    gens = assemble_all(config)
    layout = gens.layout
    start = np.column_stack([build_nr(config, layout), build_nc(config, layout),
                             down_mask(layout), gens.flows]).round(DIGITS)
    block = _numbered(map(tuple, start))
    labels = label_matrices(config, layout).values()
    size = layout.total
    while True:
        member = sp.csr_matrix((np.ones(size), (np.arange(size), block)))
        into = sp.hstack([D @ member for D in labels], format="csr")
        into.data = into.data.round(DIGITS)
        into.eliminate_zeros()
        into.sort_indices()
        ends = zip(into.indptr[:-1], into.indptr[1:])
        refined = _numbered(
            (b, tuple(into.indices[lo:hi]), tuple(into.data[lo:hi]))
            for b, (lo, hi) in zip(block.tolist(), ends))
        if refined.max() == block.max():
            return refined
        block = refined


@pytest.mark.parametrize("pm", [True, False], ids=["pm", "nopm"])
@pytest.mark.parametrize("n,R", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 1), (4, 3),
                                 (4, 4)])
def test_bundled_layout_has_no_nontrivial_lumping(n, R, pm):
    config = example_fleet_config(units=n, vacation_threshold=R, pm_enabled=pm)
    block = coarsest_lumping(config)
    assert block.max() + 1 == block.size, (
        f"{block.size} states lump into {block.max() + 1} blocks")


@pytest.mark.parametrize("n,R", [(4, 3), (2, 2)])
def test_without_pm_nothing_reads_the_inspection_clock(n, R):
    """With PM off, Phi, A and the event rates are the same for two
    different inspection PHs, and the model file keeps the model's own."""
    base = example_fleet_config(units=n, vacation_threshold=R, pm_enabled=False)
    other = replace(base, inspection=PhDistribution(
        np.array([0.3, 0.7, 0.0]),
        np.array([[-0.05, 0.02, 0.01], [0.0, -0.2, 0.1], [0.04, 0.0, -0.3]])))
    results = []
    for config in (base, other):
        gens = assemble_all(config)
        pi = stationary_direct(gens)
        results.append((profit_stationary(pi, gens, config).total,
                        availability_stationary(pi, gens.layout),
                        astuple(event_rates_stationary(pi, gens))))
    for first, second in zip(*results):
        np.testing.assert_allclose(first, second, rtol=1e-13, atol=0)
    for config in (base, other):
        assert config_to_dict(config)["inspection"] == {
            "init": config.inspection.init.tolist(),
            "subgen": config.inspection.subgen.tolist()}
