"""Monte Carlo mean of a PH distribution, shared by the tests that check
ph_mean against sampling: an oracle that needs nothing of the package but
the distribution itself."""

import math

import numpy as np

from standbymmap.ph import PhDistribution
from standbymmap.simulator import SimEstimate


def sample_ph_mean(ph: PhDistribution, samples: int = 10 ** 6,
                   seed: int = 0) -> SimEstimate:
    """Monte Carlo mean of a PH distribution via phase-level races."""
    rng = np.random.default_rng(seed)
    order = ph.order
    rates = -np.diag(ph.subgen)
    jump = np.hstack([ph.subgen / rates[:, None],
                      (ph.exit_vector / rates)[:, None]])
    np.fill_diagonal(jump, 0.0)
    cum = np.cumsum(jump, axis=1)
    phase = np.searchsorted(np.cumsum(ph.init), rng.random(samples),
                            side="right")
    times = np.zeros(samples)
    alive = np.flatnonzero(phase < order)
    while alive.size:
        cur = phase[alive]
        times[alive] += rng.standard_exponential(alive.size) / rates[cur]
        u = rng.random(alive.size)
        nxt = (cum[cur] < u[:, None]).sum(axis=1)
        phase[alive] = nxt
        alive = alive[nxt < order]
    return SimEstimate(float(times.mean()),
                       float(times.std(ddof=1) / math.sqrt(samples)))
