"""Map simulator states onto the generator's global index and back, and
walk the simulator's chain one jump at a time.

Shared by the simulator tests; the package itself never needs the map,
because the simulator must stay independent of the matrix layout.
"""

import bisect

from standbymmap import simulator
from standbymmap.simulator import SimState
from standbymmap.statespace import MacroStateKey


def global_index(layout, st):
    """Map a simulator state onto the generator's row index."""
    key = MacroStateKey(st.k, st.s, "v" if st.on_vacation else "nv", st.queue)
    assert len(st.queue) == st.s, f"queue {st.queue} for s={st.s}"
    lo, _ = layout.span(key.k, key.s, key.x, key.queue)
    if st.s < st.k:
        phases = [st.internal, st.shock, st.damage, st.inspection]
    else:
        phases = [st.shock]
    if st.clock is not None:
        phases.append(st.clock)
    dims = layout.phase_dims(key.k, key.s, key.x, key.queue)
    flat = 0
    for p, dim in zip(phases, dims):
        flat = flat * dim + p
    return lo + flat


def sim_state_of(layout, index):
    """Inverse of global_index, read off the layout's state table (0-based
    phases, -1 for a phase the state does not carry)."""
    key, row = layout.key_of(index), layout.states[index]
    i, j, h, u, clock = (None if row[name] < 0 else int(row[name])
                         for name in "ijhuw")
    return SimState(key.k, key.s, key.queue, key.x == "v", i, j, h, u, clock)


def reference_run(sim, horizon, rng):
    """FleetSimulator.run as one per-jump loop, the span walk's reference.

    Each jump adds its dwell to its row's batch total and subtracts it from
    the batch's remaining time; a batch ends at the first draw whose dwell
    reaches the remaining time, and that draw is consumed.  The fold is
    the same state-order sum as FleetSimulator._fold.
    """
    per = horizon / simulator.BATCHES
    row = sim.row(sim.initial_state(rng))
    exps = memoryview(rng.standard_exponential(simulator._CHUNK))
    unis = memoryview(rng.random(simulator._CHUNK))
    ptr = 0
    out = []
    for _ in range(simulator.BATCHES):
        remaining = per
        time = {}           # row -> batch dwell, in visit order
        counts = dict.fromkeys(simulator.EVENT_NAMES, 0)
        while True:
            if ptr == simulator._CHUNK:
                exps = memoryview(rng.standard_exponential(simulator._CHUNK))
                unis = memoryview(rng.random(simulator._CHUNK))
                ptr = 0
            dwell = exps[ptr] / row.total
            if dwell >= remaining:
                time[row] = time.get(row, 0.0) + remaining
                ptr += 1
                break
            time[row] = time.get(row, 0.0) + dwell
            remaining -= dwell
            idx = bisect.bisect(row.cum, unis[ptr])
            ptr += 1
            ev = row.events[idx]
            if ev is not None:
                counts[ev] += 1
            row = sim.row(row.targets[idx])
        up = reward = 0.0
        occ = {}
        for _, cached in sim._order:
            t = time.get(cached, 0.0)
            if t:
                if cached.up:
                    up += t
                occ[cached.occ_key] = occ.get(cached.occ_key, 0.0) + t
                reward += t * cached.reward
        fixed = sum(counts[e] * cost for e, cost in sim._event_costs.items())
        out.append({
            "up": up / per,
            "occ": {key: val / per for key, val in occ.items()},
            "counts": {e: counts[e] / per for e in simulator.EVENT_NAMES},
            "profit": (reward - fixed) / per,
        })
    return out
