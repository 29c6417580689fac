"""Map simulator states onto the generator's global index and back.

Shared by the simulator tests; the package itself never needs the map,
because the simulator must stay independent of the matrix layout.
"""

from standbymmap.simulator import SimState
from standbymmap.statespace import MacroStateKey


def global_index(layout, st):
    """Map a simulator state onto the generator's row index."""
    key = MacroStateKey(st.k, st.s, "v" if st.on_vacation else "nv", st.queue)
    lo, _ = layout.index_of(key)
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
    """Inverse of global_index, for sampling arbitrary rows."""
    key, phases = layout.decode(index)      # decode is 1-based
    phases = [p - 1 for p in phases]
    if key.s < key.k:
        i, j, h, u = phases[:4]
        rest = phases[4:]
    else:
        (j,), rest = phases[:1], phases[1:]
        i = h = u = None
    clock = rest[0] if rest else None
    return SimState(key.k, key.s, key.queue, key.x == "v", i, j, h, u, clock)
