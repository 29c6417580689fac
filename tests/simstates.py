"""Map simulator states onto the generator's global index and back.

Shared by the simulator tests; the package itself never needs the map,
because the simulator must stay independent of the matrix layout.
"""

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
