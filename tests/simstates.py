"""Map simulator states onto the generator's global index and back, walk
the simulator's chain one jump at a time, and expand each state's row
with the per-state builders the outcome templates replaced.

Shared by the simulator tests; the package itself never needs the map,
because the simulator must stay independent of the matrix layout.
"""

import bisect
from collections import deque
from itertools import product

import numpy as np

from standbymmap import simulator
from standbymmap.ph import renewal_stationary
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
    the same state-order sum as FleetSimulator._fold, over the cached rows
    sorted here by state.
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
        for state in sorted(sim._rows, key=simulator._state_order):
            cached = sim._rows[state]
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


def initial_states(config):
    """Support of FleetSimulator.initial_state: a fresh fleet on vacation."""
    def support(vec):
        return np.flatnonzero(np.asarray(vec) > 0).tolist()
    return [SimState(config.units, 0, (), True, i, j, h, u, w)
            for i, j, h, u, w in product(
                support(config.internal.init),
                support(renewal_stationary(config.shock)),
                support(config.damage_init), support(config.inspection.init),
                support(config.vacation.init))]


# -- per-state row builders, the outcome templates' reference -----------------

def _support(vec):
    return [(float(p), i) for i, p in enumerate(np.ravel(vec)) if p > 0.0]


def _scale(weight, outcomes):
    return [(weight * p, nxt, ev) for p, nxt, ev in outcomes]


def _spread(label, st, onlines, clocks, **fields):
    return [(po * pc, st._replace(internal=i, damage=h, inspection=u,
                                  clock=w, **fields), label)
            for po, (i, h, u) in onlines for pc, w in clocks]


_DOWN = [(1.0, (None, None, None))]


class ReferenceRows:
    """Each state's row as FleetSimulator built it before the outcome
    templates: every clock's outcome distribution expanded afresh for the
    state, the rates summed and accumulated by numpy.  row(st) gives
    (total, cum, targets, events, reward), to compare with ==."""

    def __init__(self, config):
        self.c = c = config
        self.N = {k: max(k - c.vacation_threshold + 1, 0)
                  for k in range(1, c.units + 1)}
        self.S = (None, c.corrective, c.preventive)
        self._gamma = _support(c.shock.init)
        self._eta = _support(c.inspection.init)
        self._upsilon = _support(c.vacation.init)
        self._beta = (None, _support(c.corrective.init),
                      _support(c.preventive.init))
        self._fresh = [(pi * ph * pu, (i, h, u))
                       for pi, i in _support(c.internal.init)
                       for ph, h in _support(c.damage_init)
                       for pu, u in self._eta]

    def _to_queue(self, st, mark, label):
        s = st.s + 1
        online = self._fresh if s < st.k else _DOWN
        clocks = (self._beta[mark] if not st.on_vacation and st.s == 0
                  else [(1.0, st.clock)])
        return _spread(label, st, online, clocks,
                       s=s, queue=st.queue + (mark,))

    def _drop_unit(self, st):
        c = self.c
        if st.k == 1:
            return _spread("NS", st, self._fresh, self._upsilon,
                           k=c.units, s=0, queue=(), on_vacation=True)
        k = st.k - 1
        online = self._fresh if st.s < k else _DOWN
        if st.on_vacation and st.k == c.vacation_threshold:
            clocks = self._beta[st.queue[0]] if st.s >= 1 else [(1.0, None)]
            return _spread("CD", st, online, clocks,
                           k=k, on_vacation=False)
        return _spread("C", st, online, [(1.0, st.clock)], k=k)

    def _shock_outcomes(self, st):
        c = self.c
        out = []
        for pg, j2 in self._gamma:
            renewed = st._replace(shock=j2)
            if st.s == st.k:
                out.append((pg, renewed, None))
                continue
            w0 = c.total_failure_prob
            if w0 > 0:
                out += _scale(pg * w0, self._drop_unit(renewed))
            rest = pg * (1.0 - w0)
            if rest == 0:
                continue
            h = st.damage
            if c.damage_exit[h] > 0:
                out += _scale(rest * c.damage_exit[h],
                              self._drop_unit(renewed))
            for ph, h2 in _support(c.damage_matrix[h]):
                moved = renewed._replace(damage=h2)
                base = rest * ph
                for pw, i2 in _support(c.shock_effect[st.internal]):
                    out.append((base * pw, moved._replace(internal=i2), None))
                pr = c.shock_repairable[st.internal]
                if pr > 0:
                    out += _scale(base * pr, self._to_queue(moved, 1, "A"))
                pnr = c.shock_nonrepairable[st.internal]
                if pnr > 0:
                    out += _scale(base * pnr, self._drop_unit(moved))
        return out

    def _inspection_outcomes(self, st):
        c = self.c
        major = (st.internal >= c.minor_internal
                 or st.damage >= c.minor_damage)
        if major and c.pm_enabled:
            return self._to_queue(st, 2, "B")
        return [(pe, st._replace(inspection=u2), None) for pe, u2 in self._eta]

    def _service_outcomes(self, st):
        c = self.c
        queue = st.queue[1:]
        s = st.s - 1
        online = (self._fresh if st.s == st.k
                  else [(1.0, (st.internal, st.damage, st.inspection))])
        if st.k >= c.vacation_threshold and s == self.N[st.k] - 1:
            return _spread("F", st, online, self._upsilon,
                           s=s, queue=queue, on_vacation=True)
        clocks = self._beta[queue[0]] if s >= 1 else [(1.0, None)]
        return _spread(None, st, online, clocks, s=s, queue=queue)

    def _vacation_outcomes(self, st):
        if st.s >= self.N[st.k] and st.s >= 1:
            return [(pc, st._replace(on_vacation=False, clock=w), "D")
                    for pc, w in self._beta[st.queue[0]]]
        return [(pw, st._replace(clock=w), "E") for pw, w in self._upsilon]

    def _clocks(self, st):
        c = self.c
        clocks = []
        if st.s < st.k:
            i, u = st.internal, st.inspection
            clocks += [
                ("internal", c.internal.subgen,
                 [(c.internal_exit_repairable[i],
                   lambda: self._to_queue(st, 1, "A")),
                  (c.internal_exit_nonrepairable[i],
                   lambda: self._drop_unit(st))]),
                ("inspection", c.inspection.subgen,
                 [(c.inspection.exit_vector[u],
                   lambda: self._inspection_outcomes(st))])]
        clocks.append(("shock", c.shock.subgen,
                       [(c.shock.exit_vector[st.shock],
                         lambda: self._shock_outcomes(st))]))
        if st.on_vacation:
            clocks.append(("clock", c.vacation.subgen,
                           [(c.vacation.exit_vector[st.clock],
                             lambda: self._vacation_outcomes(st))]))
        elif st.s >= 1:
            S = self.S[st.queue[0]]
            clocks.append(("clock", S.subgen,
                           [(S.exit_vector[st.clock],
                             lambda: self._service_outcomes(st))]))
        return clocks

    def _reward_rate(self, st):
        c = self.c.costs
        presence = c.vacation if st.on_vacation else c.repair_present
        if st.s == st.k:
            rate = -(c.downtime_loss + presence)
        else:
            rate = (c.gross_profit - presence
                    - c.operational[st.internal] - c.damage[st.damage])
        if not st.on_vacation and st.s >= 1:
            rate -= (None, c.corrective, c.preventive)[st.queue[0]][st.clock]
        return float(rate)

    def row(self, st):
        entries = []
        for field, subgen, exits in self._clocks(st):
            phase = getattr(st, field)
            entries += [(q, st._replace(**{field: p2}), None)
                        for p2, q in enumerate(subgen[phase])
                        if p2 != phase and q > 0]
            for rate, outcomes in exits:
                if rate > 0:
                    entries += _scale(rate, outcomes())
        rates, targets, events = zip(*entries)
        rates = np.array(rates)
        total = float(rates.sum())
        return (total, (np.cumsum(rates) / total).tolist(), targets, events,
                self._reward_rate(st))


def reachable_states(config):
    """Every state the simulator reaches from its initial states, breadth
    first along ReferenceRows' targets."""
    reference = ReferenceRows(config)
    seen = dict.fromkeys(initial_states(config))
    todo = deque(seen)
    while todo:
        for target in reference.row(todo.popleft())[2]:
            if target not in seen:
                seen[target] = None
                todo.append(target)
    return list(seen)
