"""Discrete-event Monte Carlo oracle.

Simulates the fleet as a phase-level CTMC built directly from the event
semantics (failures, shocks, damage, inspections, vacations, services),
without touching the assembled generator matrices.  For every visited state
the full outcome distribution -- rates, successor states and event labels --
is built once and cached, so the jump loop is a bisect over cumulative
probabilities and long horizons stay cheap.  A row is built from outcome
templates: each clock exit's outcomes are expanded once per state with
the fields the exit neither reads nor sets masked, and applied to every
state that shares them; each distinct target is checked once.  The rates
are the same products, summed in the same order, as a per-state
expansion gives.

The loop only walks: each draw picks an outcome of the current row and
records that outcome's key, the row's cache index and the event code
packed in one int.  Once per span of draws numpy turns the keys into dwell
times, finds the batch end, adds each dwell to its row's batch total in
visit order and counts the events.  At the end of the run one sort puts
the cached states in state order, and numpy folds availability, occupancy
and reward from the per-row totals in that order, batch by batch; fixed
costs are charged from each batch's event counts.

Estimates carry standard errors from batch means (BATCHES = 20 batches
per replication); replication r uses seed + r.
"""

import bisect
import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .config import ModelConfig
from .ph import renewal_stationary

EVENT_NAMES = ("A", "B", "C", "D", "CD", "E", "F", "NS")

# aggregated rate names -> event labels (kept local: this module must stay
# independent of the matrix pipeline)
RATE_GROUPS = {
    "repairable": ("A",),
    "major_inspection": ("B",),
    "nonrepairable": ("C", "CD", "NS"),
    "returns": ("D", "CD"),
    "returns_empty": ("E",),
    "vacations_after_repair": ("F",),
    "new_systems": ("NS",),
}

_CHUNK = 1 << 14
_SPAN = 1 << 11         # draws walked before numpy folds them
BATCHES = 20

# a walk key is row index * _CODES + event code; the last code is no event
_CODE = {e: c for c, e in enumerate((*EVENT_NAMES, None))}
_CODES = len(_CODE)


class SimulationError(RuntimeError):
    pass


class SimState(NamedTuple):
    """Phase-level system state.

    queue holds the repair-type marks (1 corrective, 2 preventive), head
    first.  internal/damage/inspection are 0-based phases of the online
    unit, or None when every unit is down; the shock clock always runs.
    clock is the vacation phase while on vacation, otherwise the service
    phase of the queue head (None when the repairperson sits idle).
    """

    k: int
    s: int
    queue: tuple
    on_vacation: bool
    internal: int | None
    shock: int
    damage: int | None
    inspection: int | None
    clock: int | None


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    stderr: float

    def covers(self, value: float, width: float = 3.0) -> bool:
        return abs(value - self.mean) <= width * max(self.stderr, 1e-12)


@dataclass(frozen=True)
class SimReport:
    availability: SimEstimate
    occupancy: dict           # (k, s, "v"/"nv") -> SimEstimate
    rates: dict               # aggregated rate name -> SimEstimate
    event_rates: dict         # raw event label -> SimEstimate
    profit: SimEstimate
    horizon: float
    replications: int
    seed: int


class _Row:
    """Cached transition row of one state, the index-th one cached.

    Per outcome: the cumulative probability, the target state, the event
    label, the walk key (index * _CODES + event code) and the successor
    row (linked on first use).
    """

    __slots__ = ("total", "cum", "targets", "events", "keys", "rows", "up",
                 "occ_key", "reward")

    def __init__(self, index, total, cum, targets, events, up, occ_key,
                 reward):
        self.total = total
        self.cum = cum
        self.targets = targets
        self.events = events
        self.keys = [index * _CODES + _CODE[ev] for ev in events]
        self.rows = [None] * len(targets)
        self.up = up
        self.occ_key = occ_key
        self.reward = reward


def _support(vec):
    return [(float(p), i) for i, p in enumerate(np.ravel(vec)) if p > 0.0]


def _spread(label, st, onlines, clocks, **fields):
    """Online phases x new clock: st with (internal, damage, inspection)
    drawn from onlines, clock from clocks and the given fields set."""
    return [(po * pc, st._replace(internal=i, damage=h, inspection=u,
                                  clock=w, **fields), label)
            for po, (i, h, u) in onlines for pc, w in clocks]


def _scaled(weight, outcomes) -> list:
    """A builder's outcomes at weight times their probabilities."""
    return [(weight * p, target, label) for p, target, label in outcomes]


def _moves(ph) -> list:
    """Per phase of a PH clock: the (rate, (new phase,)) of each move that
    stays inside the clock."""
    return [[(q, (p2,)) for p2, q in enumerate(row) if p2 != p and q > 0]
            for p, row in enumerate(ph.subgen.tolist())]


def _move(st, field, moves, out):
    """Append the moves of the clock in st's field to out's lists."""
    rates, targets, events = out
    head, tail = st[:field], st[field + 1:]
    for q, phase in moves:
        rates.append(q)
        targets.append(tuple.__new__(SimState, head + phase + tail))
        events.append(None)


def _apply(st, rate, template, out):
    """Append a clock exit's outcomes, at rate times the template's
    probabilities, to out's lists (see FleetSimulator._template)."""
    if rate > 0:
        rates, targets, events = out
        for p, label, head, start, stop, tail in template:
            rates.append(rate * p)
            targets.append(tuple.__new__(SimState,
                                         head + st[start:stop] + tail))
            events.append(label)


_DOWN = [(1.0, (None, None, None))]     # no unit online


def _state_order(st: SimState) -> tuple:
    """Sort key of a state: None (no unit online, idle clock) reads -1."""
    return tuple(-1 if v is None else v for v in st)


class FleetSimulator:
    """Event-level simulator of one model configuration."""

    def __init__(self, config: ModelConfig):
        self.c = c = config
        self._rows: dict = {}       # state -> row, in cache order
        self._cached: list = []     # rows by cache index
        self._valid: dict = {}      # target that passed assert_valid -> the
                                    # one object the rows share
        self._templates: dict = {}  # (builder, masked state) -> template
        # one marker per field: a masked field, copied from the state a
        # template is applied to
        self._keep = tuple(object() for _ in SimState._fields)
        self.N = {k: max(k - c.vacation_threshold + 1, 0)
                  for k in range(1, c.units + 1)}
        self._alpha = _support(c.internal.init)
        self._gamma = _support(c.shock.init)
        self._shock_start = _support(renewal_stationary(c.shock))
        self._omega = _support(c.damage_init)
        self._eta = _support(c.inspection.init)
        self._upsilon = _support(c.vacation.init)
        self._beta = (None, _support(c.corrective.init),
                      _support(c.preventive.init))
        self._fresh = [(pi * ph * pu, (i, h, u))
                       for pi, i in self._alpha
                       for ph, h in self._omega
                       for pu, u in self._eta]
        # each clock's moves and exit rates by phase, read once
        self._internal = (_moves(c.internal),
                          c.internal_exit_repairable.tolist(),
                          c.internal_exit_nonrepairable.tolist())
        self._inspection, self._shock, self._vacation = (
            (_moves(ph), ph.exit_vector.tolist())
            for ph in (c.inspection, c.shock, c.vacation))
        self._service = (None,
                         *((_moves(ph), ph.exit_vector.tolist())
                           for ph in (c.corrective, c.preventive)))
        costs = c.costs
        self._phase_costs = (costs.operational.tolist(), costs.damage.tolist(),
                             (None, costs.corrective.tolist(),
                              costs.preventive.tolist()))
        self._event_costs = {
            "A": costs.repairable_fixed, "B": costs.inspection_fixed,
            "NS": c.units * costs.new_unit,
            **dict.fromkeys(("D", "CD", "E"), costs.return_fixed)}

    # -- state construction ---------------------------------------------

    def initial_state(self, rng) -> SimState:
        """Fresh fleet, shock clock stationary, repairperson leaving."""
        def draw(dist):
            u = rng.random()
            acc = 0.0
            for p, val in dist:
                acc += p
                if u < acc:
                    return val
            return dist[-1][1]
        return SimState(self.c.units, 0, (), True,
                        draw(self._alpha),
                        draw(self._shock_start),
                        draw(self._omega), draw(self._eta),
                        draw(self._upsilon))

    def assert_valid(self, st: SimState):
        c = self.c
        ok = (1 <= st.k <= c.units and 0 <= st.s <= st.k
              and len(st.queue) == st.s
              and all(mark in (1, 2) for mark in st.queue))
        if st.on_vacation:
            ok = ok and st.k >= c.vacation_threshold and st.clock is not None
        elif st.k >= c.vacation_threshold:
            ok = ok and st.s >= self.N[st.k]
        if st.s < st.k:
            ok = ok and None not in (st.internal, st.damage, st.inspection)
        else:
            ok = ok and st.internal is None
        if not st.on_vacation:
            ok = ok and ((st.clock is None) == (st.s == 0))
        if not ok:
            raise SimulationError(f"invalid simulator state {st}")

    # -- event outcome distributions -------------------------------------
    # each builder returns a list of (probability, state, event-label); it
    # runs once per template, on a state whose unread fields are masked

    def _to_queue(self, st: SimState, mark: int, label: str):
        s = st.s + 1
        online = self._fresh if s < st.k else _DOWN
        clocks = (self._beta[mark] if not st.on_vacation and st.s == 0
                  else [(1.0, st.clock)])
        return _spread(label, st, online, clocks,
                       s=s, queue=st.queue + (mark,))

    def _repairable_failure(self, st: SimState):
        return self._to_queue(st, 1, "A")

    def _drop_unit(self, st: SimState):
        """The online unit is lost for good (shock phase already resolved)."""
        c = self.c
        if st.k == 1:
            return _spread("NS", st, self._fresh, self._upsilon,
                           k=c.units, s=0, queue=(), on_vacation=True)
        k = st.k - 1
        online = self._fresh if st.s < k else _DOWN
        if st.on_vacation and st.k == c.vacation_threshold:
            # dropping below the threshold recalls the repairperson
            clocks = self._beta[st.queue[0]] if st.s >= 1 else [(1.0, None)]
            return _spread("CD", st, online, clocks,
                           k=k, on_vacation=False)
        return _spread("C", st, online, [(1.0, st.clock)], k=k)

    def _shock_outcomes(self, st: SimState):
        """Shock arrival: the clock renews, then, with a unit online, total
        failure / damage / effect, each failure by the drop or repair
        builder on st with the new shock phase."""
        c = self.c
        i, h = st.internal, st.damage
        w0 = float(c.total_failure_prob)
        out = []
        for pg, j2 in self._gamma:
            renewed = st._replace(shock=j2)
            if i is None:
                # no unit online to harm: phase renewal only
                out.append((pg, renewed, None))
                continue
            drop = self._drop_unit(renewed)
            if w0 > 0:
                out += _scaled(pg * w0, drop)
            rest = pg * (1.0 - w0)
            if rest == 0:
                continue
            damage_exit = float(c.damage_exit[h])
            if damage_exit > 0:
                out += _scaled(rest * damage_exit, drop)
            effects = _support(c.shock_effect[i])
            pr = float(c.shock_repairable[i])
            pnr = float(c.shock_nonrepairable[i])
            repair = self._repairable_failure(renewed)
            for ph, h2 in _support(c.damage_matrix[h]):
                base = rest * ph
                out += [(base * pw, renewed._replace(internal=i2, damage=h2),
                         None) for pw, i2 in effects]
                if pr > 0:
                    out += _scaled(base * pr, repair)
                if pnr > 0:
                    out += _scaled(base * pnr, drop)
        return out

    def _major_inspection(self, st: SimState):
        return self._to_queue(st, 2, "B")

    def _minor_inspection(self, st: SimState):
        return [(pe, st._replace(inspection=u2), None) for pe, u2 in self._eta]

    def _service_outcomes(self, st: SimState):
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

    def _vacation_outcomes(self, st: SimState):
        if st.s >= self.N[st.k] and st.s >= 1:
            return [(pc, st._replace(on_vacation=False, clock=w), "D")
                    for pc, w in self._beta[st.queue[0]]]
        return [(pw, st._replace(clock=w), "E") for pw, w in self._upsilon]

    # -- transition rows --------------------------------------------------

    def row(self, st: SimState) -> _Row:
        cached = self._rows.get(st)
        if cached is None:
            cached = self._rows[st] = self._build_row(st, len(self._cached))
            self._cached.append(cached)
        return cached

    def _template(self, builder: str, masked: tuple) -> list:
        """The outcomes the builder gives on the masked state, kept per
        (builder, masked), each as (probability, label, head, start, stop,
        tail): applied to a state st, the target is head + st[start:stop]
        + tail.  The masked fields a builder copies form one run."""
        template = self._templates.get((builder, masked))
        if template is None:
            keep = self._keep
            template = []
            for p, target, label in getattr(self, builder)(
                    SimState._make(masked)):
                kept = [f for f, v in enumerate(target) if v is keep[f]]
                start = kept[0] if kept else 0
                stop = start + len(kept)
                assert kept == list(range(start, stop)), (builder, masked)
                template.append((p, label, target[:start], start, stop,
                                 target[stop:]))
            self._templates[builder, masked] = template
        return template

    def _build_row(self, st: SimState, index: int) -> _Row:
        """The row of st: each running clock's moves, then its exits.

        Clocks come in a fixed order (internal, inspection, shock, then
        vacation or service), and each rate is the product the event
        semantics give, in the same order.  Each exit's outcomes come from
        a template kept per builder and masked state (st with the fields
        the builder neither reads nor sets masked), so states that differ
        only there share it.  Each distinct target is checked once per
        simulator and kept as one object; the pathwise event identities
        are checked on every edge.
        """
        c = self.c
        k, s, queue, vacation, i, j, h, u, w = st
        keep = self._keep
        out = [], [], []        # rates, targets, events
        if s < k:
            # st with the online and shock phases masked
            macro = (k, s, queue, vacation, *keep[4:8], w)
            moves, repairable, nonrepairable = self._internal
            _move(st, 4, moves[i], out)
            _apply(st, repairable[i],
                   self._template("_repairable_failure", macro), out)
            _apply(st, nonrepairable[i], self._template("_drop_unit", macro),
                   out)
            moves, exits = self._inspection
            _move(st, 7, moves[u], out)
            major = i >= c.minor_internal or h >= c.minor_damage
            _apply(st, exits[u], self._template(
                "_major_inspection" if major and c.pm_enabled
                else "_minor_inspection", macro), out)
        moves, exits = self._shock
        _move(st, 5, moves[j], out)
        # the shock builder reads the internal and damage phases
        _apply(st, exits[j], self._template(
            "_shock_outcomes", (k, s, queue, vacation, i, keep[5], h,
                                *keep[7:])), out)
        if vacation or s >= 1:
            if vacation:
                (moves, exits), builder = self._vacation, "_vacation_outcomes"
            else:
                (moves, exits), builder = (self._service[queue[0]],
                                           "_service_outcomes")
            _move(st, 8, moves[w], out)
            # the vacation and service builders set the clock phase
            _apply(st, exits[w], self._template(
                builder, (k, s, queue, vacation, *keep[4:])), out)
        rates, targets, events = out
        total = float(np.add.reduce(rates))
        if total <= 0:
            raise SimulationError(f"absorbing simulator state {st}")
        valid = self._valid
        for n, (nxt, ev) in enumerate(zip(targets, events)):
            known = valid.get(nxt)
            if known is None:
                self.assert_valid(nxt)
                valid[nxt] = nxt
            else:
                targets[n] = known
            # pathwise event identities
            if ev == "NS" and k != 1:
                raise SimulationError("fleet renewal not preceded by k = 1")
            if ev == "F" and nxt.s != self.N[nxt.k] - 1:
                raise SimulationError("vacation start does not leave N - 1 "
                                      "units in the facility")
        return _Row(index, total, [r / total for r in accumulate(rates)],
                    tuple(targets), tuple(events), s < k,
                    (k, s, "v" if vacation else "nv"), self._reward_rate(st))

    # -- reward accounting -------------------------------------------------

    def _reward_rate(self, st: SimState) -> float:
        c = self.c.costs
        operational, damage, service = self._phase_costs
        presence = c.vacation if st.on_vacation else c.repair_present
        if st.s == st.k:
            rate = -(c.downtime_loss + presence)
        else:
            rate = (c.gross_profit - presence
                    - operational[st.internal] - damage[st.damage])
        if not st.on_vacation and st.s >= 1:
            rate -= service[st.queue[0]][st.clock]
        return float(rate)

    # -- trajectory -----------------------------------------------------------

    def run(self, horizon: float, rng) -> list:
        """One replication: per-batch time-averages over [0, horizon].

        The walk follows a span of draws ahead of the batch clock; numpy
        then repeats the per-jump arithmetic on the span, remaining -= dwell
        by subtract.accumulate and the per-row sums by add.at in visit
        order.  A batch ends mid-sojourn at the first draw whose dwell
        reaches the remaining time: that draw is consumed, its outcome
        not taken, and the steps walked past it are dropped; the next
        batch resumes from the same row at the next draw.  So that few
        steps are dropped, a span is cut to the draws the batch is
        expected to have left, at the run's draws per unit time so far.
        The batches are folded at the end of the run, when each row the
        run reached is cached; a row first cached after a batch has no
        time in it.
        """
        per = horizon / BATCHES
        bisect_right = bisect.bisect
        row = self.row(self.initial_state(rng))
        total = np.zeros(0)         # exit rate by cache index
        ptr = _CHUNK
        # the run's draws per unit time, seeded by the first row's exit rate
        drawn, elapsed = 1, 1.0 / row.total
        batches = []
        for _ in range(BATCHES):
            remaining = per
            time = np.zeros(total.size)     # batch dwell by cache index
            counts = np.zeros(_CODES, dtype=np.int64)
            while True:
                if ptr == _CHUNK:
                    exps = rng.standard_exponential(_CHUNK)
                    unis = rng.random(_CHUNK)
                    ptr = 0
                # the draws the batch is expected to have left, one Poisson
                # deviation and 16 more
                want = remaining * drawn / elapsed
                want += math.sqrt(want) + 16.0
                end = min(ptr + int(min(want, _SPAN)), _CHUNK)
                walked = []
                step = walked.append
                r = row
                for u in unis[ptr:end].tolist():
                    idx = bisect_right(r.cum, u)
                    step(r.keys[idx])
                    nxt = r.rows[idx]
                    if nxt is None:
                        nxt = r.rows[idx] = self.row(r.targets[idx])
                    r = nxt
                if total.size < len(self._cached):
                    added = self._cached[total.size:]
                    total = np.concatenate((total, [a.total for a in added]))
                    time = np.concatenate((time, np.zeros(len(added))))
                keys = np.fromiter(walked, np.int64, len(walked))
                src = keys // _CODES
                left = np.empty(keys.size + 1)
                left[0] = remaining
                dwell = left[1:]
                np.divide(exps[ptr:end], total[src], out=dwell)
                # left[i]: the batch time left when draw ptr + i comes
                left = np.subtract.accumulate(left)
                hit = dwell >= left[:-1]
                stop = int(hit.argmax())
                ends = bool(hit[stop])
                if not ends:
                    stop = keys.size
                np.add.at(time, src[:stop], dwell[:stop])
                counts += np.bincount(keys[:stop] % _CODES, minlength=_CODES)
                if ends:
                    # the residual sojourn is memoryless
                    time[src[stop]] += left[stop]
                    row = self._cached[src[stop]]
                    ptr += stop + 1
                    drawn += stop + 1
                    elapsed += remaining
                    break
                drawn += keys.size
                elapsed += remaining - left[-1]
                remaining = left[-1]
                row = r
                ptr = end
            batches.append((time, counts))
        by_state = self._state_arrays()
        # zip drops the last code, no event
        return [self._fold(per, time, dict(zip(EVENT_NAMES, counts.tolist())),
                           by_state)
                for time, counts in batches]

    def _state_arrays(self) -> tuple:
        """The cached rows in state order, by one sort of the cached
        states, as arrays: cache index, and with a leading place that
        reads 0.0, the positions of the up rows, the reward rates and the
        occupancy slots; then the occupancy key of each slot.  Slots come
        in the state order of their key's first row."""
        order = [_state_order(st) for st in self._rows]
        index = sorted(range(len(order)), key=order.__getitem__)
        rows = [self._cached[p] for p in index]
        slots: dict = {}
        return (np.array(index),
                np.array([0] + [p for p, row in enumerate(rows, 1) if row.up]),
                np.array([0.0] + [row.reward for row in rows]),
                np.array([0] + [slots.setdefault(row.occ_key, len(slots))
                                for row in rows]),
                list(slots))

    def _fold(self, per: float, time, counts: dict, by_state: tuple) -> dict:
        """Batch time-averages from the batch's dwell time per row.

        time[i] is the batch dwell of the row with cache index i, summed
        in visit order; by_state is _state_arrays' at the end of the run.
        Rows are folded in state order, never in cache order, so a run
        gives the same figures whatever earlier runs left in the cache.
        Each sum runs left to right from 0.0, by cumsum for the up time
        and the reward and by add.at into one slot per occupancy key; a
        row with no time adds an exact zero.  Times are >= 0, so a slot
        has time iff one of its rows has; only those keys are kept.
        """
        index, up_at, rewards, slots, occ_keys = by_state
        # rows first cached after the batch have no time in it
        dwell = np.zeros(index.size)
        dwell[:time.size] = time
        t = np.concatenate(([0.0], dwell[index]))
        occ = np.zeros(len(occ_keys))
        np.add.at(occ, slots, t)
        timed = np.flatnonzero(occ)
        up = float(np.cumsum(t[up_at])[-1])
        reward = float(np.cumsum(t * rewards)[-1])
        fixed = sum(counts[e] * cost for e, cost in self._event_costs.items())
        return {
            "up": up / per,
            "occ": {occ_keys[p]: val / per for p, val
                    in zip(timed.tolist(), occ[timed].tolist())},
            "counts": {e: counts[e] / per for e in EVENT_NAMES},
            "profit": (reward - fixed) / per,
        }


def _combine(samples) -> SimEstimate:
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return SimEstimate(mean, se)


def _replications(config, horizon, seeds) -> list:
    """One run per seed on one simulator, whose row cache later runs reuse."""
    sim = FleetSimulator(config)
    runs = [sim.run(horizon, np.random.default_rng(s)) for s in seeds]
    # cached rows link to their successors; unlinked, the cache is freed
    # here and not left as cyclic garbage for a later full collection
    for row in sim._rows.values():
        row.rows = None
    return runs


def simulate(config: ModelConfig, horizon: float = 1e6,
             replications: int = 20, seed: int = 0,
             threads: int = 1) -> SimReport:
    """Monte Carlo estimates with batch-means standard errors."""
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError("simulation horizon must be positive and finite")
    if replications < 1:
        raise ValueError("need at least one replication")
    if threads < 1:
        raise ValueError("need at least one thread")
    seeds = [seed + r for r in range(replications)]
    threads = min(threads, replications)    # no idle workers
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            # worker w runs seeds w, w + threads, ...; back in seed order below
            shares = list(pool.map(partial(_replications, config, horizon),
                                   [seeds[w::threads] for w in range(threads)]))
        runs = [shares[r % threads][r // threads] for r in range(replications)]
    else:
        runs = _replications(config, horizon, seeds)
    batches = [batch for run in runs for batch in run]
    counts = {e: np.array([b["counts"][e] for b in batches])
              for e in EVENT_NAMES}
    occ_keys = dict.fromkeys(key for b in batches for key in b["occ"])
    return SimReport(
        availability=_combine([b["up"] for b in batches]),
        occupancy={key: _combine([b["occ"].get(key, 0.0) for b in batches])
                   for key in occ_keys},
        rates={name: _combine(sum(counts[e] for e in labels))
               for name, labels in RATE_GROUPS.items()},
        event_rates={e: _combine(v) for e, v in counts.items()},
        profit=_combine([b["profit"] for b in batches]),
        horizon=horizon,
        replications=replications,
        seed=seed,
    )


# -- cross-validation ---------------------------------------------------------

@dataclass(frozen=True)
class ValidationRow:
    name: str
    analytic: float
    estimate: float
    stderr: float
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    """Analytic values against the simulator's bands; cli renders the table."""

    rows: tuple
    width: float

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def validate(analytic: dict, sim: SimReport, width: float = 3.0) -> ValidationReport:
    """Flag analytic quantities outside the simulator's error bands.

    analytic maps quantity names to values; recognised names are
    "availability", "profit" and the aggregated rate names.
    """
    estimates = {**sim.event_rates, **sim.rates,
                 "availability": sim.availability, "profit": sim.profit}
    rows = []
    for name, value in analytic.items():
        if name not in estimates:
            raise KeyError(f"unknown validation quantity {name!r}")
        est = estimates[name]
        rows.append(ValidationRow(name, float(value), est.mean, est.stderr,
                                  est.covers(value, width)))
    if not rows:
        raise ValueError("nothing to validate")
    return ValidationReport(tuple(rows), width)
