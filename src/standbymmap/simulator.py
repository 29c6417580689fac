"""Discrete-event Monte Carlo oracle.

Simulates the fleet as a phase-level CTMC built directly from the event
semantics (failures, shocks, damage, inspections, vacations, services),
without touching the assembled generator matrices.  For every visited state
the full outcome distribution -- rates, successor states and event labels --
is expanded once and cached, so the jump loop is a bisect over cumulative
probabilities and long horizons stay cheap.  The loop only walks: each
draw picks an outcome of the current row and records that outcome's key,
the row's cache index and the event code packed in one int.  Once per span
of draws numpy turns the keys into dwell times, finds the batch end, adds
each dwell to its row's batch total in visit order and counts the events.
Availability, occupancy and reward are folded from the per-row totals once
per batch, in state order, and fixed costs are charged from the batch's
event counts.

Estimates carry standard errors from batch means (BATCHES = 20 batches
per replication); replication r uses seed + r.
"""

import bisect
import math
from dataclasses import dataclass
from functools import partial
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
    samples: int

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
    label, the walk key and the successor row (linked on first use).
    """

    __slots__ = ("index", "total", "cum", "targets", "events", "keys",
                 "rows", "up", "occ_key", "reward")

    def __init__(self, index, total, cum, targets, events, up, occ_key,
                 reward):
        self.index = index
        self.total = total
        self.cum = cum
        self.targets = targets
        self.events = events
        # one int object per distinct key, shared by the outcomes
        key = {ev: index * _CODES + _CODE[ev] for ev in set(events)}
        self.keys = [key[ev] for ev in events]
        self.rows = [None] * len(targets)
        self.up = up
        self.occ_key = occ_key
        self.reward = reward


def _support(vec):
    return [(float(p), i) for i, p in enumerate(np.ravel(vec)) if p > 0.0]


def _scale(weight, outcomes):
    return [(weight * p, nxt, ev) for p, nxt, ev in outcomes]


def _spread(label, st, onlines, clocks, **fields):
    """Online phases x new clock: st with (internal, damage, inspection)
    drawn from onlines, clock from clocks and the given fields set."""
    return [(po * pc, st._replace(internal=i, damage=h, inspection=u,
                                  clock=w, **fields), label)
            for po, (i, h, u) in onlines for pc, w in clocks]


_DOWN = [(1.0, (None, None, None))]     # no unit online


def _state_order(st: SimState) -> tuple:
    """Sort key of a state: None (no unit online, idle clock) reads -1."""
    return tuple(-1 if v is None else v for v in st)


class FleetSimulator:
    """Event-level simulator of one model configuration."""

    def __init__(self, config: ModelConfig):
        self.c = c = config
        self._rows: dict = {}
        self._cached: list = []     # rows by cache index
        self._order: list = []      # (state order, row), kept sorted
        self.N = {k: max(k - c.vacation_threshold + 1, 0)
                  for k in range(1, c.units + 1)}
        self.S = (None, c.corrective, c.preventive)
        self._alpha = _support(c.internal.init)
        self._gamma = _support(c.shock.init)
        self._omega = _support(c.damage_init)
        self._eta = _support(c.inspection.init)
        self._upsilon = _support(c.vacation.init)
        self._beta = (None, _support(c.corrective.init),
                      _support(c.preventive.init))
        self._fresh = [(pi * ph * pu, (i, h, u))
                       for pi, i in self._alpha
                       for ph, h in self._omega
                       for pu, u in self._eta]
        costs = c.costs
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
                        draw(_support(renewal_stationary(self.c.shock))),
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
    # each builder returns a list of (probability, state, event-label)

    def _to_queue(self, st: SimState, mark: int, label: str):
        s = st.s + 1
        online = self._fresh if s < st.k else _DOWN
        clocks = (self._beta[mark] if not st.on_vacation and st.s == 0
                  else [(1.0, st.clock)])
        return _spread(label, st, online, clocks,
                       s=s, queue=st.queue + (mark,))

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
        """Shock arrival: clock renews, then total failure / damage / effect."""
        c = self.c
        out = []
        for pg, j2 in self._gamma:
            renewed = st._replace(shock=j2)
            if st.s == st.k:
                # no unit online to harm: phase renewal only
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

    def _inspection_outcomes(self, st: SimState):
        c = self.c
        major = (st.internal >= c.minor_internal
                 or st.damage >= c.minor_damage)
        if major and c.pm_enabled:
            return self._to_queue(st, 2, "B")
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
            bisect.insort(self._order, (_state_order(st), cached))
        return cached

    def _clocks(self, st: SimState) -> list:
        """(field, sub-generator, [(exit rate, outcome builder)]) of each
        running clock; the order fixes the cumulative row."""
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

    def _build_row(self, st: SimState, index: int) -> _Row:
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
        if total <= 0:
            raise SimulationError(f"absorbing simulator state {st}")
        for nxt, ev in zip(targets, events):
            self.assert_valid(nxt)
            # pathwise event identities
            if ev == "NS" and st.k != 1:
                raise SimulationError("fleet renewal not preceded by k = 1")
            if ev == "F" and nxt.s != self.N[nxt.k] - 1:
                raise SimulationError("vacation start does not leave N - 1 "
                                      "units in the facility")
        return _Row(index, total, (np.cumsum(rates) / total).tolist(), targets,
                    events, st.s < st.k,
                    (st.k, st.s, "v" if st.on_vacation else "nv"),
                    self._reward_rate(st))

    # -- reward accounting -------------------------------------------------

    def _reward_rate(self, st: SimState) -> float:
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
        """
        per = horizon / BATCHES
        bisect_right = bisect.bisect
        row = self.row(self.initial_state(rng))
        total = np.zeros(0)         # exit rate by cache index
        ptr = _CHUNK
        # the run's draws per unit time, seeded by the first row's exit rate
        drawn, elapsed = 1, 1.0 / row.total
        out = []
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
            # zip drops the last code, no event
            out.append(self._fold(per, time,
                                  dict(zip(EVENT_NAMES, counts.tolist()))))
        return out

    def _fold(self, per: float, time, counts: dict) -> dict:
        """Batch time-averages from the batch's dwell time per row.

        time[i] is the batch dwell of the row with cache index i, summed
        in visit order.  Rows are folded in state order, never in cache
        order, so a run gives the same figures whatever earlier runs left
        in the cache.
        """
        times = time.tolist()
        up = reward = 0.0
        occ: dict = {}
        for _, row in self._order:
            t = times[row.index]
            if t:
                if row.up:
                    up += t
                occ[row.occ_key] = occ.get(row.occ_key, 0.0) + t
                reward += t * row.reward
        fixed = sum(counts[e] * cost for e, cost in self._event_costs.items())
        return {
            "up": up / per,
            "occ": {key: val / per for key, val in occ.items()},
            "counts": {e: counts[e] / per for e in EVENT_NAMES},
            "profit": (reward - fixed) / per,
        }


def _combine(samples) -> SimEstimate:
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return SimEstimate(mean, se, arr.size)


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
    rows: tuple
    width: float

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_text(self) -> str:
        band = f"{self.width:g} s.e."
        lines = [f"{'quantity':<28}{'analytic':>14}{'simulated':>14}"
                 f"{band:>12}  status"]
        for r in self.rows:
            lines.append(f"{r.name:<28}{r.analytic:>14.6f}{r.estimate:>14.6f}"
                         f"{self.width * r.stderr:>12.6f}  "
                         f"{'ok' if r.ok else 'FAIL'}")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


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
