"""Discrete-event Monte Carlo oracle.

Simulates the fleet as a phase-level CTMC built directly from the event
semantics (failures, shocks, damage, inspections, vacations, services),
without touching the assembled generator matrices.  For every visited state
the full outcome distribution -- rates, successor states and event labels --
is expanded once and cached, so the jump loop is a bisect over cumulative
probabilities and long horizons stay cheap.

Estimates carry standard errors from batch means (20 batches per
replication by default); replication r uses seed + r.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .ph import PhDistribution, renewal_stationary

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


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimState:
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
    """Cached transition row of one state."""

    __slots__ = ("total", "cum", "targets", "events", "rows",
                 "up", "occ_key", "reward")

    def __init__(self, total, cum, targets, events, up, occ_key, reward):
        self.total = total
        self.cum = cum
        self.targets = targets
        self.events = events
        self.rows = [None] * len(targets)
        self.up = up
        self.occ_key = occ_key
        self.reward = reward


def _support(vec):
    return [(float(p), i) for i, p in enumerate(np.ravel(vec)) if p > 0.0]


class FleetSimulator:
    """Event-level simulator of one model configuration."""

    def __init__(self, config: ModelConfig):
        self.c = config
        c = config
        self._rows: dict = {}
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
        queue = st.queue + (mark,)
        s = st.s + 1
        online = self._fresh if s < st.k else [(1.0, (None, None, None))]
        if not st.on_vacation and st.s == 0:
            clocks = self._beta[mark]
        else:
            clocks = [(1.0, st.clock)]
        return [(po * pc,
                 SimState(st.k, s, queue, st.on_vacation, i, st.shock, h, u, w),
                 label)
                for po, (i, h, u) in online for pc, w in clocks]

    def _drop_unit(self, st: SimState, shock: int):
        """The online unit is lost for good (shock phase already resolved)."""
        c = self.c
        if st.k == 1:
            return [(po * pw,
                     SimState(c.units, 0, (), True, i, shock, h, u, w), "NS")
                    for po, (i, h, u) in self._fresh
                    for pw, w in self._upsilon]
        k = st.k - 1
        online = self._fresh if st.s < k else [(1.0, (None, None, None))]
        if st.on_vacation and st.k == c.vacation_threshold:
            # dropping below the threshold recalls the repairperson
            clocks = self._beta[st.queue[0]] if st.s >= 1 else [(1.0, None)]
            return [(po * pc,
                     SimState(k, st.s, st.queue, False, i, shock, h, u, w),
                     "CD")
                    for po, (i, h, u) in online for pc, w in clocks]
        return [(po,
                 SimState(k, st.s, st.queue, st.on_vacation, i, shock, h, u,
                          st.clock), "C")
                for po, (i, h, u) in online]

    def _shock_outcomes(self, st: SimState):
        """Shock arrival: clock renews, then total failure / damage / effect."""
        c = self.c
        out = []
        for pg, j2 in self._gamma:
            renewed = SimState(st.k, st.s, st.queue, st.on_vacation,
                               st.internal, j2, st.damage, st.inspection,
                               st.clock)
            if st.s == st.k:
                # no unit online to harm: phase renewal only
                out.append((pg, renewed, None))
                continue
            w0 = c.total_failure_prob
            if w0 > 0:
                out += [(pg * w0 * p, nxt, ev)
                        for p, nxt, ev in self._drop_unit(renewed, j2)]
            rest = pg * (1.0 - w0)
            if rest == 0:
                continue
            h = st.damage
            if c.damage_exit[h] > 0:
                out += [(rest * c.damage_exit[h] * p, nxt, ev)
                        for p, nxt, ev in self._drop_unit(renewed, j2)]
            for ph, h2 in _support(c.damage_matrix[h]):
                moved = SimState(st.k, st.s, st.queue, st.on_vacation,
                                 st.internal, j2, h2, st.inspection, st.clock)
                base = rest * ph
                for pw, i2 in _support(c.shock_effect[st.internal]):
                    out.append((base * pw,
                                SimState(st.k, st.s, st.queue, st.on_vacation,
                                         i2, j2, h2, st.inspection, st.clock),
                                None))
                pr = c.shock_repairable[st.internal]
                if pr > 0:
                    out += [(base * pr * p, nxt, ev)
                            for p, nxt, ev in self._to_queue(moved, 1, "A")]
                pnr = c.shock_nonrepairable[st.internal]
                if pnr > 0:
                    out += [(base * pnr * p, nxt, ev)
                            for p, nxt, ev in self._drop_unit(moved, j2)]
        return out

    def _inspection_outcomes(self, st: SimState):
        c = self.c
        major = (st.internal >= c.minor_internal
                 or st.damage >= c.minor_damage)
        if major and c.pm_enabled:
            return self._to_queue(st, 2, "B")
        return [(pe, SimState(st.k, st.s, st.queue, st.on_vacation,
                              st.internal, st.shock, st.damage, u2, st.clock),
                 None)
                for pe, u2 in self._eta]

    def _service_outcomes(self, st: SimState):
        c = self.c
        queue = st.queue[1:]
        s = st.s - 1
        online = (self._fresh if st.s == st.k
                  else [(1.0, (st.internal, st.damage, st.inspection))])
        if st.k >= c.vacation_threshold and s == self.N[st.k] - 1:
            return [(po * pw,
                     SimState(st.k, s, queue, True, i, st.shock, h, u, w), "F")
                    for po, (i, h, u) in online for pw, w in self._upsilon]
        clocks = self._beta[queue[0]] if s >= 1 else [(1.0, None)]
        return [(po * pc,
                 SimState(st.k, s, queue, False, i, st.shock, h, u, w), None)
                for po, (i, h, u) in online for pc, w in clocks]

    def _vacation_outcomes(self, st: SimState):
        if st.s >= self.N[st.k] and st.s >= 1:
            return [(pc, SimState(st.k, st.s, st.queue, False, st.internal,
                                  st.shock, st.damage, st.inspection, w), "D")
                    for pc, w in self._beta[st.queue[0]]]
        return [(pw, SimState(st.k, st.s, st.queue, True, st.internal,
                              st.shock, st.damage, st.inspection, w), "E")
                for pw, w in self._upsilon]

    # -- transition rows --------------------------------------------------

    def row(self, st: SimState) -> _Row:
        cached = self._rows.get(st)
        if cached is None:
            cached = self._build_row(st)
            self._rows[st] = cached
        return cached

    def _build_row(self, st: SimState) -> _Row:
        c = self.c
        entries = []

        def add(rate, outcomes):
            entries.extend((rate * p, nxt, ev) for p, nxt, ev in outcomes)

        if st.s < st.k:
            i = st.internal
            for i2, q in enumerate(c.internal.subgen[i]):
                if i2 != i and q > 0:
                    add(q, [(1.0, SimState(st.k, st.s, st.queue,
                                           st.on_vacation, i2, st.shock,
                                           st.damage, st.inspection,
                                           st.clock), None)])
            if c.internal_exit_repairable[i] > 0:
                add(c.internal_exit_repairable[i], self._to_queue(st, 1, "A"))
            if c.internal_exit_nonrepairable[i] > 0:
                add(c.internal_exit_nonrepairable[i],
                    self._drop_unit(st, st.shock))
            u = st.inspection
            for u2, q in enumerate(c.inspection.subgen[u]):
                if u2 != u and q > 0:
                    add(q, [(1.0, SimState(st.k, st.s, st.queue,
                                           st.on_vacation, st.internal,
                                           st.shock, st.damage, u2,
                                           st.clock), None)])
            if c.inspection.exit_vector[u] > 0:
                add(c.inspection.exit_vector[u], self._inspection_outcomes(st))
        j = st.shock
        for j2, q in enumerate(c.shock.subgen[j]):
            if j2 != j and q > 0:
                add(q, [(1.0, SimState(st.k, st.s, st.queue, st.on_vacation,
                                       st.internal, j2, st.damage,
                                       st.inspection, st.clock), None)])
        if c.shock.exit_vector[j] > 0:
            add(c.shock.exit_vector[j], self._shock_outcomes(st))
        if st.on_vacation:
            w = st.clock
            for w2, q in enumerate(c.vacation.subgen[w]):
                if w2 != w and q > 0:
                    add(q, [(1.0, SimState(st.k, st.s, st.queue, True,
                                           st.internal, st.shock, st.damage,
                                           st.inspection, w2), None)])
            if c.vacation.exit_vector[w] > 0:
                add(c.vacation.exit_vector[w], self._vacation_outcomes(st))
        elif st.s >= 1:
            S = self.S[st.queue[0]]
            r = st.clock
            for r2, q in enumerate(S.subgen[r]):
                if r2 != r and q > 0:
                    add(q, [(1.0, SimState(st.k, st.s, st.queue, False,
                                           st.internal, st.shock, st.damage,
                                           st.inspection, r2), None)])
            if S.exit_vector[r] > 0:
                add(S.exit_vector[r], self._service_outcomes(st))

        rates = np.array([e[0] for e in entries])
        total = float(rates.sum())
        if total <= 0:
            raise SimulationError(f"absorbing simulator state {st}")
        targets = [e[1] for e in entries]
        events = [e[2] for e in entries]
        for nxt, ev in zip(targets, events):
            self.assert_valid(nxt)
            # pathwise event identities
            if ev == "NS" and st.k != 1:
                raise SimulationError("fleet renewal not preceded by k = 1")
            if ev == "F" and nxt.s != self.N[nxt.k] - 1:
                raise SimulationError("vacation start does not leave N - 1 "
                                      "units in the facility")
        return _Row(total, np.cumsum(rates) / total, targets, events,
                    st.s < st.k,
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

    def event_cost(self, ev: str) -> float:
        c = self.c.costs
        if ev == "A":
            return c.repairable_fixed
        if ev == "B":
            return c.inspection_fixed
        if ev == "NS":
            return self.c.units * c.new_unit
        if ev in ("D", "CD", "E"):
            return c.return_fixed
        return 0.0

    # -- trajectory -----------------------------------------------------------

    def run(self, horizon: float, rng, batches: int = 20) -> list:
        """One replication: per-batch time-averages over [0, horizon]."""
        per = horizon / batches
        row = self.row(self.initial_state(rng))
        exps = rng.standard_exponential(_CHUNK)
        unis = rng.random(_CHUNK)
        ptr = 0
        out = []
        for _ in range(batches):
            remaining = per
            up = 0.0
            occ: dict = {}
            counts = dict.fromkeys(EVENT_NAMES, 0)
            reward = 0.0
            fixed = 0.0
            while True:
                if ptr == _CHUNK:
                    exps = rng.standard_exponential(_CHUNK)
                    unis = rng.random(_CHUNK)
                    ptr = 0
                dwell = exps[ptr] / row.total
                if dwell >= remaining:
                    # batch ends mid-sojourn; the residual is memoryless
                    if row.up:
                        up += remaining
                    occ[row.occ_key] = occ.get(row.occ_key, 0.0) + remaining
                    reward += remaining * row.reward
                    ptr += 1
                    break
                if row.up:
                    up += dwell
                occ[row.occ_key] = occ.get(row.occ_key, 0.0) + dwell
                reward += dwell * row.reward
                remaining -= dwell
                idx = bisect.bisect(row.cum, unis[ptr])
                ptr += 1
                ev = row.events[idx]
                if ev is not None:
                    counts[ev] += 1
                    fixed += self.event_cost(ev)
                nxt = row.rows[idx]
                if nxt is None:
                    nxt = self.row(row.targets[idx])
                    row.rows[idx] = nxt
                row = nxt
            out.append({
                "up": up / per,
                "occ": {key: val / per for key, val in occ.items()},
                "counts": {e: counts[e] / per for e in EVENT_NAMES},
                "profit": (reward - fixed) / per,
            })
        return out


def _combine(samples, pad_to=None) -> SimEstimate:
    arr = np.asarray(samples, dtype=float)
    if pad_to is not None and arr.size < pad_to:
        arr = np.concatenate([arr, np.zeros(pad_to - arr.size)])
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return SimEstimate(mean, se, arr.size)


def _replication(config, horizon, seed, batches):
    sim = FleetSimulator(config)
    return sim.run(horizon, np.random.default_rng(seed), batches=batches)


def simulate(config: ModelConfig, horizon: float = 1e6,
             replications: int = 20, seed: int = 0,
             batches_per_rep: int = 20, threads: int = 1) -> SimReport:
    """Monte Carlo estimates with batch-means standard errors."""
    if horizon <= 0:
        raise ValueError("simulation horizon must be positive")
    if replications < 1:
        raise ValueError("need at least one replication")
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(_replication, [config] * replications,
                                 [horizon] * replications,
                                 [seed + r for r in range(replications)],
                                 [batches_per_rep] * replications))
    else:
        sim = FleetSimulator(config)
        runs = [sim.run(horizon, np.random.default_rng(seed + rep),
                        batches=batches_per_rep)
                for rep in range(replications)]
    up, profit = [], []
    occ: dict = {}
    counts: dict = {e: [] for e in EVENT_NAMES}
    for run in runs:
        for batch in run:
            up.append(batch["up"])
            profit.append(batch["profit"])
            for key, val in batch["occ"].items():
                occ.setdefault(key, []).append(val)
            for e in EVENT_NAMES:
                counts[e].append(batch["counts"][e])
    nsamp = replications * batches_per_rep
    raw = {e: _combine(v) for e, v in counts.items()}
    grouped = {}
    for name, labels in RATE_GROUPS.items():
        sums = np.zeros(nsamp)
        for label in labels:
            sums += np.asarray(counts[label])
        grouped[name] = _combine(sums)
    return SimReport(
        availability=_combine(up),
        occupancy={key: _combine(vals, pad_to=nsamp)
                   for key, vals in occ.items()},
        rates=grouped,
        event_rates=raw,
        profit=_combine(profit),
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
    rows = []
    for name, value in analytic.items():
        if name == "availability":
            est = sim.availability
        elif name == "profit":
            est = sim.profit
        elif name in sim.rates:
            est = sim.rates[name]
        elif name in sim.event_rates:
            est = sim.event_rates[name]
        else:
            raise KeyError(f"unknown validation quantity {name!r}")
        rows.append(ValidationRow(name, float(value), est.mean, est.stderr,
                                  est.covers(value, width)))
    if not rows:
        raise ValueError("nothing to validate")
    return ValidationReport(tuple(rows), width)


# -- plain PH sampling (used to cross-check ph_mean) ---------------------------

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
                       float(times.std(ddof=1) / math.sqrt(samples)),
                       samples)
