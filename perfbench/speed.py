"""Timing scaled to a reference machine speed, sampled during the work.

The machine the benchmark runs on is a small VM on a shared host.  Its
speed flips between a fast and a slow state (about 1.6x apart) in spells
of a second to minutes, so the same pass can take 3.2 s or 5.6 s a minute
apart.  Probes taken only between passes miss the spells inside a pass.

So while a pass runs, a ``SIGALRM`` every ``PERIOD_S`` seconds runs one
probe: a fixed pure-Python loop of this file, about 0.2 ms.  The handler
runs in the main thread between two bytecodes, so the probes sample the
speed all through the pass (except inside one long native call, where the
signal waits for the call to return).  The probes' own time is taken out
of the pass's wall and CPU time, and what is left is scaled by
``REFERENCE_PROBE_S`` over the mean probe time.  (A mean over the probes
weighted by the time since the one before reads worse: it gives the whole
of a long native call to the single probe after it.)  The scaled time is what the pass would have
taken at the speed at which one probe takes ``REFERENCE_PROBE_S``.

The probe is the benchmark's own code and does not change with the
package, so a faster package still shows as a smaller scaled time.  This
module uses only the standard library, so that importing it costs the
set-up probe nothing measurable.
"""

import signal
import time

# Probe time taken as the unit of speed (about the probe's time in the
# fast state).  Fixed once: changing it rescales every reported time.
REFERENCE_PROBE_S = 200e-6
# Interval between two probes while a pass runs.
PERIOD_S = 0.025
# Probes run when sampling starts, to warm the probe up; they are not
# counted in the speed.
WARM_PROBES = 3
# Probe times are capped at this multiple of the section's median probe.
CLIP = 3.0


# The probe's dict is made once: a probe that allocated a container could
# set off a garbage collection of the workload's objects and time that.
_COUNTS = {}


def _probe() -> None:
    _COUNTS.clear()
    for i in range(1500):
        _COUNTS[i & 63] = _COUNTS.get(i & 63, 0) + i * 3 % 11


class Sampler:
    """Speed samples over one timed section.

    ``with Sampler() as s:`` runs ``WARM_PROBES`` probes at once, then one
    every ``PERIOD_S`` until the block ends, and one more right after it.
    Then ``s.spent_wall`` and ``s.spent_cpu`` are the probes' own wall and
    CPU time, to be taken out of the section's times, and ``s.factor``
    turns what is left into reference seconds.
    """

    def __init__(self):
        self.samples = []          # (wall, cpu) of each probe
        self.spent_wall = self.spent_cpu = 0.0
        self.factor = 1.0
        self._previous = None

    def _sample(self, *_):
        t0, c0 = time.perf_counter(), time.thread_time()
        _probe()
        self.samples.append((time.perf_counter() - t0,
                             time.thread_time() - c0))

    def __enter__(self):
        for _ in range(WARM_PROBES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # one more probe, so that a section shorter than PERIOD_S has one;
        # it runs after the section, so its time is not taken out
        inside = len(self.samples)
        self._sample()
        self.spent_wall = sum(w for w, _ in self.samples[:inside])
        self.spent_cpu = sum(c for _, c in self.samples[:inside])
        # the speed is the mean over the probes after the warm ones; a
        # probe that was itself interrupted reads far above either speed
        # state and is counted at CLIP times the median instead
        walls = sorted(w for w, _ in self.samples[WARM_PROBES:])
        ceiling = CLIP * walls[len(walls) // 2]
        mean = sum(min(w, ceiling) for w in walls) / len(walls)
        self.factor = REFERENCE_PROBE_S / mean
        return False


def timed(fn, *args):
    """``fn(*args)`` under a ``Sampler``: its result, and its wall and CPU
    time both raw and scaled, with the probes' own time taken out."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with Sampler() as sampler:
        out = fn(*args)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    wall -= sampler.spent_wall
    cpu -= sampler.spent_cpu
    return out, {"raw_wall_s": wall, "raw_cpu_s": cpu,
                 "wall_s": wall * sampler.factor,
                 "cpu_s": cpu * sampler.factor,
                 "scale": sampler.factor, "probes": len(sampler.samples)}
