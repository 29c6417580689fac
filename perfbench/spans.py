"""Spans for the traced benchmark mode.

The package has no tracing of its own, so the benchmark adds it from
outside: ``Tracer.install`` replaces every public function of the layer
modules, wherever a package module holds a reference to it, by a wrapper
that records a span; ``uninstall`` puts the originals back.  Calls between
modules (``optimize`` -> ``assemble_all``) therefore get spans too, while
private helpers and methods do not.  Spans are kept in memory and written
out when the run ends.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Layers of the package, in pipeline order.  ``ph`` belongs to the config
# layer and is not wrapped: its helpers are called per matrix entry block,
# and ``cli`` only drives these same calls.
LAYERS = ("config", "statespace", "unit", "assembler", "solvers", "measures",
          "economics", "optimizer", "simulator")


def _lamt(gens, times) -> float:
    """Sum of lambda t over the requested times, lambda = max |D_ii|: the
    expected number of uniformisation jumps, computed, not counted."""
    lam = float(np.max(np.abs(gens.total.diagonal())))
    return lam * float(np.sum(np.atleast_1d(times)))


# counts recorded on the span of a call: f(bound arguments, result) -> dict
COUNTERS = {
    "statespace.enumerate_states": lambda a, r: {"states": r.total},
    "assembler.assemble_all": lambda a, r: {"nnz": r.total.nnz},
    "solvers.stationary_direct": lambda a, r: {
        "residual": float(np.max(np.abs(r @ a["gens"].total)))},
    "solvers.transient": lambda a, r: {
        "lamt": _lamt(a["gens"], a["times"]),
        "mass_defect": float(np.max(np.abs(r.sum(axis=1) - 1.0)))},
    "solvers.transient_integral": lambda a, r: {
        "lamt": _lamt(a["gens"], a["t"]),
        "mass_defect": abs(float(r.sum()) - a["t"]) / a["t"] if a["t"] > 0
        else 0.0},
    "optimizer.optimize": lambda a, r: {"evaluations": r.evaluations},
    "simulator.simulate": lambda a, r: {
        "events": sum(e.mean for e in r.event_rates.values())
        * r.horizon * r.replications},
}


class Tracer:
    """In-memory span store for one benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self.pass_index = None
        self._open = []
        self._patched = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload, "pass": self.pass_index,
               "counts": {}}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec["counts"] = counter(bound.arguments, result)
            return result
        return traced

    def install(self, pass_index: int):
        """Wrap the layers' public functions for one traced pass."""
        self.pass_index = pass_index
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"standbymmap.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("standbymmap."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched = []
        self.pass_index = None

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def self_times(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i, rec in enumerate(self.spans):
            row = table[rec["name"]]
            dur = rec["end"] - rec["start"]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return dict(table)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of the spans of one traced pass."""
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec["name"]].append(rec)

    def secs(*names):
        return sum(r["end"] - r["start"] for n in names for r in by_name[n])

    def counts(key, *names):
        return [r["counts"][key] for n in names for r in by_name[n]]

    transient = ("solvers.transient", "solvers.transient_integral")
    m = {
        "statespace.enumerate_s": secs("statespace.enumerate_states"),
        "statespace.states": sum(counts("states",
                                        "statespace.enumerate_states")),
        "unit.blocks_s": secs("unit.build_unit_blocks"),
        "assembler.assemble_s": secs("assembler.assemble_all"),
        "assembler.calls": len(by_name["assembler.assemble_all"]),
        "assembler.nnz": sum(counts("nnz", "assembler.assemble_all")),
        "solvers.direct_s": secs("solvers.stationary_direct"),
        "solvers.direct_calls": len(by_name["solvers.stationary_direct"]),
        "solvers.residual_max": max(counts("residual",
                                           "solvers.stationary_direct"),
                                    default=0.0),
        "solvers.block_s": secs("solvers.stationary_block"),
        "solvers.transient_s": secs(*transient),
        "solvers.lamt": sum(counts("lamt", *transient)),
        "solvers.mass_defect_max": max(counts("mass_defect", *transient),
                                       default=0.0),
        "measures.stationary_s": secs("measures.availability_stationary",
                                      "measures.occupancy",
                                      "measures.event_rates_stationary"),
        "measures.availability_transient_s":
            secs("measures.availability_transient"),
        "economics.profit_s": secs("economics.profit_stationary"),
        "economics.profit_transient_s": secs("economics.profit_transient"),
        "optimizer.optimize_s": secs("optimizer.optimize"),
        "optimizer.evaluations": sum(counts("evaluations",
                                            "optimizer.optimize")),
        "simulator.simulate_s": secs("simulator.simulate"),
        "simulator.events": sum(counts("events", "simulator.simulate")),
    }
    m["assembler.us_per_nnz"] = 1e6 * _ratio(m["assembler.assemble_s"],
                                             m["assembler.nnz"])
    m["solvers.transient_us_per_lamt"] = 1e6 * _ratio(m["solvers.transient_s"],
                                                      m["solvers.lamt"])
    m["optimizer.s_per_eval"] = _ratio(m["optimizer.optimize_s"],
                                       m["optimizer.evaluations"])
    m["simulator.events_per_s"] = _ratio(m["simulator.events"],
                                         m["simulator.simulate_s"])
    return m
