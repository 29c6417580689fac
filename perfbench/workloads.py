"""The four benchmark workloads.

Each workload replays the call sequence of one CLI command on the bundled
model (without the CSV writing) and has four parts:

* ``inputs``: the fixed study inputs, at full size and at the small size
  used by ``--quick``;
* ``run(config, inputs, seed)``: the timed section.  Every step goes
  through ``attempt``, so a step that raises becomes a failed operation
  instead of ending the run;
* ``summary(outputs, inputs)``: the values stored in ``reference.json``;
* ``check(outputs, reference, tol, inputs)``: one record per operation,
  ``{"op": name, "ok": bool, "detail": text}``.

Calls into the package go through module attributes (``solvers.transient``
and not a bare ``transient``), so that the traced mode sees them.
"""

from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse.linalg import expm_multiply

from standbymmap import (assembler, economics, measures, optimizer, simulator,
                         solvers, statespace, unit)


def attempt(fn, *args, **kwargs):
    """Result of ``fn``, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # recorded as a failed operation
        return exc


def _failed(outcome) -> bool:
    return isinstance(outcome, Exception)


def _op(name, problems) -> dict:
    return {"op": name, "ok": not problems, "detail": "; ".join(problems)}


def _raised(name, exc) -> dict:
    return _op(name, [f"raised {type(exc).__name__}: {exc}"])


def flatten(tree, prefix="") -> dict:
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        out = {}
        for key, val in items:
            out.update(flatten(val, f"{prefix}{key}/"))
        return out
    return {prefix.rstrip("/"): float(tree)}


def _compare(values, reference, rel, atol) -> list:
    """Problems found comparing two trees of numbers, ``rel`` relative to
    the reference value with an absolute floor ``atol``."""
    got, want = flatten(values), flatten(reference)
    problems = [f"missing {k}" for k in want.keys() - got.keys()]
    problems += [f"unexpected {k}" for k in got.keys() - want.keys()]
    for key in sorted(want.keys() & got.keys()):
        err = abs(got[key] - want[key])
        if not err <= rel * abs(want[key]) + atol:
            problems.append(f"{key}: {got[key]!r} vs reference "
                            f"{want[key]!r} (diff {err:.3e})")
    return problems


def _policy(config, spec):
    return config.with_policy(units=spec["n"], vacation_threshold=spec["R"],
                              pm_enabled=spec.get("pm"))


def _stationary_measures(pi, gens, config) -> dict:
    profit = economics.profit_stationary(pi, gens, config)
    return {
        "availability": measures.availability_stationary(pi, gens.layout),
        "occupancy": {f"{k},{s},{x}": v for (k, s, x), v in
                      measures.occupancy(pi, gens.layout).psi.items()},
        "rates": measures.event_rates_stationary(pi, gens).as_dict(),
        "profit": {"working": profit.working,
                   "repair_cost": profit.repair_cost,
                   "fixed_cost": profit.fixed_cost, "total": profit.total},
    }


def _residual(pi, gens) -> float:
    return float(np.max(np.abs(pi @ gens.total)))


# -- steady-scale: `steady` + `measures` + `profit` over growing fleets -------

def _policies(inputs):
    return [{"n": n, "R": inputs["R"], "pm": pm}
            for n in inputs["n"] for pm in inputs["pm"]]


def _policy_name(spec) -> str:
    return f"n{spec['n']}-pm{int(spec['pm'])}"


def _policy_solve(config, with_block):
    layout = statespace.enumerate_states(config)
    blocks = unit.build_unit_blocks(config)
    gens = assembler.assemble_all(config, layout, blocks, validate=True)
    pi = solvers.stationary_direct(gens)
    out = {"gens": gens, "pi": pi,
           "measures": _stationary_measures(pi, gens, config)}
    if with_block:
        out["pi_block"] = solvers.stationary_block(gens)
    return out


def steady_scale(config, inputs, seed):
    return {_policy_name(spec): attempt(_policy_solve, _policy(config, spec),
                                        spec["n"] in inputs["block_n"])
            for spec in _policies(inputs)}


def steady_summary(outputs, inputs):
    return {name: out["measures"] for name, out in outputs.items()}


def steady_check(outputs, reference, tol, inputs):
    ops = []
    for name, out in outputs.items():
        if _failed(out):
            ops.append(_raised(name, out))
            continue
        problems = []
        res = _residual(out["pi"], out["gens"])
        if not res <= tol["residual_inf"]:
            problems.append(f"||pi D||_inf = {res:.3e}")
        if "pi_block" in out:
            gap = float(np.max(np.abs(out["pi_block"] - out["pi"])))
            if not gap <= tol["block_vs_direct"]:
                problems.append(f"block vs direct differ by {gap:.3e}")
        problems += _compare(out["measures"], reference[name],
                             tol["stationary_rel"], tol["exact_zero"])
        ops.append(_op(name, problems))
    return ops


# -- optimize-cells: `optimize` on four study-grid cells ----------------------

def _cell_name(cell) -> str:
    n, R, pm, family = cell
    return f"n{n}-R{R}-pm{int(pm)}-{family}"


def optimize_cells(config, inputs, seed):
    out = {}
    for n, R, pm, family in inputs["cells"]:
        cfg = config.with_policy(units=n, vacation_threshold=R, pm_enabled=pm)
        out[_cell_name((n, R, pm, family))] = {
            "config": cfg, "result": attempt(optimizer.optimize, cfg, family)}
    return out


def optimize_summary(outputs, inputs):
    return {name: {"profit": out["result"].profit,
                   "availability": out["result"].availability,
                   "x": [float(v) for v in out["result"].x],
                   "evaluations": out["result"].evaluations}
            for name, out in outputs.items()}


def optimize_check(outputs, reference, tol, inputs):
    ops = []
    for name, out in outputs.items():
        res = out["result"]
        if _failed(res):
            ops.append(_raised(name, res))
            continue
        problems = []
        gap = reference[name]["profit"] - res.profit
        if not gap <= tol["cell_profit_floor"]:
            problems.append(f"profit {res.profit!r} below reference "
                            f"{reference[name]['profit']!r} by {gap:.3e}")
        again = attempt(optimizer.evaluate, out["config"], res.family, res.x)
        if _failed(again):
            problems.append(f"evaluate raised {type(again).__name__}: {again}")
        elif not abs(again[0] - res.profit) <= tol["evaluate_repro"]:
            problems.append(f"evaluate(x) gives {again[0]!r}, optimize "
                            f"reported {res.profit!r}")
        op = _op(name, problems)
        op["profit_gap"] = gap
        ops.append(op)
    return ops


# -- transient-curve: `transient` + `profit --t-grid` -------------------------

def _curve(config, times):
    gens = assembler.assemble_all(config, validate=False)
    phi = solvers.initial_distribution(config, gens.layout)
    return {"gens": gens, "phi": phi,
            "p": solvers.transient(gens, phi, times),
            "availability": measures.availability_transient(gens, phi, times)}


def transient_curve(config, inputs, seed):
    cfg = _policy(config, inputs)
    curve = attempt(_curve, cfg, inputs["t"])
    out = {"curve": curve}
    for t in inputs["profit_t"]:
        out[f"profit@{t:g}"] = curve if _failed(curve) else attempt(
            economics.profit_transient, curve["gens"], curve["phi"], t, cfg)
    return out


def transient_summary(outputs, inputs):
    curve = outputs["curve"]
    pi = solvers.stationary_direct(curve["gens"])
    return {
        "availability": {f"{t:g}": float(a) for t, a in
                         zip(inputs["t"], curve["availability"])},
        "profit": {f"{t:g}": outputs[f"profit@{t:g}"].total
                   for t in inputs["profit_t"]},
        "stationary_availability":
            measures.availability_stationary(pi, curve["gens"].layout),
    }


def transient_check(outputs, reference, tol, inputs):
    ops = []
    curve = outputs["curve"]
    for r, t in enumerate(inputs["t"]):
        name = f"A@{t:g}"
        if _failed(curve):
            ops.append(_raised(name, curve))
            continue
        a, p = float(curve["availability"][r]), curve["p"][r]
        problems = _compare(a, reference["availability"][f"{t:g}"],
                            tol["transient_rel"], 0.0)
        defect = abs(float(p.sum()) - 1.0)
        if not defect <= tol["mass_defect"]:
            problems.append(f"|p(t) 1 - 1| = {defect:.3e}")
        if t in inputs["expm_t"]:
            exact = expm_multiply(curve["gens"].total.T.tocsr() * t,
                                  curve["phi"])
            err = float(np.max(np.abs(exact - p)))
            if not err <= tol["expm_agreement"]:
                problems.append(f"expm_multiply differs by {err:.3e}")
        if t == max(inputs["t"]):
            drift = abs(a - reference["stationary_availability"])
            if not drift <= tol["long_time_availability"]:
                problems.append(f"A(t) is {drift:.3e} from the stationary "
                                "availability")
        ops.append(_op(name, problems))
    for t in inputs["profit_t"]:
        name = f"profit@{t:g}"
        prof = outputs[name]
        if _failed(prof):
            ops.append(_raised(name, prof))
            continue
        ops.append(_op(name, _compare(prof.total,
                                      reference["profit"][f"{t:g}"],
                                      tol["transient_rel"], 0.0)))
    return ops


# -- simulate-oracle: `validate` ----------------------------------------------

ORACLE_QUANTITIES = ("availability", "profit", "repairable",
                     "major_inspection", "new_systems")


def _analytic(config):
    gens = assembler.assemble_all(config, validate=True)
    pi = solvers.stationary_direct(gens)
    rates = measures.event_rates_stationary(pi, gens)
    values = {
        "availability": measures.availability_stationary(pi, gens.layout),
        "profit": economics.profit_stationary(pi, gens, config).total,
        "repairable": rates.repairable,
        "major_inspection": rates.major_inspection,
        "new_systems": rates.new_systems,
    }
    return {"gens": gens, "pi": pi, "values": values}


def simulate_oracle(config, inputs, seed):
    cfg = _policy(config, inputs)
    analytic = attempt(_analytic, cfg)
    report = attempt(simulator.simulate, cfg, horizon=inputs["horizon"],
                     replications=inputs["replications"], seed=seed)
    return {"analytic": analytic, "report": report}


def simulate_summary(outputs, inputs):
    return {"analytic": outputs["analytic"]["values"]}


def simulate_check(outputs, reference, tol, inputs):
    analytic = outputs["analytic"]
    if _failed(analytic):
        ops = [_raised("analytic", analytic)]
    else:
        problems = _compare(analytic["values"], reference["analytic"],
                            tol["stationary_rel"], tol["exact_zero"])
        res = _residual(analytic["pi"], analytic["gens"])
        if not res <= tol["residual_inf"]:
            problems.append(f"||pi D||_inf = {res:.3e}")
        ops = [_op("analytic", problems)]
    if _failed(analytic):
        validation = analytic
    elif _failed(outputs["report"]):
        validation = outputs["report"]
    else:
        validation = attempt(simulator.validate, analytic["values"],
                             outputs["report"], width=tol["validation_width"])
    if _failed(validation):
        return ops + [_raised(f"covers:{q}", validation)
                      for q in ORACLE_QUANTITIES]
    rows = {row.name: row for row in validation.rows}
    for q in ORACLE_QUANTITIES:
        row = rows[q]
        ops.append(_op(f"covers:{q}", [] if row.ok else [
            f"analytic {row.analytic!r} outside {validation.width:g} s.e. "
            f"of {row.estimate!r} (s.e. {row.stderr:.3e})"]))
    return ops


class Workload(NamedTuple):
    inputs: dict          # "full" and "quick" study inputs
    run: Callable
    summary: Callable
    check: Callable


_CELLS = [[4, 3, True, "exponential"], [4, 3, True, "erlang2"],
          [3, 2, False, "exponential"], [3, 2, False, "erlang2"]]
_T_GRID = {"t": [1.0, 10.0, 100.0, 1000.0, 5000.0],
           "profit_t": [100.0, 1000.0], "expm_t": [10.0, 100.0]}

WORKLOADS = {
    "steady-scale": Workload(
        {"full": {"n": [4, 5, 6], "R": 3, "pm": [True, False],
                  "block_n": [4]},
         "quick": {"n": [2, 3], "R": 2, "pm": [True, False],
                   "block_n": [2]}},
        steady_scale, steady_summary, steady_check),
    "optimize-cells": Workload(
        {"full": {"cells": _CELLS},
         "quick": {"cells": [[2, 1, False, "exponential"],
                             [2, 1, False, "erlang2"]]}},
        optimize_cells, optimize_summary, optimize_check),
    "transient-curve": Workload(
        {"full": {"n": 4, "R": 3, **_T_GRID},
         "quick": {"n": 2, "R": 2, **_T_GRID}},
        transient_curve, transient_summary, transient_check),
    "simulate-oracle": Workload(
        {"full": {"n": 4, "R": 3, "horizon": 1e6, "replications": 3},
         "quick": {"n": 2, "R": 2, "horizon": 2e4, "replications": 2}},
        simulate_oracle, simulate_summary, simulate_check),
}
