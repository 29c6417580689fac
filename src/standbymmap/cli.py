"""Command-line front end: argument plumbing, command dispatch, result emission.

Commands: build, steady, transient, measures, profit, optimize, simulate,
validate.  Models are JSON files in the format of the config module, which
also reads and writes them (its load_model, bundled_model_path,
config_from_dict, config_to_dict and ModelFileError are re-exported here);
the bundled four-unit example is used when --model is omitted.  Every flag
can also be set through an environment variable with the STANDBYMMAP_
prefix (e.g. STANDBYMMAP_SEED=7, STANDBYMMAP_ALL=on); on/off switches
accept on|off, true|false and 1|0.

CSV output carries 6 significant digits; JSON keeps full precision.
Exit code 0 means no validation or numerical failure; errors are emitted
to stderr as one-line JSON records.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .assembler import AssemblyError, EVENT_LABELS, assemble_all
# the model-file names stay importable from here
from .config import (ConfigError, ModelConfig, ModelFileError,
                     bundled_model_path, config_from_dict, config_to_dict,
                     load_model, vacation_from_params)
from .economics import profit_stationary, profit_transient
from .measures import (availability_stationary, down_mask,
                       event_rates_stationary, occupancy)
from .optimizer import grid_to_csv, grid_to_json, optimize, run_grid
from .simulator import simulate, validate
from .solvers import SolverError, initial_distribution, stationary_direct, transient

ENV_PREFIX = "STANDBYMMAP_"

_FAMILY_ALIASES = {"exp": "exponential", "exponential": "exponential",
                   "erlang": "erlang2", "erlang2": "erlang2"}


# ---------------------------------------------------------------------------
# argument plumbing

def _env_var(name: str) -> str:
    return ENV_PREFIX + name.upper().replace("-", "_")


def _resolve(args, name, cast, fallback=None):
    """Flag value, else STANDBYMMAP_<NAME> env var, else fallback."""
    val = getattr(args, name.replace("-", "_"), None)
    if val is not None:
        return val
    raw = os.environ.get(_env_var(name))
    if raw is not None:
        try:
            return cast(raw)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(
                f"{_env_var(name)}={raw!r}: {exc}") from None
    return fallback


def _parse_switch(text: str) -> bool:
    if text in ("on", "true", "1"):
        return True
    if text in ("off", "false", "0"):
        return False
    raise argparse.ArgumentTypeError("expected on|off")


def _parse_tgrid(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("--t-grid takes a comma-separated "
                                         "list of times") from None


def build_config(args) -> ModelConfig:
    model = _resolve(args, "model", str, None)
    config = load_model(model) if model else load_model(bundled_model_path())
    n = _resolve(args, "n", int)
    R = _resolve(args, "R", int)
    pm = _resolve(args, "pm", _parse_switch)
    family = _resolve(args, "vacation", str)
    if family is not None:
        if family not in _FAMILY_ALIASES:
            raise ModelFileError(f"unknown vacation family {family!r}")
        family = _FAMILY_ALIASES[family]
        # switching family resets the rates to the family default (1, ...)
        dim = 1 if family == "exponential" else 2
        config = config.with_policy(
            vacation=vacation_from_params(family, [1.0] * dim))
    try:
        return config.with_policy(units=n, vacation_threshold=R, pm_enabled=pm)
    except ConfigError as exc:
        raise ModelFileError(str(exc)) from None


def _outdir(args) -> Path:
    out = Path(_resolve(args, "out", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text)
    print(f"wrote {path}")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# ---------------------------------------------------------------------------
# commands

def cmd_build(args) -> int:
    config = build_config(args)
    gens = assemble_all(config, validate=True)
    residual = float(np.max(np.abs(gens.total.sum(axis=1))))
    print(f"states: {gens.layout.total}")
    for label in EVENT_LABELS:
        print(f"nnz[{label}]: {gens[label].nnz}")
    print(f"conservation residual: {residual:.3e}")
    return 0


def cmd_steady(args) -> int:
    config = build_config(args)
    gens = assemble_all(config, validate=False)
    pi = stationary_direct(gens)
    lay = gens.layout
    rows = ["index,k,s,regime,probability"]
    for idx, p in enumerate(pi):
        key, _ = lay.decode(idx)
        rows.append(f"{idx},{key.k},{key.s},{key.x},{_fmt(p)}")
    out = _outdir(args)
    _write(out / "steady.csv", "\n".join(rows) + "\n")
    summary = {"states": lay.total, "mass": float(pi.sum()),
               "availability": availability_stationary(pi, lay)}
    _write(out / "steady.json", json.dumps(summary, indent=2))
    print(f"availability: {summary['availability']:.6f}")
    return 0


def cmd_transient(args) -> int:
    config = build_config(args)
    grid = _resolve(args, "t-grid", _parse_tgrid, [0.0, 10.0, 100.0, 1000.0])
    gens = assemble_all(config, validate=False)
    phi = initial_distribution(config, gens.layout)
    dist = transient(gens, phi, grid)
    avail = 1.0 - dist[:, down_mask(gens.layout)].sum(axis=1)
    out = _outdir(args)
    rows = ["t,index,probability"]
    for t, row in zip(grid, dist):
        rows.extend(f"{_fmt(t)},{idx},{_fmt(p)}" for idx, p in enumerate(row))
    _write(out / "transient_distribution.csv", "\n".join(rows) + "\n")
    arows = ["t,availability"]
    arows += [f"{_fmt(t)},{_fmt(a)}" for t, a in zip(grid, avail)]
    _write(out / "transient_availability.csv", "\n".join(arows) + "\n")
    _write(out / "transient.json", json.dumps(
        {"t": list(grid), "availability": avail.tolist()}, indent=2))
    return 0


def cmd_measures(args) -> int:
    config = build_config(args)
    gens = assemble_all(config, validate=False)
    pi = stationary_direct(gens)
    table = occupancy(pi, gens.layout)
    rates = event_rates_stationary(pi, gens)
    avail = availability_stationary(pi, gens.layout)
    out = _outdir(args)
    _write(out / "occupancy.csv", table.to_csv())
    rrows = ["rate,value"]
    rrows += [f"{name},{_fmt(val)}" for name, val in rates.as_dict().items()]
    _write(out / "rates.csv", "\n".join(rrows) + "\n")
    _write(out / "measures.json", json.dumps({
        "availability": avail,
        "occupancy": {f"{k},{s},{x}": v for (k, s, x), v in table.psi.items()},
        "rates": rates.as_dict(),
    }, indent=2))
    print(f"availability: {avail:.6f}")
    return 0


def cmd_profit(args) -> int:
    config = build_config(args)
    gens = assemble_all(config, validate=False)
    pi = stationary_direct(gens)
    prof = profit_stationary(pi, gens, config)
    record = {"working": prof.working, "repair_cost": prof.repair_cost,
              "fixed_cost": prof.fixed_cost, "total": prof.total}
    grid = _resolve(args, "t-grid", _parse_tgrid, None)
    if grid:
        phi = initial_distribution(config, gens.layout)
        record["accumulated"] = {
            _fmt(t): profit_transient(gens, phi, t, config).total
            for t in grid if t > 0}
    out = _outdir(args)
    rows = ["component,value"]
    rows += [f"{k},{_fmt(v)}" for k, v in record.items() if k != "accumulated"]
    _write(out / "profit.csv", "\n".join(rows) + "\n")
    _write(out / "profit.json", json.dumps(record, indent=2))
    print(f"net profit per unit time: {prof.total:.6f}")
    return 0


def cmd_optimize(args) -> int:
    config = build_config(args)
    out = _outdir(args)
    if _resolve(args, "all", _parse_switch, False):
        results = run_grid(config)
        _write(out / "grid.csv", grid_to_csv(results))
        _write(out / "grid.json", grid_to_json(results))
        best = max(results, key=lambda r: r.profit)
        print(f"best cell: n={best.units} R={best.threshold} "
              f"pm={'on' if best.pm_enabled else 'off'} {best.family} "
              f"profit={best.profit:.4f}")
        return 0
    family = _FAMILY_ALIASES[_resolve(args, "vacation", str, "erlang2")]
    result = optimize(config, family)
    _write(out / "optimize.json", json.dumps(result.as_record(), indent=2))
    xs = ", ".join(f"{v:.6f}" for v in result.x)
    print(f"optimal rates: ({xs})  profit={result.profit:.4f}  "
          f"availability={result.availability:.4f}")
    return 0


def _sim_report_files(report) -> tuple:
    rows = ["quantity,mean,stderr"]
    rows.append(f"availability,{_fmt(report.availability.mean)},"
                f"{_fmt(report.availability.stderr)}")
    rows.append(f"profit,{_fmt(report.profit.mean)},"
                f"{_fmt(report.profit.stderr)}")
    for name, est in report.rates.items():
        rows.append(f"{name},{_fmt(est.mean)},{_fmt(est.stderr)}")
    for (k, s, x), est in sorted(report.occupancy.items(), reverse=True):
        rows.append(f"psi({k};{s};{x}),{_fmt(est.mean)},{_fmt(est.stderr)}")
    doc = {
        "horizon": report.horizon,
        "replications": report.replications,
        "seed": report.seed,
        "availability": [report.availability.mean, report.availability.stderr],
        "profit": [report.profit.mean, report.profit.stderr],
        "rates": {n: [e.mean, e.stderr] for n, e in report.rates.items()},
        "events": {n: [e.mean, e.stderr] for n, e in report.event_rates.items()},
        "occupancy": {f"{k},{s},{x}": [e.mean, e.stderr]
                      for (k, s, x), e in sorted(report.occupancy.items(),
                                                 reverse=True)},
    }
    return "\n".join(rows) + "\n", json.dumps(doc, indent=2)


def _simulate(args, config):
    return simulate(config,
                    horizon=_resolve(args, "horizon", float, 1e5),
                    replications=_resolve(args, "reps", int, 5),
                    seed=_resolve(args, "seed", int, 0),
                    threads=_resolve(args, "threads", int, 1))


def cmd_simulate(args) -> int:
    config = build_config(args)
    report = _simulate(args, config)
    csv, js = _sim_report_files(report)
    out = _outdir(args)
    _write(out / "simulate.csv", csv)
    _write(out / "simulate.json", js)
    print(f"simulated availability: {report.availability.mean:.6f} "
          f"(s.e. {report.availability.stderr:.6f})")
    return 0


def cmd_validate(args) -> int:
    config = build_config(args)
    gens = assemble_all(config, validate=True)
    pi = stationary_direct(gens)
    rates = event_rates_stationary(pi, gens)
    analytic = {
        "availability": availability_stationary(pi, gens.layout),
        "profit": profit_stationary(pi, gens, config).total,
        "repairable": rates.repairable,
        "major_inspection": rates.major_inspection,
        "new_systems": rates.new_systems,
    }
    report = _simulate(args, config)
    result = validate(analytic, report)
    print(result.to_text())
    out = _outdir(args)
    _write(out / "validate.json", json.dumps(
        [{"name": r.name, "analytic": r.analytic, "estimate": r.estimate,
          "stderr": r.stderr, "ok": r.ok} for r in result.rows], indent=2))
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="standbymmap",
        description="Reliability analysis of a cold-standby fleet with "
                    "shocks, preventive maintenance and repairperson "
                    "vacations.",
        epilog=f"Every flag can be set via {ENV_PREFIX}<NAME> environment "
               "variables, e.g. STANDBYMMAP_SEED=7 STANDBYMMAP_PM=off.")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "build": (cmd_build, "assemble the generator and report structure"),
        "steady": (cmd_steady, "stationary distribution and availability"),
        "transient": (cmd_transient, "transient distribution on a time grid"),
        "measures": (cmd_measures, "occupancy table and event rates"),
        "profit": (cmd_profit, "net profit per unit time (and accumulated)"),
        "optimize": (cmd_optimize, "optimize the vacation rates"),
        "simulate": (cmd_simulate, "Monte Carlo estimates with error bars"),
        "validate": (cmd_validate, "cross-check matrix results by simulation"),
    }
    for name, (fn, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=fn)
        p.add_argument("--model", help="model JSON file (default: bundled example)")
        p.add_argument("--out", help="output directory (default: .)")
        p.add_argument("--n", type=int, help="override the number of units")
        p.add_argument("--R", type=int, help="override the vacation threshold")
        p.add_argument("--pm", type=_parse_switch, metavar="on|off",
                       help="override preventive maintenance")
        p.add_argument("--vacation", choices=sorted(_FAMILY_ALIASES),
                       help="switch the vacation family (resets its rates)")
        p.add_argument("--t-grid", type=_parse_tgrid, dest="t_grid",
                       metavar="T1,T2,...", help="time grid")
        p.add_argument("--seed", type=int, help="simulation seed")
        p.add_argument("--horizon", type=float, help="simulation horizon")
        p.add_argument("--reps", type=int, help="simulation replications")
        p.add_argument("--threads", type=int,
                       help="worker processes for replications")
        if name == "optimize":
            p.add_argument("--all", action="store_const", const=True,
                           default=None, help="sweep the whole policy grid")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ModelFileError, ConfigError, AssemblyError, SolverError,
            ValueError, KeyError, argparse.ArgumentTypeError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
