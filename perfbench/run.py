"""standbymmap benchmark.

    python3 perfbench/run.py --workload steady-scale --seed 1 --seconds 25 --trace 0

runs one workload of ``workloads.py`` on the bundled model from the root of
a source checkout.  One caller runs the workload's call sequence again and
again (a closed loop) for ``--seconds`` seconds, at least once, and every
pass is checked against ``reference.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` passes alternate between untraced
and traced and the metrics are its per-layer ones.

Other modes: ``--workload all`` runs every workload in its own process and
prints all their metrics; ``--quick`` uses the small inputs of the self
test; ``--regen`` recomputes ``reference.json`` and prints what changed.
See README.md in this directory.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed in this many fresh processes; the run reports the median.
SETUP_PROBES = 3


def parse_args(argv, bench):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]]
                   + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small inputs (self test)")
    p.add_argument("--reference", type=Path, default=REFERENCE,
                   help="reference file to check against")
    p.add_argument("--regen", action="store_true",
                   help="recompute the reference file and print the changes")
    args = p.parse_args(argv)
    if not args.regen and args.workload is None:
        p.error("--workload is required")
    return args


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, inputs) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": NPROC, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "size": "quick" if args.quick else "full", "inputs": inputs,
    }


def setup_seconds() -> tuple:
    """Process start until the package is imported and the bundled model
    is loaded and validated, in a fresh interpreter: raw, and scaled to
    the reference speed by the probes ``setup_probe.py`` runs meanwhile."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                           str(SRC)], capture_output=True, text=True,
                          check=True, timeout=120)
    end, spent, factor = map(float, proc.stdout.split()[-3:])
    raw = end - start - spent
    return raw, raw * factor


def load_reference(path):
    doc = json.loads(path.read_text())
    tol = {name: spec["value"] for name, spec in doc["tolerances"].items()}
    return doc, tol


def declared_metrics(bench, trace: int) -> dict:
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def result_line(correct, attempted, failed, values, units) -> str:
    if set(values) != set(units):
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units}})


def print_table(values, units):
    for name in units:
        print(f"  {name:<36} {values[name]:>14.6g} {units[name]}")


def timed_passes(wl, config, inputs, reference, tol, args, tracer):
    """Closed loop: run the workload until ``args.seconds`` are used up
    (at least once; in traced mode at least one untraced and one traced
    pass, alternating) and check each pass outside the timed section.
    Untraced passes are timed by ``speed.timed``, which samples the
    machine's speed during the pass; traced passes are timed raw, so that
    no probe lands inside a span."""
    from speed import timed
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        if traced:
            tracer.install(len(passes))
            try:
                with tracer.span(f"bench.{args.workload}"):
                    wall0, cpu0 = time.perf_counter(), time.process_time()
                    outputs = wl.run(config, inputs, args.seed)
                    times = {"raw_wall_s": time.perf_counter() - wall0,
                             "raw_cpu_s": time.process_time() - cpu0}
            finally:
                tracer.uninstall()
        else:
            outputs, times = timed(wl.run, config, inputs, args.seed)
        elapsed = time.perf_counter() - pass_start
        ops = wl.check(outputs, reference, tol, inputs)
        # the next pass must not run while this one's matrices are held,
        # or peak_rss_mb would count two passes
        del outputs
        passes.append({"traced": traced, **times, "elapsed_s": elapsed,
                       "ops": ops})
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if (not args.trace or len(passes) >= 2) and \
                time.perf_counter() - start + typical > args.seconds:
            return passes


def end_to_end(passes, setups, ops) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "ok_frac": sum(op["ok"] for op in ops) / len(ops),
    }


def per_layer(passes, tracer, load_span, ops) -> dict:
    from spans import layer_metrics
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    per_pass = [layer_metrics([s for s in tracer.spans if s["pass"] == i])
                for i in traced]
    values = {k: statistics.median(m[k] for m in per_pass)
              for k in per_pass[0]}

    def median_wall(want_traced):
        return statistics.median(p["raw_wall_s"] for p in passes
                                 if p["traced"] == want_traced)
    values.update({
        "config.load_s": load_span["end"] - load_span["start"],
        "optimizer.profit_gap_max": max(
            (op["profit_gap"] for op in ops if "profit_gap" in op),
            default=0.0),
        "bench.ops_attempted": len(ops),
        "bench.ops_failed": sum(not op["ok"] for op in ops),
        "trace.overhead_frac": median_wall(True) / median_wall(False) - 1.0,
    })
    return values


def run_one(args, bench) -> int:
    from standbymmap import cli
    from spans import Tracer
    from workloads import WORKLOADS

    units = declared_metrics(bench, args.trace)
    wl = WORKLOADS[args.workload]
    size = "quick" if args.quick else "full"
    inputs = wl.inputs[size]
    doc, tol = load_reference(args.reference)
    setups = [] if args.trace else [setup_seconds()
                                    for _ in range(SETUP_PROBES)]
    info = provenance(args, inputs)
    print(f"# standbymmap benchmark: {json.dumps(info)}")

    tracer = Tracer(args.workload)
    with tracer.span("config.load") as load_span:
        config = cli.load_model(cli.bundled_model_path())
    passes = timed_passes(wl, config, inputs, doc[size][args.workload], tol,
                          args, tracer)

    ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op["ok"] for op in ops)
    for i, p in enumerate(passes):
        bad = [op for op in p["ops"] if not op["ok"]]
        scaled = "" if p["traced"] else \
            f"scaled wall {p['wall_s']:.4f} s, cpu {p['cpu_s']:.4f} s; "
        print(f"# pass {i} {'traced' if p['traced'] else 'untraced'}: "
              f"{scaled}raw wall {p['raw_wall_s']:.4f} s, "
              f"cpu {p['raw_cpu_s']:.4f} s; "
              f"{len(p['ops']) - len(bad)}/{len(p['ops'])} ops ok")
        for op in bad:
            print(f"#   FAILED {op['op']}: {op['detail']}")
    if args.trace:
        values = per_layer(passes, tracer, load_span, ops)
    else:
        values = end_to_end(passes, setups, ops)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.jsonl")
        print("# self time per span (all traced passes):")
        print(f"#   {'span':<44}{'calls':>7}{'incl s':>11}{'self s':>11}")
        table = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][2])
        for name, (calls, incl, own) in table:
            print(f"#   {name:<44}{calls:>7}{incl:>11.4f}{own:>11.4f}")
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"provenance": info,
         "setup_s": {"raw": [raw for raw, _ in setups],
                     "scaled": [scaled for _, scaled in setups]},
         "passes": passes,
         "metrics": values}, indent=2))

    print(f"{args.workload}: {'per-layer' if args.trace else 'end-to-end'} "
          f"metrics, {len(passes)} passes")
    print_table(values, units)
    print(f"  failed_frac {failed / len(ops):.6g} "
          f"({failed} of {len(ops)} operations failed)")
    if not args.trace:
        raw = {k: statistics.median(p[f"raw_{k}"] for p in passes)
               for k in ("wall_s", "cpu_s")}
        print(f"# unscaled medians: wall {raw['wall_s']:.4f} s, cpu "
              f"{raw['cpu_s']:.4f} s, setup "
              f"{statistics.median(raw for raw, _ in setups):.4f} s")
    print(result_line(failed == 0, len(ops), failed, values, units))
    return 0 if failed == 0 else 1


def run_all(args, bench) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    units = declared_metrics(bench, args.trace)
    correct, attempted, failed, values, all_units = True, 0, 0, {}, {}
    for name in (w["name"] for w in bench["workloads"]):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", str(args.reference)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise RuntimeError(f"workload {name} printed no result")
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric in units:
            values[f"{name}.{metric}"] = res["metrics"][metric]["value"]
            all_units[f"{name}.{metric}"] = units[metric]
    print("all workloads:")
    print_table(values, all_units)
    print(f"  failed_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    print(result_line(correct, attempted, failed, values, all_units))
    return 0 if correct else 1


def regen(args) -> int:
    from standbymmap import cli
    from workloads import WORKLOADS, flatten

    config = cli.load_model(cli.bundled_model_path())
    doc = json.loads(REFERENCE.read_text())
    changed = 0
    for size in ("full", "quick"):
        for name, wl in WORKLOADS.items():
            inputs = wl.inputs[size]
            new = wl.summary(wl.run(config, inputs, args.seed), inputs)
            old = doc.get(size, {}).get(name, {})
            flat_new, flat_old = flatten(new), flatten(old)
            for key in sorted(flat_new.keys() | flat_old.keys()):
                a, b = flat_old.get(key), flat_new.get(key)
                if a != b:
                    changed += 1
                    print(f"{size}/{name}/{key}: {a!r} -> {b!r}")
            doc.setdefault(size, {})[name] = new
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{changed} reference values changed; wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    if not (SRC / "standbymmap" / "cli.py").is_file() or \
            not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a standbymmap source checkout "
              "(need src/standbymmap and BENCHMARK.json)", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, bench)
    # one caller, BLAS threads capped at the cores this process may use;
    # set before numpy is first imported, and inherited by the probes
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    if args.regen:
        return regen(args)
    if args.workload == "all":
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
