"""Self test of the benchmark, on the small ``--quick`` inputs (about a
minute).  Run from the root of the checkout:

    python3 perfbench/selftest.py

It checks that
1. all four workloads run, pass their checks and print every end-to-end
   metric of BENCHMARK.json by name with its unit;
2. the traced mode prints every per-layer metric the same way;
3. a perturbed reference makes operations fail: ``failed`` > 0,
   ``ok_frac`` < 1 and a non-zero exit code;
4. in a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise AssertionError(f"no result line:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def check_metrics(proc, declared, workloads):
    res = result(proc)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res
    for w in workloads:
        for m in declared:
            key = f"{w}.{m['name']}"
            assert res["metrics"][key]["unit"] == m["unit"], key
            row = [ln.split() for ln in proc.stdout.splitlines()
                   if ln.split()[:1] == [key]]
            assert row and row[0][-1] == m["unit"], f"{key} not printed"


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    quick = ("--workload", "all", "--quick", "--seconds", "1", "--seed", "0")

    check_metrics(bench(*quick, "--trace", "0"), declared["end_to_end"],
                  workloads)
    print("ok: end-to-end metrics of every workload, all operations pass")
    check_metrics(bench(*quick, "--trace", "1"), declared["per_layer"],
                  workloads)
    print("ok: per-layer metrics of every workload")

    ref = json.loads((HERE / "reference.json").read_text())
    bad = copy.deepcopy(ref)
    bad["quick"]["steady-scale"]["n2-pm1"]["availability"] *= 1 + 1e-6
    bad["quick"]["transient-curve"]["profit"]["100"] *= 1 + 1e-6
    OUT.mkdir(exist_ok=True)
    bad_path = OUT / "perturbed-reference.json"
    bad_path.write_text(json.dumps(bad))
    for w in ("steady-scale", "transient-curve"):
        proc = bench("--workload", w, "--quick", "--seconds", "1",
                     "--trace", "0", "--reference", str(bad_path))
        res = result(proc)
        assert proc.returncode == 1 and not res["correct"], res
        assert 0 < res["failed"] < res["attempted"], res
        assert res["metrics"]["ok_frac"]["value"] < 1.0, res
        print(f"ok: perturbed reference fails {res['failed']} of "
              f"{res['attempted']} operations of {w}")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", workloads[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "{" not in proc.stdout, proc.stdout
    print("ok: without the sources the benchmark exits "
          f"{proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
