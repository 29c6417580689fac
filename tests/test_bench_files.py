"""Committed benchmark result files: each is one readable result line."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_bench_file_is_one_passing_result_line():
    """Every root BENCH_*.json parses as one JSON object, as the last line
    of `perfbench/run.py` prints it, from a run that attempted operations
    and failed none."""
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, f"no BENCH_*.json in {ROOT}"
    bad = []
    for path in paths:
        try:
            result = json.loads(path.read_text())
        except ValueError as err:
            bad.append(f"{path.name}: not JSON ({err})")
            continue
        if not isinstance(result, dict):
            bad.append(f"{path.name}: not one JSON object")
        elif not (result.get("attempted", 0) > 0 and result.get("failed") == 0):
            bad.append(f"{path.name}: attempted {result.get('attempted')}, "
                       f"failed {result.get('failed')}")
    assert not bad, "; ".join(bad)
