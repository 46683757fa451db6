"""Reduced-size smoke check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload at a tenth of its request count for one round,
untraced once and traced twice with one seed.  It asserts that every
output passes its oracle check, that each run reports every metric
BENCHMARK.json names, and that the deterministic per-layer counts of the
two traced runs are identical.  Takes about a minute.
"""

import json
import sys

import run
import workloads

SCALE = 0.1
SEED = 7


def _quiet(*args, **kwargs):
    pass


def _check(result, names, what):
    assert result["correct"] and result["failed"] == 0, f"{what}: {result['failed']} outputs failed"
    missing = names - set(result["metrics"])
    assert not missing, f"{what}: metrics missing: {sorted(missing)}"


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.COUNT_METRICS) <= per_layer
    for workload in workloads.WORKLOADS:
        result, _ = run.measure(workload, SEED, 0, False, SCALE, _quiet)
        _check(result, end_to_end, f"{workload} untraced")
        counts = []
        for attempt in (1, 2):
            result, _ = run.measure(workload, SEED, 0, True, SCALE, _quiet)
            _check(result, per_layer, f"{workload} traced run {attempt}")
            counts.append({name: result["metrics"][name]["value"] for name in run.COUNT_METRICS})
        assert counts[0] == counts[1], f"{workload}: layer counts differ between traced runs"
        print(f"{workload}: ok ({len(end_to_end)} end-to-end and {len(per_layer)} per-layer metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
