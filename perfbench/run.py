"""Benchmark of fge: three seeded workloads, end-to-end timings and traced per-layer figures.

    python3 perfbench/run.py --workload ground --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; fge is imported from ``src/``.
Each round replays the workload's request set in a fresh interpreter
(``worker.py``), so the package's caches start cold as they do for a
command-line user, and rounds repeat until ``--seconds`` is used up.
Every output of every round is checked against ``oracle.py`` between
rounds, outside the timed work.  The last line of stdout is one JSON
object with the fields ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
The exit code is 0 only when every output passed its check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

IMPORTTIME_SAMPLES = 3
ROUND_TIMEOUT_S = 150
TAIL_BEYOND = 10  # the tail percentile leaves this many slower samples beyond it

# metric name -> unit, for both kinds of run
UNITS = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]}
COUNT_METRICS = (
    "fermi.mu.calls", "fermi.mu.misses", "fermi.mu.integrand_evals",
    "exchange.zeta.calls", "exchange.zeta.misses", "exchange.zeta.amplitude_calls",
    "exchange.amplitude.calls", "exchange.amplitude.evals_per_call", "exchange.amplitude.worst_err_est",
    "quadrature.calls", "quadrature.integrand_evals", "quadrature.panel_evals", "quadrature.failures",
    "exchange.f0.calls",
)


class RoundError(RuntimeError):
    """A worker process failed as a whole rather than request by request."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # one caller and no threads: keep BLAS from starting a thread pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args, env, stdin=None):
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundError(f"{args[0]} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def warm_up(env):
    """Import fge once, untimed, so that no timed import compiles bytecode."""
    _child(["-c", "import fge, fge.cli"], env)


def _import_costs(stderr, packages):
    """Cumulative us of each package's outermost imports in an ``-X importtime`` log.

    The log lists modules in post-order with the nesting as indentation; a
    package's cost is the cumulative time of its modules whose importer is
    outside the package, so modules first loaded on its behalf count too.
    """
    pending = []  # (indent, {package: us}) of subtrees whose parent has not appeared yet
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        indent = len(name) - len(name.lstrip())
        costs = dict.fromkeys(packages, 0)
        while pending and pending[-1][0] > indent:
            for package, us in pending.pop()[1].items():
                costs[package] += us
        top = name.strip().split(".", 1)[0]
        if top in costs:
            costs = dict.fromkeys(packages, 0)
            costs[top] = int(cumulative)
        pending.append((indent, costs))
    return {package: sum(c[package] for _, c in pending) for package in packages}


def import_ms(env, samples):
    """Cumulative import time of scipy and numpy under ``-X importtime``, in ms."""
    logs = [_child(["-X", "importtime", "-c", "import fge, fge.cli"], env).stderr for _ in range(samples)]
    costs = [_import_costs(log, ("scipy", "numpy")) for log in logs]
    return {package: statistics.median(c[package] for c in costs) / 1e3 for package in ("scipy", "numpy")}


def run_round(requests, trace, env, spans_path):
    """One worker round; its outputs stay in ``OUT`` for ``Checker.round`` to read."""
    spec = json.dumps({"requests": requests, "trace": trace, "outputs": str(OUT / "outputs.jsonl"),
                       "spans": str(spans_path)})
    result = json.loads(_child([str(WORKER)], env, stdin=spec).stdout)
    result["traced"] = trace
    return result


def tail(latencies):
    """The latency with TAIL_BEYOND slower samples beyond it."""
    return sorted(latencies)[-min(TAIL_BEYOND, len(latencies) - 1) - 1]


def tail_label(count):
    beyond = min(TAIL_BEYOND, count - 1)
    return f"p{int(1000 * (count - beyond) / count) / 10:g}"


def end_to_end(rounds):
    """The end-to-end figures of a run from its untraced rounds.

    Request latencies are averaged over rounds, not taken as medians: on a
    shared host a core alternates between full speed and a slowed state
    while a neighbour runs on it.  A median over a few rounds jumps between
    the two states; a mean moves in proportion to the time spent slowed.
    The tail is the median over rounds of each round's tail, because nearly
    every round has slowed stretches, and the median drops the rounds that
    had more than usual.
    """
    per_request = [statistics.fmean(column) for column in zip(*(r["latencies_s"] for r in rounds))]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": sum(per_request),
        "latency_p50_ms": statistics.median(per_request) * 1e3,
        "latency_tail_ms": statistics.median(tail(r["latencies_s"]) for r in rounds) * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


class Checker:
    """Oracle checks of each round's outputs; identical outputs of one request are checked once."""

    def __init__(self, requests, log):
        self.requests = requests
        self.log = log
        self.verdicts = {}
        self.failed = 0

    def round(self):
        with open(OUT / "outputs.jsonl", encoding="utf-8") as handle:
            outputs = [json.loads(line) for line in handle]
        if len(outputs) != len(self.requests):
            raise RoundError(f"{len(outputs)} outputs for {len(self.requests)} requests")
        for index, (request, output) in enumerate(zip(self.requests, outputs)):
            key = (index, json.dumps(output, sort_keys=True))
            if key not in self.verdicts:
                self.verdicts[key] = oracle.check(request, output)
                if self.verdicts[key] is not None:
                    self.log(f"oracle miss: {request.get('argv', request)}: {self.verdicts[key]}",
                             file=sys.stderr)
            self.failed += self.verdicts[key] is not None


def layer_figures(traced, plain, env, log):
    """Per-layer figures of a run; also whether the deterministic counts repeated across rounds."""
    layers = [r["layers"] for r in traced]
    counts_repeat = all(l[name] == layers[0][name] for l in layers for name in COUNT_METRICS)
    metrics = {}
    for name, value in layers[0].items():
        if value is None:
            log(f"absent: {name} (its fge function is gone; reported as 0)")
            value = 0
        elif name not in COUNT_METRICS:
            value = statistics.median(l[name] for l in layers)
        metrics[name] = {"value": value, "unit": UNITS[name]}
    imports = import_ms(env, IMPORTTIME_SAMPLES)
    extra = {"setup.scipy_import_ms": imports["scipy"], "setup.numpy_import_ms": imports["numpy"],
             "trace.overhead_ratio": end_to_end(traced)["wall_s"] / end_to_end(plain)["wall_s"]}
    metrics.update((name, {"value": value, "unit": UNITS[name]}) for name, value in extra.items())
    for hook in traced[0]["absent"]:
        log(f"absent hook: {hook}")
    return metrics, counts_repeat


def measure(workload, seed, seconds, trace, scale=1.0, log=print):
    """One benchmark run; returns the result object and whether the layer counts repeated."""
    OUT.mkdir(exist_ok=True)
    env = child_env()
    requests = workloads.build(workload, seed, str(OUT / "sweep.csv"), scale)
    spans_path = OUT / f"spans-{workload}.csv"
    warm_up(env)

    rounds, checker = [], Checker(requests, log)
    started = time.monotonic()
    while True:
        cycle = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            rounds.append(run_round(requests, traced, env, spans_path))
            checker.round()
        now = time.monotonic()
        if now - started + (now - cycle) > seconds:
            break
    failed, attempted = checker.failed, len(requests) * len(rounds)

    plain = [r for r in rounds if not r["traced"]]
    log(f"workload {workload}, seed {seed}: {len(plain)} untraced round(s) of {len(requests)} requests,"
        f" closed loop, one client; tail = {tail_label(len(requests))}")
    log(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} requests failed)")
    counts_repeat = True
    if trace:
        traced = [r for r in rounds if r["traced"]]
        metrics, counts_repeat = layer_figures(traced, plain, env, log)
        log(f"{len(traced)} traced round(s); deterministic counts "
            f"{'repeat exactly' if counts_repeat else 'DIFFER'} across them; spans in {spans_path}")
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in end_to_end(plain).items()}
    for name, metric in metrics.items():
        log(f"{name} {metric['value']!r} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, counts_repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fge" / "__init__.py").is_file():
        print(f"perfbench: no fge source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        result, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
