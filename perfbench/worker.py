"""One round of a workload in a fresh interpreter.

Times ``import fge, fge.cli``, reads ``{"requests": [...], "trace": bool,
"outputs": path, "spans": path}`` as JSON on stdin and serves the requests
one after another.  Each request's raw output goes to the outputs file as
one JSON line when the request returns, so that the worker holds one
output at a time and its peak RSS is fge's.  Prints one JSON object: the
import time, per-request latencies, the peak RSS and, when tracing, the
per-layer values.  Only the call into fge is timed; reading the CSV a
request wrote and writing the output line happen between timings.
"""

import contextlib
import io
import json
import sys
import time


def _report(report):
    return {"f": report.f, "entangled": report.entangled, "concurrence": report.concurrence,
            "eof": report.entropy_of_formation, "r": report.r, "p": report.p, "t": report.t,
            "regime": report.regime.value, "r_e": report.r_e}


def peak_rss_mb():
    """This interpreter's own peak RSS (VmHWM).

    Not ``getrusage``: its ``ru_maxrss`` also keeps the peak of the process
    image replaced at exec, which is the size of the parent that started us.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def serve(fge, request):
    """Run one request; return a thunk that turns what it produced into a plain output."""
    kind = request["kind"]
    if kind == "cli":
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = fge.cli.main(request["argv"])
        except SystemExit as exc:
            code = exc.code

        def output():
            out = {"code": code, "stdout": stdout.getvalue()}
            if request["csv"] and code == 0:
                with open(request["argv"][request["argv"].index("--out") + 1], encoding="utf-8") as handle:
                    out["csv"] = handle.read()
            return out
        return output
    regime = fge.GasRegime(request["regime"])
    if kind == "eos":
        report = fge.eos_evaluate(request["r"], request["P"], request["T"], regime)
        return lambda: _report(report)
    if kind == "avg":
        value = fge.average_entanglement(request["t"], regime, fge.Measure(request["measure"]))
        return lambda: {"average": value}
    raise ValueError(f"unknown request kind {kind!r}")


def main():
    started = time.perf_counter()
    import fge
    import fge.cli
    setup_s = time.perf_counter() - started
    spec = json.load(sys.stdin)

    tracer = None
    if spec["trace"]:
        from tracing import REQUEST, Tracer
        tracer = Tracer()
        tracer.install()
    latencies = []
    with open(spec["outputs"], "w", encoding="utf-8") as sink:
        for index, request in enumerate(spec["requests"]):
            frame = None
            if tracer:
                tracer.request = index
                frame = tracer.enter(REQUEST)
            start = time.perf_counter_ns()
            try:
                output = serve(fge, request)
            except Exception as exc:
                output = None
                error = f"{type(exc).__name__}: {exc}"
            latencies.append((time.perf_counter_ns() - start) / 1e9)
            if tracer:
                tracer.leave(frame)
            try:
                sink.write(json.dumps(output() if output else {"error": error}) + "\n")
            except OSError as exc:
                sink.write(json.dumps({"error": f"unreadable output: {type(exc).__name__}: {exc}"}) + "\n")
    result = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent
        tracer.write_spans(spec["spans"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
