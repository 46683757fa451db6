"""Spans around the calls into each fge module, installed from outside the package.

``Tracer.install`` replaces every module attribute of the imported fge
modules that is bound to one of the functions in ``HOOKS`` (including the
names one module imports from another, and values of module-level dicts)
with a wrapper that opens a span.  Integrands handed to the quadrature are
wrapped too: they are counted and timed but not kept as spans, because a
thermal average evaluates hundreds of thousands of them.

A span's self time is its duration minus the time its child spans and
integrand calls cover; a layer's busy time counts only its outermost
spans, so a layer that calls itself is not counted twice.
"""

import sys
import time
from collections import Counter

# (module, attribute, layer)
HOOKS = (
    ("fge.cli", "main", "cli.main"),
    ("fge.entanglement", "eos_evaluate", "entanglement.eos"),
    ("fge.entanglement", "average_entanglement", "entanglement.average"),
    ("fge.entanglement", "is_entangled", "entanglement.closed_forms"),
    ("fge.entanglement", "concurrence_closed_form", "entanglement.closed_forms"),
    ("fge.entanglement", "entropy_of_formation", "entanglement.closed_forms"),
    ("fge.entanglement", "_concurrence_of_amplitudes", "entanglement.closed_forms"),
    ("fge.entanglement", "_eof_of_amplitudes", "entanglement.closed_forms"),
    ("fge.exchange", "f_from_pressure", "exchange.from_pressure"),
    ("fge.exchange", "f_finite_temperature", "exchange.amplitude"),
    ("fge.exchange", "f_zero_temperature", "exchange.f0"),
    ("fge.exchange", "solve_zeta", "exchange.zeta"),
    ("fge.fermi", "reduced_chemical_potential", "fermi.mu"),
    ("fge.fermi", "fermi_momentum_from_density", "fermi.conversions"),
    ("fge.fermi", "density_from_fermi_momentum", "fermi.conversions"),
    ("fge.fermi", "fermi_energy", "fermi.conversions"),
    ("fge.fermi", "fermi_temperature", "fermi.conversions"),
    ("fge.fermi", "pressure_from_density", "fermi.conversions"),
    ("fge.fermi", "fermi_momentum_from_pressure", "fermi.conversions"),
    ("fge.fermi", "density_from_pressure", "fermi.conversions"),
    ("fge.fermi", "pressure_from_fermi_momentum", "fermi.conversions"),
    ("fge.fermi", "entanglement_distance", "fermi.conversions"),
    ("fge.fermi", "pressure_from_entanglement_distance", "fermi.conversions"),
    ("fge.quadrature", "integrate_refined", "quadrature"),
    ("fge.whitedwarf", "dwarf_report", "whitedwarf.report"),
)
INTEGRAND = "quadrature.integrand"
REQUEST = "request"
# layers whose function is an lru_cache: misses come from cache_info()
CACHED = ("fermi.mu", "exchange.zeta")


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent id, request, layer, start ns, end ns)
        self.calls = Counter()
        self.busy_ns = Counter()
        self.self_ns = Counter()
        self.nested = Counter()    # (open layer, layer entered) -> calls
        self.evals = Counter()     # open layer -> integrand abscissas evaluated under it
        self.raised = Counter()
        self.worst_err = 0.0
        self.request = -1
        self.present = {REQUEST, INTEGRAND}
        self.absent = []
        self._open = Counter()     # layer -> open spans
        self._stack = []           # frames: [id, kept parent id, layer, start, child ns, keep]
        self._next_id = 0
        self._cached = {}

    # --- spans ---

    def enter(self, layer, keep=True):
        for outer in self._open:
            self.nested[outer, layer] += 1
        self._open[layer] += 1
        self.calls[layer] += 1
        if self._stack:
            top = self._stack[-1]
            parent = top[0] if top[5] else top[1]
        else:
            parent = -1
        frame = [self._next_id, parent, layer, 0, 0, keep]
        self._next_id += 1
        self._stack.append(frame)
        frame[3] = time.perf_counter_ns()
        return frame

    def leave(self, frame):
        end = time.perf_counter_ns()
        self._stack.pop()
        ident, parent, layer, start, child, keep = frame
        duration = end - start
        self._open[layer] -= 1
        if not self._open[layer]:
            del self._open[layer]
            self.busy_ns[layer] += duration
        self.self_ns[layer] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        if keep:
            self.spans.append((ident, parent, self.request, layer, start, end))

    def _span(self, fn, layer):
        def traced(*args, **kwargs):
            frame = self.enter(layer)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised[layer] += 1
                raise
            finally:
                self.leave(frame)
        return traced

    def _integrand(self, f):
        def counted(u):
            size = getattr(u, "size", 1)
            for layer in self._open:
                self.evals[layer] += size
            frame = self.enter(INTEGRAND, keep=False)
            try:
                return f(u)
            finally:
                self.leave(frame)
        return counted

    def _traced(self, fn, layer):
        span = self._span(fn, layer)
        if layer == "quadrature":
            def quadrature(f, *args, **kwargs):
                return span(self._integrand(f), *args, **kwargs)
            return quadrature
        if layer == "exchange.amplitude":
            def amplitude(*args, **kwargs):
                result = span(*args, **kwargs)
                self.worst_err = max(self.worst_err, getattr(result, "quadrature_error_estimate", 0.0))
                return result
            return amplitude
        return span

    # --- installation and results ---

    def install(self):
        """Wrap the hooked functions wherever the fge modules hold them."""
        modules = [m for name, m in list(sys.modules.items()) if name == "fge" or name.startswith("fge.")]
        targets = {}
        for module_name, attribute, layer in HOOKS:
            fn = getattr(sys.modules.get(module_name), attribute, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            self.present.add(layer)
            targets[id(fn)] = (fn, layer)
            if layer in CACHED and hasattr(fn, "cache_info"):
                self._cached[layer] = (fn, fn.cache_info().misses)
        wrappers = {key: self._traced(fn, layer) for key, (fn, layer) in targets.items()}
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]

    def misses(self, layer):
        fn, start = self._cached[layer]
        return fn.cache_info().misses - start

    def layer_metrics(self):
        """Per-layer values, keyed by metric name; ``None`` where the layer is absent."""
        def ms(ns):
            return ns / 1e6

        def per_call(count, calls):
            return count / calls if calls else 0.0

        values = {
            "fermi.mu.calls": self.calls["fermi.mu"],
            "fermi.mu.misses": self.misses("fermi.mu") if "fermi.mu" in self._cached else None,
            "fermi.mu.busy_ms": ms(self.busy_ns["fermi.mu"]),
            "fermi.mu.integrand_evals": self.evals["fermi.mu"],
            "exchange.zeta.calls": self.calls["exchange.zeta"],
            "exchange.zeta.misses": self.misses("exchange.zeta") if "exchange.zeta" in self._cached else None,
            "exchange.zeta.self_ms": ms(self.self_ns["exchange.zeta"]),
            "exchange.zeta.amplitude_calls": self.nested["exchange.zeta", "exchange.amplitude"],
            "exchange.amplitude.calls": self.calls["exchange.amplitude"],
            "exchange.amplitude.busy_ms": ms(self.busy_ns["exchange.amplitude"]),
            "exchange.amplitude.evals_per_call": per_call(self.evals["exchange.amplitude"],
                                                          self.calls["exchange.amplitude"]),
            "exchange.amplitude.worst_err_est": self.worst_err,
            "quadrature.calls": self.calls["quadrature"],
            "quadrature.integrand_evals": self.evals["quadrature"],
            "quadrature.panel_evals": self.calls[INTEGRAND],
            "quadrature.integrand_ms": ms(self.self_ns[INTEGRAND]),
            "quadrature.self_ms": ms(self.self_ns["quadrature"]),
            "quadrature.failures": self.raised["quadrature"],
            "exchange.f0.calls": self.calls["exchange.f0"],
            "exchange.f0.busy_ms": ms(self.busy_ns["exchange.f0"]),
            "entanglement.closed_forms.busy_ms": ms(self.busy_ns["entanglement.closed_forms"]),
            "entanglement.eos.self_ms": ms(self.self_ns["entanglement.eos"]),
            "entanglement.average.self_ms": ms(self.self_ns["entanglement.average"]),
            "fermi.conversions.busy_ms": ms(self.busy_ns["fermi.conversions"]),
            "whitedwarf.report.self_ms": ms(self.self_ns["whitedwarf.report"]),
            "cli.main.self_ms": ms(self.self_ns["cli.main"]),
        }
        for name in values:
            layer = name.rsplit(".", 1)[0]
            if layer not in self.present:
                values[name] = None
        return values

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,request,layer,start_ns,end_ns\n")
            for span in self.spans:
                handle.write(",".join(map(str, span)) + "\n")
