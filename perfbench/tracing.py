"""Spans and counters around the public functions of each spinbench module.

The tracer wraps functions from the outside: every namespace that binds one
of the traced functions (the defining module, each ``from .x import y``
copy and the package's re-exports) gets the wrapper, as do the ``minimize``
names bound in ``channel_lab`` and ``covariant_opt``.  ``restore()`` puts every
original back.  Spans and counters stay in memory until the run ends.

A span's self time is its duration minus the part of it covered by its child
spans; a layer's busy time is the sum of its spans' self times.  Spans that
start in a worker thread of the CLI's pool take the span the main thread is
in as their parent.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from time import perf_counter

import spinbench
import spinbench.cli  # noqa: F401  (the cli module is not imported by the package)

# layer -> (module, public function names); the names are traced wherever bound
LAYERS = {
    "cli": ("cli", ["main", "sweep_rows"]),
    "closed_forms": ("closed_forms", [
        "optimal_fidelity", "optimal_fidelity_asymptotic", "mo_benchmark",
        "mo_benchmark_asymptotic", "mo_optimal_angle", "coupling_angle",
        "worst_case_asymptotic", "spin_k_fidelity_asymptotic",
        "spin_k_entanglement_asymptotic", "spin_k_worst_case_asymptotic",
        "spin_k_mo_asymptotic", "interaction_time"]),
    "protocols.gate": ("protocols", ["heisenberg_gate"]),
    "protocols.mo_quadrature": ("protocols", ["simulate_mo_strategy", "simulate_spin_k_mo"]),
    "protocols.strategy": ("protocols", ["simulate_optimal_qubit_strategy", "simulate_spin_k"]),
    "spin_algebra.projectors": ("spin_algebra", ["total_spin_projectors"]),
    "spin_algebra.rotation": ("spin_algebra", [
        "rotation_unitary", "spin_coherent_state", "make_spin_operators"]),
    "channel_lab.entanglement": ("channel_lab", ["entanglement_fidelity"]),
    "channel_lab.worst_case": ("channel_lab", ["worst_case_fidelity"]),
    "channel_lab.mc": ("channel_lab", ["average_fidelity_mc"]),
    "recycling.step": ("recycling", ["complementary_step"]),
    "recycling.curve": ("recycling", ["recycling_curve", "advantage_longevity"]),
    "covariant_opt.maximize": ("covariant_opt", ["maximize_covariant_fidelity"]),
    "covariant_opt.locate": ("covariant_opt", ["locate_transition"]),
}
# ProgramChannel construction (Kraus build and unitarity check) runs in
# __post_init__, which the class looks up on itself: it is patched there
KRAUS_LAYER = "channel_lab.kraus"
# scipy's minimize as bound in these modules -> counter prefix
MINIMIZE = {"channel_lab": "channel_lab.worst_case", "covariant_opt": "covariant_opt"}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans = []            # (span id, parent id, call id, layer, name, start, end)
        self.counts = defaultdict(float)
        self.seen_projectors = set()
        self.sweep_rows_s = defaultdict(float)   # threads -> seconds in sweep_rows
        self.call_id = 0
        self.active = False
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_span = None     # innermost open span on the main thread
        self._patches = []         # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, after=None):
        tracer = self
        main = threading.main_thread()

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            on_main = threading.current_thread() is main
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._main_span
            with tracer._lock:
                sid = tracer._next_id = tracer._next_id + 1
            stack.append(sid)
            if on_main:
                tracer._main_span = sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if on_main:
                    tracer._main_span = stack[-1] if stack else None
                tracer.spans.append((sid, parent, tracer.call_id, layer, fn.__name__, start, end))
            if after is not None:
                with tracer._lock:
                    after(args, kwargs, result, end - start)
            return result
        traced.__wrapped__ = fn
        return traced

    def _count_minimize(self, prefix, fn):
        tracer = self

        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            if tracer.active:
                with tracer._lock:
                    tracer.counts[prefix + ".starts"] += 1
                    tracer.counts[prefix + ".nfev"] += res.nfev
            return res
        counted.__wrapped__ = fn
        return counted

    # -- counters per traced function --------------------------------------

    def _after(self, name):
        c = self.counts
        if name == "sweep_rows":
            def after(a, kw, res, dt):
                self.sweep_rows_s[_arg(a, kw, 3, "threads")] += dt
        elif name == "heisenberg_gate":
            def after(a, kw, res, dt):
                c["protocols.gate.dim_sum"] += (2 * float(a[0]) + 1) * (2 * float(a[1]) + 1)
        elif name == "simulate_mo_strategy":
            def after(a, kw, res, dt):
                c["protocols.mo_quadrature.nodes"] += _arg(a, kw, 2, "quadrature_order", 64)
        elif name == "simulate_spin_k_mo":
            def after(a, kw, res, dt):
                c["protocols.mo_quadrature.nodes"] += _arg(a, kw, 3, "quadrature_order", 64)
        elif name == "total_spin_projectors":
            def after(a, kw, res, dt):
                key = (float(a[0]), float(a[1]))   # HalfInteger converts too
                c["spin_algebra.projectors.dim_sum"] += (2 * key[0] + 1) * (2 * key[1] + 1)
                c["spin_algebra.projectors.repeats"] += key in self.seen_projectors
                self.seen_projectors.add(key)
        elif name == "average_fidelity_mc":
            def after(a, kw, res, dt):
                c["channel_lab.mc.samples"] += _arg(a, kw, 2, "samples")
                c["channel_lab.mc.inclusive_s"] += dt
        elif name == "recycling_curve":
            def after(a, kw, res, dt):
                c["recycling.curves"] += 1
                c["recycling.exact_curves"] += res.mode == "exact"
        else:
            after = None
        return after

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "spinbench" or n.startswith("spinbench."))]
        for layer, (modname, names) in LAYERS.items():
            defining = sys.modules["spinbench." + modname]
            for name in names:
                original = getattr(defining, name)
                wrapper = self.wrap(layer, original, self._after(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
        program_channel = spinbench.channel_lab.ProgramChannel
        self._set(program_channel, "__post_init__",
                  self.wrap(KRAUS_LAYER, program_channel.__post_init__))
        for modname, prefix in MINIMIZE.items():
            mod = sys.modules["spinbench." + modname]
            self._set(mod, "minimize", self._count_minimize(prefix, mod.minimize))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self time per layer, from the recorded spans."""
        children = defaultdict(list)
        for sid, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        busy = defaultdict(float)
        for sid, _, _, layer, _, start, end in self.spans:
            covered, reach = 0.0, start
            for cs, ce in sorted(children.get(sid, ())):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            busy[layer] += (end - start) - covered
        return busy

    def layer_metrics(self, rounds, rows_out, bytes_out):
        """Per-layer metrics, per round of the workload."""
        busy = self.self_times()
        calls = defaultdict(int)
        for span in self.spans:
            calls[span[3]] += 1
        c = self.counts
        per = 1.0 / rounds

        def share(part, whole):
            return part / whole if whole else 0.0
        m = {
            "cli.self_s": busy["cli"] * per,
            "cli.rows_out": rows_out * per,
            "cli.bytes_out": bytes_out * per,
            "cli.thread_speedup": share(self.sweep_rows_s[1], self.sweep_rows_s[2]),
            "closed_forms.calls": calls["closed_forms"] * per,
            "closed_forms.busy_s": busy["closed_forms"] * per,
            "protocols.gate.calls": calls["protocols.gate"] * per,
            "protocols.gate.busy_s": busy["protocols.gate"] * per,
            "protocols.gate.dim_sum": c["protocols.gate.dim_sum"] * per,
            "protocols.mo_quadrature.calls": calls["protocols.mo_quadrature"] * per,
            "protocols.mo_quadrature.busy_s": busy["protocols.mo_quadrature"] * per,
            "protocols.mo_quadrature.nodes": c["protocols.mo_quadrature.nodes"] * per,
            "protocols.strategy.busy_s": busy["protocols.strategy"] * per,
            "spin_algebra.projectors.calls": calls["spin_algebra.projectors"] * per,
            "spin_algebra.projectors.busy_s": busy["spin_algebra.projectors"] * per,
            "spin_algebra.projectors.dim_sum": c["spin_algebra.projectors.dim_sum"] * per,
            "spin_algebra.projectors.repeat_share": share(
                c["spin_algebra.projectors.repeats"], calls["spin_algebra.projectors"]),
            "spin_algebra.rotation.calls": calls["spin_algebra.rotation"] * per,
            "spin_algebra.rotation.busy_s": busy["spin_algebra.rotation"] * per,
            "channel_lab.kraus.calls": calls[KRAUS_LAYER] * per,
            "channel_lab.kraus.busy_s": busy[KRAUS_LAYER] * per,
            "channel_lab.entanglement.calls": calls["channel_lab.entanglement"] * per,
            "channel_lab.entanglement.busy_s": busy["channel_lab.entanglement"] * per,
            "channel_lab.worst_case.calls": calls["channel_lab.worst_case"] * per,
            "channel_lab.worst_case.busy_s": busy["channel_lab.worst_case"] * per,
            "channel_lab.worst_case.starts": c["channel_lab.worst_case.starts"] * per,
            "channel_lab.worst_case.nfev": c["channel_lab.worst_case.nfev"] * per,
            "channel_lab.mc.samples": c["channel_lab.mc.samples"] * per,
            "channel_lab.mc.busy_s": busy["channel_lab.mc"] * per,
            "channel_lab.mc.samples_per_s": share(c["channel_lab.mc.samples"], c["channel_lab.mc.inclusive_s"]),
            "recycling.step.calls": calls["recycling.step"] * per,
            "recycling.step.busy_s": busy["recycling.step"] * per,
            "recycling.curve.busy_s": busy["recycling.curve"] * per,
            "recycling.exact_share": share(c["recycling.exact_curves"], c["recycling.curves"]),
            "covariant_opt.maximize.calls": calls["covariant_opt.maximize"] * per,
            "covariant_opt.maximize.busy_s": busy["covariant_opt.maximize"] * per,
            "covariant_opt.locate.calls": calls["covariant_opt.locate"] * per,
            "covariant_opt.locate.busy_s": busy["covariant_opt.locate"] * per,
            "covariant_opt.nfev": c["covariant_opt.nfev"] * per,
        }
        return m
