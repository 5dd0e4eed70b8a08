"""Per-layer tracing installed from outside the program.

``Tracer.install()`` wraps every public function of each layer module (and
the eigenpair sources' ``resolve`` methods) and rebinds the wrapper at every
binding site: ``from .linalg import eig_hermitian`` copies the function into
``qgld.expectation``, ``qgld.lanczos``, ``qgld.qgpe``, ``qgld.cli`` and
``qgld`` itself, so each of those module attributes is replaced.  Each call
records a span (id, name, start, end, parent span, benchmark call id,
whether an exception left it).  Spans stay in memory; ``layer_metrics`` turns
them into per-layer numbers and ``write_spans`` writes them out at the end.

A span's self time is its duration minus the part of it covered by its
children (the union of their intervals, since the CLI's ``--sweep-L`` pool
runs children on two threads at once).
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "statevector", "qgpe", "expectation", "lanczos", "kernel", "cli", "io")
METHODS = {"expectation": ("DenseSource.resolve", "RqblSource.resolve")}
# private family builders: counted, not spanned, so their time stays in the
# public pipeline that called them
COUNTED_ONLY = {"expectation": ("_scaled_phase_family",)}

CALLS_AND_SELF = (
    "linalg.eig_hermitian", "linalg.unitary_phase_exp", "linalg.require_hermitian",
    "linalg.psd_sqrt", "linalg.orthonormalize_svd", "linalg.inverse",
    "statevector.prepare_system_state", "statevector.apply_controlled_family",
    "statevector.unitarity_defect",
    "qgpe.qgpe_run", "qgpe.evolution_family",
    "expectation.eigenvalue_gradient_probe", "expectation.adapt_degenerate_eigenvectors",
    "expectation.qgld_expectation", "expectation.resolve",
    "lanczos.rqbl_step",
)
SELF_ONLY = (
    "statevector.inverse_qft_deviation", "statevector.conditional_deviation_distribution",
    "expectation.sigma_qgld_expectation", "expectation.sampled_qgld",
    "expectation.logdet_gradient_entry",
    "lanczos.assemble_and_solve", "kernel.kernel_fit",
    "cli.main", "io.render_csv", "io.render_json",
)
CALLS_ONLY = ("lanczos.build_factorization",)


def _observe_apply(counters, args, kwargs, result):
    state = args[0]
    n_dim = state.layout.system_dim
    counters["amplitude_bytes"] = max(counters["amplitude_bytes"], state.amplitudes.nbytes)
    # one complex N x N matvec per member: 8 N^2 real flops
    counters["apply_flops"] += state.layout.deviation_dim * 8 * n_dim * n_dim


def _observe_family(counters, args, kwargs, result):
    counters["families_built"] += 1
    counters["family_members_built"] += len(result)


def _observe_kernel_fit(counters, args, kwargs, result):
    solver = kwargs.get("solver", args[4] if len(args) > 4 else "classical")
    if solver == "qgld":
        counters["alphas"] += len(result.alpha)


OBSERVERS = {
    "statevector.apply_controlled_family": _observe_apply,
    "qgpe.evolution_family": _observe_family,
    "expectation._scaled_phase_family": _observe_family,
    "kernel.kernel_fit": _observe_kernel_fit,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start_ns, end_ns, parent_id, call_id, failed)
        self.counters: Counter = Counter()
        self.call_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, counters, ids, now = self.spans, self.counters, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span belongs to whatever the main thread is in
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            span_id = next(ids)
            stack.append(span_id)
            failed = True
            start = now()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = now()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.call_id, failed))
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, fn):
        """Observe without a span, so the callee's children stay children of
        the caller's span."""
        observe, counters = OBSERVERS[name], self.counters

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(counters, args, kwargs, result)
            return result

        return counted

    def install(self) -> None:
        wrappers = {}   # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"qgld.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for attr in COUNTED_ONLY.get(layer, ()):
                obj = getattr(module, attr)
                wrappers[id(obj)] = self._count(f"{layer}.{attr}", obj)
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(f"{layer}.{meth}", vars(cls)[meth]))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qgld" or mod_name.startswith("qgld.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)


def self_times(spans) -> dict:
    """span id -> self time in ns (duration minus the union of child intervals)."""
    children = defaultdict(list)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for span_id, _, start, end, _, _, _ in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = end - start - covered
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass, from the spans and counters."""
    spans = tracer.spans
    own = self_times(spans)
    calls, self_ns, errors = Counter(), Counter(), Counter()
    by_id = {s[0]: s for s in spans}
    for span_id, name, _, _, parent, _, failed in spans:
        calls[name] += 1
        self_ns[name] += own[span_id]
        if failed:
            layer = name.split(".")[0]
            parent_span = by_id.get(parent)
            if parent_span is None or parent_span[1].split(".")[0] != layer:
                errors[layer] += 1
    in_kernel = 0
    for span in spans:
        if span[1] != "expectation.qgld_expectation":
            continue
        parent = by_id.get(span[4])
        while parent is not None and parent[1] != "kernel.kernel_fit":
            parent = by_id.get(parent[4])
        in_kernel += parent is not None

    c = tracer.counters
    per = 1.0 / passes
    out = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        out[f"{name}.calls"] = calls[name] * per
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[f"{name}.self_s"] = self_ns[name] * 1e-9 * per
    circuits = calls["statevector.apply_controlled_family"]
    members = c["family_members_built"]
    out["statevector.checks_per_member"] = calls["statevector.unitarity_defect"] / members if members else 0.0
    out["statevector.amplitude_bytes"] = float(c["amplitude_bytes"])
    out["statevector.apply_flops"] = c["apply_flops"] * per
    out["qgpe.family_members_built"] = members * per
    out["qgpe.family_reuse"] = max(circuits - c["families_built"], 0) / circuits if circuits else 0.0
    out["kernel.expectations_per_alpha"] = in_kernel / c["alphas"] if c["alphas"] else 0.0
    out["kernel.alphas"] = c["alphas"] * per
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer] * per
    return out


def write_spans(tracer: Tracer, path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id,name,start_ns,end_ns,parent,call,failed\n")
        for span in tracer.spans:
            fh.write(",".join(str(int(v)) if isinstance(v, bool) else str(v) for v in span) + "\n")
