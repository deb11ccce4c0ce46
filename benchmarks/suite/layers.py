"""Per-layer host-time tracing for the benchmark's traced run.

:func:`install` wraps the public functions of each layer of the program
(the table :data:`LAYERS`) in place: class methods on the class and every
subclass that overrides them, module functions in their module and in
every module that imported them by name.  Nothing is wrapped until
``install`` runs, which the worker does only in the traced run's own
process, after the untraced passes.

A wrapped call opens a frame only when it crosses into its layer from a
different one; calls within a layer run straight through, so a layer's
``calls`` count entries into the layer.  Frames aggregate calls and
inclusive and self time per layer (self = duration minus the time of the
wrapped frames inside it); only operation roots, simulator runs and
matrix points are kept as spans, and those are written out as one
Chrome trace.  Nothing is recorded outside an operation root, so a
layer's self times over all layers sum to the operations' total time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
from time import perf_counter

#: (layer, module, names): a name is a module function, a class (all its
#: public methods), or ``Class.method``.
LAYERS = (
    ("exp", "repro.exp.matrix", ("run_matrix",)),
    ("model", "repro.sim.server", ("ServerModel", "corun")),
    ("kernel", "repro.cluster.kernel", ("Simulator.run",)),
    ("fleet", "repro.cluster.fleet", ("Fleet.submit",)),
    ("sched", "repro.cluster.sched", ("Scheduler.assign",
                                      "Scheduler.reroute_full")),
    ("metrics.record", "repro.cluster.metrics", ("LogHistogram.record",)),
    ("metrics.record_many", "repro.cluster.metrics",
     ("LogHistogram.record_many",)),
    ("vector", "repro.cluster.vector", ("run_vector_scenario",)),
    ("epoch.drain", "repro.cluster.epoch", ("Station.drain",)),
    ("epoch.fifo_scan", "repro.cluster.epoch", ("fifo_scan",)),
    ("epoch.water_fill", "repro.cluster.epoch", ("water_fill",)),
    ("epoch.interleave", "repro.cluster.epoch", ("interleave_targets",)),
    ("offload_api", "repro.core.offload_api", ("SmartDIMMSession",)),
    ("driver", "repro.core.driver", ("SmartDIMMDriver",)),
    ("compcpy", "repro.core.compcpy", ("CompCpy",)),
    ("llc", "repro.cache.llc", ("LLC",)),
    ("mc", "repro.dram.memory_controller", ("MemoryController",)),
    ("smartdimm", "repro.core.smartdimm", ("SmartDIMM",)),
    ("dsa", "repro.core.dsa.base", ("DSA",)),
    ("dsa", "repro.core.dsa.tls_dsa", ("TLSOffloadContext",)),
    ("dsa", "repro.core.dsa.deflate_dsa", ("HardwareMatcher",)),
    ("ulp", "repro.ulp.gcm", ("AESGCM",)),
    ("ulp", "repro.ulp.aes", ("AES",)),
    ("ulp", "repro.ulp.deflate", ("deflate_compress", "deflate_decompress",
                                  "write_fixed_block")),
    ("ulp", "repro.ulp.lz77", ("HashChainMatcher",)),
)

#: The frame every operation runs in: its self time is the benchmark's own.
ROOT = "harness"

#: Layers whose every frame is also kept as a span.
SPAN_LAYERS = ("kernel", "vector")

#: Layers whose integer return values are summed (events processed).
SUMMED_RESULTS = ("kernel",)


def layer_names() -> list:
    """Every layer, root first, in table order."""
    names = [ROOT]
    for layer, _, _ in LAYERS:
        if layer not in names:
            names.append(layer)
    return names


class LayerTracer:
    """Frame stack plus per-layer aggregates and the kept spans."""

    def __init__(self):
        self.stack = []          # frames: [layer, start, child_s, span_id]
        self.calls = {}
        self.self_s = {}
        self.inclusive_s = {}
        self.results = {}
        self.root_s = 0.0
        self.spans = []          # (name, layer, start, end, id, parent, op)
        self._next_span = 0
        self._op = 0

    def _push(self, layer: str, keep_span: bool) -> list:
        span_id = None
        if keep_span:
            self._next_span += 1
            span_id = self._next_span
        frame = [layer, 0.0, 0.0, span_id]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def _pop(self, frame: list, name: str) -> None:
        end = perf_counter()
        self.stack.pop()
        layer, start, child_s, span_id = frame
        duration = end - start
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child_s
        self.inclusive_s[layer] = self.inclusive_s.get(layer, 0.0) + duration
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.root_s += duration
        if span_id is not None:
            self.spans.append((name, layer, start, end, span_id,
                               self._parent_span(), self._op))

    @contextlib.contextmanager
    def op(self, label: str):
        """One operation: the root frame every layer frame nests under."""
        self._op += 1
        frame = self._push(ROOT, keep_span=True)
        try:
            yield
        finally:
            self._pop(frame, label)

    def span(self, name: str, layer: str, start: float, end: float) -> None:
        """Keep a span measured elsewhere (a matrix point) in the trace."""
        self._next_span += 1
        self.spans.append((name, layer, start, end, self._next_span,
                           self._parent_span(), self._op))

    def wrap(self, layer: str, fn):
        """``fn`` with a frame of ``layer`` around calls from other layers."""
        tracer = self
        keep_span = layer in SPAN_LAYERS
        summed = layer in SUMMED_RESULTS
        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = tracer._push(layer, keep_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, name)
            if summed:
                tracer.results[layer] = tracer.results.get(layer, 0) + result
            return result

        return traced

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """Write the kept spans as Chrome-trace JSON."""
        from repro.cluster.metrics import TraceRecorder

        recorder = TraceRecorder()
        recorder.metadata("process_name", 1, 0, process_name)
        origin = min((span[2] for span in self.spans), default=0.0)
        for name, layer, start, end, span_id, parent, op in self.spans:
            recorder.complete(name, layer, start - origin, end - start,
                              pid=1, tid=1,
                              args={"span": span_id, "parent": parent,
                                    "op": op})
        recorder.write(path)


def _with_subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return list(dict.fromkeys(found))


def _wrap_method(tracer: LayerTracer, cls, attr: str, layer: str) -> None:
    raw = cls.__dict__.get(attr)
    if isinstance(raw, (staticmethod, classmethod)):
        inner = raw.__func__
        if not inspect.isgeneratorfunction(inner):
            setattr(cls, attr, type(raw)(tracer.wrap(layer, inner)))
    elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
        # A generator function only builds its generator when called; its
        # body runs later, inside the simulator, so timing it is meaningless.
        setattr(cls, attr, tracer.wrap(layer, raw))


def _rebind(original, wrapped) -> None:
    """Replace ``original`` wherever a module holds it by name."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped


def install(tracer: LayerTracer) -> None:
    """Wrap every layer in :data:`LAYERS` for ``tracer``.

    Every ``repro`` module is imported first, so subclasses and by-name
    imports defined anywhere in the package are wrapped too.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    for layer, module_name, names in LAYERS:
        module = importlib.import_module(module_name)
        for name in names:
            owner_name, _, method = name.partition(".")
            owner = getattr(module, owner_name)
            if not inspect.isclass(owner):
                _rebind(owner, tracer.wrap(layer, owner))
                continue
            for cls in _with_subclasses(owner):
                attrs = [method] if method else [
                    attr for attr in vars(cls) if not attr.startswith("_")]
                for attr in attrs:
                    _wrap_method(tracer, cls, attr, layer)
