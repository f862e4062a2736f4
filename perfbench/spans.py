"""In-memory span recorder for the traced benchmark run.

Each layer is a set of **public** entry points on named classes.  While a
:class:`Recorder` is installed, every entry point is replaced at class level
by a wrapper that times the call with ``perf_counter_ns`` and keeps one
frame per open span on a stack.  A layer's self time is the duration of its
spans minus the time their child spans (calls into other wrapped layers)
cover; both are accumulated as the spans close, so memory stays bounded by
the call depth rather than the number of calls.

Rules the table below follows:

* wrap every class in the hierarchy that defines the method itself, so an
  override on a concrete subclass is timed as well as the base version;
* never wrap an underscore method;
* a module, class or method that no longer exists is skipped, and the
  layer then reports zero calls — renaming a private helper or deleting an
  oracle path never breaks the benchmark;
* a call into a layer from inside the same layer (a subclass calling
  ``super()``, ``predict_requests`` calling ``predict``) is part of the
  outer span: it counts neither as a call nor as a child;
* generator methods are timed per resumption, since the caller's work
  between two items belongs to the caller.

:meth:`Recorder.restore` puts the original class attributes back exactly.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# A counter maps (args, kwargs, result) of one outermost call to an amount.
CountFn = Callable[[tuple, dict, object], int]


def _one(args, kwargs, result) -> int:
    return 1


def _sized(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _len_result(args, kwargs, result) -> int:
    return 0 if result is None else _sized(result)


def _len_arg(index: int) -> CountFn:
    def count(args, kwargs, result) -> int:
        return _sized(args[index]) if len(args) > index else 0
    return count


def _int_result(args, kwargs, result) -> int:
    return result if isinstance(result, int) else 0


def _step_rows(args, kwargs, result) -> int:
    step = args[1] if len(args) > 1 else kwargs.get("step")
    shards = getattr(step, "shards", None) or ()
    return sum(len(x) for x, _ in shards)


class Layer:
    """One layer: entry points on classes, plus per-method counters.

    ``counters`` maps a method name to ``(metric, CountFn)``; ``metric`` is
    a full per-layer metric name, so a counter may report a quantity that
    belongs to another layer (``Runtime.run`` returns the number of events
    the event core processed).
    """

    def __init__(self, name: str, module: str, classes: Sequence[str],
                 methods: Sequence[str],
                 counters: Optional[Dict[str, Tuple[str, CountFn]]] = None
                 ) -> None:
        self.name = name
        self.module = module
        self.classes = tuple(classes)
        self.methods = tuple(methods)
        self.counters = dict(counters or {})


LAYERS: Tuple[Layer, ...] = (
    Layer("runtime.core", "repro.runtime.core", ["EventQueue"],
          ["post", "post_many", "pop_dispatch", "cancel_handle"]),
    Layer("runtime.trace", "repro.runtime.trace", ["EventTrace"],
          ["emit", "emit_many", "emit_many_data", "emit_many_lines",
           "flush"]),
    Layer("runtime.pool", "repro.runtime.pool", ["DevicePool"],
          ["acquire", "resize", "release", "settle", "fail_device",
           "revive_device", "audit"]),
    Layer("serving.generators", "repro.serving.generators",
          ["RequestSource"],
          ["take_wave", "take_arrivals", "next_arrival_time"],
          {"take_wave": ("serving.generators.arrivals", _len_result),
           "take_arrivals": ("serving.generators.arrivals", _len_result)}),
    Layer("serving.tenancy", "repro.serving.tenancy", ["TokenBucket"],
          ["take", "take_many"],
          {"take": ("serving.tenancy.metered", _one),
           "take_many": ("serving.tenancy.metered", _len_arg(1))}),
    Layer("serving.batcher", "repro.serving.batcher", ["DispatchQueue"],
          ["push", "extend", "push_wave", "take", "requeue"]),
    # The router and gateway glue is whatever Runtime.run does outside the
    # other wrapped layers: event dispatch plus the private handlers.
    Layer("serving.router", "repro.runtime.core", ["Runtime"], ["run"],
          {"run": ("runtime.core.events", _int_result)}),
    Layer("serving.autoscaler", "repro.serving.autoscaler",
          ["LatencyAutoscaler"], ["observe", "on_failure"]),
    Layer("telemetry", "repro.telemetry",
          ["LatencyHistogram", "StreamingHistogram"],
          ["observe", "observe_many", "percentile"],
          {"observe": ("telemetry.samples", _one),
           "observe_many": ("telemetry.samples", _len_arg(1))}),
    Layer("core.inference", "repro.core.inference", ["InferenceEngine"],
          ["predict_requests", "predict"],
          {"predict_requests": ("core.inference.rows", _len_arg(1)),
           "predict": ("core.inference.rows", _len_arg(1))}),
    Layer("core.backends", "repro.core.backends.base", ["ExecutionBackend"],
          ["infer", "train_step"],
          {"infer": ("core.backends.rows", _len_arg(3)),
           "train_step": ("core.backends.rows", _step_rows)}),
    Layer("hardware.perfmodel", "repro.core.engine", ["VirtualNodeEngine"],
          ["inference_latency", "step_time"]),
    Layer("sched.cosched", "repro.sched.cosched", ["CoScheduler"],
          ["grant", "notify_rescaled", "on_capacity_changed"]),
    Layer("elastic.simulator", "repro.elastic.simulator",
          ["TrainingClusterProcess"], ["advance_to", "set_budget", "on_*"]),
    Layer("chaos", "repro.chaos.process", ["ChaosController"], ["apply"],
          {"apply": ("chaos.events", _one)}),
    Layer("core.executor", "repro.core.executor", ["VirtualFlowExecutor"],
          ["run_step", "evaluate", "remap"],
          {"run_step": ("core.executor.steps", _one)}),
    Layer("framework.optimizers", "repro.framework.optimizers",
          ["Optimizer"], ["step"]),
    Layer("data.loader", "repro.data.loader", ["BatchLoader"],
          ["batch", "epoch"]),
)

LAYER_NAMES: Tuple[str, ...] = tuple(layer.name for layer in LAYERS)


def _hierarchy(cls: type) -> List[type]:
    """``cls`` and every subclass imported so far, each once."""
    out: List[type] = []
    pending = [cls]
    while pending:
        c = pending.pop()
        if c not in out:
            out.append(c)
            pending.extend(c.__subclasses__())
    return out


def _resolve(layer: Layer) -> List[Tuple[type, str]]:
    """Every (class, method) pair the layer wraps in this checkout."""
    try:
        module = importlib.import_module(layer.module)
    except ImportError:
        return []
    pairs: List[Tuple[type, str]] = []
    for class_name in layer.classes:
        base = getattr(module, class_name, None)
        if not isinstance(base, type):
            continue
        for cls in _hierarchy(base):
            for attr, value in vars(cls).items():
                if attr.startswith("_") or not callable(value):
                    continue
                if any(fnmatch.fnmatchcase(attr, m) for m in layer.methods):
                    pairs.append((cls, attr))
    return pairs


class Recorder:
    """Per-layer call counts, self time and counters for one traced run."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[list] = []  # open spans: [layer, child_ns]
        self._saved: List[Tuple[type, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _call(self, layer: str, counter: Optional[Tuple[str, CountFn]],
              fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            stack.pop()
            self.calls[layer] += 1
            self.self_ns[layer] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
        if counter is not None:
            self.counts[counter[0]] += counter[1](args, kwargs, result)
        return result

    def _wrap(self, layer: Layer, method: str, fn):
        counter = layer.counters.get(method)
        name = layer.name
        call = self._call
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def resumable(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = call(name, None, next, (it,), {})
                    except StopIteration:
                        return
                    yield item
            return resumable

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, counter, fn, args, kwargs)
        return wrapper

    # -- install / restore ----------------------------------------------------

    def install(self, layers: Sequence[Layer] = LAYERS) -> None:
        for layer in layers:
            for cls, attr in _resolve(layer):
                raw = vars(cls)[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    continue
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, self._wrap(layer, attr, raw))

    def restore(self) -> None:
        while self._saved:
            cls, attr, raw = self._saved.pop()
            setattr(cls, attr, raw)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
