"""Span recording around the program's public entry points.

The benchmark never edits the program: in a traced run it replaces the
entry points of each layer with timing wrappers, from the outside, after the
program's modules are imported.  A name such as ``build_strategy`` is bound
in several modules (``coding.registry``, ``api.engine``,
``experiments.common``, ``protocols.coded``), so a function is replaced in
every ``repro`` module that holds it, and a traced run fails when an entry
point its workload must reach recorded no call at all — a rebinding the
patch missed would otherwise read as a layer that costs nothing.

Spans are kept in memory (id, parent id, layer, start, end) and written out
as JSON by the harness when the run ends.  A layer's self time is the sum of
its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterable
from typing import Any

CountHook = Callable[[Counter, tuple, dict, Any], None]

#: Per-layer metric fed by each span name, and whether it reports self time
#: (``True``) or the whole span (``False``).
SPAN_METRICS: dict[str, tuple[str, bool]] = {
    "clusters.build": ("clusters.build_s", True),
    "coding.build_strategy": ("coding.build_strategy_s", True),
    "decoding.decode": ("decoding.decode_s", True),
    "simulation.kernel": ("simulation.kernel_self_s", True),
    "simulation.trace": ("simulation.trace_s", True),
    "metrics.from_trace": ("metrics.from_trace_s", True),
    "api.engine": ("api.engine_self_s", True),
    "api.fingerprint": ("api.fingerprint_s", True),
    "store.put": ("store.put_s", True),
    "store.get": ("store.get_s", True),
    "serve.handle_sweep": ("serve.handle_sweep_s", True),
    "result.encode": ("result.encode_s", True),
    "result.decode": ("result.decode_s", True),
    "client.round_trip": ("client.round_trip_s", False),
    "learning.gradient": ("learning.gradient_s", True),
    "learning.loss_eval": ("learning.loss_eval_s", True),
    "learning.optimizer": ("learning.optimizer_s", True),
    "learning.dataset": ("learning.dataset_s", True),
    "protocols": ("protocols.self_s", True),
}

#: Counters and the span whose calls they count (``*_calls`` metrics).
CALL_COUNTS: dict[str, str] = {
    "coding.build_strategy_calls": "coding.build_strategy",
    "decoding.decode_calls": "decoding.decode",
    "learning.gradient_calls": "learning.gradient",
}


class Recorder:
    """In-memory spans and counters; records only while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, func: Callable, count: CountHook | None = None) -> Callable:
        """``func`` timed as a span of ``layer`` (plus an optional count hook)."""
        recorder = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return func(*args, **kwargs)
            span_id = next(recorder._ids)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((span_id, parent, layer, start, end))
            if count is not None:
                count(recorder.counts, args, kwargs, result)
            return result

        return traced

    def top_level_seconds(self) -> float:
        """Total duration of the spans that have no parent span."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": [list(span) for span in self.spans],
            "counts": dict(self.counts),
        }


# -- patching -----------------------------------------------------------------

def _repro_modules() -> Iterable[Any]:
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


def patch_function(recorder: Recorder, func: Callable, layer: str, count: CountHook | None = None) -> int:
    """Replace ``func`` in every imported ``repro`` module that binds it."""
    traced = recorder.wrap(layer, func, count)
    replaced = 0
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if value is func:
                setattr(module, attr, traced)
                replaced += 1
    if not replaced:
        raise RuntimeError(f"{func.__module__}.{func.__qualname__} is bound nowhere")
    return replaced


def patch_method(recorder: Recorder, cls: type, attr: str, layer: str, count: CountHook | None = None) -> None:
    """Wrap ``cls.attr`` and every override of it in subclasses of ``cls``."""
    classes = [cls]
    index = 0
    while index < len(classes):
        classes.extend(classes[index].__subclasses__())
        index += 1
    patched = False
    for owner in classes:
        raw = owner.__dict__.get(attr)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(layer, raw.__func__, count)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(recorder.wrap(layer, raw.__func__, count)))
        else:
            setattr(owner, attr, recorder.wrap(layer, raw, count))
        patched = True
    if not patched:
        raise RuntimeError(f"{cls.__qualname__}.{attr} is defined nowhere")


class _JsonProxy:
    """Stands in for the ``json`` module inside one program module."""

    def __init__(self, real: Any, **overrides: Callable) -> None:
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


# -- count hooks --------------------------------------------------------------

def _count_strategy(counts: Counter, args: tuple, kwargs: dict, strategy: Any) -> None:
    scheme = args[0] if args else kwargs.get("scheme")
    if scheme == "group_based":
        counts["coding.groups_found"] += len(strategy.groups)


def _count_stacked(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["api.stacked_runs"] += len(result)  # one output per stacked run


def _count_single_run(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["api.single_runs"] += 1


# -- layer sets ---------------------------------------------------------------

def install_program_layers(recorder: Recorder) -> None:
    """Wrap the engine-side layers: everything a run passes through."""
    import repro.api  # noqa: F401 - binds the names patched below
    import repro.experiments  # noqa: F401
    import repro.protocols  # noqa: F401
    import repro.store  # noqa: F401
    from repro.api.engine import Engine
    from repro.api.result import RunResult
    from repro.api.spec import RunSpec
    from repro.coding.decoding import Decoder
    from repro.coding.registry import build_strategy
    from repro.experiments.clusters import build_cluster
    from repro.experiments.workloads import Workload
    from repro.learning.models.base import Model
    from repro.learning.optimizers import Optimizer
    from repro.protocols.base import TrainingProtocol, evaluate_mean_loss
    from repro.protocols.ssp import SSPProtocol
    from repro.simulation.trace import RunTrace
    from repro.simulation.vectorized import TimingTraceKernel
    from repro.store import FileRunStore

    patch_function(recorder, build_cluster, "clusters.build")
    patch_function(recorder, build_strategy, "coding.build_strategy", _count_strategy)
    patch_function(recorder, evaluate_mean_loss, "learning.loss_eval")
    patch_method(recorder, Decoder, "earliest_decodable_prefix", "decoding.decode")
    patch_method(recorder, TimingTraceKernel, "run", "simulation.kernel")
    patch_method(recorder, TimingTraceKernel, "run_batched", "simulation.kernel")
    patch_method(recorder, TimingTraceKernel, "run_stacked", "simulation.kernel", _count_stacked)
    patch_method(recorder, RunTrace, "from_arrays", "simulation.trace")
    patch_method(recorder, RunTrace, "from_columns", "simulation.trace")
    patch_method(recorder, RunResult, "from_trace", "metrics.from_trace")
    patch_method(recorder, RunResult, "to_dict", "result.encode")
    patch_method(recorder, RunResult, "from_dict", "result.decode")
    patch_method(recorder, Engine, "run", "api.engine", _count_single_run)
    patch_method(recorder, Engine, "sweep", "api.engine")
    patch_method(recorder, RunSpec, "fingerprint", "api.fingerprint")
    patch_method(recorder, FileRunStore, "put", "store.put")
    patch_method(recorder, FileRunStore, "get", "store.get")
    for attr in ("loss_and_gradient", "batch_loss_and_gradient", "multi_loss_and_gradient"):
        patch_method(recorder, Model, attr, "learning.gradient")
    patch_method(recorder, Optimizer, "step", "learning.optimizer")
    patch_method(recorder, Optimizer, "step_inplace", "learning.optimizer")
    patch_method(recorder, Workload, "make_dataset", "learning.dataset")
    patch_method(recorder, TrainingProtocol, "run", "protocols")
    patch_method(recorder, SSPProtocol, "run_stacked", "protocols", _count_stacked)


def install_server_layers(recorder: Recorder) -> None:
    """Program layers plus the sweep service and its JSON encoding."""
    import json

    import repro.serve
    from repro.serve import SweepService

    install_program_layers(recorder)
    patch_method(recorder, SweepService, "handle_sweep", "serve.handle_sweep")
    repro.serve.json = _JsonProxy(json, dumps=recorder.wrap("result.encode", json.dumps))


def install_client_layers(recorder: Recorder) -> None:
    """The client's round trip and its decoding of the response."""
    import json

    import repro.api.client
    from repro.api.client import ServiceClient
    from repro.api.result import RunResult

    patch_method(recorder, ServiceClient, "sweep", "client.round_trip")
    patch_method(recorder, RunResult, "from_dict", "result.decode")
    repro.api.client.json = _JsonProxy(json, loads=recorder.wrap("result.decode", json.loads))


# -- aggregation --------------------------------------------------------------

def layer_totals(spans: Iterable[Iterable[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: ``self`` seconds, ``total`` seconds and ``calls``."""
    spans = [tuple(span) for span in spans]
    child_time: Counter = Counter()
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for span_id, _, layer, start, end in spans:
        entry = totals.setdefault(layer, {"self": 0.0, "total": 0.0, "calls": 0})
        entry["total"] += end - start
        entry["self"] += end - start - child_time[span_id]
        entry["calls"] += 1
    return totals


def layer_metrics(span_sets: Iterable[Iterable[Iterable[Any]]], counts: Counter) -> dict[str, float]:
    """Every span-derived per-layer metric, summed over several processes."""
    metrics: dict[str, float] = {name: 0.0 for name, _ in SPAN_METRICS.values()}
    calls: Counter = Counter()
    for spans in span_sets:
        for layer, entry in layer_totals(spans).items():
            name, self_time = SPAN_METRICS[layer]
            metrics[name] += entry["self"] if self_time else entry["total"]
            calls[layer] += int(entry["calls"])
    for name, layer in CALL_COUNTS.items():
        metrics[name] = calls[layer]
    for name in ("coding.groups_found", "api.stacked_runs", "api.single_runs"):
        metrics[name] = counts.get(name, 0)
    return metrics


def missing_layers(span_sets: Iterable[Iterable[Iterable[Any]]], required: Iterable[str]) -> list[str]:
    """Required span names that recorded no call."""
    seen = {span[2] for spans in span_sets for span in spans}
    return sorted(set(required) - seen)
