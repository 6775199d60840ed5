"""Wall-clock spans around the public entry points of each ``repro`` layer.

The traced run wraps, from the benchmark's own files, the functions and
methods named in :data:`SPANS` and :data:`COUNTS`.  Nothing under ``src/``
is edited: a wrapper replaces the attribute on the defining class or
module, and on every loaded ``repro`` module that imported the function by
name (``render_event`` lives in both ``repro.serve.trace`` and
``repro.loadgen.replay``, for example).

Spans are kept in memory as flat arrays with a parent link and written out
at exit.  A span is recorded only inside a *root* span: the timed phase of
a workload (layer :data:`ROOT`), or one HTTP POST in the traced server
(layer :data:`SERVER_ROOT`).  Set-up and shutdown work therefore never
reaches the per-layer numbers.  A layer's self time is its span time minus
the time of its child spans.  The root's self time is the ``other`` bucket,
so the self times of one process sum to its root span.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Root layer of the load-generating process: the timed phase itself.
ROOT = "other"
#: Root layer of the traced ``repro-serve`` process: one HTTP POST.
SERVER_ROOT = "serve.http.post"

Hook = Callable[["Tracer", tuple, Any, float], None]


class Tracer:
    """In-memory span store with per-layer self time, calls and counts."""

    def __init__(self, roots: Tuple[str, ...] = (ROOT,)) -> None:
        self.roots = frozenset(roots)
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = {}
        self._stack: List[list] = []

    def span(self, layer: str, fn: Callable, hook: Optional[Hook] = None,
             keep_durations: bool = False) -> Callable:
        """``fn`` wrapped so each call inside a root becomes one span."""
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        lid = self._ids[layer]
        is_root = layer in self.roots
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        parents, span_layers = self.span_parent, self.span_layer
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        durations = self.durations.setdefault(layer, []) if keep_durations else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack and not is_root:
                return fn(*args, **kwargs)
            index = len(starts)
            span_layers.append(lid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                ends[index] = t1
                self_s[layer] += dur - frame[1]
                total_s[layer] += dur
                calls[layer] += 1
                if stack:
                    stack[-1][1] += dur
                if durations is not None:
                    durations.append(dur)
            if hook is not None:
                hook(self, args, result, dur)
            return result

        return wrapper

    def iter_span(self, layer: str, fn: Callable) -> Callable:
        """Like :meth:`span` for a function returning an iterator: the call
        and every later ``next()`` are spans of ``layer``."""
        call = self.span(layer, fn)

        def wrapper(*args: Any, **kwargs: Any) -> Iterator:
            return _SpanIter(self.span(layer, iter(call(*args, **kwargs)).__next__))

        return functools.wraps(fn)(wrapper)

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls inside a root (no span)."""
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_root(self, fn: Callable, *args: Any) -> Any:
        """Call ``fn`` inside the :data:`ROOT` span."""
        return self.span(ROOT, fn)(*args)

    def summary(self) -> Dict[str, Any]:
        """JSON-safe totals: self/total seconds, calls, counts, durations."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "op_s": dict(self.op_s),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "n_spans": len(self.span_start),
        }

    def write_spans(self, path: str) -> None:
        """Write every recorded span (layer, parent, start, end) to ``path``."""
        import numpy as np

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(
            path,
            layers=np.asarray(self.layers, dtype=str),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


class _SpanIter:
    def __init__(self, next_fn: Callable[[], Any]) -> None:
        self._next = next_fn

    def __iter__(self) -> "_SpanIter":
        return self

    def __next__(self) -> Any:
        return self._next()


# -- hooks -------------------------------------------------------------------


def _delivered(tracer: Tracer, args: tuple, payload: Any, dur: float) -> None:
    if payload is not None:
        tracer.counts["network.buffer.delivered"] += 1


def _handled(tracer: Tracer, args: tuple, response: Any, dur: float) -> None:
    op = args[1].get("op") if isinstance(args[1], dict) else None
    tracer.op_s[f"serve.engine.{op}_s"] += dur
    tracer.counts["serve.faults.retries"] += response.get("retries", 0)


def _flushed(tracer: Tracer, args: tuple, result: Any, dur: float) -> None:
    tracer.counts["serve.checkpoint.bytes"] += os.path.getsize(args[0].path)


#: (layer, "module:qualname", hook, keep per-call durations, iterator).
SPANS: Tuple[Tuple[str, str, Optional[Hook], bool, bool], ...] = (
    ("ml.svm.fit", "repro.ml.svm:SVC.fit", None, False, False),
    ("ml.svm.predict", "repro.ml.svm:SVC.predict", None, False, False),
    ("audio.dataset.features", "repro.audio.dataset:QueenDataset.features", None, False, False),
    ("audio.synth.render", "repro.audio.synth:HiveSoundSynthesizer.render", None, False, False),
    ("dsp.mel_db", "repro.dsp.spectrogram:MelSpectrogram.db", None, False, False),
    ("dsp.image", "repro.dsp.image:spectrogram_to_image", None, False, False),
    ("network.buffer.offer", "repro.network.buffer:EdgeBuffer.offer", None, False, False),
    ("network.buffer.drain", "repro.network.buffer:EdgeBuffer.drain", None, False, False),
    ("network.buffer.drain", "repro.network.buffer:EdgeBuffer.take", _delivered, False, False),
    ("network.outage.compile", "repro.network.outage:OutagePattern.compile_target",
     None, False, False),
    ("faults.compile", "repro.faults.schedule:compile_schedule", None, False, False),
    ("faults.fleetsim_array.kernel", "repro.faults.fleetsim_array:run_faulty_fleet_array",
     None, False, False),
    ("faults.desfaults.run", "repro.faults.desfaults:run_des_faulty_fleet", None, False, False),
    ("serve.engine.handle", "repro.serve.engine:OrchestrationEngine.handle",
     _handled, True, False),
    ("serve.trace.render", "repro.serve.trace:render_event", None, False, False),
    ("core.livealloc.admit", "repro.core.livealloc:LiveAllocation.admit", None, False, False),
    ("loadgen.arrivals.generate", "repro.loadgen.arrivals:merged_stream", None, False, True),
    ("loadgen.http.send", "repro.loadgen.replay:HttpTransport.send", None, False, False),
    (SERVER_ROOT, "repro.serve.http:_Handler.do_POST", None, False, False),
    ("serve.checkpoint.flush", "repro.serve.checkpoint:ServeCheckpointer.flush",
     _flushed, True, False),
)

#: (count name, "module:qualname"); a trailing ``*`` matches every function
#: of the module with that prefix.
COUNTS: Tuple[Tuple[str, str], ...] = (
    ("util.rng.make_rng_calls", "repro.util.rng:make_rng"),
    ("util.rng.derive_seed_calls", "repro.util.rng:derive_seed"),
    ("util.validation.check_calls", "repro.util.validation:check_*"),
    ("loadgen.http.connects", "http.client:HTTPConnection.connect"),
)

#: Modules imported before patching, so that names they imported from a
#: wrapped module are found and replaced too.
PRELOAD = (
    "repro.experiments.registry",
    "repro.faults",
    "repro.loadgen.replay",
    "repro.serve.checkpoint",
    "repro.serve.cli",
    "repro.serve.http",
)


def _patch_function(module_name: str, attr: str, wrapped_for: Callable) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    wrapped = wrapped_for(original)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", None) or ""
        if mod is module or (
            (name == "repro" or name.startswith("repro."))
            and vars(mod).get(attr) is original
        ):
            setattr(mod, attr, wrapped)


def _patch(target: str, wrapped_for: Callable) -> None:
    module_name, qualname = target.split(":")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, wrapped_for(cls.__dict__[attr]))
    elif qualname.endswith("*"):
        module = importlib.import_module(module_name)
        prefix = qualname[:-1]
        for name, value in list(vars(module).items()):
            if (name.startswith(prefix) and callable(value)
                    and getattr(value, "__module__", None) == module_name):
                _patch_function(module_name, name, wrapped_for)
    else:
        _patch_function(module_name, qualname, wrapped_for)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of :data:`SPANS` and :data:`COUNTS`."""
    for name in PRELOAD:
        importlib.import_module(name)
    for layer, target, hook, keep, iterator in SPANS:
        if iterator:
            _patch(target, lambda fn, layer=layer: tracer.iter_span(layer, fn))
        else:
            _patch(target, lambda fn, layer=layer, hook=hook, keep=keep:
                   tracer.span(layer, fn, hook, keep))
    for name, target in COUNTS:
        _patch(target, lambda fn, name=name: tracer.count(name, fn))


def merge_server(client: Dict[str, Any], server: Dict[str, Any]) -> Dict[str, Any]:
    """Fold the traced server's summary into the load generator's.

    Every server POST runs while the client waits inside
    ``HttpTransport.send``, so the server's POST time moves out of the
    client's send self time into the server layers.  The self times of
    the merged summary still sum to the client's root span.
    """
    out: Dict[str, Any] = {k: dict(v) if isinstance(v, dict) else v for k, v in client.items()}
    for key in ("self_s", "total_s", "calls", "counts", "op_s"):
        for name, value in server[key].items():
            out[key][name] = out[key].get(name, 0) + value
    for name, values in server["durations"].items():
        out["durations"][name] = list(out["durations"].get(name, [])) + list(values)
    out["self_s"]["loadgen.http.send"] = (
        out["self_s"].get("loadgen.http.send", 0.0) - server["total_s"].get(SERVER_ROOT, 0.0)
    )
    out["n_spans"] = client["n_spans"] + server["n_spans"]
    return out


def nearest_rank(values: List[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


#: Per-layer metrics of the traced run: name -> unit.  ``*_s`` names of
#: span layers are self times; ``serve.engine.<op>_s`` are the inclusive
#: ``handle`` times of requests with that op.
LAYER_METRICS: Dict[str, str] = {
    "ml.svm.fit_s": "s",
    "ml.svm.fit_calls": "count",
    "ml.svm.predict_s": "s",
    "audio.dataset.features_s": "s",
    "audio.synth.render_s": "s",
    "audio.synth.render_calls": "count",
    "dsp.mel_db_s": "s",
    "dsp.image_s": "s",
    "network.buffer.offer_calls": "count",
    "network.buffer.offer_s": "s",
    "network.buffer.drain_s": "s",
    "network.buffer.delivered_fraction": "frac",
    "network.outage.compile_s": "s",
    "faults.compile_s": "s",
    "util.rng.make_rng_calls": "count",
    "util.rng.derive_seed_calls": "count",
    "faults.fleetsim_array.kernel_s": "s",
    "faults.desfaults.run_s": "s",
    "util.validation.check_calls": "count",
    "serve.engine.handle_calls": "count",
    "serve.engine.handle_s": "s",
    "serve.engine.handle_p50_us": "us",
    "serve.engine.handle_p99_us": "us",
    "serve.engine.admit_s": "s",
    "serve.engine.telemetry_s": "s",
    "serve.engine.inference_s": "s",
    "serve.trace.render_calls": "count",
    "serve.trace.render_s": "s",
    "serve.trace.render_per_request": "ratio",
    "core.livealloc.admit_s": "s",
    "loadgen.arrivals.generate_s": "s",
    "loadgen.http.send_s": "s",
    "loadgen.http.connections_per_request": "ratio",
    "serve.http.post_s": "s",
    "serve.http.engine_share": "frac",
    "serve.checkpoint.flush_calls": "count",
    "serve.checkpoint.flush_s": "s",
    "serve.checkpoint.flush_p99_ms": "ms",
    "serve.checkpoint.bytes_per_flush": "bytes",
    "serve.faults.retries": "count",
    "serve.engine.served": "count",
    "serve.engine.shed": "count",
    "serve.engine.errored": "count",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_frac": "frac",
}

#: Span layers whose self time is reported as ``<layer>_s``; with
#: ``trace.other_s`` they partition the traced wall time.
SELF_TIME_LAYERS = sorted({layer for layer, *_ in SPANS})


def layer_metrics(summary: Dict[str, Any], n_requests: int, wall_s: float,
                  engine_counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metric values from a (merged) trace summary.

    ``wall_s`` is the untraced wall time of the same workload, for
    ``trace.overhead_frac``; ``engine_counts`` holds the engine's own
    served/shed/errored counters (zero on the experiment workloads).
    """
    self_s, total_s = summary["self_s"], summary["total_s"]
    calls, counts, durations = summary["calls"], summary["counts"], summary["durations"]

    def ratio(num: float, den: float, empty: float = 0.0) -> float:
        return num / den if den else empty

    out: Dict[str, float] = {f"{layer}_s": self_s.get(layer, 0.0)
                             for layer in SELF_TIME_LAYERS}
    handle = durations.get("serve.engine.handle", [])
    flush = durations.get("serve.checkpoint.flush", [])
    traced_wall = total_s.get(ROOT, 0.0)
    out.update({
        "ml.svm.fit_calls": calls.get("ml.svm.fit", 0),
        "audio.synth.render_calls": calls.get("audio.synth.render", 0),
        "network.buffer.offer_calls": calls.get("network.buffer.offer", 0),
        "network.buffer.delivered_fraction": ratio(
            counts.get("network.buffer.delivered", 0),
            calls.get("network.buffer.offer", 0), empty=1.0),
        "util.rng.make_rng_calls": counts.get("util.rng.make_rng_calls", 0),
        "util.rng.derive_seed_calls": counts.get("util.rng.derive_seed_calls", 0),
        "util.validation.check_calls": counts.get("util.validation.check_calls", 0),
        "serve.engine.handle_calls": calls.get("serve.engine.handle", 0),
        "serve.engine.handle_p50_us": nearest_rank(handle, 0.50) * 1e6,
        "serve.engine.handle_p99_us": nearest_rank(handle, 0.99) * 1e6,
        "serve.engine.admit_s": summary["op_s"].get("serve.engine.admit_s", 0.0),
        "serve.engine.telemetry_s": summary["op_s"].get("serve.engine.telemetry_s", 0.0),
        "serve.engine.inference_s": summary["op_s"].get("serve.engine.inference_s", 0.0),
        "serve.trace.render_calls": calls.get("serve.trace.render", 0),
        "serve.trace.render_per_request": ratio(calls.get("serve.trace.render", 0), n_requests),
        "loadgen.http.connections_per_request": ratio(
            counts.get("loadgen.http.connects", 0), calls.get("loadgen.http.send", 0)),
        "serve.http.engine_share": ratio(
            total_s.get("serve.engine.handle", 0.0), total_s.get(SERVER_ROOT, 0.0))
        if total_s.get(SERVER_ROOT) else 0.0,
        "serve.checkpoint.flush_calls": calls.get("serve.checkpoint.flush", 0),
        "serve.checkpoint.flush_p99_ms": nearest_rank(flush, 0.99) * 1e3,
        "serve.checkpoint.bytes_per_flush": ratio(
            counts.get("serve.checkpoint.bytes", 0), len(flush)),
        "serve.faults.retries": counts.get("serve.faults.retries", 0),
        "serve.engine.served": engine_counts.get("served", 0),
        "serve.engine.shed": engine_counts.get("shed", 0),
        "serve.engine.errored": engine_counts.get("errored", 0),
        "trace.wall_s": traced_wall,
        "trace.other_s": self_s.get(ROOT, 0.0),
        "trace.overhead_frac": ratio(traced_wall, wall_s, empty=1.0) - 1.0,
    })
    return out
