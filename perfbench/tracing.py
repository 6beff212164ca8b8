"""In-memory spans around the calls into each ``repro`` layer.

The traced repetition wraps the layers' public entry points from the
benchmark's side; nothing inside ``src/`` is changed.  Methods are
wrapped at the class attribute.  Module-level functions are wrapped in
every loaded ``repro`` module that holds them, because modules that
imported a function by name (``repro.uarch.detailed`` binds
``synthesize_interval`` at import) resolve it there and not in the
defining module.

A span's self time is its duration minus the time its child spans
cover.  The benchmark's own spans for its timed steps (layer
``experiments``) enclose every call it makes into the program, so the
``experiments`` self time is the remainder and the self times of all
layers add up to the traced wall time, the summed duration of the
outermost spans.  A call nested inside a
span of the same layer (``encode_many`` calling ``encode``) adds its
self time to that layer but is not counted as another call.

Spans stay in memory and are written at the end as Chrome trace-event
JSON, which Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple


def _size_of(argument: str) -> Callable:
    """Counter: the length of one argument of the call."""
    return lambda call, result: len(call.arguments[argument])


def _one(call, result) -> int:
    return 1


def _detailed_kinst(call, result) -> float:
    return result.n_samples * call.arguments["instructions_per_sample"] / 1e3


def layer_targets() -> List[Tuple[str, object, str, Dict[str, Callable]]]:
    """``(layer, owner, attribute, {item_name: counter})`` to wrap.

    ``owner`` is a class, or a module for module-level functions.
    Each counter maps a call's bound arguments (defaults applied) and
    its result to the number of items it handled; it runs only for
    calls that are not nested inside a span of the same layer.
    """
    from repro.core.predictor import (WaveletNeuralPredictor,
                                      WaveletPredictorEnsemble)
    from repro.core.rbf import RBFNetwork
    from repro.core.regression_tree import RegressionTree
    from repro.dse import lhs
    from repro.dse.active import ActiveSearch
    from repro.dse.space import DesignSpace
    from repro.engine.cache import ResultCache
    from repro.engine.executor import BatchHandle, ExecutionEngine
    from repro.uarch import interval_model
    from repro.uarch.detailed import DetailedSimulator
    from repro.workloads import generator

    return [
        ("core.tree_fit", RegressionTree, "fit", {}),
        ("core.rbf_fit", RBFNetwork, "fit", {}),
        ("core.predictor_fit", WaveletNeuralPredictor, "fit", {}),
        ("core.predictor_fit", WaveletPredictorEnsemble, "fit", {}),
        ("core.predict", WaveletNeuralPredictor, "predict",
         {"rows": _size_of("X")}),
        ("core.predict", WaveletPredictorEnsemble, "member_predictions",
         {"rows": _size_of("X")}),
        ("core.predict", WaveletPredictorEnsemble, "predict",
         {"rows": _size_of("X")}),
        ("dse.encode", DesignSpace, "encode_many", {}),
        ("dse.encode", DesignSpace, "encode", {}),
        ("dse.candidates", lhs, "sample_candidate_pool", {}),
        ("dse.search", ActiveSearch, "run",
         {"rounds": lambda call, result: len(result.rounds)}),
        ("uarch.detailed", DetailedSimulator, "run",
         {"jobs": _one, "kinst": _detailed_kinst}),
        ("uarch.interval", interval_model, "simulate_interval_batch",
         {"configs": _size_of("configs")}),
        ("uarch.interval", interval_model, "simulate_interval",
         {"configs": _one}),
        ("workloads.synthesize", generator, "synthesize_interval", {}),
        ("workloads.synthesize", generator, "synthesize_trace", {}),
        ("engine.run", ExecutionEngine, "run", {"jobs": _size_of("jobs")}),
        ("engine.run", ExecutionEngine, "submit", {"jobs": _size_of("jobs")}),
        ("engine.run", BatchHandle, "as_completed", {}),
        ("engine.run", BatchHandle, "result", {}),
        ("engine.run", BatchHandle, "results", {}),
        ("engine.cache.get", ResultCache, "get",
         {"hits": lambda call, result: int(result is not None)}),
        ("engine.cache.put", ResultCache, "put", {}),
    ]


class Tracer:
    """Collects spans and per-layer self time, calls and item counts."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.wall_s = 0.0
        self.events: List[dict] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.items: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []   # [layer, name, start, child_s]

    # ------------------------------------------------------------------
    def _open(self, layer: str, name: str) -> Tuple[list, bool]:
        outermost = all(frame[0] != layer for frame in self._stack)
        frame = [layer, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame, outermost

    def _close(self, frame: list, outermost: bool) -> None:
        end = time.perf_counter()
        layer, name, start, child_s = frame
        popped = self._stack.pop()
        assert popped is frame, "spans closed out of order"
        duration = end - start
        self.self_s[layer] += duration - child_s
        if outermost:
            self.calls[layer] += 1
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.wall_s += duration
        self.events.append({
            "name": name, "cat": layer, "ph": "X", "pid": os.getpid(),
            "tid": 0, "ts": (start - self.origin) * 1e6,
            "dur": duration * 1e6,
        })

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span around a block of the benchmark's own code."""
        frame, outermost = self._open(layer, name)
        try:
            yield
        finally:
            self._close(frame, outermost)

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable, counters: Dict[str, Callable]):
        tracer = self
        name = f"{fn.__module__}.{fn.__qualname__}"
        signature = inspect.signature(fn)

        if inspect.isgeneratorfunction(fn):
            # Time each resumption only: between yields the consumer's
            # own code runs and belongs to whoever the consumer is.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame, outermost = tracer._open(layer, name)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame, outermost)
                    yield value
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, outermost = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, outermost)
            if outermost and counters:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                for item, count in counters.items():
                    tracer.items[f"{layer}.{item}"] += count(call, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every layer target for the rest of the process."""
        for layer, owner, attr, counters in layer_targets():
            original = owner.__dict__[attr]
            wrapped = self._wrap(layer, original, counters)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapped)
                continue
            for name, module in list(sys.modules.items()):
                if ((name == "repro" or name.startswith("repro."))
                        and getattr(module, attr, None) is original):
                    setattr(module, attr, wrapped)

    # ------------------------------------------------------------------
    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON (Perfetto opens it)."""
        payload = {
            "displayTimeUnit": "ms",
            "traceEvents": [{"name": "process_name", "ph": "M",
                             "pid": os.getpid(), "tid": 0,
                             "args": {"name": "repro benchmark"}}]
            + sorted(self.events, key=lambda e: e["ts"]),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
