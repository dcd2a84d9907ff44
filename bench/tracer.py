"""Span tracer that wraps probsense's public functions from the outside.

`Tracer.install` replaces every public module-level function of the layer
modules with a wrapper, on every name that refers to it: in the module that
defines it and in each module that imported it by name (``harness`` calls
``upsample``, ``activation`` calls ``telegraph_run``, ...). Each call records
a span ``[name, start, end, parent, run_id]``; spans stay in memory until the
benchmark child writes them out at exit. Work counts are derived from the
wrapped calls' arguments and return values. The time spent deriving them is
recorded as a ``trace.count`` span under the caller, so it is not charged to
any layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("traces", "afe", "pbit", "activation", "acquisition", "harness", "cli")
COUNT_SPAN = "trace.count"


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _telegraph_run(c, fn, args, kwargs, out):
    c["pbit.telegraph_flips"] += int(np.count_nonzero(out[1:] != out[:-1]))
    c["pbit.steps"] += int(out.size)


def _telegraph_tick_states(c, fn, args, kwargs, out):
    steps_per_tick = _arg(fn, args, kwargs, "steps_per_tick")
    c["pbit.steps"] += int(_arg(fn, args, kwargs, "n_ticks")) * int(steps_per_tick)


def _lfsr_word_uniforms(c, fn, args, kwargs, out):
    c["pbit.lfsr_words"] += int(_arg(fn, args, kwargs, "n"))


def _run_activation(c, fn, args, kwargs, out):
    at_ticks = out.sync_ticks
    c["activation.sync_ticks"] += int(at_ticks.size)
    c["activation.gated_ticks"] += int(np.count_nonzero(out.gate[at_ticks]))
    c["activation.override_ticks"] += int(np.count_nonzero(out.det_override[at_ticks]))


def _write_trace(c, fn, args, kwargs, out):
    c["traces.bytes_written"] += os.path.getsize(_arg(fn, args, kwargs, "path"))


def _load_trace(c, fn, args, kwargs, out):
    c["traces.bytes_read"] += os.path.getsize(_arg(fn, args, kwargs, "path"))


COUNTERS = {
    "pbit.telegraph_run": _telegraph_run,
    "pbit.telegraph_tick_states": _telegraph_tick_states,
    "pbit.lfsr_word_uniforms": _lfsr_word_uniforms,
    "activation.run_activation": _run_activation,
    "traces.write_trace": _write_trace,
    "traces.load_trace": _load_trace,
}


class Tracer:
    """Records spans and counts for the iterations run between begin and end."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.run_id = -1
        self._stack: list[int] = []
        self._first = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                t = clock()
                counter(self.counts, fn, args, kwargs, out)
                spans.append([COUNT_SPAN, t, clock(), parent, self.run_id])
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every public function of each layer at all of its call sites."""
        modules = [sys.modules["probsense"]] + [sys.modules[f"probsense.{m}"] for m in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"probsense.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._restore.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def begin(self, run_id: int) -> None:
        self.run_id = run_id
        self._first = len(self.spans)
        self.counts.clear()

    def end(self) -> tuple[dict[str, float], list[float]]:
        """Per-layer metrics of the iteration since `begin`, and the
        inclusive durations (ms) of its harness.run_event spans."""
        first = self._first
        run = self.spans[first:]
        covered = [0.0] * len(run)
        for _, start, end, parent, _ in run:
            if parent >= first:
                covered[parent - first] += end - start
        metrics: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child_s in zip(run, covered):
            if name == COUNT_SPAN:
                continue
            metrics[f"{name}.self_s"] += (end - start) - child_s
            metrics[f"{name}.calls"] += 1
            metrics["trace.spans"] += 1
        metrics.update(self.counts)
        sync = metrics["activation.sync_ticks"]
        metrics["activation.gated_frac"] = metrics["activation.gated_ticks"] / sync if sync else 0.0
        event_ms = [1e3 * (end - start) for name, start, end, _, _ in run
                    if name == "harness.run_event"]
        self.run_id = -1
        return dict(metrics), event_ms
