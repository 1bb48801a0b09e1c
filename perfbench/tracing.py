"""In-memory spans around jamsim's public functions, installed from outside.

`Tracer.install()` replaces each traced function, wherever a loaded
``jamsim`` module holds a reference to it, with a wrapper that records a
span (name, start, end, parent, tag, samples, bytes).  `uninstall()` puts
the originals back, so one process can alternate untraced and traced
rounds and report the tracing overhead.  A function that a later version
no longer has is skipped: its span simply shows zero calls.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass


def _len_arg(args, kwargs, result):
    return len(args[0])


def _len_result(args, kwargs, result):
    return len(result)


def _size_result(args, kwargs, result):
    return int(result.size)


def _run_scenario_samples(args, kwargs, result):
    return len(result.branch_buffers["input"])


#: (defining module, function, span name, how to count its samples).
TARGETS = (
    ("jamsim.cli", "run_cli", "cli.run_cli", None),
    ("jamsim.scenario_io", "parse_scenario_file", "scenario_io.parse", None),
    ("jamsim.scenario_io", "write_timeseries_csv", "scenario_io.write_timeseries_csv", _len_arg),
    ("jamsim.scenario_io", "write_spectrum_csv", "scenario_io.write_spectrum_csv", _len_arg),
    ("jamsim.analysis", "power_spectrum", "analysis.power_spectrum", _len_arg),
    ("jamsim.analysis", "rms", "analysis.rms", _len_arg),
    ("jamsim.pipeline", "build_pipeline", "pipeline.build_pipeline", None),
    ("jamsim.pipeline", "run_scenario", "pipeline.run_scenario", _run_scenario_samples),
    ("jamsim.signal_core", "multi_tone", "signal_core.multi_tone", _len_result),
    ("jamsim.filterbank", "apply_filter", "filterbank.apply_filter", _len_result),
    ("jamsim.trigger", "trigger_chain", "trigger.trigger_chain", _len_result),
    ("jamsim.trigger", "envelope", "trigger.envelope", _len_result),
    ("jamsim.jammer", "jam", "jammer.jam", _len_result),
    ("jamsim.rng", "gaussian_stream", "rng.gaussian_stream", _size_result),
    ("jamsim.rng", "rayleigh_stream", "rng.rayleigh_stream", _size_result),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)
#: Span names whose second positional argument is the file they write.
_WRITERS = ("scenario_io.write_timeseries_csv", "scenario_io.write_spectrum_csv")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    tag: str
    samples: int = 0
    bytes: int = 0


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tag = "workload"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.tag)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            try:
                if count is not None:
                    span.samples = count(args, kwargs, result)
                if name in _WRITERS:
                    span.bytes = os.path.getsize(args[1])
            except (AttributeError, IndexError, KeyError, TypeError, OSError):
                pass  # a changed signature loses the count, not the span
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "jamsim" or key.startswith("jamsim."))]
        for mod_name, fn_name, span_name, count in TARGETS:
            owner = sys.modules.get(mod_name)
            fn = getattr(owner, fn_name, None)
            if fn is None:
                continue
            wrapper = self._wrap(span_name, fn, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span], fallback_tag: str | None = None) -> dict:
    """Per-span-name medians, self times and exact counts.

    Spans tagged "workload" are used; a span name the workload never hit
    is taken from spans tagged `fallback_tag` instead, when given.
    """
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + (span.end - span.start)
    by_name: dict[tuple[str, str], list[int]] = {}
    for idx, span in enumerate(spans):
        by_name.setdefault((span.tag, span.name), []).append(idx)

    out = {}
    for name in SPAN_NAMES:
        idxs = by_name.get(("workload", name), [])
        if not idxs and fallback_tag is not None:
            idxs = by_name.get((fallback_tag, name), [])
        durations = [(spans[i].end - spans[i].start) * 1e3 for i in idxs]
        selfs = [durations[k] - children.get(i, 0.0) * 1e3 for k, i in enumerate(idxs)]
        out[name] = {
            "ms": _median(durations),
            "self_ms": _median(selfs),
            "calls": len(idxs),
            "samples": sum(spans[i].samples for i in idxs),
            "bytes": sum(spans[i].bytes for i in idxs),
        }
    return out
