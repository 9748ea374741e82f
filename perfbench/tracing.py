"""Per-layer tracing from outside the program.

The tracer wraps public functions of each layer (module) of ``repro`` for
the duration of one traced repetition and restores them afterwards; the
program itself carries no instrumentation.  Each wrapped call records a
span — name, start, end, parent — in memory, and counters record the work
done at the same boundary (accesses, events, segments, bytes).  Spans are
written out when the benchmark ends.

A layer's *self time* is the duration of its spans minus the part covered
by their child spans, so the self times of one measured pass add up to the
pass's wall time exactly; the root span's self time is reported as
``unattributed_s`` (benchmark glue and code in no traced layer).
"""

from __future__ import annotations

import functools
import re
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

#: Filter families of the paper, in the order they are reported.
FAMILIES = ("EJ", "VEJ", "IJ", "HJ")
#: Replay engines a node replayer can run on.
ENGINES = ("python", "numpy")
#: The measured passes of every repetition (see ``workloads.py``).
PASSES = ("cold", "warm")

#: Name of the root span of one measured pass.
ROOT = "pass"

_FAMILY_RE = re.compile(r"(VEJ|EJ|IJ|HJ)[-(]")


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric of one pass."""
    specs = [
        ("traces.take_s", "s", "lower"),
        ("traces.accesses", "count", "lower"),
        ("traces.ns_per_access", "ns", "lower"),
        ("coherence.self_s", "s", "lower"),
        ("coherence.ns_per_access", "ns", "lower"),
        ("coherence.events", "count", "lower"),
        ("coherence.events_per_access", "events/access", "lower"),
        ("pack.self_s", "s", "lower"),
        ("pack.segments", "count", "lower"),
    ]
    for what in ("segment_encode", "segment_decode", "sim_encode",
                 "sim_decode", "eval_encode", "eval_decode"):
        specs.append((f"store.{what}_s", "s", "lower"))
    specs += [
        ("store.segment_raw_bytes", "B", "lower"),
        ("store.segment_stored_bytes", "B", "lower"),
        ("store.put_s", "s", "lower"),
        ("store.puts", "count", "lower"),
        ("store.put_bytes", "B", "lower"),
        ("store.get_s", "s", "lower"),
        ("store.gets", "count", "lower"),
        ("store.get_bytes", "B", "lower"),
    ]
    for family in FAMILIES:
        for engine in ENGINES:
            specs += [
                (f"core.{family}.{engine}.s", "s", "lower"),
                (f"core.{family}.{engine}.events", "count", "lower"),
                (f"core.{family}.{engine}.ns_per_event", "ns", "lower"),
            ]
        specs.append((f"core.{family}.coverage", "fraction", "higher"))
    specs += [
        ("runner.self_s", "s", "lower"),
        ("runner.tasks", "count", "lower"),
        ("experiments.self_s", "s", "lower"),
        ("unattributed_s", "s", "lower"),
    ]
    return specs


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every metric a traced run prints: each layer metric per pass."""
    specs = [
        (f"{pass_name}.{name}", unit, better)
        for pass_name in PASSES
        for name, unit, better in layer_metric_specs()
    ]
    specs.append(("trace_overhead_frac", "fraction", "lower"))
    return specs


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus its children's.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` indexes into the same sequence (``None`` for the root).
    Spans come from one thread, so children never overlap each other.
    """
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _per_second(ns: int) -> float:
    return ns / 1e9


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(spans, counts) -> dict[str, float]:
    """Every layer metric of one pass from its spans and counters."""
    by_name: Counter = Counter()
    for (name, *_rest), own in zip(spans, self_times(spans)):
        by_name[name] += own
    accesses = counts["traces.accesses"]
    events = counts["coherence.events"]
    out = {
        "traces.take_s": _per_second(by_name["traces"]),
        "traces.accesses": accesses,
        "traces.ns_per_access": _ratio(by_name["traces"], accesses),
        "coherence.self_s": _per_second(by_name["coherence"]),
        "coherence.ns_per_access": _ratio(by_name["coherence"], accesses),
        "coherence.events": events,
        "coherence.events_per_access": _ratio(events, accesses),
        "pack.self_s": _per_second(by_name["pack"]),
        "pack.segments": counts["pack.segments"],
    }
    for what in ("segment_encode", "segment_decode", "sim_encode",
                 "sim_decode", "eval_encode", "eval_decode"):
        out[f"store.{what}_s"] = _per_second(by_name[f"store.{what}"])
    for key in ("segment_raw_bytes", "segment_stored_bytes", "puts",
                "put_bytes", "gets", "get_bytes"):
        out[f"store.{key}"] = counts[f"store.{key}"]
    out["store.put_s"] = _per_second(by_name["store.put"])
    out["store.get_s"] = _per_second(by_name["store.get"])
    for family in FAMILIES:
        for engine in ENGINES:
            layer = f"core.{family}.{engine}"
            kernel_events = counts[f"{layer}.events"]
            out[f"{layer}.s"] = _per_second(by_name[layer])
            out[f"{layer}.events"] = kernel_events
            out[f"{layer}.ns_per_event"] = _ratio(by_name[layer], kernel_events)
        out[f"core.{family}.coverage"] = _ratio(
            counts[f"core.{family}.filtered"],
            counts[f"core.{family}.would_miss"],
        )
    out["runner.self_s"] = _per_second(by_name["runner"])
    out["runner.tasks"] = counts["runner.tasks"]
    out["experiments.self_s"] = _per_second(by_name["experiments"])
    out["unattributed_s"] = _per_second(by_name[ROOT])
    return out


class Tracer:
    """Records spans and counters while a measured pass is open.

    :meth:`installed` swaps the wrappers in; calls made outside a pass
    (set-up, output checks) run the original functions untraced.
    """

    def __init__(self) -> None:
        #: One ``(run_id, spans)`` per finished pass, in order.
        self.passes: list[tuple[str, list]] = []
        #: One ``(pass_name, metrics)`` per finished pass, in order.
        self.results: list[tuple[str, dict]] = []
        self._spans: list | None = None
        self._stack: list[int] = []
        self._counts: Counter = Counter()

    @contextmanager
    def measure(self, pass_name: str, run_id: str):
        """Open the root span of one measured pass."""
        spans = [[ROOT, perf_counter_ns(), 0, None]]
        self._spans, self._stack, self._counts = spans, [0], Counter()
        try:
            yield
        finally:
            spans[0][2] = perf_counter_ns()
            self._spans, self._stack = None, []
            self.passes.append((run_id, spans))
            self.results.append((pass_name, pass_metrics(spans, self._counts)))

    def wrap(self, original, span, count):
        """A traced stand-in for ``original``.

        ``span`` names the span (``None``: count only; a callable: derive
        the name from the call's arguments).  ``count(args, kwargs,
        result)`` yields ``(counter, increment)`` pairs; it runs only on
        the outermost of nested spans of the same name, so a suite
        stream's ``take`` is not counted again by its sub-streams.
        """
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            spans = tracer._spans
            if spans is None:
                return original(*args, **kwargs)
            name = span(args) if callable(span) else span
            outermost = True
            if name is None:
                result = original(*args, **kwargs)
            else:
                stack = tracer._stack
                parent = stack[-1]
                outermost = spans[parent][0] != name
                record = [name, 0, 0, parent]
                stack.append(len(spans))
                spans.append(record)
                record[1] = perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[2] = perf_counter_ns()
                    stack.pop()
            if count is not None and outermost:
                counts = tracer._counts
                for key, increment in count(args, kwargs, result):
                    counts[key] += increment
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block.

        A module-level function is also rebound in every ``repro`` module
        that imported it by name, so callers see the wrapper whichever
        way they reach it.
        """
        undo = []
        try:
            for owner, attr, span, count in _traced_functions():
                original = owner.__dict__[attr]
                traced = self.wrap(original, span, count)
                setattr(owner, attr, traced)
                undo.append((owner, attr, original))
                if isinstance(owner, type):
                    continue
                for module in list(sys.modules.values()):
                    if (
                        module is not owner
                        and getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original
                    ):
                        setattr(module, attr, traced)
                        undo.append((module, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        """Every recorded span as JSON-ready rows."""
        return [
            {"run_id": run_id, "name": name, "start_ns": start,
             "end_ns": end, "parent": parent}
            for run_id, spans in self.passes
            for name, start, end, parent in spans
        ]


# ----------------------------------------------------------------------
# What is traced, layer by layer
# ----------------------------------------------------------------------

def _family(filter_name: str) -> str | None:
    match = _FAMILY_RE.match(filter_name)
    return match.group(1) if match else None


def _kernel_span(replayer) -> str | None:
    from repro.core.stats import EventReplayer

    family = _family(replayer.snoop_filter.name)
    if family is None:
        return None
    engine = "python" if isinstance(replayer, EventReplayer) else "numpy"
    return f"core.{family}.{engine}"


def _bank_consume_span(args) -> str | None:
    return _kernel_span(args[0].replayers[0])


def _bank_feed_span(args) -> str | None:
    return _kernel_span(args[0].replayers[args[1]])


def _count_take(args, kwargs, result):
    yield "traces.accesses", len(result)


def _count_buffered_events(args, kwargs, result):
    yield "coherence.events", sum(len(s.events) for s in result.event_streams)


def _count_shard_events(args, kwargs, result):
    yield "coherence.events", sum(len(s.events) for s in result)


def _count_segments(args, kwargs, result):
    yield "pack.segments", sum(result)


def _count_segment_encode(args, kwargs, result):
    yield "store.segment_raw_bytes", len(args[0])
    yield "store.segment_stored_bytes", len(result)


def _count_put(args, kwargs, result):
    yield "store.puts", 1
    yield "store.put_bytes", len(args[2])


def _count_get(args, kwargs, result):
    yield "store.gets", 1
    yield "store.get_bytes", 0 if result is None else len(result)


def _count_consume(args, kwargs, result):
    name = _bank_consume_span(args)
    if name is not None:
        yield f"{name}.events", sum(len(s.events) for s in args[1])


def _count_feed(args, kwargs, result):
    from repro.core.stats import PackedSegment

    name = _bank_feed_span(args)
    if name is not None:
        events = args[2]
        if type(events) is PackedSegment:
            events = events.events
        yield f"{name}.events", len(events)


def _count_coverage(args, kwargs, result):
    family = _family(result.filter_name)
    if family is not None:
        yield f"core.{family}.filtered", result.coverage.filtered
        yield f"core.{family}.would_miss", result.coverage.snoop_would_miss


def _count_task(args, kwargs, result):
    yield "runner.tasks", 1


def _count_replay_task(args, kwargs, result):
    if result is not None:
        yield "runner.tasks", 1


def _count_stream(args, kwargs, result):
    _metrics, evaluations = result
    yield "runner.tasks", 1 + len(evaluations)


def _count_replays(args, kwargs, result):
    # Simulations are counted by record_trace; replayed evaluations run
    # inside the runner's private task function, so take them from the
    # report.
    yield "runner.tasks", result.evals_run


def _traced_functions():
    """``(owner, attribute, span, count)`` for every traced function."""
    from repro.analysis import experiments, figures, runner
    from repro.analysis import store
    from repro.coherence import smp
    from repro.core import stats
    from repro.traces.suite import SuiteStream
    from repro.traces.synth.mix import MixStream

    return [
        # traces: access generation.
        (MixStream, "take", "traces", _count_take),
        (SuiteStream, "take", "traces", _count_take),
        # coherence: caches, bus and nodes (self time excludes the
        # generation and sink spans nested inside).
        (smp, "simulate", "coherence", _count_buffered_events),
        (smp, "simulate_streaming", "coherence", None),
        (smp.SMPSystem, "take_shard", None, _count_shard_events),
        # pack: event repacking and segment cut (minus the write callback,
        # whose encode and put spans nest inside).
        (smp.TraceSink, "consume", "pack", None),
        (smp.TraceSink, "finish", "pack", _count_segments),
        # store codec.
        (store, "encode_trace_segment", "store.segment_encode",
         _count_segment_encode),
        (store, "decode_trace_segment", "store.segment_decode", None),
        (store, "encode_sim", "store.sim_encode", None),
        (store, "encode_sim_metrics", "store.sim_encode", None),
        (store, "encode_sim_metrics_dict", "store.sim_encode", None),
        (store, "decode_sim", "store.sim_decode", None),
        (store, "decode_sim_metrics", "store.sim_decode", None),
        (store, "encode_eval", "store.eval_encode", None),
        (store, "decode_eval", "store.eval_decode", None),
        # store I/O.
        (store.ExperimentStore, "put_blob", "store.put", _count_put),
        (store.ExperimentStore, "get_blob", "store.get", _count_get),
        # core: filter kernels, keyed by family and engine.
        (stats.StreamingFilterBank, "consume", _bank_consume_span,
         _count_consume),
        (stats.StreamingFilterBank, "feed_node", _bank_feed_span,
         _count_feed),
        (stats.StreamingFilterBank, "finish", None, _count_coverage),
        # runner: executor and orchestration.
        (runner, "execute_replays", "runner", _count_replays),
        (runner, "execute", "runner", None),
        (runner, "compute_stream", "runner", _count_stream),
        (runner, "compute_sim", "runner", _count_task),
        (runner, "compute_eval", "runner", _count_task),
        (runner, "record_trace", "runner", _count_task),
        (runner, "replay_filter_from_store", "runner", _count_replay_task),
        # experiments: the one-at-a-time front door and figure builders.
        (experiments, "set_store", "experiments", None),
        (experiments, "run_workload", "experiments", None),
        (experiments, "workload_metrics", "experiments", None),
        (experiments, "evaluate_filter", "experiments", None),
        (experiments, "coverage_for", "experiments", None),
        (figures, "build_figure4a", "experiments", None),
    ]
