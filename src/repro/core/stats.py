"""Filter evaluation: event streams, replay, and coverage statistics.

A JETTY never alters coherence behaviour — it only decides whether the L2
tag array is probed on a snoop (paper §2.2).  The simulator therefore runs
once per workload and records, per node, the *event stream* a JETTY would
observe; every filter configuration is then evaluated by replaying that
stream.  This separation makes sweeping dozens of configurations cheap and
guarantees all filters see exactly the same input.

Events come in three kinds:

* ``SNOOP`` — a bus snoop for a block, annotated with the ground-truth L2
  outcome (would the tag probe have hit?);
* ``ALLOC`` — the L2 allocated a frame for a block;
* ``EVICT`` — the L2 deallocated a block.

**Packed encoding.**  An event is a single non-negative integer::

      63      ...       4   3   2   1   0
    +----------------------+---+---+-------+
    |        block         | P | V | kind  |
    +----------------------+---+---+-------+

    kind  (bits 0-1)  SNOOP=0, ALLOC=1, EVICT=2, MARKER=3
    V     (bit 2)     SNOOP only: the snooped subblock was valid
                      (the tag probe would hit)
    P     (bit 3)     SNOOP only: the block tag was allocated
                      (the JETTY safety reference)
    block (bits 4+)   the L2 block number

Bits 2-3 are the historical two-bit SNOOP ``flag`` mask, shifted up by
:data:`FLAG_SHIFT`.  Streams store packed events in ``array('q')``
shards: 8 bytes per event instead of a 3-tuple of boxed integers, and
the hot append/decode paths handle one ``int`` instead of allocating
and unpacking tuples.  :func:`pack_event` / :func:`unpack_event`
round-trip any block number that fits the machine-independent Python
int; ``array('q')`` storage holds blocks up to 2**59 - 1 (a 65-bit
physical address space — far beyond any simulated system here).

Recorded payloads in existing stores serialise events as ``(kind,
block, flag)`` triples; :class:`NodeEventStream` accepts those legacy
triples alongside packed integers and re-packs them on construction, so
old buffered recordings replay unchanged (and payload bytes stay
byte-identical — the store codec always writes triples).

The MARKER pseudo-event separates the cache warm-up prefix from the
measured region: filter *state* accumulates through it, statistics
restart at it.

A MARKER whose flag bits are non-zero is a *PHASE* marker: flag
:data:`PHASE_FLAG`, phase index in the block bits.  It closes the
running phase's statistics slice — filter state and the cumulative
coverage counters persist untouched — so suites of phase-structured
workloads get per-phase splits (``FilterEvaluation.phases``) for free
in both replay kernels.  Bare MARKERs (flag 0) keep their historical
warm-up meaning, which is why recordings made before phases existed
replay byte-identically.

The replay cross-checks the JETTY safety guarantee on every filtered
snoop and raises :class:`~repro.errors.FilterSafetyError` on a
violation.

Replay comes in three shapes sharing one replayer interface — the
per-event :class:`EventReplayer` oracle or a vectorised
:mod:`repro.core.vector_replay` replayer, chosen per bank by ``kernel``:

* **buffered** — :func:`replay_events` consumes a complete recorded
  :class:`NodeEventStream` after the simulation has finished;
* **streaming** — a :class:`ShardFanout` over one or more
  :class:`StreamingFilterBank` objects is attached to a live simulation
  (:func:`repro.coherence.smp.simulate_streaming`) and is fed bounded
  event *shards* as they are produced, so no event is ever retained
  beyond its shard.  Filter state, the warm-up MARKER reset, and the
  safety cross-check behave identically in both shapes; feeding a
  stream's events in one call or split at arbitrary shard boundaries
  yields bit-identical evaluations;
* **trace replay** — :func:`replay_trace` drives any number of
  :class:`StreamingFilterBank` objects from a :class:`TraceReader` over
  a *persisted* recording (the ``sim-events`` store kind), so a new
  filter configuration costs one cheap replay instead of a full MOESI
  re-simulation.  No caches, bus, or nodes are instantiated at all.
  Because the per-node replayers are independent, feeding node 0's
  events to completion before node 1's (the trace layout) produces the
  same evaluation as the live chunk-interleaved order — byte-identical
  by the same argument that makes shard boundaries invisible.

Live shards and stored segments reach the banks through one fan-out
step, :func:`fan_out`: each node's events are wrapped once in a
:class:`PackedSegment` and that one object feeds every bank, so derived
arrays (and the IJ lanes an IJ bank shares with an HJ bank) are built
once per shard or segment.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.core.base import FilterEventCounts, SnoopFilter
from repro.errors import ConfigurationError, FilterSafetyError

#: Kernel selectors accepted by :class:`StreamingFilterBank`:
#: ``"python"`` — the per-event :class:`EventReplayer` loop everywhere;
#: ``"numpy"`` — vectorised kernels for every supported filter family,
#: failing loudly when NumPy is unavailable;
#: ``"auto"`` — vectorised where supported *and* NumPy imports, the
#: per-event loop otherwise.
REPLAY_KERNELS = ("python", "numpy", "auto")

#: Event kind tags (bits 0-1 of a packed event).
SNOOP = 0
ALLOC = 1
EVICT = 2
MARKER = 3

#: Bit layout of a packed event (see the module docstring).
KIND_MASK = 0b11
FLAG_SHIFT = 2
FLAG_MASK = 0b11
BLOCK_SHIFT = 4

#: MARKER flag distinguishing a PHASE boundary (phase index in the
#: block bits) from the bare warm-up MARKER (flag 0).  Flag-encoded so
#: the 64-bit layout, existing trace bytes, and the store schema are
#: all untouched.
PHASE_FLAG = 1

#: A packed event.  (Historically a ``(kind, block, flag)`` tuple; the
#: store codec still speaks triples on disk.)
Event = int


def pack_event(kind: int, block: int, flag: int = 0) -> int:
    """Pack ``(kind, block, flag)`` into one integer event."""
    return kind | (flag << FLAG_SHIFT) | (block << BLOCK_SHIFT)


def unpack_event(event: int) -> tuple[int, int, int]:
    """Decode a packed event back into ``(kind, block, flag)``."""
    return (
        event & KIND_MASK,
        event >> BLOCK_SHIFT,
        (event >> FLAG_SHIFT) & FLAG_MASK,
    )


class NodeEventStream:
    """The per-node event stream recorded by the coherence simulator.

    ``events`` is an ``array('q')`` of packed events (8 bytes each).
    The constructor also accepts legacy ``(kind, block, flag)`` triples
    and re-packs them — the compatibility decode layer for recordings
    serialised before the packed encoding existed.
    """

    __slots__ = ("node_id", "events")

    def __init__(self, node_id: int, events=()) -> None:
        self.node_id = node_id
        packed = array("q")
        for event in events:
            if type(event) is int:
                packed.append(event)
            else:  # legacy (kind, block, flag) triple
                kind, block, flag = event
                packed.append(kind | (flag << FLAG_SHIFT) | (block << BLOCK_SHIFT))
        self.events = packed

    def snoop(self, block: int, flag: int) -> None:
        self.events.append((block << BLOCK_SHIFT) | (flag << FLAG_SHIFT))

    def alloc(self, block: int) -> None:
        self.events.append((block << BLOCK_SHIFT) | ALLOC)

    def evict(self, block: int) -> None:
        self.events.append((block << BLOCK_SHIFT) | EVICT)

    def marker(self) -> None:
        """Mark the end of warm-up; replay statistics restart here."""
        self.events.append(MARKER)

    def phase(self, index: int) -> None:
        """Mark a phase boundary: statistics split here, state persists."""
        self.events.append(
            MARKER | (PHASE_FLAG << FLAG_SHIFT) | (index << BLOCK_SHIFT)
        )

    def triples(self) -> list[tuple[int, int, int]]:
        """The stream decoded to ``(kind, block, flag)`` triples."""
        return [unpack_event(event) for event in self.events]

    def counts(self) -> tuple[int, int, int]:
        """Return ``(snoops, allocs, evicts)`` totals over all events."""
        snoops = allocs = evicts = 0
        for event in self.events:
            kind = event & KIND_MASK
            if kind == SNOOP:
                snoops += 1
            elif kind == ALLOC:
                allocs += 1
            elif kind == EVICT:
                evicts += 1
        return snoops, allocs, evicts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NodeEventStream(node_id={self.node_id}, "
            f"events=<{len(self.events)} packed>)"
        )


@dataclass
class CoverageStats:
    """Coverage accounting for one filter over one event stream.

    *Coverage* (paper §4.3) is the fraction of snoop-induced L2 tag lookups
    that would miss that the filter eliminated.
    """

    snoops: int = 0
    snoop_would_miss: int = 0
    snoop_would_hit: int = 0
    filtered: int = 0

    @property
    def coverage(self) -> float:
        """Filtered snoops over would-miss snoops (0 when no misses)."""
        if self.snoop_would_miss == 0:
            return 0.0
        return self.filtered / self.snoop_would_miss

    @property
    def unfiltered_tag_probes(self) -> int:
        """Snoop-induced L2 tag probes that still happen with this filter."""
        return self.snoops - self.filtered

    def merged_with(self, other: "CoverageStats") -> "CoverageStats":
        """Return the elementwise sum of two coverage records."""
        return CoverageStats(
            snoops=self.snoops + other.snoops,
            snoop_would_miss=self.snoop_would_miss + other.snoop_would_miss,
            snoop_would_hit=self.snoop_would_hit + other.snoop_would_hit,
            filtered=self.filtered + other.filtered,
        )


@dataclass
class PhaseStats:
    """One phase's slice of an evaluation (coverage plus L2 churn).

    Filter *energy* counts are deliberately absent: filter state (and
    therefore its probe/insert activity) spans phase boundaries, so only
    the additive statistics — coverage counters, allocations, evictions
    — split meaningfully per phase.
    """

    coverage: CoverageStats
    allocs: int = 0
    evicts: int = 0

    def merged_with(self, other: "PhaseStats") -> "PhaseStats":
        return PhaseStats(
            coverage=self.coverage.merged_with(other.coverage),
            allocs=self.allocs + other.allocs,
            evicts=self.evicts + other.evicts,
        )


@dataclass
class FilterEvaluation:
    """The full result of replaying one event stream through one filter."""

    filter_name: str
    coverage: CoverageStats
    events: FilterEventCounts
    storage_bits: int
    allocs: int = 0
    evicts: int = 0
    #: Per-phase slices, in phase order, for phase-structured suites;
    #: empty for plain workloads (and absent from their payload bytes).
    phases: dict = field(default_factory=dict)


def merge_evaluations(evaluations: list[FilterEvaluation]) -> FilterEvaluation:
    """Aggregate per-node evaluations of the *same* configuration.

    The paper reports system-wide numbers; this sums coverage statistics
    and event counts over all nodes' JETTYs.
    """
    if not evaluations:
        raise ValueError("nothing to merge")
    names = {e.filter_name for e in evaluations}
    if len(names) > 1:
        raise ValueError(f"refusing to merge different configurations: {names}")
    merged = FilterEvaluation(
        filter_name=evaluations[0].filter_name,
        coverage=CoverageStats(),
        events=FilterEventCounts(),
        storage_bits=evaluations[0].storage_bits,
    )
    for evaluation in evaluations:
        merged.coverage = merged.coverage.merged_with(evaluation.coverage)
        merged.events = merged.events.merged_with(evaluation.events)
        merged.allocs += evaluation.allocs
        merged.evicts += evaluation.evicts
        for name, phase in evaluation.phases.items():
            present = merged.phases.get(name)
            merged.phases[name] = (
                phase if present is None else present.merged_with(phase)
            )
    return merged


class PackedSegment:
    """One batch of packed events, decoded once and shared by many banks.

    Replaying a trace through F filter banks means F passes over every
    segment; each pass wants the events in a different shape — the
    per-event Python loop iterates boxed ints, the vectorised kernels
    want a NumPy ``int64`` view plus family-specific derived arrays.
    Wrapping the segment once lets every consumer build its shape once
    and share it: :meth:`boxed` caches the boxed-int list, :meth:`array`
    the zero-copy NumPy view, and :meth:`shared` memoises arbitrary
    derived values (kind masks, per-span item lists) under caller keys.

    The wrapper is pure presentation — it never mutates the events — so
    feeding a ``PackedSegment`` is byte-equivalent to feeding the raw
    iterable it wraps.
    """

    __slots__ = ("events", "_boxed", "_array", "_cache")

    def __init__(self, events) -> None:
        #: The packed events as fed (``array('q')``, list, or sequence).
        self.events = events
        self._boxed = None
        self._array = None
        self._cache: dict = {}

    def boxed(self) -> list:
        """The events as a list of ints (each boxed exactly once)."""
        if self._boxed is None:
            events = self.events
            self._boxed = events if type(events) is list else list(events)
        return self._boxed

    def python_events(self):
        """The cheapest iterable for a per-event Python replay loop.

        Returns the boxed list when one was already materialised (the
        multi-bank case) and the raw sequence otherwise, matching the
        box-once-iff-shared policy of :func:`fan_out`.
        """
        return self._boxed if self._boxed is not None else self.events

    def array(self):
        """The events as a NumPy ``int64`` array (zero-copy when packed).

        Raises :class:`ConfigurationError` when NumPy is unavailable —
        callers gate on :func:`repro.core.vector_replay.numpy_available`.
        """
        if self._array is None:
            try:
                import numpy
            except ImportError as exc:  # pragma: no cover - numpy-less env
                raise ConfigurationError(
                    "NumPy is required for vectorised replay but is not "
                    "installed; use the python replay kernel"
                ) from exc
            events = self.events
            if isinstance(events, array) and events.itemsize == 8:
                self._array = numpy.frombuffer(memoryview(events), numpy.int64)
            else:
                self._array = numpy.asarray(events, dtype=numpy.int64)
        return self._array

    def shared(self, key, build):
        """Memoise ``build()`` under ``key`` for every bank on this segment."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value


def phases_from_marks(marks, totals, phase_names) -> dict:
    """Build the per-phase split from boundary snapshots plus final totals.

    ``marks`` is the ordered list of ``(phase_index, totals_at_boundary)``
    snapshots a replayer took at each PHASE marker, where a totals tuple
    is ``(snoops, would_hit, would_miss, filtered, allocs, evicts)``
    *cumulative since the warm-up MARKER*; ``totals`` is the same tuple
    at end of stream, closing the last phase.  Each phase's slice is the
    delta between consecutive snapshots — the property that makes the
    split identical whichever kernel (or shard/segment boundaries)
    produced the snapshots.  Both replay kernels share this one builder
    so their ``phases`` dicts are structurally identical.
    """
    if not marks:
        return {}
    phases: dict = {}
    bounds = list(marks) + [(None, totals)]
    for (index, start), (_next, end) in zip(bounds, bounds[1:]):
        name = (
            phase_names[index]
            if 0 <= index < len(phase_names)
            else f"phase-{index}"
        )
        delta = [after - before for before, after in zip(start, end)]
        phases[name] = PhaseStats(
            # Keyword construction: the totals tuple is documented
            # (snoops, would_hit, would_miss, filtered), which is NOT
            # CoverageStats's positional field order.
            coverage=CoverageStats(
                snoops=delta[0],
                snoop_would_hit=delta[1],
                snoop_would_miss=delta[2],
                filtered=delta[3],
            ),
            allocs=delta[4],
            evicts=delta[5],
        )
    return phases


def _bound_hook(snoop_filter: SnoopFilter, public: str, hook: str):
    """The cheapest correct bound callable for one filter event hook.

    The public ``on_*`` methods on :class:`SnoopFilter` are pure
    delegations to the ``_on_*`` subclass hooks, so when a filter only
    overrides the hook, binding the hook directly saves one call layer
    per event.  A filter that overrode the *public* method keeps it; a
    filter that overrode neither (the hook is a no-op) yields ``None``,
    letting the replay loop skip the call entirely.
    """
    cls = type(snoop_filter)
    if getattr(cls, public) is not getattr(SnoopFilter, public):
        return getattr(snoop_filter, public)
    if getattr(cls, hook) is not getattr(SnoopFilter, hook):
        return getattr(snoop_filter, hook)
    return None


class EventReplayer:
    """Incrementally replay one node's event stream through one filter.

    The replayer is the shared kernel of buffered and streaming
    evaluation: :meth:`feed` may be called once with a complete event
    list or many times with consecutive shards — filter state, coverage
    statistics, and the MARKER warm-up reset carry across calls, so the
    result of :meth:`finish` depends only on the concatenation of all
    fed events, never on where the shard boundaries fell.
    """

    def __init__(
        self, snoop_filter: SnoopFilter, node_id: int, phase_names=()
    ) -> None:
        self.snoop_filter = snoop_filter
        self.node_id = node_id
        self.stats = CoverageStats()
        self.allocs = 0
        self.evicts = 0
        #: Phase index -> display name (``phase-<i>`` when unnamed).
        self.phase_names = tuple(phase_names)
        #: ``(phase_index, cumulative totals)`` at each PHASE marker.
        self._phase_marks: list = []

    def feed(self, events) -> None:
        """Consume one batch of packed events (a whole stream or shard).

        The loop is the replay hot path: filter callbacks are hoisted to
        locals once per batch, events decode with shifts/masks, and the
        overwhelmingly common SNOOP kind is tested first.
        """
        snoop_filter = self.snoop_filter
        probe = snoop_filter.probe
        outcome = _bound_hook(snoop_filter, "on_snoop_outcome", "_on_snoop_outcome")
        on_alloc = _bound_hook(
            snoop_filter, "on_block_allocated", "_on_block_allocated"
        )
        on_evict = _bound_hook(
            snoop_filter, "on_block_evicted", "_on_block_evicted"
        )

        # Coverage counters accumulate in locals and flush once per batch
        # (and at each MARKER) — plain int adds instead of three dataclass
        # attribute read-modify-writes per snoop.  The flush sits in a
        # ``finally`` so a mid-batch raise (a safety violation, a filter
        # hook error) still lands every event consumed up to the raise in
        # ``self.stats`` — post-mortem state must reflect what was fed.
        snoops = would_hit = would_miss = filtered = allocs = evicts = 0
        try:
            for event in events:
                kind = event & 0b11
                if kind == 0:  # SNOOP — by far the common case
                    block = event >> 4
                    snoops += 1
                    if event & 0b0100:  # V: the tag probe would hit
                        would_hit += 1
                    else:
                        would_miss += 1
                    if probe(block):
                        if outcome is not None:
                            outcome(block, (event & 0b1000) != 0)
                    elif event & 0b1000:  # P: block tag allocated -> unsafe
                        raise FilterSafetyError(
                            f"{snoop_filter.name} filtered a snoop for block "
                            f"{block:#x} on node {self.node_id}, but the block "
                            "is cached — JETTY safety guarantee violated"
                        )
                    else:
                        filtered += 1
                elif kind == ALLOC:
                    allocs += 1
                    if on_alloc is not None:
                        on_alloc(event >> 4)
                elif kind == EVICT:
                    evicts += 1
                    if on_evict is not None:
                        on_evict(event >> 4)
                elif event & 0b1100:  # PHASE: close the running slice.
                    stats = self.stats
                    stats.snoops += snoops
                    stats.snoop_would_hit += would_hit
                    stats.snoop_would_miss += would_miss
                    stats.filtered += filtered
                    self.allocs += allocs
                    self.evicts += evicts
                    snoops = would_hit = would_miss = filtered = 0
                    allocs = evicts = 0
                    self._phase_marks.append((
                        event >> 4,
                        (stats.snoops, stats.snoop_would_hit,
                         stats.snoop_would_miss, stats.filtered,
                         self.allocs, self.evicts),
                    ))
                else:  # MARKER: warm-up ends, statistics restart, state persists.
                    snoops = would_hit = would_miss = filtered = 0
                    allocs = evicts = 0
                    self.stats = CoverageStats()
                    self.allocs = self.evicts = 0
                    self._phase_marks.clear()
                    snoop_filter.reset_counts()
        finally:
            stats = self.stats
            stats.snoops += snoops
            stats.snoop_would_hit += would_hit
            stats.snoop_would_miss += would_miss
            stats.filtered += filtered
            self.allocs += allocs
            self.evicts += evicts

    def feed_segment(self, segment: PackedSegment) -> None:
        """Consume a shared decoded segment (see :class:`PackedSegment`)."""
        self.feed(segment.python_events())

    def finish(self) -> FilterEvaluation:
        """Package the accumulated statistics of everything fed so far."""
        stats = self.stats
        return FilterEvaluation(
            filter_name=self.snoop_filter.name,
            coverage=stats,
            events=self.snoop_filter.energy_counts(),
            storage_bits=self.snoop_filter.storage_bits(),
            allocs=self.allocs,
            evicts=self.evicts,
            phases=phases_from_marks(
                self._phase_marks,
                (stats.snoops, stats.snoop_would_hit,
                 stats.snoop_would_miss, stats.filtered,
                 self.allocs, self.evicts),
                self.phase_names,
            ),
        )

    def snapshot(self) -> dict:
        """Serialisable replay state: coverage counters plus filter state.

        Together with the filter's own :meth:`~repro.core.base.
        SnoopFilter.snapshot`, this captures everything :meth:`feed`
        accumulates — restoring it and feeding the remaining events
        finishes with exactly the evaluation an uninterrupted replay
        produces.
        """
        state = {
            "stats": vars(self.stats).copy(),
            "allocs": self.allocs,
            "evicts": self.evicts,
            "filter": self.snoop_filter.snapshot(),
        }
        # Key present only when marks exist: pre-phase checkpoint payloads
        # keep their exact shape, and plain-workload snapshots stay small.
        if self._phase_marks:
            state["phases"] = [
                [index, list(totals)] for index, totals in self._phase_marks
            ]
        return state

    def restore(self, state: dict) -> None:
        """Adopt a snapshot taken from an identically configured replayer."""
        self.stats = CoverageStats(**state["stats"])
        self.allocs = state["allocs"]
        self.evicts = state["evicts"]
        self._phase_marks = [
            (index, tuple(totals))
            for index, totals in state.get("phases", ())
        ]
        self.snoop_filter.restore(state["filter"])


class StreamingFilterBank:
    """One filter configuration evaluated live across all nodes.

    A bank holds one freshly built filter (and its :class:`EventReplayer`)
    per node and implements the shard-consumer interface expected by
    :func:`repro.coherence.smp.simulate_streaming`: each
    :meth:`consume` call receives the per-node event shards of one chunk,
    in node order.  Several banks — one per filter configuration — can be
    attached to the same simulation, which is how N filters are evaluated
    in a single pass with O(chunk) memory.

    Several banks attached to one simulation should share a
    :class:`ShardFanout`, which wraps each node's shard once for all of
    them; :meth:`consume` is the single-bank form.

    ``kernel`` selects the per-node replay engine (:data:`REPLAY_KERNELS`):
    ``"python"`` builds the per-event :class:`EventReplayer` loop for
    every node; ``"numpy"`` and ``"auto"`` ask
    :func:`repro.core.vector_replay.replayer_for` for a vectorised
    replayer per filter, falling back to the per-event loop for filter
    families the vector kernels do not cover.  ``"numpy"`` raises when
    NumPy is missing, ``"auto"`` silently degrades.  The class default
    is the ``"python"`` oracle; the runner builds every bank with
    ``"auto"``.  Whatever the kernel, evaluations are byte-identical,
    and :meth:`snapshot`/:meth:`restore` speak one format, so a
    checkpoint taken on one kernel resumes on the other.
    """

    def __init__(
        self,
        filters: list[SnoopFilter],
        kernel: str = "python",
        phase_names=(),
    ) -> None:
        if kernel not in REPLAY_KERNELS:
            raise ConfigurationError(
                f"unknown replay kernel {kernel!r}; choose from "
                f"{', '.join(REPLAY_KERNELS)}"
            )
        self.kernel = kernel
        phase_names = tuple(phase_names)
        self.replayers: list = []
        if kernel == "python":
            replayer_for = None
        else:
            from repro.core import vector_replay

            if not vector_replay.numpy_available():
                if kernel == "numpy":
                    raise ConfigurationError(
                        "the numpy replay kernel requires NumPy, which is "
                        "not installed; use the python kernel"
                    )
                replayer_for = None  # auto: degrade to the per-event loop
            else:
                replayer_for = vector_replay.replayer_for
        for node_id, snoop_filter in enumerate(filters):
            replayer = (
                replayer_for(snoop_filter, node_id, phase_names)
                if replayer_for is not None
                else None
            )
            if replayer is None:
                replayer = EventReplayer(snoop_filter, node_id, phase_names)
            self.replayers.append(replayer)

    def check_shard(self, shard: list[NodeEventStream]) -> None:
        """Reject a shard whose node count does not match the bank's."""
        if len(shard) != len(self.replayers):
            raise ValueError(
                f"shard carries {len(shard)} node stream(s), bank expects "
                f"{len(self.replayers)} — a metrics-only result has no "
                "events to replay"
            )

    def consume(self, shard: list[NodeEventStream]) -> None:
        """Feed one chunk's per-node event shards to the node replayers.

        The single-bank form of :class:`ShardFanout`, through the same
        :func:`fan_out` step.
        """
        ShardFanout((self,)).consume(shard)

    def feed_node(self, node_id: int, events) -> None:
        """Feed one node's packed events directly (trace-replay path).

        Per-node replayers are independent, so a recorded trace may be
        replayed node-major (all of node 0, then node 1, ...) and still
        finish with exactly the state a live shard-interleaved run
        produces.  ``events`` may be a raw packed iterable or a shared
        :class:`PackedSegment`.
        """
        replayer = self.replayers[node_id]
        if type(events) is PackedSegment:
            replayer.feed_segment(events)
        else:
            replayer.feed(events)

    def finish(self) -> FilterEvaluation:
        """The system-wide merged evaluation (as the paper reports)."""
        return merge_evaluations(
            [replayer.finish() for replayer in self.replayers]
        )

    def snapshot(self) -> list[dict]:
        """Per-node replayer snapshots, in node order."""
        return [replayer.snapshot() for replayer in self.replayers]

    def restore(self, state: list[dict]) -> None:
        """Adopt a snapshot taken from an identically configured bank."""
        if len(state) != len(self.replayers):
            raise ValueError(
                f"bank snapshot covers {len(state)} node(s), bank has "
                f"{len(self.replayers)}"
            )
        for replayer, replayer_state in zip(self.replayers, state):
            replayer.restore(replayer_state)


class TraceReader:
    """Lazily iterate a persisted trace's per-node event segments.

    A recorded trace stores each node's event stream as a sequence of
    fixed-size packed segments (see
    :class:`repro.coherence.smp.TraceSink`); the reader yields
    ``(node_id, events)`` pairs in per-node order, decoding one segment
    at a time through the supplied ``fetch`` callable — typically a
    closure over a read-only store connection, so replay memory stays
    O(segment) however long the recording.  The reader itself knows
    nothing about storage: keeping it storage-agnostic is what lets the
    core layer replay traces without importing the analysis store.
    """

    __slots__ = ("segments_per_node", "fetch")

    def __init__(self, segments_per_node, fetch) -> None:
        #: ``segments_per_node[n]`` — how many segments node ``n`` has.
        self.segments_per_node = list(segments_per_node)
        #: ``fetch(node_id, index)`` -> iterable of packed events.
        self.fetch = fetch

    def __iter__(self):
        for node_id, count in enumerate(self.segments_per_node):
            for index in range(count):
                yield node_id, self.fetch(node_id, index)

    def packed(self, node_id: int, index: int) -> PackedSegment:
        """Fetch one segment wrapped for sharing across replay kernels."""
        return PackedSegment(self.fetch(node_id, index))


def fan_out(banks: list, node_id: int, events) -> None:
    """Feed one node's batch of packed events to every bank.

    The one fan-out step of live streaming and trace replay: the batch
    is wrapped once in a :class:`PackedSegment`, so every vectorised
    replayer reads the same NumPy view and memoised derived arrays.
    Each event is boxed once when two or more banks will walk the batch
    with the per-event Python loop: iterating an ``array('q')``
    allocates a fresh int per element per pass, while a list pass just
    borrows references.
    """
    segment = PackedSegment(events)
    python_banks = sum(
        1
        for bank in banks
        if isinstance(bank.replayers[node_id], EventReplayer)
    )
    if python_banks > 1:
        segment.boxed()
    for bank in banks:
        bank.feed_node(node_id, segment)


class ShardFanout:
    """Shard consumer feeding each live shard to several banks at once.

    Attach one of these instead of the banks themselves to
    :func:`repro.coherence.smp.simulate_streaming`.  Shards are fed
    node-major through :func:`fan_out` — node 0's events to every bank,
    then node 1's — the order trace replay uses too.  Per-node replayers
    are independent, so evaluations do not depend on the order; only
    *which* bank raises first can differ when several banks would fail
    on one shard.
    """

    __slots__ = ("banks",)

    def __init__(self, banks) -> None:
        self.banks = list(banks)

    def consume(self, shard: list[NodeEventStream]) -> None:
        banks = self.banks
        for bank in banks:
            bank.check_shard(shard)
        for node_id, stream in enumerate(shard):
            fan_out(banks, node_id, stream.events)


def replay_trace(reader: TraceReader, banks) -> None:
    """Feed every segment of a recorded trace to the given filter banks.

    The record-once / replay-many kernel: each segment is decoded once
    (by the reader) and fed to every bank through :func:`fan_out`, so
    evaluating F filter configurations against a persisted trace costs
    one decode pass plus F replay loops — no simulation, no caches, no
    bus.  Callers collect results with each bank's ``finish()``; the
    evaluations are byte-identical to live-streamed ones by the
    determinism contract.
    """
    banks = list(banks)
    for node_id, events in reader:
        fan_out(banks, node_id, events)


def replay_events(
    snoop_filter: SnoopFilter, stream: NodeEventStream
) -> FilterEvaluation:
    """Replay ``stream`` through ``snoop_filter`` and collect statistics.

    The filter is mutated (it accumulates state and event counts); pass a
    freshly built filter for independent evaluations.  Raises
    :class:`FilterSafetyError` if the filter ever claims a cached block is
    absent.
    """
    replayer = EventReplayer(snoop_filter, stream.node_id)
    replayer.feed(stream.events)
    return replayer.finish()
