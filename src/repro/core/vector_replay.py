"""Vectorised NumPy replay kernels for the JETTY filter families.

The per-event loop in :class:`repro.core.stats.EventReplayer` pays the
full interpreter dispatch price — decode, probe call, hook call — for
every packed event.  On snoop-dense traces (em3d-class) that loop is the
replay bottleneck.  The replayers here consume a whole packed segment as
a NumPy ``int64`` array instead and evaluate it with shift/mask/argsort/
cumsum/bincount arithmetic, dropping into a tight Python loop only where
order-dependent LRU state genuinely requires one.

**Exactness contract.**  A vector replayer is *not* an approximation:
for every supported filter family it reproduces the oracle
(:class:`EventReplayer` driving the real filter object) bit for bit —
the same :class:`~repro.core.stats.FilterEvaluation` payload, the same
exception type, message, and flushed statistics on a safety violation or
IJ counter underflow.  The oracle-parity suite
(``tests/test_vector_replay.py``) pins this against every golden store.

Per family:

* **IJ** — fully vectorised, all lanes at once.  A counter's value
  *before* each event is a grouped running sum over events hitting the
  same counter slot: stable-argsort each lane's per-event indexes (cast
  to ``uint16`` — severalfold faster than sorting ``int64`` keys), lay
  the lanes end to end, cumsum the +1/-1 allocate/evict deltas in that
  order, and subtract each group's starting prefix.  Presence
  (``counter > 0``) at every snoop, pbit transitions, and underflow
  positions all read off that array.
* **EJ / VEJ** — the per-set LRU stacks are inherently sequential, but
  the *observable* state of a set is only the recency-ordered list of
  valid entries (way indexes are never reported; snapshots place them
  canonically), so each set collapses to a bounded MRU-first list and the
  loop runs over pre-extracted (block, code) Python lists with no
  per-event decode or method dispatch.  Consecutive same-set, same-block
  P0 snoops are provably pure repeat-hits (the first leaves the entry at
  MRU; the second just counts ``filtered``), so they are removed from
  the loop vectorially and counted in bulk.  The residual loop is then
  *grouped by set* with one stable argsort: sets are independent, so
  each set's items run through a tight loop with the set's stack
  hoisted to a local — no per-item set indexing.  A safety violation
  (rare, and fatal to the replay) restores the touched sets from their
  pre-span copies and re-runs the span in original order, so the
  flushed post-mortem statistics match the oracle exactly.

* **HJ** — the IJ component is vectorised as above; its pass verdict per
  snoop feeds the exclude-component loop, which also handles HJ's
  filtered accounting.  Both ``HJ(IJ, EJ)`` and ``HJ(IJ, VEJ)`` are
  supported.

**Filter state in and out.**  Every replayer *imports* the wrapped
filter's current storage state and event counts at construction
(freshly built filters are empty, so the cold path is unchanged).  This
is what lets measured-region-only traces replay from a restored
fast-forward snapshot: the runner restores the warmed state into the
filter objects and the kernels pick it up from there.  ``snapshot()``
is the inverse: it exports the private stacks, dicts and lane counters
in the python kernel's exact dict shape (:meth:`EventReplayer.snapshot`
around :meth:`SnoopFilter.snapshot`), with valid exclude entries placed
in ways ``0..k-1`` in MRU-first order — way placement is unobservable,
recency is kept.  ``restore()`` restores the filter object and
re-imports it, so checkpoints cross kernels in both directions.

Everything else (hashed-include, null filters, oversized geometries,
subclasses) falls back to the per-event loop — selection happens in
:func:`replayer_for`, which returns ``None`` for unsupported filters.

NumPy is an optional dependency: when it is missing,
:func:`numpy_available` is ``False`` and every caller degrades to the
Python kernel.
"""

from __future__ import annotations

import hashlib

from repro.core.base import FilterEventCounts, SnoopFilter
from repro.core.exclude import ExcludeJetty
from repro.core.hybrid import HybridJetty
from repro.core.include import IncludeJetty
from repro.core.stats import (
    CoverageStats,
    FilterEvaluation,
    MARKER,
    PackedSegment,
    phases_from_marks,
)
from repro.core.vector_exclude import VectorExcludeJetty
from repro.errors import CoherenceError, FilterSafetyError

try:  # pragma: no cover - exercised via the numpy-free CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Set counts / counter-index spaces above this fall back to the Python
#: kernel: the grouped-sort machinery keys on ``uint16`` set indexes
#: (sorting 16-bit keys is severalfold faster than 64-bit ones).
_MAX_INDEX_SPACE = 1 << 16


def numpy_available() -> bool:
    """True when the vector kernels can run at all."""
    return _np is not None


def replayer_for(snoop_filter: SnoopFilter, node_id: int, phase_names=()):
    """A vector replayer for ``snoop_filter``, or ``None`` to fall back.

    Selection is deliberately exact-type-based: a *subclass* of a
    supported family may override behaviour the kernels hard-code, and
    silently vectorising it would break the byte-parity contract.
    """
    if _np is None:
        return None
    kind = type(snoop_filter)
    if kind is ExcludeJetty:
        if snoop_filter.sets <= _MAX_INDEX_SPACE:
            return _ExcludeReplayer(snoop_filter, node_id, phase_names)
    elif kind is VectorExcludeJetty:
        if snoop_filter.sets <= _MAX_INDEX_SPACE:
            return _VectorExcludeReplayer(snoop_filter, node_id, phase_names)
    elif kind is IncludeJetty:
        if snoop_filter.entry_bits <= 16:
            return _IncludeReplayer(snoop_filter, node_id, phase_names)
    elif kind is HybridJetty:
        include, exclude = snoop_filter.include, snoop_filter.exclude
        if (
            type(include) is IncludeJetty
            and include.entry_bits <= 16
            and type(exclude) in (ExcludeJetty, VectorExcludeJetty)
            and exclude.sets <= _MAX_INDEX_SPACE
        ):
            return _HybridReplayer(snoop_filter, node_id, phase_names)
    return None


# ----------------------------------------------------------------------
# Shared per-span precomputation, memoised on the segment so that every
# bank replaying the same segment pays for each derived array once.
# ----------------------------------------------------------------------


def _span_stats(segment: PackedSegment, lo: int, hi: int) -> dict:
    """Kind masks, flag masks, blocks, and tallies for one span."""

    def build() -> dict:
        e = segment.array()[lo:hi]
        kind = e & 3
        snoop_m = kind == 0
        alloc_m = kind == 1
        evict_m = kind == 2
        pbit = (e & 8) != 0
        wh_m = snoop_m & ((e & 4) != 0)
        n_allocs = int(alloc_m.sum())
        n_evicts = int(evict_m.sum())
        return {
            "blocks": e >> 4,
            "snoop_m": snoop_m,
            "alloc_m": alloc_m,
            "evict_m": evict_m,
            "pbit": pbit,
            "wh_m": wh_m,
            # +1 per ALLOC, -1 per EVICT, 0 per SNOOP: the per-counter
            # running sums below are cumsums of this in sorted order.
            # int32 throughout the lane math — counters are bounded by
            # the cached-block population and spans by the segment size,
            # and the narrower lanes are measurably faster.
            "delta": alloc_m.astype(_np.int32) - evict_m,
            "n_snoops": (hi - lo) - n_allocs - n_evicts,
            "n_would_hit": int(wh_m.sum()),
            "n_allocs": n_allocs,
            "n_evicts": n_evicts,
        }

    return segment.shared(("span", lo, hi), build)


def _span_items(segment: PackedSegment, lo: int, hi: int) -> dict:
    """The exclude-loop items of a span: SNOOPs and ALLOCs, in order.

    ``code`` classifies each item: 0 = P0 snoop, 1 = P1 snoop (the
    safety-reference case), 2 = alloc.  EVICTs are never items — no
    exclude-style filter has an eviction hook.
    """

    def build() -> dict:
        s = _span_stats(segment, lo, hi)
        e = segment.array()[lo:hi]
        pos = _np.flatnonzero(s["snoop_m"] | s["alloc_m"])
        code = (((e & 3) << 1) | ((e >> 3) & 1))[pos]
        return {"pos": pos, "b": s["blocks"][pos], "code": code}

    return segment.shared(("items", lo, hi), build)


def _span_pairs(
    segment: PackedSegment, lo: int, hi: int, pre_shift: int, set_mask: int
):
    """Adjacent same-set item pairs that are P0 snoops of one block.

    Returns ``(prev_items, cur_items)`` — parallel arrays of item
    indexes where ``cur`` directly follows ``prev`` in its set's item
    sequence, both are P0 snoops, and both name the same block.  For a
    plain EJ every such ``cur`` is a pure repeat-hit; composed kernels
    add their own conditions on ``prev``.

    Grouping a span by set is one stable ``uint16`` argsort: items of a
    set then sit consecutively in original order, so same-set adjacency
    is adjacency in the sorted permutation.
    """

    def build():
        items = _span_items(segment, lo, hi)
        b, code = items["b"], items["code"]
        idx = ((b >> pre_shift) & set_mask).astype(_np.uint16)
        order = _np.argsort(idx, kind="stable")
        idx_s = idx[order]
        b_s = b[order]
        code_s = code[order]
        pair = (
            (idx_s[1:] == idx_s[:-1])
            & (b_s[1:] == b_s[:-1])
            & (code_s[1:] == 0)
            & (code_s[:-1] == 0)
        )
        return order[:-1][pair], order[1:][pair]

    return segment.shared(("pairs", lo, hi, pre_shift, set_mask), build)


def _warm_stacks(exclude: ExcludeJetty) -> list[list[int]]:
    """Per-set MRU-first stacks importing an EJ's current contents.

    A freshly built filter has no valid entries, so the cold path gets
    the empty stacks it always had; a restored (fast-forwarded) filter
    contributes its valid entries in recency order — way placement and
    invalid ways are unobservable to replay, exactly the abstraction
    the stack model is built on.
    """
    return [
        [tags[way] for way in lru.order() if tags[way] is not None]
        for tags, lru in zip(exclude._tags, exclude._lru)
    ]


def _warm_vectors(exclude: VectorExcludeJetty) -> list[dict[int, int]]:
    """Per-set insertion-ordered chunk->vector dicts importing a VEJ.

    The replayer's eviction takes the dict's *first* key, so entries
    insert in LRU-to-MRU order (``lru.order()`` is MRU-first, hence
    reversed), skipping invalid ways.
    """
    vectors: list[dict[int, int]] = []
    for chunks, vecs, lru in zip(
        exclude._chunks, exclude._vectors, exclude._lru
    ):
        entries: dict[int, int] = {}
        for way in reversed(lru.order()):
            chunk = chunks[way]
            if chunk is not None:
                entries[chunk] = vecs[way]
        vectors.append(entries)
    return vectors


def _stack_state(stacks: list[list[int]], ways: int) -> dict:
    """EJ ``_snapshot_state`` of per-set stacks (inverts :func:`_warm_stacks`).

    The MRU-first valid entries fill ways ``0..k-1`` and the LRU order
    is ``0..ways-1``, so recency survives and the invalid ways trail.
    """
    return {
        "tags": [stack + [None] * (ways - len(stack)) for stack in stacks],
        "lru": [list(range(ways)) for _ in stacks],
    }


def _vectors_state(vectors: list[dict[int, int]], ways: int) -> dict:
    """VEJ ``_snapshot_state`` of per-set dicts (inverts ``_warm_vectors``).

    Dicts hold entries LRU first; ways ``0..k-1`` take them MRU first
    under the identity LRU order, and invalid ways carry vector 0, as
    the filter leaves them.
    """
    chunks, vecs = [], []
    for entries in vectors:
        pad = ways - len(entries)
        chunks.append(list(reversed(entries)) + [None] * pad)
        vecs.append(list(reversed(entries.values())) + [0] * pad)
    return {
        "chunks": chunks,
        "vectors": vecs,
        "lru": [list(range(ways)) for _ in vectors],
    }


def _filter_state(name: str, counts: FilterEventCounts, state) -> dict:
    """One filter's :meth:`SnoopFilter.snapshot` dict."""
    return {"name": name, "counts": vars(counts).copy(), "state": state}


class _IncludeLanes:
    """The vectorised counter machinery of one :class:`IncludeJetty`.

    Owns the persistent lane counters (the only IJ state), held as one
    flat array in which lane ``i`` owns slots ``[i*size, (i+1)*size)``,
    and evaluates whole spans for all lanes at once: per-event
    pre-values, the ANDed presence verdict at snoops, pbit-transition
    counts, underflow detection, and the end-of-span counter commit.

    The whole span evaluation is memoised on the segment under a key
    that names the lane geometry *and* the event history folded into
    the counters so far — two banks whose IJs share a configuration
    (an ``IJ-AxBxC`` bank and an ``HJ(IJ-AxBxC, ...)`` bank replaying
    the same trace) necessarily carry identical counter state at every
    span boundary, so the second bank reuses the first's evaluation
    wholesale instead of re-sorting every lane.
    """

    __slots__ = (
        "include", "_counters", "_shifts", "_offsets",
        "_events", "_allocs", "_evicts", "_seed",
    )

    def __init__(self, include: IncludeJetty) -> None:
        self.include = include
        # Import the wrapped filter's current counters: zeros for a
        # freshly built IJ, the warmed lanes for a fast-forwarded one.
        self._counters = _np.asarray(
            include._counters, dtype=_np.int32
        ).reshape(-1)
        size = 1 << include.entry_bits
        self._shifts = _np.asarray(include._shifts)[:, None]
        self._offsets = (
            _np.arange(include.n_arrays, dtype=_np.int32) * size
        )[:, None]
        # Committed-history fingerprint, part of the sharing key: equal
        # geometry + equal *initial state* + equal history => equal
        # counter state.  The seed digest distinguishes warm starts —
        # all cold lanes of one geometry share one digest, so the
        # IJ-and-HJ sharing of cold replays is untouched.
        self._seed = hashlib.sha256(self._counters.tobytes()).hexdigest()[:16]
        self._events = 0
        self._allocs = 0
        self._evicts = 0

    def span(self, segment: PackedSegment, lo: int, hi: int) -> dict:
        """Evaluate one span; returns the shared evaluation record.

        ``all_pass[i]`` — every lane counter nonzero before event ``i``
        (meaningful at snoop positions); ``under_k`` — span position of
        the first underflowing EVICT, or -1; ``pbw`` — presence-bit
        transitions over the whole span; ``delta`` — the slot-wise counter
        delta for :meth:`commit`; ``filtered_m``/``n_filtered`` — the
        snoops the IJ filters.  Values after an underflow position are
        garbage; callers never read past it.
        """
        include = self.include
        key = (
            "ijspan", lo, hi,
            include.entry_bits, include.n_arrays, include.skip,
            self._seed, self._events, self._allocs, self._evicts,
        )

        def build() -> dict:
            s = _span_stats(segment, lo, hi)
            alloc_m, evict_m = s["alloc_m"], s["evict_m"]
            lanes = include.n_arrays
            n = hi - lo
            # int32 throughout: narrower temporaries keep the allocator's
            # high-water mark down on live shards.
            index = (
                (s["blocks"] >> self._shifts) & include._index_mask
            ).astype(_np.int32)
            # Lane-major slots, stably sorted so each slot's events sit
            # together in stream order.  Sorting lane by lane on 16-bit
            # indexes is faster than one sort over all lanes' slots.
            orders = []
            for i, lane in enumerate(index):
                lane_order = lane.astype(_np.uint16).argsort(kind="stable")
                orders.append(lane_order.astype(_np.int32) + i * n)
            order = _np.concatenate(orders)
            slots_s = (index + self._offsets).reshape(-1)[order]
            d_s = _np.tile(s["delta"], lanes)[order]
            first = _np.empty(slots_s.size, dtype=bool)
            first[0] = True
            _np.not_equal(slots_s[1:], slots_s[:-1], out=first[1:])
            starts = first.nonzero()[0]
            counts = _np.diff(starts, append=slots_s.size)
            # Net delta of each event's earlier same-slot events: the
            # running sum before it minus the one before its group.
            excl = d_s.cumsum(dtype=_np.int32) - d_s
            rel_s = excl - _np.repeat(excl[starts], counts)
            pre = _np.empty(slots_s.size, dtype=_np.int32)
            pre[order] = self._counters[slots_s] + rel_s
            pre = pre.reshape(lanes, n)
            all_pass = (pre > 0).all(axis=0)
            under_k = -1
            if s["n_evicts"]:
                under = (evict_m & (pre == 0).any(axis=0)).nonzero()[0]
                if under.size:
                    under_k = int(under[0])
            pbw = int(
                _np.count_nonzero(alloc_m & (pre == 0))
                + _np.count_nonzero(evict_m & (pre == 1))
            )
            # Each touched slot's net delta: its group's sum.
            ends = starts + counts - 1
            delta = _np.zeros(self._counters.size, dtype=_np.int32)
            delta[slots_s[starts]] = excl[ends] + d_s[ends] - excl[starts]
            filtered_m = s["snoop_m"] & ~all_pass
            return {
                "all_pass": all_pass,
                "filtered_m": filtered_m,
                "n_filtered": int(_np.count_nonzero(filtered_m)),
                "under_k": under_k,
                "pbw": pbw,
                "delta": delta,
            }

        return segment.shared(key, build)

    def state(self) -> dict:
        """IJ ``_snapshot_state``: inverse of the constructor's import."""
        lanes = self.include.n_arrays
        return {"counters": self._counters.reshape(lanes, -1).tolist()}

    def underflow_error(self, block: int) -> CoherenceError:
        return CoherenceError(
            f"IJ counter underflow for block {block:#x} in "
            f"{self.include.name}: eviction without a matching allocation"
        )

    def commit(self, s: dict, span: dict) -> None:
        """Fold the span's allocate/evict deltas into the lane counters."""
        self._counters += span["delta"]
        self._events += (
            s["n_snoops"] + s["n_allocs"] + s["n_evicts"]
        )
        self._allocs += s["n_allocs"]
        self._evicts += s["n_evicts"]


# ----------------------------------------------------------------------
# Replayers
# ----------------------------------------------------------------------


class VectorReplayer:
    """Base vector replayer: marker splitting, flushing, error parity.

    Mirrors the :class:`~repro.core.stats.EventReplayer` surface
    (``feed`` / ``feed_segment`` / ``finish`` / ``snapshot`` /
    ``restore``) so :class:`~repro.core.stats.StreamingFilterBank` can
    hold either interchangeably.  The wrapped filter object is *never
    driven* — the replayer imports its state and counts once
    (:meth:`_import_filter`), keeps private state, and synthesises the
    :class:`FilterEventCounts` itself.  Snapshots are the oracle's dicts,
    so a checkpoint taken on either kernel restores on the other.
    """

    def __init__(
        self, snoop_filter: SnoopFilter, node_id: int, phase_names=()
    ) -> None:
        self.snoop_filter = snoop_filter
        self.node_id = node_id
        self.stats = CoverageStats()
        self.allocs = 0
        self.evicts = 0
        self.phase_names = tuple(phase_names)
        #: ``(phase_index, cumulative totals)`` at each PHASE marker —
        #: the same snapshot shape the oracle keeps, so both kernels
        #: derive their per-phase splits through one builder.
        self._phase_marks: list = []
        self._import_filter()

    def _import_filter(self) -> None:
        """Adopt the wrapped filter's storage state and event counts.

        Subclasses extend this with their family's storage import; the
        counts copy is what the oracle would keep accumulating into.
        """
        self.counts = FilterEventCounts(
            **vars(self.snoop_filter.energy_counts())
        )

    def _reset_counts(self) -> None:
        """The warm-up MARKER's count reset (``SnoopFilter.reset_counts``)."""
        self.counts = FilterEventCounts()

    def _filter_snapshot(self) -> dict:
        """The wrapped filter's :meth:`SnoopFilter.snapshot` dict, now."""
        raise NotImplementedError

    def feed(self, events) -> None:
        """Consume one batch of packed events (any iterable shape)."""
        if type(events) is not PackedSegment:
            events = PackedSegment(events)
        self.feed_segment(events)

    def feed_segment(self, segment: PackedSegment) -> None:
        """Consume a shared decoded segment, splitting at MARKERs.

        Between markers a span is a pure SNOOP/ALLOC/EVICT run — the
        shape the span kernels assume.  A bare MARKER resets statistics
        and synthesised counts exactly as the oracle's warm-up reset
        does; a PHASE marker (non-zero flag) only snapshots the running
        totals, closing the phase's slice.  Filter state carries across
        both.
        """
        arr = segment.array()
        n = arr.size
        if n == 0:
            return
        markers = segment.shared(
            "markers", lambda: _np.flatnonzero((arr & 3) == MARKER)
        )
        lo = 0
        for marker in markers.tolist():
            if marker > lo:
                self._span(segment, lo, marker)
            event = int(arr[marker])
            if event & 0b1100:  # PHASE: close the running slice.
                stats = self.stats
                self._phase_marks.append((
                    event >> 4,
                    (stats.snoops, stats.snoop_would_hit,
                     stats.snoop_would_miss, stats.filtered,
                     self.allocs, self.evicts),
                ))
            else:  # warm-up MARKER: statistics restart, state persists.
                self.stats = CoverageStats()
                self.allocs = self.evicts = 0
                self._reset_counts()
                self._phase_marks.clear()
            lo = marker + 1
        if n > lo:
            self._span(segment, lo, n)

    def finish(self) -> FilterEvaluation:
        """Package the accumulated statistics of everything fed so far."""
        stats = self.stats
        return FilterEvaluation(
            filter_name=self.snoop_filter.name,
            coverage=stats,
            events=self.counts,
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
        """Replay state in :meth:`EventReplayer.snapshot`'s exact shape."""
        state = {
            "stats": vars(self.stats).copy(),
            "allocs": self.allocs,
            "evicts": self.evicts,
            "filter": self._filter_snapshot(),
        }
        if self._phase_marks:
            state["phases"] = [
                [index, list(totals)] for index, totals in self._phase_marks
            ]
        return state

    def restore(self, state: dict) -> None:
        """Adopt a snapshot taken on either kernel.

        The filter object restores first and the replayer re-imports it,
        exactly as construction does — which also re-seeds the IJ lanes'
        sharing key, so banks restored from one checkpoint share again.
        """
        self.snoop_filter.restore(state["filter"])
        self._import_filter()
        self.stats = CoverageStats(**state["stats"])
        self.allocs = state["allocs"]
        self.evicts = state["evicts"]
        self._phase_marks = [
            (index, tuple(totals))
            for index, totals in state.get("phases", ())
        ]

    # -- shared accounting helpers -------------------------------------

    def _flush_span(self, s: dict, filtered: int) -> None:
        stats = self.stats
        stats.snoops += s["n_snoops"]
        stats.snoop_would_hit += s["n_would_hit"]
        stats.snoop_would_miss += s["n_snoops"] - s["n_would_hit"]
        stats.filtered += filtered
        self.allocs += s["n_allocs"]
        self.evicts += s["n_evicts"]

    def _flush_prefix(self, s: dict, k: int, filtered: int) -> None:
        """Flush coverage for span events ``[0, k]`` before raising.

        Matches the oracle's ``finally`` flush: the erroring event's own
        kind tally (the snoop of a safety violation, the evict of an
        underflow) is already counted when the raise happens, while
        ``filtered`` covers only snoops strictly before it.
        """
        stats = self.stats
        snoops = int(s["snoop_m"][: k + 1].sum())
        would_hit = int(s["wh_m"][: k + 1].sum())
        stats.snoops += snoops
        stats.snoop_would_hit += would_hit
        stats.snoop_would_miss += snoops - would_hit
        stats.filtered += filtered
        self.allocs += int(s["alloc_m"][: k + 1].sum())
        self.evicts += int(s["evict_m"][: k + 1].sum())

    def _safety_error(self, block: int) -> FilterSafetyError:
        return FilterSafetyError(
            f"{self.snoop_filter.name} filtered a snoop for block "
            f"{block:#x} on node {self.node_id}, but the block "
            "is cached — JETTY safety guarantee violated"
        )

    def _span(self, segment: PackedSegment, lo: int, hi: int) -> None:
        raise NotImplementedError


class _IncludeReplayer(VectorReplayer):
    """Fully vectorised IJ replay — no per-event Python loop at all."""

    def _import_filter(self) -> None:
        super()._import_filter()
        self._lanes = _IncludeLanes(self.snoop_filter)

    def _filter_snapshot(self) -> dict:
        return _filter_state(
            self.snoop_filter.name, self.counts, self._lanes.state()
        )

    def _span(self, segment: PackedSegment, lo: int, hi: int) -> None:
        s = _span_stats(segment, lo, hi)
        lanes = self._lanes
        sp = lanes.span(segment, lo, hi)
        filtered_m = sp["filtered_m"]
        viol_k = -1
        viol = _np.flatnonzero(filtered_m & s["pbit"])
        if viol.size:
            viol_k = int(viol[0])
        under_k = sp["under_k"]
        # First error wins; pre-values (and thus both detections) are
        # exact up to the earlier of the two positions.
        if viol_k >= 0 and (under_k < 0 or viol_k < under_k):
            self._flush_prefix(s, viol_k, int(filtered_m[:viol_k].sum()))
            raise self._safety_error(int(s["blocks"][viol_k]))
        if under_k >= 0:
            self._flush_prefix(s, under_k, int(filtered_m[:under_k].sum()))
            raise lanes.underflow_error(int(s["blocks"][under_k]))
        filtered = sp["n_filtered"]
        self._flush_span(s, filtered)
        counts = self.counts
        counts.probes += s["n_snoops"]
        counts.filtered += filtered
        counts.cnt_updates += self.snoop_filter.n_arrays * (
            s["n_allocs"] + s["n_evicts"]
        )
        counts.pbit_writes += sp["pbw"]
        lanes.commit(s, sp)


class _ExcludeLoopReplayer(VectorReplayer):
    """Shared scaffolding for the kernels built around an exclude loop.

    Subclasses provide ``_dedup_pre_shift``/``_dedup_mask`` (the set
    grouping of the repeat-hit dedup) and ``_run_loop`` (the family
    loop), and get item extraction, dedup bookkeeping, violation
    position recovery, and prefix flushing here.

    The loop reports a safety violation by returning the violating
    block (or ``None``): violations happen only in the rare P1 branch,
    so the loop counts P1 items as it goes instead of tracking every
    item's index, and the violating item's span position is recovered
    afterwards from the precomputed P1 position list.
    """

    _dedup_pre_shift = 0
    _dedup_mask = 0

    def _dedup_items(self, segment, lo, hi, ij_ok_items=None):
        """Items with pure repeat-hits removed, plus dup positions.

        ``ij_ok_items`` (HJ only) further requires the *previous*
        same-set item to have passed the IJ — the condition under which
        the previous snoop is guaranteed to leave the block's entry at
        MRU whatever the exclude state was.
        """
        items = _span_items(segment, lo, hi)
        prev_it, cur_it = _span_pairs(
            segment, lo, hi, self._dedup_pre_shift, self._dedup_mask
        )
        if ij_ok_items is not None and prev_it.size:
            cur_it = cur_it[ij_ok_items[prev_it]]
        if cur_it.size:
            keep = _np.ones(items["b"].size, dtype=bool)
            keep[cur_it] = False
            b = items["b"][keep]
            code = items["code"][keep]
            pos = items["pos"][keep]
            dup_pos = items["pos"][cur_it]
            dup_pos.sort()
        else:
            b, code, pos = items["b"], items["code"], items["pos"]
            dup_pos = None
        return b, code, pos, dup_pos

    def _violation_pos(self, code, pos, p1_seen: int) -> int:
        """Span position of the ``p1_seen``-th P1 item (1-based)."""
        return int(pos[code == 1][p1_seen - 1])

    def _dups_before(self, dup_pos, k: int) -> int:
        if dup_pos is None:
            return 0
        return int(_np.searchsorted(dup_pos, k))

    def _set_groups(
        self, segment, lo, hi, b_arr, code, ok=None, memo: bool = True
    ) -> dict:
        """Group a span's residual items by set with one stable argsort.

        Returns ``gids`` (the set index of each group), ``bounds`` (group
        slice boundaries), and the item arrays permuted set-major —
        within a group, items keep their original relative order, which
        is all the per-set state machines can observe.  Memoised on the
        segment for the plain EJ/VEJ kernels (their dedup, and therefore
        their grouping, depends only on the set geometry); the hybrid
        kernel's dedup depends on IJ state, so it passes ``memo=False``.
        """

        def build() -> dict:
            idx = (
                (b_arr >> self._dedup_pre_shift) & self._dedup_mask
            ).astype(_np.uint16)
            order = _np.argsort(idx, kind="stable")
            idx_s = idx[order]
            n = idx_s.size
            if n == 0:
                record = {"gids": [], "bounds": [0], "b": [], "code": []}
                if ok is not None:
                    record["ok"] = []
                return record
            first = _np.empty(n, dtype=bool)
            first[0] = True
            _np.not_equal(idx_s[1:], idx_s[:-1], out=first[1:])
            fpos = _np.flatnonzero(first)
            bounds = fpos.tolist()
            bounds.append(n)
            # Plain Python lists: the group loops slice them directly
            # (C-level list slicing), and memoisation shares the one
            # conversion between every bank replaying the segment.
            record = {
                "gids": idx_s[fpos].tolist(),
                "bounds": bounds,
                "b": b_arr[order].tolist(),
                "code": code[order].tolist(),
            }
            if ok is not None:
                record["ok"] = ok[order].tolist()
            return record

        if memo:
            return segment.shared(
                ("exgroup", lo, hi, self._dedup_pre_shift, self._dedup_mask),
                build,
            )
        return build()


class _ExcludeReplayer(_ExcludeLoopReplayer):
    """EJ replay: per-set bounded MRU stacks over pre-extracted items.

    A stack holds the set's valid blocks in recency order; that is the
    whole observable state — snapshots place the entries in canonical
    ways (see :func:`_stack_state`).  Insertion on a full set pops the
    list tail (the LRU entry), allocation removes the block wherever it sits
    (the concrete array keeps the way's recency slot, but a slot only
    becomes observable once re-filled, at MRU).
    """

    def __init__(
        self, snoop_filter: ExcludeJetty, node_id: int, phase_names=()
    ) -> None:
        super().__init__(snoop_filter, node_id, phase_names)
        self._dedup_mask = snoop_filter._index_mask

    def _import_filter(self) -> None:
        super()._import_filter()
        self._stacks = _warm_stacks(self.snoop_filter)

    def _filter_snapshot(self) -> dict:
        ej = self.snoop_filter
        return _filter_state(
            ej.name, self.counts, _stack_state(self._stacks, ej.ways)
        )

    @staticmethod
    def _group_ej(stack: list, blist, clist, ways: int):
        """Run one set's items through its stack; ``None`` on violation."""
        entry_writes = filtered = 0
        for b, c in zip(blist, clist):
            if c == 0:  # P0 snoop
                if b in stack:
                    if stack[0] != b:
                        stack.remove(b)
                        stack.insert(0, b)
                    filtered += 1
                else:
                    if len(stack) == ways:
                        stack.pop()
                    stack.insert(0, b)
                    entry_writes += 1
            elif c == 2:  # alloc: invalidate any entry claiming absence
                if b in stack:
                    stack.remove(b)
                    entry_writes += 1
            else:  # P1 snoop: a hit would filter a cached block
                if b in stack:
                    return None
        return entry_writes, filtered

    def _sequential(self, blist, clist):
        """Original-order fallback for the violation post-mortem."""
        stacks = self._stacks
        smask = self._dedup_mask
        ways = self.snoop_filter.ways
        entry_writes = filtered = p1_seen = 0
        viol_b = None
        for b, c in zip(blist, clist):
            if c == 0:
                stack = stacks[b & smask]
                if b in stack:
                    if stack[0] != b:
                        stack.remove(b)
                        stack.insert(0, b)
                    filtered += 1
                else:
                    if len(stack) == ways:
                        stack.pop()
                    stack.insert(0, b)
                    entry_writes += 1
            elif c == 2:
                stack = stacks[b & smask]
                if b in stack:
                    stack.remove(b)
                    entry_writes += 1
            else:
                p1_seen += 1
                if b in stacks[b & smask]:
                    viol_b = b
                    break
        return viol_b, entry_writes, filtered, p1_seen

    def _span(self, segment: PackedSegment, lo: int, hi: int) -> None:
        s = _span_stats(segment, lo, hi)
        b_arr, code, pos, dup_pos = self._dedup_items(segment, lo, hi)
        groups = self._set_groups(segment, lo, hi, b_arr, code)
        stacks = self._stacks
        ways = self.snoop_filter.ways
        bounds = groups["bounds"]
        b_s, code_s = groups["b"], groups["code"]
        entry_writes = filtered = 0
        touched = []
        violated = False
        for gi, g in enumerate(groups["gids"]):
            stack = stacks[g]
            touched.append((g, stack.copy()))
            res = self._group_ej(
                stack,
                b_s[bounds[gi]:bounds[gi + 1]],
                code_s[bounds[gi]:bounds[gi + 1]],
                ways,
            )
            if res is None:
                violated = True
                break
            entry_writes += res[0]
            filtered += res[1]
        if violated:
            # Sets are independent, so a violation found group-wise is a
            # violation in original order too; restore the touched sets
            # and re-run sequentially for exact oracle error accounting.
            for g, saved in touched:
                stacks[g] = saved
            viol_b, entry_writes, filtered, p1_seen = self._sequential(
                b_arr.tolist(), code.tolist()
            )
            k = self._violation_pos(code, pos, p1_seen)
            self._flush_prefix(s, k, filtered + self._dups_before(dup_pos, k))
            raise self._safety_error(viol_b)
        if dup_pos is not None:
            filtered += dup_pos.size
        self._flush_span(s, filtered)
        counts = self.counts
        counts.probes += s["n_snoops"]
        counts.filtered += filtered
        counts.entry_writes += entry_writes


class _VectorExcludeReplayer(_ExcludeLoopReplayer):
    """VEJ replay: one insertion-ordered dict per set, MRU last.

    Same abstract-stack argument as the EJ, at chunk granularity — but a
    Python dict preserves insertion order, so one ``chunk -> vector``
    dict per set encodes recency *and* the presence vectors: the LRU
    chunk is the first key, a touch is pop-and-reinsert, and a value
    update in place (the alloc path) keeps the entry's recency slot just
    like the concrete array keeps an invalidated way's LRU slot.
    """

    def __init__(
        self, snoop_filter: VectorExcludeJetty, node_id: int, phase_names=()
    ) -> None:
        super().__init__(snoop_filter, node_id, phase_names)
        self._dedup_pre_shift = snoop_filter._vec_shift
        self._dedup_mask = snoop_filter._index_mask

    def _import_filter(self) -> None:
        super()._import_filter()
        self._vectors = _warm_vectors(self.snoop_filter)

    def _filter_snapshot(self) -> dict:
        vej = self.snoop_filter
        return _filter_state(
            vej.name, self.counts, _vectors_state(self._vectors, vej.ways)
        )

    @staticmethod
    def _group_vej(vecs: dict, blist, clist, vshift, vmask, ways):
        """Run one set's items through its dict; ``None`` on violation."""
        entry_writes = filtered = 0
        for b, c in zip(blist, clist):
            chunk = b >> vshift
            if c == 0:  # P0 snoop
                vector = vecs.pop(chunk, None)
                if vector is None:  # chunk miss: allocate a fresh entry
                    if len(vecs) == ways:
                        del vecs[next(iter(vecs))]
                    vecs[chunk] = 1 << (b & vmask)
                    entry_writes += 1
                else:  # chunk hit: the probe touches LRU either way
                    bit = 1 << (b & vmask)
                    if vector & bit:
                        vecs[chunk] = vector
                        filtered += 1
                    else:
                        vecs[chunk] = vector | bit
                        entry_writes += 1
            elif c == 2:  # alloc: clear the PV bit (safety-critical)
                vector = vecs.get(chunk)
                if vector is not None:
                    vector &= ~(1 << (b & vmask))
                    if vector == 0:
                        del vecs[chunk]
                    else:
                        vecs[chunk] = vector
                    entry_writes += 1
            else:  # P1 snoop
                vector = vecs.pop(chunk, None)
                if vector is not None:
                    vecs[chunk] = vector
                    if vector & (1 << (b & vmask)):
                        return None
        return entry_writes, filtered

    def _sequential(self, blist, clist):
        """Original-order fallback for the violation post-mortem."""
        snoop_filter = self.snoop_filter
        vectors = self._vectors
        vshift = snoop_filter._vec_shift
        vmask = snoop_filter._vec_mask
        smask = self._dedup_mask
        ways = snoop_filter.ways
        entry_writes = filtered = p1_seen = 0
        viol_b = None
        for b, c in zip(blist, clist):
            chunk = b >> vshift
            vecs = vectors[chunk & smask]
            if c == 0:
                vector = vecs.pop(chunk, None)
                if vector is None:
                    if len(vecs) == ways:
                        del vecs[next(iter(vecs))]
                    vecs[chunk] = 1 << (b & vmask)
                    entry_writes += 1
                else:
                    bit = 1 << (b & vmask)
                    if vector & bit:
                        vecs[chunk] = vector
                        filtered += 1
                    else:
                        vecs[chunk] = vector | bit
                        entry_writes += 1
            elif c == 2:
                vector = vecs.get(chunk)
                if vector is not None:
                    vector &= ~(1 << (b & vmask))
                    if vector == 0:
                        del vecs[chunk]
                    else:
                        vecs[chunk] = vector
                    entry_writes += 1
            else:
                p1_seen += 1
                vector = vecs.pop(chunk, None)
                if vector is not None:
                    vecs[chunk] = vector
                    if vector & (1 << (b & vmask)):
                        viol_b = b
                        break
        return viol_b, entry_writes, filtered, p1_seen

    def _span(self, segment: PackedSegment, lo: int, hi: int) -> None:
        s = _span_stats(segment, lo, hi)
        b_arr, code, pos, dup_pos = self._dedup_items(segment, lo, hi)
        snoop_filter = self.snoop_filter
        groups = self._set_groups(segment, lo, hi, b_arr, code)
        vectors = self._vectors
        vshift = snoop_filter._vec_shift
        vmask = snoop_filter._vec_mask
        ways = snoop_filter.ways
        bounds = groups["bounds"]
        b_s, code_s = groups["b"], groups["code"]
        entry_writes = filtered = 0
        touched = []
        violated = False
        for gi, g in enumerate(groups["gids"]):
            vecs = vectors[g]
            touched.append((g, dict(vecs)))
            res = self._group_vej(
                vecs,
                b_s[bounds[gi]:bounds[gi + 1]],
                code_s[bounds[gi]:bounds[gi + 1]],
                vshift, vmask, ways,
            )
            if res is None:
                violated = True
                break
            entry_writes += res[0]
            filtered += res[1]
        if violated:
            for g, saved in touched:
                vectors[g] = saved
            viol_b, entry_writes, filtered, p1_seen = self._sequential(
                b_arr.tolist(), code.tolist()
            )
            k = self._violation_pos(code, pos, p1_seen)
            self._flush_prefix(s, k, filtered + self._dups_before(dup_pos, k))
            raise self._safety_error(viol_b)
        if dup_pos is not None:
            filtered += dup_pos.size
        self._flush_span(s, filtered)
        counts = self.counts
        counts.probes += s["n_snoops"]
        counts.filtered += filtered
        counts.entry_writes += entry_writes


class _HybridReplayer(_ExcludeLoopReplayer):
    """HJ replay: vectorised IJ lanes feeding the exclude loop.

    The IJ verdict for every snoop comes out of the lane machinery as a
    boolean array; the exclude loop then owns all order-dependent state
    *and* the hybrid's filtered accounting (a snoop is filtered unless
    both components pass).  ``filtered``/``probes`` count the hybrid,
    ``entry_writes`` the exclude component, ``cnt_updates``/
    ``pbit_writes`` the include component — exactly the composition of
    :meth:`repro.core.hybrid.HybridJetty.energy_counts`.

    An IJ underflow truncates the loop at the underflow position so the
    oracle's first-error-wins ordering holds: a safety violation earlier
    in the span raises first, one later never gets the chance.

    Snapshots also need the components' own ``filtered`` counts, which
    the energy counts do not carry: ``_ij_filtered`` (snoops the IJ
    filters) and ``_ej_filtered`` (snoops that hit the exclude side).
    """

    def __init__(
        self, snoop_filter: HybridJetty, node_id: int, phase_names=()
    ) -> None:
        exclude = snoop_filter.exclude
        self._vej = type(exclude) is VectorExcludeJetty
        super().__init__(snoop_filter, node_id, phase_names)
        if self._vej:
            self._dedup_pre_shift = exclude._vec_shift
        self._dedup_mask = exclude._index_mask

    def _import_filter(self) -> None:
        super()._import_filter()
        include, exclude = self.snoop_filter.include, self.snoop_filter.exclude
        self._lanes = _IncludeLanes(include)
        if self._vej:
            self._vectors = _warm_vectors(exclude)
        else:
            self._stacks = _warm_stacks(exclude)
        self._ij_filtered = include.counts.filtered
        self._ej_filtered = exclude.counts.filtered

    def _reset_counts(self) -> None:
        super()._reset_counts()
        self._ij_filtered = self._ej_filtered = 0

    def _filter_snapshot(self) -> dict:
        include, exclude = self.snoop_filter.include, self.snoop_filter.exclude
        counts = self.counts
        exclude_state = (
            _vectors_state(self._vectors, exclude.ways) if self._vej
            else _stack_state(self._stacks, exclude.ways)
        )
        # Both components are probed on every HJ snoop; storage updates
        # live in the components, the hybrid itself counts only lookups.
        return _filter_state(
            self.snoop_filter.name,
            FilterEventCounts(probes=counts.probes, filtered=counts.filtered),
            {
                "include": _filter_state(
                    include.name,
                    FilterEventCounts(
                        probes=counts.probes,
                        filtered=self._ij_filtered,
                        cnt_updates=counts.cnt_updates,
                        pbit_writes=counts.pbit_writes,
                    ),
                    self._lanes.state(),
                ),
                "exclude": _filter_state(
                    exclude.name,
                    FilterEventCounts(
                        probes=counts.probes,
                        filtered=self._ej_filtered,
                        entry_writes=counts.entry_writes,
                    ),
                    exclude_state,
                ),
            },
        )

    def _span(self, segment: PackedSegment, lo: int, hi: int) -> None:
        s = _span_stats(segment, lo, hi)
        lanes = self._lanes
        sp = lanes.span(segment, lo, hi)
        all_pass = sp["all_pass"]
        under_k = sp["under_k"]
        items = _span_items(segment, lo, hi)
        ij_ok_items = all_pass[items["pos"]]
        b_arr, code, pos, dup_pos = self._dedup_items(
            segment, lo, hi, ij_ok_items=ij_ok_items
        )
        ij_ok = all_pass[pos]
        if under_k >= 0:
            # Only items before the underflow run through the loop.
            stop = int(_np.searchsorted(pos, under_k))
        else:
            stop = b_arr.size
        # The dedup (and so the residual item set) depends on IJ state,
        # which differs between spans — the grouping cannot be memoised.
        groups = self._set_groups(
            segment, lo, hi,
            b_arr[:stop], code[:stop], ok=ij_ok[:stop], memo=False,
        )
        bounds = groups["bounds"]
        b_s, code_s, ok_s = groups["b"], groups["code"], groups["ok"]
        exclude = self.snoop_filter.exclude
        state = self._vectors if self._vej else self._stacks
        entry_writes = filtered = ej_hits = 0
        touched = []
        violated = False
        for gi, g in enumerate(groups["gids"]):
            blist = b_s[bounds[gi]:bounds[gi + 1]]
            clist = code_s[bounds[gi]:bounds[gi + 1]]
            oklist = ok_s[bounds[gi]:bounds[gi + 1]]
            if self._vej:
                vecs = state[g]
                touched.append((g, dict(vecs)))
                res = self._group_hvej(
                    vecs, blist, clist, oklist,
                    exclude._vec_shift, exclude._vec_mask, exclude.ways,
                )
            else:
                stack = state[g]
                touched.append((g, stack.copy()))
                res = self._group_hej(stack, blist, clist, oklist,
                                      exclude.ways)
            if res is None:
                violated = True
                break
            entry_writes += res[0]
            filtered += res[1]
            ej_hits += res[2]
        if violated:
            for g, saved in touched:
                state[g] = saved
            loop = self._loop_vej if self._vej else self._loop_ej
            viol_b, entry_writes, filtered, p1_seen = loop(
                b_arr[:stop].tolist(),
                code[:stop].tolist(),
                ij_ok[:stop].tolist(),
            )
            k = self._violation_pos(code, pos, p1_seen)
            self._flush_prefix(s, k, filtered + self._dups_before(dup_pos, k))
            raise self._safety_error(viol_b)
        if under_k >= 0:
            filtered += self._dups_before(dup_pos, under_k)
            self._flush_prefix(s, under_k, filtered)
            raise lanes.underflow_error(int(s["blocks"][under_k]))
        if dup_pos is not None:
            # Every deduplicated repeat is an exclude-side hit.
            filtered += dup_pos.size
            ej_hits += dup_pos.size
        self._flush_span(s, filtered)
        self._ij_filtered += sp["n_filtered"]
        self._ej_filtered += ej_hits
        counts = self.counts
        counts.probes += s["n_snoops"]
        counts.filtered += filtered
        counts.entry_writes += entry_writes
        counts.cnt_updates += lanes.include.n_arrays * (
            s["n_allocs"] + s["n_evicts"]
        )
        counts.pbit_writes += sp["pbw"]
        lanes.commit(s, sp)

    @staticmethod
    def _group_hej(stack: list, blist, clist, oklist, ways: int):
        """One set's items through the HJ(EJ) machine; None = violation.

        Returns ``(entry_writes, filtered, ej_hits)``; the hybrid filters
        on an exclude hit or, failing that, an IJ miss.
        """
        entry_writes = ej_hits = ij_only = 0
        for b, c, ok in zip(blist, clist, oklist):
            if c == 0:  # P0 snoop
                if b in stack:  # EJ hit filters the hybrid, IJ moot
                    if stack[0] != b:
                        stack.remove(b)
                        stack.insert(0, b)
                    ej_hits += 1
                elif ok:  # both passed: the outcome allocates an entry
                    if len(stack) == ways:
                        stack.pop()
                    stack.insert(0, b)
                    entry_writes += 1
                else:  # IJ filtered; EJ learns nothing
                    ij_only += 1
            elif c == 2:  # alloc
                if b in stack:
                    stack.remove(b)
                    entry_writes += 1
            else:  # P1 snoop: filtering from either side is a violation
                if b in stack or not ok:
                    return None
        return entry_writes, ej_hits + ij_only, ej_hits

    @staticmethod
    def _group_hvej(vecs: dict, blist, clist, oklist, vshift, vmask, ways):
        """One set's items through the HJ(VEJ) machine; None = violation.

        Returns ``(entry_writes, filtered, ej_hits)`` like ``_group_hej``.
        """
        entry_writes = ej_hits = ij_only = 0
        for b, c, ok in zip(blist, clist, oklist):
            chunk = b >> vshift
            if c == 0:  # P0 snoop
                vector = vecs.pop(chunk, None)
                if vector is not None:  # chunk hit: the probe touches
                    bit = 1 << (b & vmask)
                    if vector & bit:
                        vecs[chunk] = vector
                        ej_hits += 1
                    elif ok:
                        vecs[chunk] = vector | bit
                        entry_writes += 1
                    else:  # IJ filtered; the touch still happened
                        vecs[chunk] = vector
                        ij_only += 1
                elif ok:
                    if len(vecs) == ways:
                        del vecs[next(iter(vecs))]
                    vecs[chunk] = 1 << (b & vmask)
                    entry_writes += 1
                else:
                    ij_only += 1
            elif c == 2:  # alloc
                vector = vecs.get(chunk)
                if vector is not None:
                    vector &= ~(1 << (b & vmask))
                    if vector == 0:
                        del vecs[chunk]
                    else:
                        vecs[chunk] = vector
                    entry_writes += 1
            else:  # P1 snoop
                vector = vecs.pop(chunk, None)
                if vector is not None:
                    vecs[chunk] = vector
                    if vector & (1 << (b & vmask)):
                        return None
                if not ok:
                    return None
        return entry_writes, ej_hits + ij_only, ej_hits

    def _loop_ej(self, blist, clist, oklist):
        stacks = self._stacks
        smask = self._dedup_mask
        ways = self.snoop_filter.exclude.ways
        entry_writes = filtered = p1_seen = 0
        viol_b = None
        for b, c, ok in zip(blist, clist, oklist):
            if c == 0:  # P0 snoop
                stack = stacks[b & smask]
                if b in stack:  # EJ hit filters the hybrid, IJ moot
                    if stack[0] != b:
                        stack.remove(b)
                        stack.insert(0, b)
                    filtered += 1
                elif ok:  # both passed: the outcome allocates an entry
                    if len(stack) == ways:
                        stack.pop()
                    stack.insert(0, b)
                    entry_writes += 1
                else:  # IJ filtered; EJ learns nothing
                    filtered += 1
            elif c == 2:  # alloc
                stack = stacks[b & smask]
                if b in stack:
                    stack.remove(b)
                    entry_writes += 1
            else:  # P1 snoop: filtering from either side is a violation
                p1_seen += 1
                if b in stacks[b & smask] or not ok:
                    viol_b = b
                    break
        return viol_b, entry_writes, filtered, p1_seen

    def _loop_vej(self, blist, clist, oklist):
        exclude = self.snoop_filter.exclude
        vectors = self._vectors
        vshift = exclude._vec_shift
        vmask = exclude._vec_mask
        smask = self._dedup_mask
        ways = exclude.ways
        entry_writes = filtered = p1_seen = 0
        viol_b = None
        for b, c, ok in zip(blist, clist, oklist):
            chunk = b >> vshift
            vecs = vectors[chunk & smask]
            if c == 0:  # P0 snoop
                vector = vecs.pop(chunk, None)
                if vector is not None:  # chunk hit: the probe touches
                    bit = 1 << (b & vmask)
                    if vector & bit:
                        vecs[chunk] = vector
                        filtered += 1
                    elif ok:
                        vecs[chunk] = vector | bit
                        entry_writes += 1
                    else:  # IJ filtered; the touch still happened
                        vecs[chunk] = vector
                        filtered += 1
                elif ok:
                    if len(vecs) == ways:
                        del vecs[next(iter(vecs))]
                    vecs[chunk] = 1 << (b & vmask)
                    entry_writes += 1
                else:
                    filtered += 1
            elif c == 2:  # alloc
                vector = vecs.get(chunk)
                if vector is not None:
                    vector &= ~(1 << (b & vmask))
                    if vector == 0:
                        del vecs[chunk]
                    else:
                        vecs[chunk] = vector
                    entry_writes += 1
            else:  # P1 snoop
                p1_seen += 1
                vector = vecs.pop(chunk, None)
                if vector is not None:
                    vecs[chunk] = vector
                    if vector & (1 << (b & vmask)):
                        viol_b = b
                        break
                if not ok:
                    viol_b = b
                    break
        return viol_b, entry_writes, filtered, p1_seen
