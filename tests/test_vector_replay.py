"""Oracle-parity suite for the vectorised NumPy replay kernels.

The vector kernels (:mod:`repro.core.vector_replay`) are exact
re-implementations, not approximations: for every supported filter
family they must reproduce the per-event Python oracle
(:class:`~repro.core.stats.EventReplayer`) **byte for byte** — the same
encoded :class:`~repro.core.stats.FilterEvaluation` payload for any
batch size, the same exception type/message/flushed statistics on a
safety violation or IJ underflow, and MARKER warm-up resets anywhere in
a batch.  Unsupported families must *fall back* to the oracle rather
than silently vectorise.

Everything here also runs (reduced) on a NumPy-free interpreter: the
fallback-selection and python-kernel cases need no NumPy at all, which
is the CI job proving the optional dependency really is optional.
"""

from __future__ import annotations

import pytest

from repro.analysis import runner
from repro.analysis import store as store_mod
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM
from repro.core import vector_replay
from repro.core.config import build_filter
from repro.core.exclude import ExcludeJetty
from repro.core.stats import (
    ALLOC,
    EVICT,
    EventReplayer,
    MARKER,
    PHASE_FLAG,
    PackedSegment,
    REPLAY_KERNELS,
    SNOOP,
    StreamingFilterBank,
    pack_event,
)
from repro.traces.suite import Phase, Suite
from repro.errors import (
    CoherenceError,
    ConfigurationError,
    FilterSafetyError,
)
from repro.traces.workloads import WORKLOADS, PaperReference, WorkloadSpec

requires_numpy = pytest.mark.skipif(
    not vector_replay.numpy_available(),
    reason="the vector kernels need NumPy",
)

#: One member of each supported family, both hybrid flavours included.
PARITY_FILTERS = (
    "EJ-16x2",
    "VEJ-16x2-4",
    "IJ-8x4x7",
    "HJ(IJ-8x4x7, EJ-16x2)",
    "HJ(IJ-8x4x7, VEJ-16x2-4)",
)

#: Feeding batch sizes: tiny (every span crosses many batches), prime
#: (boundaries never align with anything), and one full trace segment.
CHUNK_SIZES = (512, 1_777, 1 << 18)

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

#: The golden miniatures (mirrors ``test_golden_metrics``): the two ends
#: of the snoop-locality spectrum, with warm-up MARKERs mid-stream.
GOLDEN_WORKLOADS = (
    WorkloadSpec(
        name="vector-golden-mix",
        abbrev="vm",
        description="parity miniature: private sets with pairwise hand-off",
        paper=_PAPER,
        n_accesses=4_000,
        warmup_accesses=1_000,
        repeat_frac=0.2,
        recipe=(
            ("private", dict(weight=0.7, ws_bytes=96 * 1024, alpha=1.5)),
            ("producer_consumer", dict(weight=0.3, n_pairs=2,
                                       buffer_bytes=4096)),
        ),
    ),
    WorkloadSpec(
        name="vector-golden-stream",
        abbrev="vs",
        description="parity miniature: streaming sweeps with migration",
        paper=_PAPER,
        n_accesses=4_000,
        warmup_accesses=1_000,
        repeat_frac=0.1,
        recipe=(
            ("streaming", dict(weight=0.6, partition_bytes=64 * 1024,
                               remote_frac=0.1)),
            ("migratory", dict(weight=0.3, n_objects=24)),
            ("shared_readonly", dict(weight=0.1, region_bytes=8 * 1024)),
        ),
    ),
)


#: A two-phase suite miniature: its simulated event streams carry PHASE
#: markers mid-stream (the whole trace is far below one 2^18 trace
#: segment, so every boundary lands *inside* a segment).
SUITE_SPEC = Suite(
    [Phase("fill", "zipf-hot", 1_500), Phase("drain", "scan-stream", 2_500)],
    name="vector-suite",
    warmup_accesses=1_000,
)


@pytest.fixture(scope="module")
def suite_streams():
    """Per-node event streams of the suite miniature (PHASE markers in)."""
    return runner.compute_sim(SUITE_SPEC, SCALED_SYSTEM, 1).event_streams


@pytest.fixture(scope="module")
def golden_streams():
    """``workload -> per-node event streams`` for the golden miniatures."""
    for spec in GOLDEN_WORKLOADS:
        WORKLOADS[spec.name] = spec
    try:
        yield {
            spec.name: runner.compute_sim(
                spec, SCALED_SYSTEM, 1
            ).event_streams
            for spec in GOLDEN_WORKLOADS
        }
    finally:
        for spec in GOLDEN_WORKLOADS:
            del WORKLOADS[spec.name]


def _replay_bytes(filter_name, streams, kernel, chunk, phase_names=()):
    """Encoded evaluation of one filter over per-node streams, batched."""
    bank = StreamingFilterBank(
        runner._build_filters(filter_name, SCALED_SYSTEM), kernel=kernel,
        phase_names=phase_names,
    )
    for node_id, stream in enumerate(streams):
        events = stream.events
        for lo in range(0, len(events), chunk):
            bank.feed_node(node_id, events[lo:lo + chunk])
    return store_mod.encode_eval(bank.finish())


def _single_filter(name: str):
    return build_filter(
        name,
        counter_bits=SCALED_SYSTEM.ij_counter_bits,
        addr_bits=SCALED_SYSTEM.block_address_bits,
    )


def _snoop(block, would_hit=False, present=False):
    return pack_event(SNOOP, block, (2 if present else 0) | (1 if would_hit else 0))


# ----------------------------------------------------------------------
# Byte-identity against the oracle
# ----------------------------------------------------------------------

@requires_numpy
class TestOracleParity:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_golden_byte_identity(self, golden_streams, filter_name, chunk):
        """Every family, every golden, every batch size: identical bytes."""
        for workload, streams in golden_streams.items():
            oracle = _replay_bytes(filter_name, streams, "python", chunk)
            vector = _replay_bytes(filter_name, streams, "numpy", chunk)
            assert vector == oracle, (workload, filter_name, chunk)

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_batch_boundaries_never_matter(self, golden_streams, filter_name):
        """The numpy kernel is batch-size invariant, like the oracle."""
        streams = next(iter(golden_streams.values()))
        payloads = {
            _replay_bytes(filter_name, streams, "numpy", chunk)
            for chunk in CHUNK_SIZES
        }
        assert len(payloads) == 1

    def test_widest_ij_lanes_stay_exact(self, golden_streams):
        """16-bit lane indexes (the widest the kernel takes) sort exactly."""
        name = "IJ-16x3x5"
        assert vector_replay.replayer_for(_single_filter(name), 0) is not None
        for streams in golden_streams.values():
            assert _replay_bytes(name, streams, "numpy", 1_777) == (
                _replay_bytes(name, streams, "python", 1_777)
            )

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_marker_mid_segment(self, filter_name):
        """A warm-up MARKER inside one batch resets stats, keeps state."""
        block = 0x40
        events = [
            _snoop(block),          # miss -> EJ-side entry allocated
            _snoop(block),          # hit -> filtered (EJ families)
            pack_event(ALLOC, 0x81),
            pack_event(MARKER, 0),
            _snoop(block),          # state persisted across the marker
            pack_event(EVICT, 0x81),
            _snoop(block + 16),
        ]
        oracle = EventReplayer(_single_filter(filter_name), 0)
        oracle.feed(events)
        vector = vector_replay.replayer_for(_single_filter(filter_name), 0)
        assert vector is not None
        vector.feed(events)
        assert store_mod.encode_eval(vector.finish()) == (
            store_mod.encode_eval(oracle.finish())
        )
        # Post-marker tallies only.
        assert vector.stats.snoops == 2
        assert vector.allocs == 0 and vector.evicts == 1

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_phase_marker_mid_segment(self, suite_streams, filter_name, chunk):
        """PHASE markers inside a segment: identical bytes, phases split."""
        names = SUITE_SPEC.phase_names()
        oracle = _replay_bytes(filter_name, suite_streams, "python", chunk,
                               names)
        vector = _replay_bytes(filter_name, suite_streams, "numpy", chunk,
                               names)
        assert vector == oracle, (filter_name, chunk)
        evaluation = store_mod.decode_eval(vector)
        # Canonical encoding sorts keys; consumers look phases up by name.
        assert set(evaluation.phases) == set(names)
        split = sum(p.coverage.snoops for p in evaluation.phases.values())
        assert split == evaluation.coverage.snoops

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_phase_boundary_exactly_at_segment_cut(self, filter_name):
        """PHASE markers as a batch's last/first event: cut-invariant."""
        block = 0x40
        batches = [
            # Warm-up reset then PHASE(0), both flush at the cut itself.
            [_snoop(block), pack_event(ALLOC, 0x81), pack_event(MARKER, 0),
             pack_event(MARKER, 0, PHASE_FLAG)],
            # PHASE(1) lands exactly at the *end* of this batch.
            [_snoop(block), _snoop(block),
             pack_event(MARKER, 1, PHASE_FLAG)],
            [_snoop(block + 16), pack_event(EVICT, 0x81),
             _snoop(block + 16)],
        ]
        names = ("first", "second")
        oracle = EventReplayer(_single_filter(filter_name), 0, names)
        vector = vector_replay.replayer_for(
            _single_filter(filter_name), 0, names
        )
        assert vector is not None
        for batch in batches:
            oracle.feed(list(batch))
            vector.feed(list(batch))
        oracle_eval, vector_eval = oracle.finish(), vector.finish()
        assert store_mod.encode_eval(vector_eval) == (
            store_mod.encode_eval(oracle_eval)
        )
        assert vector_eval.phases["first"].coverage.snoops == 2
        assert vector_eval.phases["second"].coverage.snoops == 2
        assert vector_eval.phases["second"].evicts == 1
        # The warm-up MARKER right before PHASE(0) cleared pre-phase
        # tallies: totals equal the per-phase sums.
        assert vector_eval.coverage.snoops == 4


# ----------------------------------------------------------------------
# Error parity: same exception, same message, same flushed statistics
# ----------------------------------------------------------------------

@requires_numpy
class TestErrorParity:
    def _both(self, filter_name, events):
        """Feed both kernels; return (oracle, vector, exceptions)."""
        oracle = EventReplayer(_single_filter(filter_name), 3)
        vector = vector_replay.replayer_for(_single_filter(filter_name), 3)
        assert vector is not None
        excs = []
        for replayer in (oracle, vector):
            with pytest.raises((FilterSafetyError, CoherenceError)) as info:
                replayer.feed(list(events))
            excs.append(info.value)
        return oracle, vector, excs

    @pytest.mark.parametrize(
        "filter_name",
        ("EJ-16x2", "VEJ-16x2-4", "HJ(IJ-8x4x7, EJ-16x2)",
         "HJ(IJ-8x4x7, VEJ-16x2-4)"),
    )
    def test_safety_violation_parity(self, filter_name):
        """Filtering a snoop for a cached block raises identically."""
        block = 0x40
        events = [
            _snoop(block),                 # allocates the exclude entry
            _snoop(0x200),                 # unrelated traffic before the raise
            _snoop(block),                 # repeat hit: filtered
            _snoop(block, present=True),   # cached block would be filtered
            _snoop(0x300),                 # must never be consumed
        ]
        oracle, vector, (e1, e2) = self._both(filter_name, events)
        assert type(e1) is FilterSafetyError and type(e2) is FilterSafetyError
        assert str(e1) == str(e2)
        assert f"block {block:#x} on node 3" in str(e2)
        assert vars(vector.stats) == vars(oracle.stats)
        assert vector.stats.snoops == 4  # the violating snoop is tallied
        assert (vector.allocs, vector.evicts) == (oracle.allocs, oracle.evicts)

    @pytest.mark.parametrize(
        "filter_name", ("IJ-8x4x7", "HJ(IJ-8x4x7, EJ-16x2)")
    )
    def test_ij_underflow_parity(self, filter_name):
        """An EVICT with no matching ALLOC raises identically."""
        events = [
            pack_event(ALLOC, 0x90),
            _snoop(0x90, present=True),    # IJ passes: the block is present
            pack_event(EVICT, 0x90),
            pack_event(EVICT, 0x90),       # second evict underflows
            _snoop(0x123),                 # must never be consumed
        ]
        oracle, vector, (e1, e2) = self._both(filter_name, events)
        assert type(e1) is CoherenceError and type(e2) is CoherenceError
        assert "IJ counter underflow" in str(e2)
        assert str(e1) == str(e2)
        assert vars(vector.stats) == vars(oracle.stats)
        assert (vector.allocs, vector.evicts) == (1, 2)
        assert (oracle.allocs, oracle.evicts) == (1, 2)


# ----------------------------------------------------------------------
# Regression: the oracle itself must flush locals when it raises
# ----------------------------------------------------------------------

class TestOracleFlushOnRaise:
    def test_stats_survive_a_mid_batch_safety_violation(self):
        """``EventReplayer.feed`` once dropped every locally-accumulated
        counter when a safety violation raised mid-batch; post-mortem
        state must reflect all events consumed up to (and including) the
        violating snoop."""
        replayer = EventReplayer(_single_filter("EJ-16x2"), 0)
        block = 0x40
        with pytest.raises(FilterSafetyError):
            replayer.feed([
                _snoop(block),                # allocates the entry
                _snoop(block),                # filtered
                pack_event(ALLOC, 0x999),
                _snoop(block),                # entry untouched: filtered again
                _snoop(block, present=True),  # violation
            ])
        assert replayer.stats.snoops == 4
        assert replayer.stats.snoop_would_miss == 4
        assert replayer.stats.filtered == 2
        assert replayer.allocs == 1

    def test_stats_survive_a_hook_error(self):
        """Any mid-batch raise flushes — not just safety violations."""
        class Exploding(ExcludeJetty):
            def _on_block_allocated(self, blk):
                raise RuntimeError("boom")

        replayer = EventReplayer(Exploding(16, 2), 0)
        with pytest.raises(RuntimeError):
            replayer.feed([_snoop(0x40), _snoop(0x50), pack_event(ALLOC, 0x40)])
        assert replayer.stats.snoops == 2
        assert replayer.allocs == 1


# ----------------------------------------------------------------------
# Grouped per-set loops: error ordering and fast-forward warm starts
# ----------------------------------------------------------------------

@requires_numpy
class TestGroupedLoopErrorOrder:
    """The EJ/VEJ kernels replay residual items set by set; a violation
    discovered group-wise must still surface as the *original-order
    first* violation — the grouped pass restores the touched sets and
    re-runs sequentially for oracle-exact error accounting."""

    @pytest.mark.parametrize(
        "filter_name",
        ("EJ-16x2", "VEJ-16x2-4", "HJ(IJ-8x4x7, EJ-16x2)",
         "HJ(IJ-8x4x7, VEJ-16x2-4)"),
    )
    def test_interleaved_per_set_violations(self, filter_name):
        # Two violating sets: the lower-indexed set's group is processed
        # first, but its violation comes *later* in stream order.
        high, low = 0x409, 0x102
        events = [
            _snoop(high),                 # allocates in the high set
            _snoop(low),                  # allocates in the low set
            _snoop(0x209),                # extra traffic in the high set
            _snoop(high, present=True),   # the stream-order-first violation
            _snoop(low, present=True),    # group-order-first violation
            _snoop(0x300),                # must never be consumed
        ]
        oracle = EventReplayer(_single_filter(filter_name), 1)
        vector = vector_replay.replayer_for(_single_filter(filter_name), 1)
        assert vector is not None
        messages = []
        for replayer in (oracle, vector):
            with pytest.raises(FilterSafetyError) as info:
                replayer.feed(list(events))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert f"block {high:#x}" in messages[1]
        assert vars(vector.stats) == vars(oracle.stats)
        assert vector.stats.snoops == 4  # flushed up to the first violation


@requires_numpy
class TestWarmStartParity:
    """Restoring a warmed snapshot into fresh filters (the fast-forward
    replay path) must reproduce the cold full-stream feed byte for byte,
    on the oracle and on the vector kernels alike."""

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_fast_forward_equals_full_feed(self, golden_streams, filter_name):
        marker = pack_event(MARKER, 0)
        for streams in golden_streams.values():
            for node_id, stream in enumerate(streams[:2]):
                events = list(stream.events)
                cut = events.index(marker) + 1
                warm, measured = events[:cut], events[cut:]

                full = EventReplayer(_single_filter(filter_name), node_id)
                full.feed(list(events))
                expected = store_mod.encode_eval(full.finish())

                # Warm through the MARKER (stats reset, state kept),
                # snapshot, restore into fresh filters — exactly what a
                # measured-only record + replay does.
                warmer = EventReplayer(_single_filter(filter_name), node_id)
                warmer.feed(list(warm))
                state = warmer.snoop_filter.snapshot()

                for make in (EventReplayer, vector_replay.replayer_for):
                    fresh = _single_filter(filter_name)
                    fresh.restore(state)
                    replayer = make(fresh, node_id)
                    assert replayer is not None
                    replayer.feed(list(measured))
                    assert store_mod.encode_eval(replayer.finish()) == (
                        expected
                    ), (filter_name, node_id, make)


# ----------------------------------------------------------------------
# Checkpoints across kernels
# ----------------------------------------------------------------------

def _cut_points(events) -> dict:
    """Snapshot positions: right after the warm-up MARKER, and midway
    between the first PHASE marker and the next (or the end)."""
    kinds = [(i, e) for i, e in enumerate(events) if e & 3 == MARKER]
    warm = next(i for i, e in kinds if not e & 0b1100)
    phases = [i for i, e in kinds if e & 0b1100] + [len(events)]
    return {
        "after-marker": warm + 1,
        "mid-phase": (phases[0] + phases[1]) // 2,
    }


def _bank(name, kernel, phase_names):
    return StreamingFilterBank(
        runner._build_filters(name, SCALED_SYSTEM), kernel=kernel,
        phase_names=phase_names,
    )


def _feed_range(bank, streams, lo_of, hi_of, chunk=1_777):
    for node_id, stream in enumerate(streams):
        events = stream.events
        for lo in range(lo_of(events), hi_of(events), chunk):
            bank.feed_node(
                node_id, events[lo:min(lo + chunk, hi_of(events))]
            )


def _through_checkpoint(state):
    """What a checkpoint row stores and loads back."""
    blob = store_mod.encode_checkpoint({"banks": state})
    return store_mod.decode_checkpoint(blob)["banks"]


@requires_numpy
class TestCrossKernelCheckpoint:
    """A bank snapshot taken on one kernel resumes on the other and
    finishes with the uninterrupted evaluation's exact bytes."""

    @pytest.mark.parametrize("cut", ("after-marker", "mid-phase"))
    @pytest.mark.parametrize(
        "first, second", (("numpy", "python"), ("python", "numpy"))
    )
    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_round_trip_matches_uninterrupted(
        self, suite_streams, filter_name, first, second, cut
    ):
        names = SUITE_SPEC.phase_names()
        expected = _replay_bytes(filter_name, suite_streams, "python", 1_777,
                                 names)

        def at(events):
            return _cut_points(list(events))[cut]

        before = _bank(filter_name, first, names)
        _feed_range(before, suite_streams, lambda e: 0, at)
        state = _through_checkpoint(before.snapshot())
        after = _bank(filter_name, second, names)
        after.restore(state)
        _feed_range(after, suite_streams, at, len)
        assert store_mod.encode_eval(after.finish()) == expected
        # Checkpoint bytes agree too, up to the exclude ways' placement:
        # re-exporting the oracle's snapshot through a vector bank
        # canonicalises it.
        oracle = _bank(filter_name, "python", names)
        _feed_range(oracle, suite_streams, lambda e: 0, at)
        canonical = _bank(filter_name, "numpy", names)
        canonical.restore(oracle.snapshot())
        vector = _bank(filter_name, "numpy", names)
        _feed_range(vector, suite_streams, lambda e: 0, at)
        assert vector.snapshot() == canonical.snapshot()

    def test_ij_snapshots_are_byte_identical(self, suite_streams):
        """Lane counters have no placement freedom: identical snapshots."""
        snapshots = []
        for kernel in ("python", "numpy"):
            bank = _bank("IJ-8x4x7", kernel, ())
            _feed_range(bank, suite_streams, lambda e: 0,
                        lambda e: len(e) // 2)
            snapshots.append(
                store_mod.encode_checkpoint({"banks": bank.snapshot()})
            )
        assert snapshots[0] == snapshots[1]

    def test_restored_ij_and_hj_banks_share_lanes_again(self, suite_streams):
        """IJ and HJ banks restored from one checkpoint re-seed one lane
        key, so they share one span evaluation per segment again."""
        names = ("IJ-8x4x7", "HJ(IJ-8x4x7, EJ-16x2)")
        half = lambda events: len(events) // 2  # noqa: E731
        checkpoint = {}
        for name in names:
            bank = _bank(name, "numpy", ())
            _feed_range(bank, suite_streams, lambda e: 0, half)
            checkpoint[name] = _through_checkpoint(bank.snapshot())
        banks = [_bank(name, "numpy", ()) for name in names]
        for name, bank in zip(names, banks):
            bank.restore(checkpoint[name])
        for node_id, stream in enumerate(suite_streams):
            segment = PackedSegment(stream.events[half(stream.events):])
            lane_spans = []
            for bank in banks:
                bank.feed_node(node_id, segment)
                lane_spans.append(sum(
                    1 for key in segment._cache
                    if isinstance(key, tuple) and key[0] == "ijspan"
                ))
            # The HJ bank found every lane span the IJ bank evaluated.
            assert lane_spans[0] > 0 and lane_spans[1] == lane_spans[0]
        for name, bank in zip(names, banks):
            assert store_mod.encode_eval(bank.finish()) == _replay_bytes(
                name, suite_streams, "python", 1_777
            ), name


# ----------------------------------------------------------------------
# Kernel / fallback selection
# ----------------------------------------------------------------------

class TestKernelSelection:
    def test_python_kernel_never_vectorises(self):
        bank = StreamingFilterBank(
            runner._build_filters("EJ-16x2", SCALED_SYSTEM), kernel="python"
        )
        assert all(type(r) is EventReplayer for r in bank.replayers)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown replay kernel"):
            StreamingFilterBank([], kernel="fortran")
        assert set(REPLAY_KERNELS) == {"python", "numpy", "auto"}

    def test_numpy_kernel_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(vector_replay, "_np", None)
        with pytest.raises(ConfigurationError, match="requires NumPy"):
            StreamingFilterBank(
                runner._build_filters("EJ-16x2", SCALED_SYSTEM),
                kernel="numpy",
            )

    def test_auto_degrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(vector_replay, "_np", None)
        assert not vector_replay.numpy_available()
        bank = StreamingFilterBank(
            runner._build_filters("EJ-16x2", SCALED_SYSTEM), kernel="auto"
        )
        assert all(type(r) is EventReplayer for r in bank.replayers)

    @requires_numpy
    def test_auto_vectorises_supported_families(self):
        for name in PARITY_FILTERS:
            bank = StreamingFilterBank(
                runner._build_filters(name, SCALED_SYSTEM), kernel="auto"
            )
            assert all(
                not isinstance(r, EventReplayer) for r in bank.replayers
            ), name

    @requires_numpy
    def test_order_sensitive_families_fall_back(self):
        """Families the kernels do not cover use the per-event oracle."""
        for name in ("null", "oracle", "HIJ-10x2"):
            bank = StreamingFilterBank(
                runner._build_filters(name, SCALED_SYSTEM), kernel="auto"
            )
            assert all(type(r) is EventReplayer for r in bank.replayers), name

    @requires_numpy
    def test_subclasses_fall_back(self):
        """Exact-type dispatch: a subclass may override anything the
        kernels hard-code, so it must not be silently vectorised."""
        class Tweaked(ExcludeJetty):
            pass

        assert vector_replay.replayer_for(Tweaked(16, 2), 0) is None

    @requires_numpy
    def test_oversized_geometries_fall_back(self):
        big = ExcludeJetty(1 << 17, 1)  # sets beyond the uint16 sort keys
        assert vector_replay.replayer_for(big, 0) is None
        assert vector_replay.replayer_for(ExcludeJetty(1 << 16, 1), 0) is not None

    @requires_numpy
    def test_vector_replayers_snapshot_in_python_format(self):
        """Fresh replayers of every family snapshot exactly as the oracle."""
        for name in PARITY_FILTERS:
            oracle = EventReplayer(_single_filter(name), 0)
            vector = vector_replay.replayer_for(_single_filter(name), 0)
            assert vector.snapshot() == oracle.snapshot(), name
            vector.restore(oracle.snapshot())

    @requires_numpy
    def test_packed_segment_shares_the_decoded_array(self):
        segment = PackedSegment([_snoop(0x40), pack_event(ALLOC, 0x50)])
        first = segment.array()
        assert segment.array() is first
        built = []
        assert segment.shared("k", lambda: built.append(1) or "value") == "value"
        assert segment.shared("k", lambda: built.append(2) or "other") == "value"
        assert built == [1]


# ----------------------------------------------------------------------
# Runner wiring: kernel choice end to end, byte-identical store rows
# ----------------------------------------------------------------------

class TestRunnerKernelWiring:
    WORKLOAD = "vector-golden-mix"

    @pytest.fixture(autouse=True)
    def _workloads(self, golden_streams):
        """Reuse the module-scoped golden registration."""

    def test_execute_replays_rejects_unknown_kernel(self):
        with pytest.raises(ConfigurationError, match="unknown replay kernel"):
            runner.execute_replays(
                [], experiment_store=ExperimentStore(), kernel="bogus"
            )

    def test_sweep_kernel_requires_replay_mode(self):
        with pytest.raises(ConfigurationError, match="replay sweeps only"):
            runner.run_sweep(
                (self.WORKLOAD,), ("EJ-16x2",),
                experiment_store=ExperimentStore(),
                stream=True, kernel="numpy",
            )

    @requires_numpy
    def test_replay_sweep_rows_are_kernel_invariant(self, tmp_path):
        rows = {}
        for kernel in ("python", "numpy"):
            store = ExperimentStore(tmp_path / f"{kernel}.sqlite")
            runner.run_sweep(
                (self.WORKLOAD,), PARITY_FILTERS,
                experiment_store=store, replay=True, kernel=kernel,
            )
            rows[kernel] = {
                e.key: store.get_blob(e.key)
                for e in store.entries() if e.kind == "eval"
            }
            store.close()
        assert rows["python"] == rows["numpy"]
        assert len(rows["python"]) == len(PARITY_FILTERS)
