"""Checkpoint/restore tests: the snapshot protocol and resumable runs.

Mid-run checkpointing rests on three claims, all pinned here:

* **protocol completeness** — every stateful layer's ``snapshot()`` /
  ``restore()`` pair captures its logical state exactly and rebuilds its
  derived state (flat tag indexes, bound fast-path methods) so a
  restored object is behaviourally indistinguishable from the original;
* **interruption-invariance** — for every filter family and awkward
  chunk size, a streamed run killed at an arbitrary checkpoint (inside
  warm-up or mid-chunk) and resumed produces byte-identical metrics,
  evaluation payloads, and recorded trace segments versus an
  uninterrupted run;
* **store hygiene** — completed runs retire their checkpoint chains,
  interrupted recordings validate their last durable segment (a
  truncated tail drops back one watermark instead of crashing), and
  garbage collection evicts a chain atomically, stale-first.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.analysis import runner, store as store_mod
from repro.analysis.store import CHECKPOINT_KIND, ExperimentStore
from repro.coherence.bus import Bus, BusOp
from repro.coherence.cache import L1Cache, SetAssocCache
from repro.coherence.config import CacheConfig, SCALED_SYSTEM
from repro.coherence.smp import SMPSystem, TraceSink
from repro.coherence.writebuffer import WriteBuffer
from repro.core import vector_replay
from repro.core.config import build_filter
from repro.core.stats import EventReplayer, pack_event, SNOOP
from repro.errors import ConfigurationError, TraceError
from repro.traces.workloads import (
    PaperReference,
    WorkloadSpec,
    simulate_workload_accesses,
)
from repro.utils.lru import LRUTracker

#: One representative of every filter family, sized for a tiny workload.
FAMILIES = (
    "EJ-8x2",
    "IJ-6x2x3",
    "VEJ-16x2-4",
    "HJ(IJ-6x2x3, EJ-8x2)",
    "HIJ-8x2",
    "null",
)

#: Awkward chunk sizes (a small power of two and a prime), as in
#: tests/test_streaming.py.
CHUNK_SIZES = (512, 1777)

#: Checkpoint cadences: one lands *inside the warm-up* (600 < 800), one
#: lands mid-chunk in the measured region (1300 divides neither chunk).
CHECKPOINT_KS = (600, 1300)

#: Tiny segments so recordings produce durable mid-run segments.
SEGMENT_EVENTS = 256

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

SPEC = WorkloadSpec(
    name="test-checkpoint",
    abbrev="tc",
    description="miniature workload for checkpoint tests",
    paper=_PAPER,
    n_accesses=3_000,
    warmup_accesses=800,
    repeat_frac=0.2,
    recipe=(
        ("streaming", dict(weight=0.6, partition_bytes=64 * 1024)),
        ("migratory", dict(weight=0.4, n_objects=16)),
    ),
)
SPECS = {SPEC.name: SPEC}


@contextmanager
def kill_after_checkpoints(store: ExperimentStore, n: int):
    """Simulate a SIGKILL right after the ``n``-th checkpoint commits.

    The wrapper lets the checkpoint row land (it is durable by then —
    ``put_blob`` commits before returning) and then raises, which is
    exactly the state a killed process leaves behind.
    """
    original = store.put_blob
    seen = {"checkpoints": 0}

    def wrapper(key, blob, **kwargs):
        original(key, blob, **kwargs)
        if kwargs["kind"] == CHECKPOINT_KIND:
            seen["checkpoints"] += 1
            if seen["checkpoints"] == n:
                raise KeyboardInterrupt("simulated SIGKILL")

    store.put_blob = wrapper
    try:
        yield
    finally:
        store.put_blob = original


def _stream_jobs(filter_name: str, chunk_size: int):
    return [runner.StreamJob(SPEC.name, (filter_name,), SCALED_SYSTEM, 1,
                             chunk_size)]


# ----------------------------------------------------------------------
# Unit round trips of the snapshot protocol
# ----------------------------------------------------------------------

class TestSnapshotUnits:
    def test_lru_round_trip_and_validation(self):
        tracker = LRUTracker(4)
        tracker.touch(2)
        tracker.touch(0)
        other = LRUTracker(4)
        other.restore(tracker.snapshot())
        assert other.order() == tracker.order()
        with pytest.raises(ConfigurationError):
            LRUTracker(3).restore(tracker.snapshot())

    def test_l2_restore_rebuilds_index_in_place(self):
        config = CacheConfig(capacity_bytes=1024, block_bytes=64,
                             subblock_bytes=32, ways=2)
        cache = SetAssocCache(config)
        from repro.coherence.states import MOESI

        frame, _evicted = cache.allocate(5)
        frame.states[0] = MOESI.M
        frame.in_l1[1] = True
        cache.allocate(5 + config.n_sets)  # same set, second way
        state = cache.snapshot()

        fresh = SetAssocCache(config)
        index_before = fresh._by_block
        fresh.restore(state)
        assert fresh._by_block is index_before  # identity must survive
        assert sorted(fresh.resident_blocks()) == sorted(cache.resident_blocks())
        restored = fresh.find(5)
        assert restored is not None
        assert restored.states == frame.states
        assert restored.in_l1 == frame.in_l1
        assert [t.order() for t in fresh._lru] == [
            t.order() for t in cache._lru
        ]

    def test_l1_restore_round_trip(self):
        config = CacheConfig(capacity_bytes=256, block_bytes=32,
                             subblock_bytes=32, ways=2)
        cache = L1Cache(config)
        cache.fill(3, writable=True)
        cache.find(3).dirty = True
        cache.fill(7, writable=False)
        fresh = L1Cache(config)
        fresh.restore(cache.snapshot())
        assert fresh.find(3, touch=False).dirty
        assert fresh.find(3, touch=False).writable
        assert not fresh.find(7, touch=False).writable

    def test_write_buffer_preserves_fifo_order_in_place(self):
        from repro.coherence.states import MOESI

        wb = WriteBuffer(4)
        wb.push(10, ((0, MOESI.M),))
        wb.push(11, ((1, MOESI.O),))
        wb.push(12, ((0, MOESI.M), (1, MOESI.M)))
        fresh = WriteBuffer(4)
        entries_before = fresh._entries
        fresh.restore(wb.snapshot())
        assert fresh._entries is entries_before
        assert fresh.blocks() == (10, 11, 12)
        assert fresh.drain_oldest().block == 10
        assert fresh.probe(12).dirty_subblocks == ((0, MOESI.M), (1, MOESI.M))
        with pytest.raises(ConfigurationError):
            WriteBuffer(2).restore(wb.snapshot())

    def test_bus_counters_round_trip(self):
        bus = Bus(4)
        from repro.coherence.bus import SnoopReply

        bus.record_transaction(BusOp.READ, [SnoopReply(hit=True)])
        bus.record_writeback()
        fresh = Bus(4)
        fresh.restore(bus.snapshot())
        assert fresh.stats.transactions == bus.stats.transactions
        assert fresh.stats.writebacks == 1
        assert fresh.stats.remote_hit_histogram == bus.stats.remote_hit_histogram

    @pytest.mark.parametrize("name", FAMILIES)
    def test_filter_snapshot_behavioural_equivalence(self, name):
        """A restored filter probes, learns, and counts like the original."""
        import random

        rng = random.Random(7)
        original = build_filter(name)
        replayer = EventReplayer(original, 0)
        events = []
        live = set()
        for _ in range(600):
            block = rng.randrange(128)
            kind = rng.random()
            if kind < 0.7:
                present = block in live
                flag = 3 if present else 0
                events.append(pack_event(SNOOP, block, flag))
            elif kind < 0.85 and block not in live:
                live.add(block)
                events.append(pack_event(1, block))  # ALLOC
            elif block in live:
                live.discard(block)
                events.append(pack_event(2, block))  # EVICT
        replayer.feed(events)

        clone = build_filter(name)
        clone_replayer = EventReplayer(clone, 0)
        clone_replayer.restore(replayer.snapshot())
        tail = []
        for _ in range(200):
            block = rng.randrange(128)
            tail.append(pack_event(SNOOP, block, 3 if block in live else 0))
        replayer.feed(tail)
        clone_replayer.feed(tail)
        assert store_mod.encode_eval(replayer.finish()) == store_mod.encode_eval(
            clone_replayer.finish()
        )

    def test_filter_snapshot_rejects_wrong_configuration(self):
        snapshot = build_filter("EJ-8x2").snapshot()
        with pytest.raises(ConfigurationError):
            build_filter("EJ-32x4").restore(snapshot)

    def test_trace_sink_rejects_mismatched_segment_size(self):
        sink = TraceSink(2, lambda *a: None, segment_events=16)
        other = TraceSink(2, lambda *a: None, segment_events=32)
        with pytest.raises(TraceError):
            other.restore(sink.snapshot())

    def test_smp_system_round_trip_continues_identically(self):
        """Snapshot mid-run, restore into a fresh machine, outputs match."""
        system = SMPSystem(SCALED_SYSTEM)
        stream, _warmup = simulate_workload_accesses(SPEC, n_cpus=4, seed=3)
        for _shard in system.run_chunked(stream, 512, limit=2_000):
            pass
        state = system.snapshot()
        tail = stream.take(1_000)

        fresh = SMPSystem(SCALED_SYSTEM)
        fresh.restore(state)
        for clone in fresh.nodes:
            # The hot paths must alias the restored structures.
            assert clone._l2_get.__self__ is clone.l2._by_block
            assert clone._wb_get.__self__ is clone.wb._entries
            assert clone._emit.__self__ is clone.events.events
        system._run_batch(tail)
        fresh._run_batch(tail)
        first = system.take_shard()
        second = fresh.take_shard()
        assert [s.events for s in first] == [s.events for s in second]
        assert [vars(a.stats) for a in system.nodes] == [
            vars(b.stats) for b in fresh.nodes
        ]
        assert fresh.bus.snapshot() == system.bus.snapshot()


# ----------------------------------------------------------------------
# Interruption-invariance: every family, awkward chunks, awkward K
# ----------------------------------------------------------------------

class TestStreamKillResumeByteIdentity:
    @pytest.mark.parametrize("filter_name", FAMILIES)
    def test_kill_and_resume_matches_clean_run(self, filter_name):
        """Kill at K (inside warm-up and mid-chunk), resume, diff stores.

        The clean reference never checkpoints; the interrupted store is
        killed immediately after its first checkpoint commits and then
        resumed — with a *different* chunk size, which must not matter.
        Every payload byte (``sim-metrics`` and ``eval``) must match.
        """
        clean = ExperimentStore()
        runner.execute_streams(
            _stream_jobs(filter_name, 1_000_000),
            experiment_store=clean, specs=SPECS,
        )
        reference = clean.dump()
        for chunk_size in CHUNK_SIZES:
            for k in CHECKPOINT_KS:
                interrupted = ExperimentStore()
                with kill_after_checkpoints(interrupted, 1):
                    with pytest.raises(KeyboardInterrupt):
                        runner.execute_streams(
                            _stream_jobs(filter_name, chunk_size),
                            experiment_store=interrupted, specs=SPECS,
                            checkpoint_every=k,
                        )
                assert interrupted.stats().checkpoints == 1
                resume_chunk = 512 if chunk_size != 512 else 1777
                report = runner.execute_streams(
                    _stream_jobs(filter_name, resume_chunk),
                    experiment_store=interrupted, specs=SPECS,
                    checkpoint_every=k,
                )
                assert report.checkpoints_resumed == 1
                assert report.resumed_accesses == k
                assert interrupted.dump() == reference, (
                    f"divergence for {filter_name} chunk={chunk_size} K={k}"
                )

    def test_live_chain_is_pruned_to_newest_two_watermarks(self):
        """A long run must not accumulate one row per watermark: only
        the newest snapshot plus one fallback stay live."""
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 4):
            with pytest.raises(KeyboardInterrupt):
                runner.execute_streams(
                    _stream_jobs("EJ-8x2", 512),
                    experiment_store=interrupted, specs=SPECS,
                    checkpoint_every=900,
                )
        chain = store_mod.checkpoint_chain_key(
            SPEC, SCALED_SYSTEM, 1, ("EJ-8x2",), False
        )
        keys = interrupted.group_keys(CHECKPOINT_KIND, chain)
        positions = sorted(
            store_mod.decode_checkpoint(interrupted.get_blob(key))["position"]
            for key in keys
        )
        # Saves landed at 900/1800/2700/3600; each save prunes beyond
        # the newest two, and the kill (inside the 4th save's write)
        # preempts that save's prune — so the oldest row is gone and at
        # most newest-two-plus-in-flight remain.
        assert positions == [1_800, 2_700, 3_600]

    def test_chain_survives_externally_warmed_evals(self):
        """The chain key covers the job's full filter union, so an eval
        warmed between kill and resume (here: copied in from another
        store) must not orphan the checkpoint chain."""
        filters = ("EJ-8x2", "IJ-6x2x3")
        jobs = [runner.StreamJob(SPEC.name, filters, SCALED_SYSTEM, 1, 512)]
        clean = ExperimentStore()
        runner.execute_streams(jobs, experiment_store=clean, specs=SPECS)

        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                runner.execute_streams(
                    jobs, experiment_store=interrupted, specs=SPECS,
                    checkpoint_every=900,
                )
        ekey = store_mod.eval_key(SPEC, "EJ-8x2", SCALED_SYSTEM, 1)
        interrupted.put_blob(
            ekey, clean.get_blob(ekey), kind="eval", workload=SPEC.name,
            filter_name="EJ-8x2", n_cpus=4, seed=1,
        )
        report = runner.execute_streams(
            jobs, experiment_store=interrupted, specs=SPECS,
            checkpoint_every=900,
        )
        assert report.checkpoints_resumed == 1
        assert report.resumed_accesses == 1_800
        assert interrupted.dump() == clean.dump()

    def test_checkpointed_uninterrupted_run_is_invisible(self):
        """checkpoint_every alone never changes any stored byte, and a
        completed run leaves no checkpoint rows behind."""
        clean = ExperimentStore()
        runner.execute_streams(
            _stream_jobs("EJ-8x2", 1777), experiment_store=clean, specs=SPECS,
        )
        checkpointed = ExperimentStore()
        report = runner.execute_streams(
            _stream_jobs("EJ-8x2", 512), experiment_store=checkpointed,
            specs=SPECS, checkpoint_every=700,
        )
        assert report.checkpoints_written > 0
        assert checkpointed.stats().checkpoints == 0  # chain retired
        assert checkpointed.dump() == clean.dump()

    def test_compute_stream_checkpoint_front_door(self):
        store = ExperimentStore()
        plain = runner.compute_stream(SPEC, SCALED_SYSTEM, 1, ("EJ-8x2",), 512)
        checked = runner.compute_stream(
            SPEC, SCALED_SYSTEM, 1, ("EJ-8x2",), 1777,
            checkpoint_every=900, experiment_store=store,
        )
        assert store_mod.encode_sim_metrics(plain[0]) == (
            store_mod.encode_sim_metrics(checked[0])
        )
        assert store_mod.encode_eval(plain[1]["EJ-8x2"]) == (
            store_mod.encode_eval(checked[1]["EJ-8x2"])
        )
        assert store.stats().checkpoints == 0

    def test_compute_stream_checkpoint_requires_store(self):
        with pytest.raises(ConfigurationError):
            runner.compute_stream(
                SPEC, SCALED_SYSTEM, 1, (), 512, checkpoint_every=100,
            )

    def test_run_sweep_rejects_buffered_checkpointing(self):
        with pytest.raises(ConfigurationError):
            runner.run_sweep(
                [SPEC.name], ["EJ-8x2"], experiment_store=ExperimentStore(),
                checkpoint_every=100,
            )


# ----------------------------------------------------------------------
# Checkpoints across replay kernels
# ----------------------------------------------------------------------

#: The families the vector kernels cover, both hybrid flavours included.
VECTOR_FAMILIES = (
    "EJ-8x2",
    "VEJ-16x2-4",
    "IJ-6x2x3",
    "HJ(IJ-6x2x3, EJ-8x2)",
    "HJ(IJ-6x2x3, VEJ-16x2-4)",
)


_BUILD_BANK = runner._build_bank


def _pin_kernel(monkeypatch, kernel: str, built: list) -> None:
    """Build every runner bank on ``kernel``, remembering each one."""

    def pinned(name, system, **kwargs):
        kwargs["kernel"] = kernel
        built.append(_BUILD_BANK(name, system, **kwargs))
        return built[-1]

    monkeypatch.setattr(runner, "_build_bank", pinned)


@pytest.mark.skipif(
    not vector_replay.numpy_available(), reason="the vector kernels need NumPy"
)
class TestCrossKernelResume:
    """Checkpointed streams run their banks on ``auto``; a chain written
    by one kernel resumes on the other with byte-identical results."""

    def _kill_then_resume(self, monkeypatch, filters, first, second):
        jobs = [runner.StreamJob(SPEC.name, filters, SCALED_SYSTEM, 1, 512)]
        clean = ExperimentStore()
        runner.execute_streams(jobs, experiment_store=clean, specs=SPECS)
        interrupted = ExperimentStore()
        built = {first: [], second: []}
        _pin_kernel(monkeypatch, first, built[first])
        with kill_after_checkpoints(interrupted, 1):
            with pytest.raises(KeyboardInterrupt):
                runner.execute_streams(
                    jobs, experiment_store=interrupted, specs=SPECS,
                    checkpoint_every=1_300,
                )
        _pin_kernel(monkeypatch, second, built[second])
        report = runner.execute_streams(
            jobs, experiment_store=interrupted, specs=SPECS,
            checkpoint_every=1_300,
        )
        assert report.checkpoints_resumed == 1
        assert interrupted.dump() == clean.dump()
        return built

    @pytest.mark.parametrize(
        "first, second", (("python", "auto"), ("auto", "python"))
    )
    @pytest.mark.parametrize("filter_name", VECTOR_FAMILIES)
    def test_chain_resumes_on_the_other_kernel(
        self, monkeypatch, filter_name, first, second
    ):
        built = self._kill_then_resume(
            monkeypatch, (filter_name,), first, second
        )
        for bank in built["auto"]:
            assert not any(
                isinstance(r, EventReplayer) for r in bank.replayers
            )
        for bank in built["python"]:
            assert all(isinstance(r, EventReplayer) for r in bank.replayers)

    def test_ij_and_hj_banks_resume_from_one_checkpoint(self, monkeypatch):
        """Both banks restore from one chain row and share lanes again."""
        self._kill_then_resume(
            monkeypatch, ("HJ(IJ-6x2x3, EJ-8x2)", "IJ-6x2x3"), "auto", "auto"
        )


# ----------------------------------------------------------------------
# Interrupted recordings: segment watermarks, validation, fallback
# ----------------------------------------------------------------------

def _record(store, *, checkpoint_every=None, chunk_size=1777, report=None):
    return runner.record_trace(
        SPEC, SCALED_SYSTEM, 1, experiment_store=store,
        chunk_size=chunk_size, checkpoint_every=checkpoint_every,
        report=report, segment_events=SEGMENT_EVENTS,
    )


def _chain_states(store):
    chain = store_mod.checkpoint_chain_key(SPEC, SCALED_SYSTEM, 1, (), True)
    return [
        store_mod.decode_checkpoint(store.get_blob(key))
        for key in store.group_keys(CHECKPOINT_KIND, chain)
    ]


class TestRecordingKillResume:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_interrupted_recording_resumes_at_last_segment(self, chunk_size):
        """Kill a recording after two checkpoints; the rerun resumes from
        the durable watermark and the trace rows come out byte-identical
        to an uninterrupted recording's (manifest, segments, metrics)."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900,
                        chunk_size=chunk_size)
        newest = max(_chain_states(interrupted), key=lambda s: s["position"])
        assert any(count > 0 for count in newest["sink"]["next_index"]), (
            "test must exercise durable mid-run segments"
        )
        report = runner.ExecutionReport()
        resume_chunk = 512 if chunk_size != 512 else 1777
        _record(interrupted, checkpoint_every=900, chunk_size=resume_chunk,
                report=report)
        assert report.checkpoints_resumed == 1
        assert report.resumed_accesses == 1_800
        assert interrupted.dump() == clean.dump()

    def test_truncated_final_segment_falls_back_one_watermark(self):
        """A truncated last segment is dropped and the resume restarts
        from the previous checkpoint — and still matches a clean run."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900)
        newest = max(_chain_states(interrupted), key=lambda s: s["position"])
        tkey = newest["tkey"]
        node = next(
            n for n, count in enumerate(newest["sink"]["next_index"])
            if count > 0
        )
        last_index = newest["sink"]["next_index"][node] - 1
        segment_key = store_mod.trace_segment_key(tkey, node, last_index)
        blob = interrupted.get_blob(segment_key)
        interrupted.put_blob(
            segment_key, blob[: len(blob) // 2], kind=store_mod.TRACE_KIND,
            workload=SPEC.name, filter_name=tkey, n_cpus=4, seed=1,
        )
        report = runner.ExecutionReport()
        _record(interrupted, checkpoint_every=900, report=report)
        assert report.checkpoints_resumed == 1
        assert report.resumed_accesses < newest["position"]
        assert interrupted.dump() == clean.dump()

    def test_crc_mismatch_detected_even_when_decompressible(self):
        """A last segment that decompresses but carries the wrong bytes
        (e.g. overwritten by a different store) fails the CRC check."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900)
        newest = max(_chain_states(interrupted), key=lambda s: s["position"])
        tkey = newest["tkey"]
        node = next(
            n for n, count in enumerate(newest["sink"]["next_index"])
            if count > 0
        )
        last_index = newest["sink"]["next_index"][node] - 1
        segment_key = store_mod.trace_segment_key(tkey, node, last_index)
        bogus = zlib.compress(b"\x00" * (SEGMENT_EVENTS * 8), 6)
        interrupted.put_blob(
            segment_key, bogus, kind=store_mod.TRACE_KIND,
            workload=SPEC.name, filter_name=tkey, n_cpus=4, seed=1,
        )
        report = runner.ExecutionReport()
        _record(interrupted, checkpoint_every=900, report=report)
        assert report.resumed_accesses < newest["position"]
        assert interrupted.dump() == clean.dump()

    def test_missing_mid_segment_falls_back_or_restarts(self):
        """Deleting a durable segment invalidates every checkpoint that
        references it; the run drops back to a watermark that does not
        (possibly access zero) and the trace still comes out clean."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900)
        newest = max(_chain_states(interrupted), key=lambda s: s["position"])
        tkey = newest["tkey"]
        node = next(
            n for n, count in enumerate(newest["sink"]["next_index"])
            if count > 0
        )
        interrupted.delete_key(store_mod.trace_segment_key(tkey, node, 0))
        report = runner.ExecutionReport()
        _record(interrupted, checkpoint_every=900, report=report)
        assert report.resumed_accesses < newest["position"]
        assert interrupted.dump() == clean.dump()

    def test_structurally_invalid_checkpoint_never_bricks_the_chain(self):
        """A checkpoint that decodes as JSON but cannot *restore* (wrong
        structure) is deleted like any other bad row — the run falls to
        the previous watermark instead of crashing on every rerun."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900)
        chain = store_mod.checkpoint_chain_key(
            SPEC, SCALED_SYSTEM, 1, (), True
        )
        keys = interrupted.group_keys(CHECKPOINT_KIND, chain)
        newest_key = max(
            keys,
            key=lambda k: store_mod.decode_checkpoint(
                interrupted.get_blob(k)
            )["position"],
        )
        state = store_mod.decode_checkpoint(interrupted.get_blob(newest_key))
        state["system"] = {"accesses": 0, "nodes": [], "bus": {}}  # damaged
        interrupted.put_blob(
            newest_key, store_mod.encode_checkpoint(state),
            kind=CHECKPOINT_KIND, workload=SPEC.name, filter_name=chain,
            n_cpus=4, seed=1,
        )
        report = runner.ExecutionReport()
        _record(interrupted, checkpoint_every=900, report=report)
        assert report.checkpoints_resumed == 1
        assert report.resumed_accesses == 900  # the previous watermark
        assert interrupted.dump() == clean.dump()

    def test_corrupt_checkpoint_payloads_restart_from_scratch(self):
        """Undecodable checkpoints are discarded and the recording
        restarts from access zero — still byte-identical (the fresh
        start drops every stale trace row first)."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900)
        chain = store_mod.checkpoint_chain_key(
            SPEC, SCALED_SYSTEM, 1, (), True
        )
        for key in interrupted.group_keys(CHECKPOINT_KIND, chain):
            blob = interrupted.get_blob(key)
            interrupted.put_blob(
                key, blob[: len(blob) // 3], kind=CHECKPOINT_KIND,
                workload=SPEC.name, filter_name=chain, n_cpus=4, seed=1,
            )
        report = runner.ExecutionReport()
        _record(interrupted, checkpoint_every=900, report=report)
        assert report.checkpoints_resumed == 0
        assert interrupted.dump() == clean.dump()

    def test_replay_after_resumed_recording_matches_streamed_evals(self):
        """Filters replayed from a kill-resumed trace produce the same
        eval bytes as a live streamed evaluation."""
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 1):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=1_300)
        _record(interrupted, checkpoint_every=1_300)
        runner.execute_replays(
            [runner.ReplayJob(SPEC.name, ("EJ-8x2",), SCALED_SYSTEM, 1)],
            experiment_store=interrupted, specs=SPECS,
        )
        streamed = ExperimentStore()
        runner.execute_streams(
            _stream_jobs("EJ-8x2", 512), experiment_store=streamed,
            specs=SPECS,
        )
        ekey = store_mod.eval_key(SPEC, "EJ-8x2", SCALED_SYSTEM, 1)
        assert interrupted.get_blob(ekey) == streamed.get_blob(ekey)


# ----------------------------------------------------------------------
# Store hygiene: chain GC atomicity, superseded-first, CLI-facing stats
# ----------------------------------------------------------------------

def _fake_chain(store, chain, workload, positions, mkey="absent", tkey=None):
    for position in positions:
        state = {
            "version": 1, "workload": workload, "n_cpus": 4, "seed": 1,
            "filters": [], "record": tkey is not None, "position": position,
            "measured": True, "mkey": mkey, "tkey": tkey,
            "system": {}, "banks": {}, "sink": None, "stream": "",
        }
        store.put_blob(
            store_mod.checkpoint_key(chain, position),
            store_mod.encode_checkpoint(state),
            kind=CHECKPOINT_KIND, workload=workload,
            filter_name=chain, n_cpus=4, seed=1,
        )


class TestCheckpointStoreHygiene:
    def test_gc_evicts_a_chain_atomically(self):
        store = ExperimentStore()
        _fake_chain(store, "chain-a", "lu", [100, 200, 300])
        stats = store.stats()
        assert stats.checkpoints == 3
        removed, _freed = store.gc(stats.payload_bytes - 1)
        assert removed == 3  # never a partial chain
        assert store.stats().checkpoints == 0

    def test_gc_evicts_superseded_chains_first(self):
        store = ExperimentStore()
        # The *older* chain is live (its run never finished); the newer
        # one is superseded by a stored sim-metrics row.
        _fake_chain(store, "chain-live", "lu", [100])
        store.put_blob(
            "mkey-done", b"metrics", kind="sim-metrics", workload="fft",
            filter_name=None, n_cpus=4, seed=1,
        )
        _fake_chain(store, "chain-stale", "fft", [100], mkey="mkey-done")
        live_key = store_mod.checkpoint_key("chain-live", 100)
        stale_key = store_mod.checkpoint_key("chain-stale", 100)
        total = store.stats().payload_bytes
        stale_size = len(store.get_blob(stale_key))
        removed, freed = store.gc(total - stale_size)
        assert removed == 1 and freed == stale_size
        assert store.get_blob(stale_key) is None
        assert store.get_blob(live_key) is not None

    def test_checkpoints_counted_in_cache_info_stats(self):
        store = ExperimentStore()
        interrupted_jobs = _stream_jobs("EJ-8x2", 512)
        with kill_after_checkpoints(store, 1):
            with pytest.raises(KeyboardInterrupt):
                runner.execute_streams(
                    interrupted_jobs, experiment_store=store, specs=SPECS,
                    checkpoint_every=1_000,
                )
        stats = store.stats()
        assert stats.checkpoints == 1
        assert dict(stats.bytes_by_kind).get(CHECKPOINT_KIND, 0) > 0

    def test_persistent_store_round_trips_checkpoints(self, tmp_path):
        """A chain written to SQLite resumes after a process 'restart'
        (store close + reopen), byte-identical to a clean run."""
        clean = ExperimentStore()
        runner.execute_streams(
            _stream_jobs("EJ-8x2", 1777), experiment_store=clean, specs=SPECS,
        )
        path = tmp_path / "resume.sqlite"
        first = ExperimentStore(path)
        with kill_after_checkpoints(first, 1):
            with pytest.raises(KeyboardInterrupt):
                runner.execute_streams(
                    _stream_jobs("EJ-8x2", 512), experiment_store=first,
                    specs=SPECS, checkpoint_every=1_300,
                )
        first.close()
        second = ExperimentStore(path)
        report = runner.execute_streams(
            _stream_jobs("EJ-8x2", 1777), experiment_store=second,
            specs=SPECS, checkpoint_every=1_300,
        )
        assert report.checkpoints_resumed == 1
        assert second.dump() == clean.dump()
        second.close()
