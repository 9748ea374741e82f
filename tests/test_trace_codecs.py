"""Trace-economics tests: segment codecs, transcoding, fast-forward.

The codec layer's contract is that wire format is *pure encoding*: any
codec, any chunk size, any transcode history must replay to the exact
evaluation bytes the live streamed path produces.  Measured-only
recording adds a second contract: replacing the warm-up events with a
fast-forward snapshot of the warmed filter state may change stored
bytes and wall time, never a result payload.

Pinned here:

* **wire format** — raw-v1 stays byte-identical to every pre-codec
  store; delta-v1 round-trips arbitrary packed events (empty, single,
  marker-only, 59-bit blocks), self-identifies via its magic byte, and
  encodes to the same bytes on the NumPy and pure-Python paths;
* **replay byte-identity** — every filter family x chunk size
  {512, 1777} x codec {raw-v1, delta-v1} equals live streaming,
  including a PHASE-marker-mid-segment suite trace and a transcoded
  legacy store;
* **fast-forward plumbing** — snapshot rows share the trace's GC /
  delete / fsck unit, chunk size and codec never reach a key, and an
  unwarmed family is a loud error naming the fix.
"""

from __future__ import annotations

import random
import zlib
from array import array
from dataclasses import replace

import pytest

from repro.analysis import experiments, runner
from repro.analysis import store as store_mod
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM
from repro.core import vector_replay
from repro.errors import ConfigurationError, StoreCorruptionError
from repro.traces.suite import Phase, Suite
from repro.traces.workloads import WORKLOADS, PaperReference, WorkloadSpec

WORKLOAD = "test-trace-codecs"

#: One member of each filter family (the acceptance matrix).
FAMILY_FILTERS = (
    "EJ-8x2",
    "VEJ-16x2-4",
    "IJ-8x4x7",
    "HJ(IJ-8x4x7, EJ-8x2)",
)

#: Tiny power of two and a prime: segment and shard boundaries never
#: align with anything in the workload.
CHUNK_SIZES = (512, 1_777)

CODECS = store_mod.SEGMENT_CODECS

requires_numpy = pytest.mark.skipif(
    not vector_replay.numpy_available(),
    reason="the numpy kernel and the vectorised codec path need NumPy",
)

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

#: Two-phase suite whose PHASE marker lands mid-segment when recorded
#: with a small ``segment_events`` (nothing aligns with 777).
SUITE = Suite(
    [
        Phase("ramp", "zipf-hot", 900),
        Phase("steady", "scan-stream", 1_100),
    ],
    name="test-codec-suite",
    warmup_accesses=500,
)


@pytest.fixture(autouse=True)
def codec_workload():
    WORKLOADS[WORKLOAD] = WorkloadSpec(
        name=WORKLOAD,
        abbrev="tc",
        description="miniature workload for trace-codec tests",
        paper=_PAPER,
        n_accesses=3_000,
        warmup_accesses=800,
        repeat_frac=0.2,
        recipe=(
            ("streaming", dict(weight=0.6, partition_bytes=64 * 1024)),
            ("migratory", dict(weight=0.4, n_objects=16)),
        ),
    )
    previous = experiments._STORE
    experiments._STORE = ExperimentStore()
    yield WORKLOADS[WORKLOAD]
    experiments._STORE.close()
    experiments._STORE = previous
    del WORKLOADS[WORKLOAD]


def _pack(kind: int, flag: int, block: int) -> int:
    return (block << 4) | (flag << 2) | kind


def _rows(store: ExperimentStore, kind: str) -> dict[str, bytes]:
    return {
        e.key: store.get_blob(e.key)
        for e in store.entries()
        if e.kind == kind
    }


def _live_payloads(spec, filters, seed=1):
    """(metrics blob, filter -> eval blob) from one live streamed run."""
    metrics, evaluations = runner.compute_stream(
        spec, SCALED_SYSTEM, seed, filters
    )
    return (
        store_mod.encode_sim_metrics(metrics),
        {n: store_mod.encode_eval(e) for n, e in evaluations.items()},
    )


def _segment_keys_flat(store, tkey):
    loaded = runner.load_trace(store, tkey)
    assert loaded is not None
    manifest, segment_keys = loaded
    return manifest, [key for node in segment_keys for key in node]


# ----------------------------------------------------------------------
# Wire format: round trips, magic dispatch, path parity
# ----------------------------------------------------------------------

EDGE_SEGMENTS = {
    "empty": [],
    "single": [_pack(0, 1, 42)],
    "markers-only": [_pack(3, 0, 0), _pack(3, 2, 0), _pack(3, 1, 0)],
    "repeat-block": [_pack(0, 0, 9)] * 17,
    "large-blocks": [
        _pack(0, 0, (1 << 59) - 1),
        _pack(0, 0, 0),
        _pack(2, 3, (1 << 59) - 17),
        _pack(1, 2, 1 << 58),
    ],
    "all-kinds": [
        _pack(kind, flag, 4096 * kind + flag)
        for kind in range(4) for flag in range(4)
    ],
}


class TestCodecWireFormat:
    @pytest.mark.parametrize("name", sorted(EDGE_SEGMENTS))
    @pytest.mark.parametrize("codec", CODECS)
    def test_edge_segments_round_trip(self, codec, name):
        events = array("q", EDGE_SEGMENTS[name])
        blob = store_mod.encode_trace_segment(events.tobytes(), codec)
        assert store_mod.segment_codec(blob) == codec
        assert store_mod.decode_trace_segment(blob) == events
        assert store_mod.decoded_segment_bytes(blob) == 8 * len(events)

    def test_random_events_round_trip_identically(self):
        rng = random.Random(7)
        events = array("q", [
            _pack(rng.randrange(4), rng.randrange(4), rng.randrange(1 << 40))
            for _ in range(5_000)
        ])
        raw = events.tobytes()
        decoded = {
            codec: store_mod.decode_trace_segment(
                store_mod.encode_trace_segment(raw, codec)
            )
            for codec in CODECS
        }
        assert decoded["raw-v1"] == decoded["delta-v1"] == events

    def test_raw_v1_is_the_legacy_wire_format(self):
        """Pre-codec stores are raw-v1 stores: identical bytes."""
        raw = array("q", [_pack(0, 0, 7), _pack(1, 1, 8)]).tobytes()
        assert store_mod.encode_trace_segment(raw) == zlib.compress(raw, 6)
        assert store_mod.encode_trace_segment(raw, "raw-v1") == (
            zlib.compress(raw, 6)
        )

    def test_magic_byte_separates_the_formats(self):
        # zlib streams always open 0x78; the delta magic must not.
        assert store_mod.encode_trace_segment(b"", "raw-v1")[0] == 0x78
        assert store_mod.encode_trace_segment(b"", "delta-v1")[0] == 0xD7

    def test_delta_wins_on_a_local_stream(self):
        """Sequential blocks: the delta plane collapses, raw does not."""
        events = array("q", [
            _pack(0, 0, base + step)
            for base in (0, 1 << 30, 1 << 45)
            for step in range(2_000)
        ])
        raw_blob = store_mod.encode_trace_segment(events.tobytes(), "raw-v1")
        delta_blob = store_mod.encode_trace_segment(
            events.tobytes(), "delta-v1"
        )
        assert len(delta_blob) < len(raw_blob) // 2

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="unknown trace segment codec"):
            store_mod.encode_trace_segment(b"", "rle-v9")

    def test_truncated_delta_segment_is_corruption(self):
        blob = bytes([0xD7]) + zlib.compress(b"\x01")
        with pytest.raises(StoreCorruptionError):
            store_mod.decode_trace_segment(blob)

    @requires_numpy
    def test_numpy_and_python_paths_produce_identical_bytes(
        self, monkeypatch
    ):
        rng = random.Random(11)
        block = 0
        events = array("q")
        for _ in range(4_000):
            block = max(0, block + rng.randrange(-3, 5))
            events.append(_pack(rng.randrange(4), rng.randrange(4), block))
        raw = events.tobytes()
        with_np = store_mod.encode_trace_segment(raw, "delta-v1")
        with monkeypatch.context() as patched:
            patched.setattr(store_mod, "_np", None)
            without_np = store_mod.encode_trace_segment(raw, "delta-v1")
            python_decoded = store_mod.decode_trace_segment(with_np)
        assert with_np == without_np
        assert python_decoded == events
        assert store_mod.decode_trace_segment(without_np) == events


# ----------------------------------------------------------------------
# Replay byte-identity: family x chunk size x codec vs live streaming
# ----------------------------------------------------------------------

class TestCodecReplayByteIdentity:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("codec", CODECS)
    def test_every_family_matches_live_stream(
        self, tmp_path, chunk_size, codec
    ):
        store = ExperimentStore(tmp_path / f"{codec}-{chunk_size}.sqlite")
        result = runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS, experiment_store=store,
            replay=True, chunk_size=chunk_size, codec=codec,
        )
        assert result.report.sims_run == 1
        assert result.report.evals_run == len(FAMILY_FILTERS)
        spec = WORKLOADS[WORKLOAD]
        metrics_blob, payloads = _live_payloads(spec, FAMILY_FILTERS)
        mkey = store_mod.sim_metrics_key(spec, SCALED_SYSTEM, 1)
        assert store.get_blob(mkey) == metrics_blob
        for name in FAMILY_FILTERS:
            ekey = store_mod.eval_key(spec, name, SCALED_SYSTEM, 1)
            assert store.get_blob(ekey) == payloads[name], (
                name, chunk_size, codec
            )
        # The store really holds the requested wire format.
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        manifest, segment_keys = _segment_keys_flat(store, tkey)
        assert manifest.get("codec", store_mod.DEFAULT_SEGMENT_CODEC) == codec
        for key in segment_keys:
            assert store_mod.segment_codec(store.get_blob(key)) == codec

    def test_delta_trace_rows_are_chunk_size_invariant(self, tmp_path):
        """The codec keeps the recording-chunk invariance raw-v1 has."""
        dumps = []
        for chunk_size in CHUNK_SIZES:
            store = ExperimentStore(tmp_path / f"ci{chunk_size}.sqlite")
            runner.execute_replays(
                [runner.ReplayJob(WORKLOAD, (), chunk_size=chunk_size,
                                  codec="delta-v1")],
                experiment_store=store,
            )
            dumps.append(_rows(store, store_mod.TRACE_KIND))
        assert dumps[0] == dumps[1]

    def test_phase_marker_mid_segment_replays_identically(self, tmp_path):
        """A suite's PHASE markers land inside 64-event segments; the
        delta replay must reproduce the per-phase splits byte-exactly."""
        store = ExperimentStore(tmp_path / "suite.sqlite")
        runner.record_trace(
            SUITE, SCALED_SYSTEM, 1, experiment_store=store,
            codec="delta-v1", segment_events=64,
        )
        tkey = store_mod.trace_key(SUITE, SCALED_SYSTEM, 1)
        manifest, segment_keys = _segment_keys_flat(store, tkey)
        assert any(c > 1 for c in manifest["segments_per_node"])
        report = runner.execute_replays(
            [runner.ReplayJob(SUITE.name, FAMILY_FILTERS)],
            experiment_store=store, specs={SUITE.name: SUITE},
        )
        assert report.sims_run == 0  # the recorded delta trace serves
        _metrics_blob, payloads = _live_payloads(SUITE, FAMILY_FILTERS)
        for name in FAMILY_FILTERS:
            ekey = store_mod.eval_key(SUITE, name, SCALED_SYSTEM, 1)
            blob = store.get_blob(ekey)
            assert blob == payloads[name], name
            evaluation = store_mod.decode_eval(blob)
            assert set(evaluation.phases) == set(SUITE.phase_names())


# ----------------------------------------------------------------------
# Transcoding: legacy stores converge without losing a byte of meaning
# ----------------------------------------------------------------------

class TestTranscode:
    def _legacy_store(self, tmp_path):
        """A raw-v1 store with warm evaluations (every pre-codec store)."""
        store = ExperimentStore(tmp_path / "legacy.sqlite")
        runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS[:2], experiment_store=store,
            replay=True,
        )
        return store, store_mod.trace_key(
            WORKLOADS[WORKLOAD], SCALED_SYSTEM, 1
        )

    def test_transcoded_legacy_store_replays_identically(self, tmp_path):
        store, tkey = self._legacy_store(tmp_path)
        evals_before = _rows(store, "eval")
        before, after = runner.transcode_trace(store, tkey, "delta-v1")
        assert before > 0 and after > 0
        manifest, segment_keys = _segment_keys_flat(store, tkey)
        assert manifest["codec"] == "delta-v1"
        for key in segment_keys:
            assert store_mod.segment_codec(store.get_blob(key)) == "delta-v1"
        # Keys never changed: the trace is warm, fresh replays of old
        # AND new filters land the same bytes as before the transcode.
        store.delete_kind("eval")
        report = runner.execute_replays(
            [runner.ReplayJob(WORKLOAD, FAMILY_FILTERS)],
            experiment_store=store,
        )
        assert report.sims_run == 0
        _metrics_blob, payloads = _live_payloads(
            WORKLOADS[WORKLOAD], FAMILY_FILTERS
        )
        after_rows = _rows(store, "eval")
        for key, blob in evals_before.items():
            assert after_rows[key] == blob
        for name in FAMILY_FILTERS:
            ekey = store_mod.eval_key(
                WORKLOADS[WORKLOAD], name, SCALED_SYSTEM, 1
            )
            assert after_rows[ekey] == payloads[name], name

    def test_transcode_is_idempotent_and_reversible(self, tmp_path):
        store, tkey = self._legacy_store(tmp_path)
        original = _rows(store, store_mod.TRACE_KIND)
        runner.transcode_trace(store, tkey, "delta-v1")
        assert _rows(store, store_mod.TRACE_KIND) != original
        before, after = runner.transcode_trace(store, tkey, "delta-v1")
        assert before == after  # nothing left to rewrite
        # Back to raw-v1: byte-exact original rows, codec note dropped.
        runner.transcode_trace(store, tkey, "raw-v1")
        assert _rows(store, store_mod.TRACE_KIND) == original

    def test_transcode_missing_trace_rejected(self, tmp_path):
        store = ExperimentStore()
        with pytest.raises(ConfigurationError, match="nothing to transcode"):
            runner.transcode_trace(store, "no-such-trace", "delta-v1")

    def test_transcode_unknown_codec_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="unknown trace segment codec"):
            runner.transcode_trace(ExperimentStore(), "any", "rle-v9")

    def test_transcoded_store_passes_fsck(self, tmp_path):
        store, tkey = self._legacy_store(tmp_path)
        runner.transcode_trace(store, tkey, "delta-v1")
        report = store.fsck()
        assert report.corrupt == ()
        assert report.removed == 0


# ----------------------------------------------------------------------
# Measured-only recording + fast-forward snapshots
# ----------------------------------------------------------------------

class TestMeasuredOnly:
    @pytest.mark.parametrize("kernel", [
        "python",
        pytest.param("numpy", marks=requires_numpy),
    ])
    def test_every_family_byte_identical_to_live(self, tmp_path, kernel):
        spec = WORKLOADS[WORKLOAD]
        store = ExperimentStore(tmp_path / f"mo-{kernel}.sqlite")
        outcome = runner.evaluate_replay(
            spec, SCALED_SYSTEM, FAMILY_FILTERS, 1,
            experiment_store=store, kernel=kernel,
            codec="delta-v1", measured_only=True,
        )
        metrics_blob, payloads = _live_payloads(spec, FAMILY_FILTERS)
        mkey = store_mod.sim_metrics_key(spec, SCALED_SYSTEM, 1)
        assert store.get_blob(mkey) == metrics_blob
        for name in FAMILY_FILTERS:
            assert store_mod.encode_eval(outcome.evaluations[name]) == (
                payloads[name]
            ), (name, kernel)

    #: SHA-256 of the decompressed fast-forward row and replayed eval
    #: payloads of this workload, as the python warm banks wrote them
    #: before live banks moved to the ``auto`` kernel.
    PINNED_FAST_FORWARD = (
        "f721743c21e7f8bf3d89092ca8b63084eb565b1c36b9450af0eca7bd36d4c96b"
    )
    PINNED_EVALS = {
        "EJ-8x2":
            "77cf4a1f034d35907a39a08dc13095674da23115449bde73818e1bdd85b814e2",
        "VEJ-16x2-4":
            "66be2066fa5298562f7469d33626ba5b9c40afa0f3fb47e646b7629059e059e9",
        "IJ-8x4x7":
            "9c5669bc6fc4c136507822ab834c4a11b4710a504089db701cbe5771bef9928d",
        "HJ(IJ-8x4x7, EJ-8x2)":
            "fcdfbf8aa1302b8be0325014f450d8e548cb5b4a055bb5b78c46c74b6bbe0c3d",
    }

    @pytest.mark.parametrize("kernel", [
        "python",
        pytest.param("numpy", marks=requires_numpy),
    ])
    def test_fast_forward_bytes_are_pinned(self, kernel):
        """The warm banks stay on the python kernel: the stored snapshot
        (EJ way placement included) and every replay from it keep their
        exact bytes."""
        import hashlib

        def digest(blob):
            return hashlib.sha256(zlib.decompress(blob)).hexdigest()

        spec = WORKLOADS[WORKLOAD]
        store = ExperimentStore()
        runner.execute_replays(
            [runner.ReplayJob(WORKLOAD, FAMILY_FILTERS, measured_only=True)],
            experiment_store=store, kernel=kernel,
        )
        manifest, _keys = _segment_keys_flat(
            store, store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        )
        assert digest(store.get_blob(manifest["fast_forward"])) == (
            self.PINNED_FAST_FORWARD
        )
        for name in FAMILY_FILTERS:
            ekey = store_mod.eval_key(spec, name, SCALED_SYSTEM, 1)
            assert digest(store.get_blob(ekey)) == self.PINNED_EVALS[name]

    def test_archive_is_smaller_and_manifest_says_why(self, tmp_path):
        spec = WORKLOADS[WORKLOAD]
        full = ExperimentStore(tmp_path / "full.sqlite")
        measured = ExperimentStore(tmp_path / "measured.sqlite")
        runner.execute_replays(
            [runner.ReplayJob(WORKLOAD, ())], experiment_store=full,
        )
        runner.execute_replays(
            [runner.ReplayJob(WORKLOAD, (), codec="delta-v1",
                              measured_only=True)],
            experiment_store=measured,
        )
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        full_manifest, _ = _segment_keys_flat(full, tkey)
        manifest, _ = _segment_keys_flat(measured, tkey)
        assert "measured_only" not in full_manifest
        assert manifest["measured_only"] is True
        assert manifest["warmup"] > 0
        assert manifest["fast_forward"] == store_mod.fast_forward_key(
            spec, SCALED_SYSTEM, 1, manifest["warmup"]
        )
        assert sum(manifest["events_per_node"]) < (
            sum(full_manifest["events_per_node"])
        )
        trace_kinds = (store_mod.TRACE_KIND, store_mod.FAST_FORWARD_KIND)
        def archive_bytes(store):
            return sum(e.payload_bytes for e in store.entries()
                       if e.kind in trace_kinds)
        assert archive_bytes(measured) < archive_bytes(full)

    def test_rows_are_chunk_size_invariant(self, tmp_path):
        """Chunk size shapes neither the snapshot nor the segments —
        which is why neither it nor the codec appears in any key."""
        dumps = []
        for chunk_size in CHUNK_SIZES:
            store = ExperimentStore(tmp_path / f"mc{chunk_size}.sqlite")
            runner.execute_replays(
                [runner.ReplayJob(WORKLOAD, (), chunk_size=chunk_size,
                                  measured_only=True)],
                experiment_store=store,
            )
            dumps.append((
                _rows(store, store_mod.TRACE_KIND),
                _rows(store, store_mod.FAST_FORWARD_KIND),
            ))
        assert dumps[0] == dumps[1]
        assert len(dumps[0][1]) == 1  # exactly one snapshot row

    def test_phased_suite_measured_only_matches_live(self, tmp_path):
        """PHASE markers inside the measured region survive the
        fast-forward path with their per-phase splits intact."""
        store = ExperimentStore(tmp_path / "suite-mo.sqlite")
        runner.record_trace(
            SUITE, SCALED_SYSTEM, 1, experiment_store=store,
            codec="delta-v1", measured_only=True,
            warm_filters=FAMILY_FILTERS,
        )
        report = runner.execute_replays(
            [runner.ReplayJob(SUITE.name, FAMILY_FILTERS)],
            experiment_store=store, specs={SUITE.name: SUITE},
        )
        assert report.sims_run == 0
        _metrics_blob, payloads = _live_payloads(SUITE, FAMILY_FILTERS)
        for name in FAMILY_FILTERS:
            ekey = store_mod.eval_key(SUITE, name, SCALED_SYSTEM, 1)
            assert store.get_blob(ekey) == payloads[name], name

    def test_unwarmed_family_is_a_loud_error(self, tmp_path):
        store = ExperimentStore(tmp_path / "unwarmed.sqlite")
        # Record-only: the warm set is just DEFAULT_SWEEP_FILTERS.
        runner.execute_replays(
            [runner.ReplayJob(WORKLOAD, (), measured_only=True)],
            experiment_store=store,
        )
        with pytest.raises(ConfigurationError, match="warm set"):
            runner.execute_replays(
                [runner.ReplayJob(WORKLOAD, ("EJ-8x2",))],
                experiment_store=store,
            )

    def test_warm_filters_extend_the_snapshot(self, tmp_path):
        store = ExperimentStore(tmp_path / "warmext.sqlite")
        runner.execute_replays(
            [runner.ReplayJob(WORKLOAD, (), measured_only=True,
                              warm_filters=("EJ-8x2",))],
            experiment_store=store,
        )
        report = runner.execute_replays(
            [runner.ReplayJob(WORKLOAD, ("EJ-8x2",))],
            experiment_store=store,
        )
        assert report.sims_run == 0 and report.evals_run == 1
        spec = WORKLOADS[WORKLOAD]
        _metrics_blob, payloads = _live_payloads(spec, ("EJ-8x2",))
        ekey = store_mod.eval_key(spec, "EJ-8x2", SCALED_SYSTEM, 1)
        assert store.get_blob(ekey) == payloads["EJ-8x2"]

    def test_requested_filters_are_warmed_automatically(self, tmp_path):
        """A replay job's own filters always make it into the warm set."""
        store = ExperimentStore(tmp_path / "auto.sqlite")
        runner.execute_replays(
            [runner.ReplayJob(WORKLOAD, ("EJ-8x2",), measured_only=True)],
            experiment_store=store,
        )
        ffkey = _segment_keys_flat(
            store, store_mod.trace_key(WORKLOADS[WORKLOAD], SCALED_SYSTEM, 1)
        )[0]["fast_forward"]
        payload = store_mod.decode_fast_forward(store.get_blob(ffkey))
        assert "EJ-8x2" in payload["filters"]
        for name in runner.DEFAULT_SWEEP_FILTERS:
            assert name in payload["filters"]

    def test_no_warmup_rejected(self):
        spec = replace(WORKLOADS[WORKLOAD], warmup_accesses=0)
        with pytest.raises(ConfigurationError, match="positive warm-up"):
            runner.record_trace(
                spec, SCALED_SYSTEM, 1,
                experiment_store=ExperimentStore(), measured_only=True,
            )

    def test_checkpointing_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="checkpoint_every"):
            runner.record_trace(
                WORKLOADS[WORKLOAD], SCALED_SYSTEM, 1,
                experiment_store=ExperimentStore(),
                measured_only=True, checkpoint_every=500,
            )

    def test_codec_flags_need_a_replay_sweep(self):
        with pytest.raises(ConfigurationError, match="replay sweeps only"):
            runner.run_sweep(
                (WORKLOAD,), ("EJ-8x2",),
                experiment_store=ExperimentStore(), codec="delta-v1",
            )
        with pytest.raises(ConfigurationError, match="replay sweeps only"):
            runner.run_sweep(
                (WORKLOAD,), ("EJ-8x2",),
                experiment_store=ExperimentStore(), measured_only=True,
            )


# ----------------------------------------------------------------------
# The snapshot row shares the trace's lifecycle unit
# ----------------------------------------------------------------------

class TestFastForwardLifecycle:
    def _measured_store(self, tmp_path, name="ff"):
        store = ExperimentStore(tmp_path / f"{name}.sqlite")
        runner.execute_replays(
            [runner.ReplayJob(WORKLOAD, (), codec="delta-v1",
                              measured_only=True)],
            experiment_store=store,
        )
        spec = WORKLOADS[WORKLOAD]
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        manifest, _ = _segment_keys_flat(store, tkey)
        return store, tkey, manifest["fast_forward"]

    def test_measured_store_passes_fsck(self, tmp_path):
        store, _tkey, _ffkey = self._measured_store(tmp_path)
        report = store.fsck()
        assert report.corrupt == ()
        assert report.removed == 0

    def test_delete_trace_removes_the_snapshot(self, tmp_path):
        store, tkey, ffkey = self._measured_store(tmp_path)
        assert store.contains(ffkey)
        removed = store.delete_trace(tkey)
        assert removed > 1
        assert not store.contains(ffkey)
        assert not _rows(store, store_mod.FAST_FORWARD_KIND)
        assert runner.load_trace(store, tkey) is None

    def test_corrupt_snapshot_dooms_the_whole_trace(self, tmp_path):
        store, tkey, ffkey = self._measured_store(tmp_path)
        spec = WORKLOADS[WORKLOAD]
        store.put_blob(
            ffkey, b"\x00garbage", kind=store_mod.FAST_FORWARD_KIND,
            workload=spec.name, filter_name=tkey,
            n_cpus=SCALED_SYSTEM.n_cpus, seed=1,
        )
        report = store.fsck()
        assert report.removed > 1  # snapshot AND manifest AND segments
        assert not any(
            e.kind in (store_mod.TRACE_KIND, store_mod.FAST_FORWARD_KIND)
            for e in store.entries()
        )

    def test_vanished_snapshot_makes_the_trace_absent(self, tmp_path):
        store, tkey, ffkey = self._measured_store(tmp_path)
        store.delete_key(ffkey)
        assert runner.load_trace(store, tkey) is None
        # ... so the next replay re-records rather than replaying cold.
        report = runner.execute_replays(
            [runner.ReplayJob(WORKLOAD, ("EJ-32x4",), measured_only=True)],
            experiment_store=store,
        )
        assert report.sims_run == 1
        assert runner.load_trace(store, tkey) is not None
