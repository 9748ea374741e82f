"""Streaming-engine tests: equivalence, memory bounds, resumable traces.

The streaming engine's whole value rests on two claims:

* **byte-identity** — for the same ``(spec, system, seed)``, a streamed
  evaluation serialises to exactly the bytes the buffered replay
  produces, for any chunk size and worker count (so both modes may share
  one store keyspace);
* **bounded memory** — a streamed run's peak allocation depends on the
  chunk size, never on the trace length (so paper-scale runs fit).

Both are pinned here, the first against the golden-metrics suite's
workload/filter pairs, the second with ``tracemalloc`` on a 200k- vs
2M-access run of the same trace.
"""

from __future__ import annotations

import itertools
import json
import random
import tracemalloc

import pytest

from repro.analysis import experiments, runner
from repro.analysis import store as store_mod
from repro.analysis.store import ExperimentStore
from repro.coherence.config import CacheConfig, SCALED_SYSTEM, SystemConfig
from repro.coherence.smp import SMPSystem, simulate, simulate_streaming
from repro.core import vector_replay
from repro.core.stats import (
    EVICT,
    EventReplayer,
    KIND_MASK,
    MARKER,
    NodeEventStream,
    SNOOP,
    pack_event,
)
from repro.errors import CoherenceError, FilterSafetyError, ReproError
from repro.traces.synth import MixStream
from repro.traces.workloads import (
    WORKLOADS,
    PaperReference,
    WorkloadSpec,
    apply_preset,
    build_workload_stream,
    get_workload,
)
from tests.test_golden_metrics import CASES, GOLDEN_WORKLOADS, golden_path

#: Deliberately awkward chunk sizes: a tiny one (many shards), a prime
#: (boundaries never align with warm-up or node counts), and one larger
#: than any golden trace (single-shard degenerate case).
CHUNK_SIZES = (512, 1777, 1_000_000)

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

requires_numpy = pytest.mark.skipif(
    not vector_replay.numpy_available(),
    reason="the vector kernels need NumPy",
)

SWEEP_WORKLOAD = "test-stream-sweep"
SWEEP_FILTERS = ("EJ-8x2", "VEJ-16x2-4")


@pytest.fixture
def sweep_workload():
    WORKLOADS[SWEEP_WORKLOAD] = WorkloadSpec(
        name=SWEEP_WORKLOAD,
        abbrev="ts",
        description="miniature workload for streaming sweep tests",
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
    yield WORKLOADS[SWEEP_WORKLOAD]
    experiments._STORE.close()
    experiments._STORE = previous
    del WORKLOADS[SWEEP_WORKLOAD]


# ----------------------------------------------------------------------
# Byte-identity against the golden suite
# ----------------------------------------------------------------------

class TestGoldenEquivalence:
    def test_streamed_matches_buffered_across_chunk_sizes(self):
        """Every golden pair, three chunk sizes: identical payload bytes."""
        for spec in GOLDEN_WORKLOADS:
            cases = [(f, s) for w, f, s in CASES if w == spec.name]
            assert cases, f"no golden cases for {spec.name}"
            by_seed: dict[int, list[str]] = {}
            for filter_name, seed in cases:
                by_seed.setdefault(seed, []).append(filter_name)
            for seed, filters in by_seed.items():
                sim = runner.compute_sim(spec, SCALED_SYSTEM, seed)
                buffered = {
                    name: store_mod.encode_eval(
                        runner.compute_eval(sim, name, SCALED_SYSTEM)
                    )
                    for name in filters
                }
                for chunk_size in CHUNK_SIZES:
                    metrics, evaluations = runner.compute_stream(
                        spec, SCALED_SYSTEM, seed, tuple(filters), chunk_size
                    )
                    assert store_mod.sim_metrics_to_dict(metrics) == (
                        store_mod.sim_metrics_to_dict(sim)
                    ), (spec.name, chunk_size)
                    for name in filters:
                        streamed = store_mod.encode_eval(evaluations[name])
                        assert streamed == buffered[name], (
                            spec.name, name, chunk_size
                        )

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_streamed_reproduces_golden_files_exactly(self, chunk_size):
        """Packed streamed evals equal the *committed* golden JSON files.

        Parametrised over chunk sizes: the packed event encoding must
        reproduce the golden numbers wherever the shard boundaries fall.
        """
        for workload, filter_name, seed in CASES:
            spec = next(s for s in GOLDEN_WORKLOADS if s.name == workload)
            golden = json.loads(golden_path(workload, filter_name, seed).read_text())
            metrics, evaluations = runner.compute_stream(
                spec, SCALED_SYSTEM, seed, (filter_name,), chunk_size=chunk_size
            )
            assert store_mod.evaluation_to_dict(evaluations[filter_name]) == (
                golden["evaluation"]
            )
            assert vars(metrics.aggregate).copy() == golden["sim"]["aggregate"]
            assert metrics.accesses == golden["sim"]["accesses"]
            assert store_mod.sim_metrics_to_dict(metrics)["bus"] == (
                golden["sim"]["bus"]
            )


# ----------------------------------------------------------------------
# Shard protocol edge cases
# ----------------------------------------------------------------------

def _trace(n: int, seed: int = 3) -> list[tuple[int, int, bool]]:
    rng = random.Random(seed)
    return [
        (rng.randrange(2), rng.randrange(1 << 13) & ~7, rng.random() < 0.3)
        for _ in range(n)
    ]


@pytest.fixture
def tiny2(tiny_system: SystemConfig) -> SystemConfig:
    return tiny_system.with_cpus(2)


class _CollectingSink:
    """Reassembles per-node event lists from consumed shards."""

    def __init__(self, n_cpus: int) -> None:
        self.events = [[] for _ in range(n_cpus)]
        self.shard_sizes: list[int] = []

    def consume(self, shard: list[NodeEventStream]) -> None:
        self.shard_sizes.append(sum(len(s.events) for s in shard))
        for node_id, stream in enumerate(shard):
            assert stream.node_id == node_id
            self.events[node_id].extend(stream.events)  # packed ints


class TestShardProtocol:
    @pytest.mark.parametrize("chunk_size", (1, 7, 400, 10_000))
    def test_shards_concatenate_to_buffered_stream(self, tiny2, chunk_size):
        trace = _trace(1_200)
        buffered = simulate(tiny2, trace, warmup=300)
        sink = _CollectingSink(tiny2.n_cpus)
        streamed = simulate_streaming(
            tiny2, trace, warmup=300, chunk_size=chunk_size, sinks=[sink]
        )
        for node_id, stream in enumerate(buffered.event_streams):
            assert sink.events[node_id] == list(stream.events), (
                node_id, chunk_size
            )
        assert streamed.event_streams == []
        assert [vars(s) for s in streamed.node_stats] == (
            [vars(s) for s in buffered.node_stats]
        )
        assert streamed.bus == buffered.bus
        assert streamed.accesses == buffered.accesses

    def test_marker_rides_first_measured_shard(self, tiny2):
        """The warm-up MARKER lands between chunks at the exact position."""
        trace = _trace(500)
        sink = _CollectingSink(tiny2.n_cpus)
        simulate_streaming(tiny2, trace, warmup=250, chunk_size=100, sinks=[sink])
        for events in sink.events:
            markers = [
                i for i, event in enumerate(events)
                if event & KIND_MASK == MARKER
            ]
            assert len(markers) == 1

    def test_warmup_only_trace_flushes_marker_residue(self, tiny2):
        """warmup == len(trace): the MARKER must still reach the sinks."""
        trace = _trace(200)
        sink = _CollectingSink(tiny2.n_cpus)
        simulate_streaming(tiny2, trace, warmup=200, chunk_size=64, sinks=[sink])
        for events in sink.events:
            assert events[-1] & KIND_MASK == MARKER

    def test_run_chunked_rejects_bad_chunk_size(self, tiny2):
        from repro.errors import TraceError

        system = SMPSystem(tiny2)
        with pytest.raises(TraceError):
            list(system.run_chunked([], chunk_size=0))

    def test_replaying_a_metrics_only_result_fails_loudly(self, tiny2):
        """A hollow (streamed) result must never yield zero coverage."""
        metrics = simulate_streaming(tiny2, _trace(300), chunk_size=128)
        assert metrics.event_streams == []
        with pytest.raises(ValueError, match="metrics-only"):
            runner.compute_eval(metrics, "EJ-8x2", SCALED_SYSTEM)


# ----------------------------------------------------------------------
# Live banks on the auto kernel vs the python-kernel live oracle
# ----------------------------------------------------------------------

#: One member of each vectorised family plus the per-event-only ones,
#: all in *one* pass so vector and python banks share each segment.
LIVE_FILTERS = (
    "EJ-16x2",
    "VEJ-16x2-4",
    "IJ-8x4x7",
    "HJ(IJ-8x4x7, EJ-16x2)",
    "HJ(IJ-8x4x7, VEJ-16x2-4)",
    "null",
    "oracle",
    "HIJ-10x2",
)

LIVE_SPEC = WorkloadSpec(
    name="test-live-parity",
    abbrev="tl",
    description="miniature workload for live kernel parity tests",
    paper=_PAPER,
    n_accesses=1_500,
    warmup_accesses=400,
    repeat_frac=0.2,
    recipe=(
        ("streaming", dict(weight=0.6, partition_bytes=64 * 1024)),
        ("migratory", dict(weight=0.4, n_objects=16)),
    ),
)


def _oracle_banks(spec, filters) -> dict:
    """The python-kernel live oracle: one python bank per filter."""
    from repro.core.stats import StreamingFilterBank

    _marks, names = runner._phase_plan(spec)
    return {
        name: StreamingFilterBank(
            runner._build_filters(name, SCALED_SYSTEM),
            kernel="python", phase_names=names,
        )
        for name in filters
    }


def _run_oracle(spec, banks: dict, chunk_size: int):
    """Drive the oracle banks as separate sinks of one live simulation."""
    from repro.traces.workloads import simulate_workload_accesses

    stream, warmup = simulate_workload_accesses(
        spec, n_cpus=SCALED_SYSTEM.n_cpus, seed=1
    )
    marks, _names = runner._phase_plan(spec)
    return simulate_streaming(
        SCALED_SYSTEM, stream, spec.name, warmup=warmup,
        chunk_size=chunk_size, sinks=banks.values(), phase_marks=marks,
    )


def _assert_live_parity(spec, filters, chunk_size):
    banks = _oracle_banks(spec, filters)
    oracle_metrics = _run_oracle(spec, banks, chunk_size)
    metrics, evaluations = runner.compute_stream(
        spec, SCALED_SYSTEM, 1, filters, chunk_size
    )
    assert store_mod.encode_sim_metrics(metrics) == (
        store_mod.encode_sim_metrics(oracle_metrics)
    )
    for name in filters:
        assert store_mod.encode_eval(evaluations[name]) == (
            store_mod.encode_eval(banks[name].finish())
        ), (spec.name, name, chunk_size)
    return evaluations


#: A block far above every workload's footprint: all its IJ lanes read 0.
_COLD_BLOCK = 0x2AB << 21


class TestLiveKernelParity:
    """``compute_stream`` runs its banks on the ``auto`` kernel behind one
    shared segment per node and shard; every payload must equal the
    python-kernel live oracle's, errors included."""

    @pytest.mark.parametrize(
        "chunk_size", (1, 7, 4096, runner.DEFAULT_CHUNK_SIZE)
    )
    def test_mixed_kernel_pass_matches_python_oracle(self, chunk_size):
        _assert_live_parity(LIVE_SPEC, LIVE_FILTERS, chunk_size)

    def test_phased_suite_matches_python_oracle(self):
        from repro.traces.suite import Phase, Suite

        suite = Suite(
            [Phase("fill", "zipf-hot", 900),
             Phase("drain", "scan-stream", 900)],
            name="test-live-suite",
            warmup_accesses=400,
        )
        evaluations = _assert_live_parity(suite, LIVE_FILTERS, 777)
        for evaluation in evaluations.values():
            assert set(evaluation.phases) == {"fill", "drain"}

    def _both_raise(self, monkeypatch, filter_name, events):
        """Run oracle and ``compute_stream`` with ``events`` appended to
        node 0's third shard; both must fail alike.  Returns the error."""
        original_take = SMPSystem.take_shard

        def inject():
            taken = {"shards": 0}

            def take_shard(system):
                shard = original_take(system)
                taken["shards"] += 1
                if taken["shards"] == 3:
                    shard[0].events.extend(events)
                return shard

            monkeypatch.setattr(SMPSystem, "take_shard", take_shard)

        built = []
        build = runner._build_bank
        monkeypatch.setattr(
            runner, "_build_bank",
            lambda *a, **k: built.append(build(*a, **k)) or built[-1],
        )
        oracle = _oracle_banks(LIVE_SPEC, (filter_name,))[filter_name]
        inject()
        with pytest.raises(ReproError) as oracle_error:
            _run_oracle(LIVE_SPEC, {filter_name: oracle}, 256)
        inject()
        with pytest.raises(ReproError) as live_error:
            runner.compute_stream(
                LIVE_SPEC, SCALED_SYSTEM, 1, (filter_name,), 256
            )
        (live,) = built
        assert type(live_error.value) is type(oracle_error.value)
        assert str(live_error.value) == str(oracle_error.value)
        for vector, python in zip(live.replayers, oracle.replayers):
            assert not isinstance(vector, EventReplayer)
            assert vars(vector.stats) == vars(python.stats)
            assert (vector.allocs, vector.evicts) == (
                python.allocs, python.evicts
            )
        return live_error.value

    @requires_numpy
    @pytest.mark.parametrize("filter_name", LIVE_FILTERS[:5])
    def test_safety_violation_matches_python_oracle(
        self, monkeypatch, filter_name
    ):
        """Snoop a cold block, then snoop it as cached: every vectorised
        family filters the second snoop and must fail like the oracle."""
        events = [
            pack_event(SNOOP, _COLD_BLOCK),
            pack_event(SNOOP, _COLD_BLOCK, 3),
        ]
        error = self._both_raise(monkeypatch, filter_name, events)
        assert type(error) is FilterSafetyError

    @requires_numpy
    @pytest.mark.parametrize("filter_name", LIVE_FILTERS[2:5])
    def test_ij_underflow_matches_python_oracle(
        self, monkeypatch, filter_name
    ):
        """Evict a never-allocated block: the IJ lanes underflow."""
        error = self._both_raise(
            monkeypatch, filter_name, [pack_event(EVICT, _COLD_BLOCK)]
        )
        assert type(error) is CoherenceError
        assert "IJ counter underflow" in str(error)


# ----------------------------------------------------------------------
# Store-backed sweeps: equivalence and cross-mode warming
# ----------------------------------------------------------------------

class TestStreamSweeps:
    def _sweep(self, store, *, stream, workers=1, chunk_size=997):
        return runner.run_sweep(
            (SWEEP_WORKLOAD,), SWEEP_FILTERS,
            workers=workers, experiment_store=store,
            stream=stream, chunk_size=chunk_size,
        )

    def test_streamed_sweep_matches_buffered_evaluations(
        self, sweep_workload, tmp_path
    ):
        buffered_store = ExperimentStore(tmp_path / "buffered.sqlite")
        streamed_store = ExperimentStore(tmp_path / "streamed.sqlite")
        buffered = self._sweep(buffered_store, stream=False)
        streamed = self._sweep(streamed_store, stream=True)

        evals_of = lambda store: {
            e.key: store.get_blob(e.key)
            for e in store.entries() if e.kind == "eval"
        }
        assert evals_of(buffered_store) == evals_of(streamed_store)
        for name in SWEEP_FILTERS:
            assert buffered.coverage(SWEEP_WORKLOAD, name) == (
                streamed.coverage(SWEEP_WORKLOAD, name)
            )
        kinds = {e.kind for e in streamed_store.entries()}
        assert kinds == {"sim-metrics", "eval"}

    def test_parallel_streamed_store_is_bitwise_identical(
        self, sweep_workload, tmp_path
    ):
        serial = ExperimentStore(tmp_path / "serial.sqlite")
        parallel = ExperimentStore(tmp_path / "parallel.sqlite")
        self._sweep(serial, stream=True, workers=1)
        self._sweep(parallel, stream=True, workers=2)
        assert serial.dump() == parallel.dump()

    def test_chunk_size_never_enters_store_keys(self, sweep_workload, tmp_path):
        store = ExperimentStore(tmp_path / "chunks.sqlite")
        first = self._sweep(store, stream=True, chunk_size=256)
        again = self._sweep(store, stream=True, chunk_size=2_048)
        assert first.report.sims_run == 1
        assert again.report.sims_run == 0
        assert again.report.evals_run == 0
        assert again.report.sims_cached == 1
        assert again.report.evals_cached == len(SWEEP_FILTERS)

    def test_buffered_evaluations_warm_streamed_runs(
        self, sweep_workload, tmp_path
    ):
        store = ExperimentStore(tmp_path / "warm.sqlite")
        self._sweep(store, stream=False)
        streamed = self._sweep(store, stream=True)
        # Fully warm: evaluations are shared across modes, and the
        # metrics-only payload is derived from the stored buffered
        # simulation rather than re-simulated.
        assert streamed.report.evals_run == 0
        assert streamed.report.evals_cached == len(SWEEP_FILTERS)
        assert streamed.report.sims_run == 0
        assert streamed.report.sims_cached == 1
        # The derived payload is byte-identical to a genuinely streamed
        # one: a fresh streamed store's sim-metrics row matches.
        fresh = ExperimentStore(tmp_path / "fresh.sqlite")
        self._sweep(fresh, stream=True)
        metrics_rows = lambda s: {
            e.key: s.get_blob(e.key)
            for e in s.entries() if e.kind == "sim-metrics"
        }
        assert metrics_rows(fresh) == metrics_rows(store)

    def test_partially_warm_buffered_store_replays_instead_of_simulating(
        self, sweep_workload, tmp_path, monkeypatch
    ):
        store = ExperimentStore(tmp_path / "partial.sqlite")
        runner.run_sweep(
            (SWEEP_WORKLOAD,), SWEEP_FILTERS[:1],
            experiment_store=store, stream=False,
        )
        # The stored buffered recording must satisfy the second filter by
        # replay — any attempt to simulate again is a failure.
        with monkeypatch.context() as patched:
            patched.setattr(
                runner, "compute_stream",
                lambda *a, **k: pytest.fail(
                    "buffered recording should be replayed"
                ),
            )
            patched.setattr(
                runner, "compute_sim",
                lambda *a, **k: pytest.fail("nothing should be simulated"),
            )
            streamed = self._sweep(store, stream=True)
        assert streamed.report.sims_run == 0
        assert streamed.report.sims_cached == 1
        assert streamed.report.evals_run == 1  # the second filter, replayed
        assert streamed.report.evals_cached == 1
        # Replay-derived rows are byte-identical to a fresh streamed run.
        fresh = ExperimentStore(tmp_path / "fresh-partial.sqlite")
        runner.run_sweep(
            (SWEEP_WORKLOAD,), SWEEP_FILTERS,
            experiment_store=fresh, stream=True,
        )
        rows = lambda s, kind: {
            e.key: s.get_blob(e.key)
            for e in s.entries() if e.kind == kind
        }
        assert rows(fresh, "eval") == rows(store, "eval")
        assert rows(fresh, "sim-metrics") == rows(store, "sim-metrics")

    def test_streamed_evaluations_warm_buffered_sweeps(
        self, sweep_workload, tmp_path, monkeypatch
    ):
        store = ExperimentStore(tmp_path / "warm2.sqlite")
        self._sweep(store, stream=True)
        # Every evaluation the buffered sweep wants is already stored, so
        # it must not re-simulate just to park an unused recording.
        monkeypatch.setattr(
            runner, "compute_sim",
            lambda *a, **k: pytest.fail("warm evals need no simulation"),
        )
        buffered = self._sweep(store, stream=False)
        assert buffered.report.evals_run == 0
        assert buffered.report.evals_cached == len(SWEEP_FILTERS)
        assert buffered.report.sims_run == 0

    def test_front_door_evaluate_filters_streaming(self, sweep_workload):
        outcome = experiments.evaluate_filters_streaming(
            SWEEP_WORKLOAD, SWEEP_FILTERS, chunk_size=512
        )
        assert set(outcome.evaluations) == set(SWEEP_FILTERS)
        assert outcome.metrics.accesses == sweep_workload.n_accesses
        assert outcome.metrics.event_streams == []
        for name in SWEEP_FILTERS:
            assert outcome.coverage(name) == pytest.approx(
                experiments.coverage_for(SWEEP_WORKLOAD, name)
            )


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

class TestPaperScalePreset:
    def test_paper_scale_sets_table2_lengths(self):
        from dataclasses import replace

        from repro.traces.workloads import PAPER_SCALE_CAP

        # Every Table 2 trace is longer than the cap, so stock workloads
        # all land exactly on it (188.7M for lu, 1.75B for fmm, ...).
        lu = apply_preset(get_workload("lu"), "paper-scale")
        assert lu.n_accesses == PAPER_SCALE_CAP
        assert lu.warmup_accesses == get_workload("lu").warmup_accesses
        # A shorter paper trace scales to its true length, uncapped.
        short = replace(
            get_workload("lu"),
            paper=replace(get_workload("lu").paper, accesses_millions=12.0),
        )
        assert apply_preset(short, "paper-scale").n_accesses == 12_000_000

    def test_unknown_preset_raises(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="unknown preset"):
            apply_preset(get_workload("lu"), "nope")


# ----------------------------------------------------------------------
# Resumable trace generation
# ----------------------------------------------------------------------

class TestMixStream:
    def test_checkpoint_resume_continues_exactly(self):
        stream = build_workload_stream("fft", seed=5)
        prefix = stream.take(2_000)
        blob = stream.checkpoint()
        rest_here = list(stream)
        resumed = MixStream.resume(blob)
        assert resumed.position == 2_000
        rest_there = list(resumed)
        assert rest_there == rest_here
        assert prefix + rest_here == list(build_workload_stream("fft", seed=5))

    def test_chunks_cover_stream_exactly_once(self):
        whole = list(build_workload_stream("lu", seed=2))
        chunks = list(build_workload_stream("lu", seed=2).chunks(997))
        assert [len(c) for c in chunks[:-1]] == [997] * (len(chunks) - 1)
        assert [a for c in chunks for a in c] == whole

    def test_resume_rejects_foreign_blobs(self):
        import pickle

        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            MixStream.resume(pickle.dumps({"not": "a stream"}))


# ----------------------------------------------------------------------
# Memory bound: streamed peak is independent of trace length
# ----------------------------------------------------------------------

def _memory_system() -> SystemConfig:
    return SystemConfig(
        n_cpus=2,
        l1=CacheConfig(capacity_bytes=256, block_bytes=32, subblock_bytes=32),
        l2=CacheConfig(capacity_bytes=2048, block_bytes=64, subblock_bytes=32),
        wb_entries=2,
        address_bits=24,
    )


def _memory_trace() -> list[tuple[int, int, bool]]:
    """A cheap cyclable trace: mostly hot L1 hits, ~6% snoop-heavy misses.

    Cycling a precomputed base keeps per-access cost low enough to push
    millions of accesses through under ``tracemalloc``; the miss fraction
    still produces a steady stream of SNOOP/ALLOC/EVICT events (the thing
    whose accumulation this test guards against).
    """
    rng = random.Random(7)
    base = []
    for i in range(4_096):
        cpu = i & 1
        if rng.random() < 0.06:
            address = rng.randrange(1 << 14) & ~7
        else:
            address = (cpu << 16) | (rng.randrange(4) * 8)
        base.append((cpu, address, rng.random() < 0.2))
    return base


def _streamed_peak(system, base, n_accesses: int) -> tuple[int, int]:
    bank = runner._build_bank("EJ-8x2", system)
    stream = itertools.islice(itertools.cycle(base), n_accesses)
    tracemalloc.start()
    result = simulate_streaming(
        system, stream, warmup=2_000, chunk_size=8_192, sinks=[bank]
    )
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    events = sum(s.snoops_observed for s in result.node_stats)
    return peak, events


def test_streamed_peak_memory_is_flat_at_2m_accesses():
    """Acceptance bound: 2M-access peak within 2x of the 200k-access peak.

    Also cross-checks against a buffered run at the small size: buffered
    accumulation is already several times the streamed peak at 200k
    accesses, so the assertion genuinely discriminates.
    """
    system = _memory_system()
    base = _memory_trace()

    peak_small, events_small = _streamed_peak(system, base, 200_000)
    peak_large, events_large = _streamed_peak(system, base, 2_000_000)
    assert events_large > 8 * events_small  # the event stream really grew
    assert peak_large < 2 * peak_small, (
        f"streamed peak grew with trace length: "
        f"{peak_small / 1e6:.2f} MB @200k vs {peak_large / 1e6:.2f} MB @2M"
    )

    tracemalloc.start()
    simulate(system, itertools.islice(itertools.cycle(base), 200_000), warmup=2_000)
    _current, buffered_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert buffered_peak > 2 * peak_small, (
        "buffered accumulation should dominate the streamed peak "
        f"({buffered_peak / 1e6:.2f} MB vs {peak_small / 1e6:.2f} MB)"
    )
