"""Tests for the experiment harness, using a tiny injected workload.

The real workloads simulate hundreds of thousands of accesses; unit tests
register a miniature spec under a reserved name so the full pipeline
(simulate -> record events -> replay filters -> price energy) runs in
milliseconds.
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments, runner, store as store_mod
from repro.coherence.config import SCALED_SYSTEM
from repro.traces.suite import Phase, Suite
from repro.traces.workloads import WORKLOADS, PaperReference, WorkloadSpec

TINY_NAME = "test-tiny"


def tiny_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name=TINY_NAME,
        abbrev="tt",
        description="miniature workload for harness tests",
        paper=PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5),
        n_accesses=4_000,
        warmup_accesses=1_000,
        repeat_frac=0.2,
        recipe=(
            ("private", dict(weight=0.7, ws_bytes=96 * 1024, alpha=1.5)),
            ("producer_consumer", dict(weight=0.3, n_pairs=2, buffer_bytes=4096)),
        ),
    )


@pytest.fixture(autouse=True)
def register_tiny_workload():
    WORKLOADS[TINY_NAME] = tiny_spec()
    experiments.clear_caches()
    yield
    del WORKLOADS[TINY_NAME]
    experiments.clear_caches()


class TestRunWorkload:
    def test_produces_statistics(self):
        result = experiments.run_workload(TINY_NAME)
        assert result.accesses == 4_000  # warm-up excluded by reset
        agg = result.aggregate
        assert agg.local_accesses == 4_000
        assert agg.snoops_observed > 0

    def test_cached_identity(self):
        first = experiments.run_workload(TINY_NAME)
        second = experiments.run_workload(TINY_NAME)
        assert first is second

    def test_seed_distinguishes_cache_entries(self):
        first = experiments.run_workload(TINY_NAME, seed=1)
        second = experiments.run_workload(TINY_NAME, seed=2)
        assert first is not second

    def test_system_distinguishes_cache_entries(self):
        four = experiments.run_workload(TINY_NAME)
        eight = experiments.run_workload(TINY_NAME, SCALED_SYSTEM.with_cpus(8))
        assert eight.n_cpus == 8
        assert four is not eight

    def test_l1_geometry_distinguishes_cache_entries(self):
        """Regression: the old cache key omitted L1 ways/block geometry,
        so systems differing only in L1 associativity collided."""
        from dataclasses import replace

        from repro.analysis import store as store_mod

        direct_mapped = experiments.run_workload(TINY_NAME, SCALED_SYSTEM)
        two_way_l1 = replace(SCALED_SYSTEM, l1=replace(SCALED_SYSTEM.l1, ways=2))
        # The store's actual keying path must see every L1 geometry field.
        assert store_mod.system_fingerprint(two_way_l1) != (
            store_mod.system_fingerprint(SCALED_SYSTEM)
        )
        spec = WORKLOADS[TINY_NAME]
        assert store_mod.sim_key(spec, two_way_l1, 1) != (
            store_mod.sim_key(spec, SCALED_SYSTEM, 1)
        )
        two_way = experiments.run_workload(TINY_NAME, two_way_l1)
        assert two_way is not direct_mapped
        # Higher L1 associativity changes L1 behaviour, which a colliding
        # cache key would have masked entirely.
        assert vars(two_way.aggregate) != vars(direct_mapped.aggregate)


class TestEvaluateFilter:
    def test_merged_over_nodes(self):
        result = experiments.run_workload(TINY_NAME)
        evaluation = experiments.evaluate_filter(TINY_NAME, "oracle")
        agg = result.aggregate
        assert evaluation.coverage.snoops == agg.snoops_observed
        assert evaluation.coverage.coverage == 1.0

    def test_null_zero_coverage(self):
        assert experiments.coverage_for(TINY_NAME, "null") == 0.0

    def test_hj_between_null_and_oracle(self):
        coverage = experiments.coverage_for(TINY_NAME, "HJ(IJ-8x4x7, EJ-16x2)")
        assert 0.0 < coverage <= 1.0

    def test_eval_cache(self):
        first = experiments.evaluate_filter(TINY_NAME, "EJ-8x2")
        second = experiments.evaluate_filter(TINY_NAME, "EJ-8x2")
        assert first is second


class TestEnergyReduction:
    def test_reduction_fields_consistent(self):
        reduction = experiments.energy_reduction_for(
            TINY_NAME, "HJ(IJ-9x4x7, EJ-32x4)"
        )
        assert reduction.over_snoops_parallel > reduction.over_all_parallel
        assert reduction.over_snoops_serial > reduction.over_all_serial
        assert -1.0 < reduction.over_all_serial < 1.0

    def test_oracle_beats_null(self):
        oracle = experiments.energy_reduction_for(TINY_NAME, "oracle")
        null = experiments.energy_reduction_for(TINY_NAME, "null")
        assert oracle.over_snoops_serial > null.over_snoops_serial
        assert null.over_snoops_serial == 0.0  # free, filters nothing


class TestNWaySummary:
    def test_summary_shape(self):
        summary = experiments.summarize_nway(
            2, filter_name="EJ-8x2", workloads=(TINY_NAME,)
        )
        assert summary.n_cpus == 2
        assert 0.0 <= summary.snoop_miss_of_all <= 1.0
        assert 0.0 <= summary.mean_coverage <= 1.0


# ----------------------------------------------------------------------
# The front door records a trace once and replays it per filter
# ----------------------------------------------------------------------

#: One filter of every kind the front door evaluates: the four paper
#: families plus the hashed include and the oracle, which replay on the
#: python kernel even when NumPy is present.
FRONT_DOOR_FILTERS = (
    "EJ-8x2",
    "VEJ-16x2-4",
    "IJ-8x4x7",
    "HJ(IJ-8x4x7, EJ-16x2)",
    "HIJ-8x2",
    "oracle",
)

#: A small phased suite: the per-phase splits must survive the replay.
PHASED = Suite(
    [
        Phase("hot", "shared-hot-write", 1_200),
        Phase("scan", "scan-stream", 1_500),
    ],
    name="test-front-door-phased",
    warmup_accesses=500,
)


@pytest.fixture(params=["memory", "file"])
def front_store(request, tmp_path):
    """The process-wide store, in memory or in a fresh SQLite file."""
    path = None if request.param == "memory" else tmp_path / "front.sqlite"
    store = experiments.set_store(path)
    WORKLOADS[PHASED.name] = PHASED
    yield store
    del WORKLOADS[PHASED.name]
    experiments.set_store(None)


@pytest.fixture
def count_sims(monkeypatch):
    """Counts streaming simulations; buffered ones fail the test."""
    calls = []
    original = runner.simulate_streaming

    def counting(system, stream, workload, **kwargs):
        calls.append((workload, system.n_cpus))
        return original(system, stream, workload, **kwargs)

    monkeypatch.setattr(runner, "simulate_streaming", counting)
    monkeypatch.setattr(
        runner, "compute_sim",
        lambda *a, **k: pytest.fail("the front door must not buffer"),
    )
    monkeypatch.setattr(
        runner, "compute_eval",
        lambda *a, **k: pytest.fail("the front door must not buffer"),
    )
    return calls


def oracle_blob(workload: str, filter_name: str, seed: int = 1) -> bytes:
    """The buffered per-event evaluation, encoded."""
    spec = WORKLOADS[workload]
    sim = runner.compute_sim(spec, SCALED_SYSTEM, seed)
    phase_names = spec.phase_names() if getattr(spec, "phases", ()) else ()
    return store_mod.encode_eval(
        runner.compute_eval(sim, filter_name, SCALED_SYSTEM, phase_names)
    )


class TestFrontDoorRecordReplay:
    def test_cold_filter_records_one_trace_and_no_sim_row(
        self, front_store, count_sims
    ):
        experiments.evaluate_filter(TINY_NAME, "EJ-8x2")
        stats = front_store.stats()
        assert stats.traces == 1
        assert stats.sims == 0
        assert stats.stream_sims == 1
        assert count_sims == [(TINY_NAME, SCALED_SYSTEM.n_cpus)]

    def test_second_filter_runs_no_simulation(self, front_store, count_sims):
        experiments.evaluate_filter(TINY_NAME, "EJ-8x2")
        experiments.evaluate_filter(TINY_NAME, "IJ-8x4x7")
        experiments.workload_metrics(TINY_NAME)
        assert len(count_sims) == 1
        assert front_store.stats().traces == 1

    @pytest.mark.parametrize("workload", [TINY_NAME, PHASED.name])
    def test_eval_blobs_match_the_buffered_oracle(self, front_store, workload):
        spec = WORKLOADS[workload]
        for name in FRONT_DOOR_FILTERS:
            experiments.evaluate_filter(workload, name)
            key = store_mod.eval_key(spec, name, SCALED_SYSTEM, 1)
            expected = oracle_blob(workload, name)
            assert front_store.get_blob(key) == expected, name
        assert front_store.stats().sims == 0

    def test_measured_only_trace_is_a_miss_not_an_error(self, front_store):
        """A measured-only recording lacking the filter's warm state must
        not fail the front door; the filter is evaluated live and the
        user's recording stays as it was."""
        spec = WORKLOADS[TINY_NAME]
        runner.record_trace(
            spec, SCALED_SYSTEM, 1,
            experiment_store=front_store, measured_only=True,
        )
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        manifest = front_store.get_blob(tkey)
        name = "EJ-8x2"  # not in the default warm set
        evaluation = experiments.evaluate_filter(TINY_NAME, name)
        key = store_mod.eval_key(spec, name, SCALED_SYSTEM, 1)
        assert front_store.get_blob(key) == oracle_blob(TINY_NAME, name)
        assert experiments.evaluate_filter(TINY_NAME, name) is evaluation
        assert front_store.get_blob(tkey) == manifest
        assert store_mod.decode_trace_manifest(manifest)["measured_only"]


class TestOneSimulationPerWorkload:
    def test_energy_reduction_simulates_once(self, front_store, count_sims):
        experiments.energy_reduction_for(TINY_NAME, "HJ(IJ-8x4x7, EJ-16x2)")
        experiments.energy_reduction_for(TINY_NAME, "EJ-8x2")
        assert count_sims == [(TINY_NAME, SCALED_SYSTEM.n_cpus)]

    def test_nway_simulates_once_per_workload(self, front_store, count_sims):
        experiments.summarize_nway(
            2, filter_name="EJ-8x2", workloads=(TINY_NAME, PHASED.name)
        )
        assert sorted(count_sims) == [(PHASED.name, 2), (TINY_NAME, 2)]
