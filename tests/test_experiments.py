"""Tests for the experiment harness, using a tiny injected workload.

The real workloads simulate hundreds of thousands of accesses; unit tests
register a miniature spec under a reserved name so the full pipeline
(simulate -> record events -> replay filters -> price energy) runs in
milliseconds.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import replace

import pytest

from repro.analysis import experiments, figures, resilience, runner
from repro.analysis import store as store_mod
from repro.coherence.config import SCALED_SYSTEM
from repro.core.null import NullFilter
from repro.energy.accounting import EnergyAccountant
from repro.errors import (
    FilterNameError,
    FilterSafetyError,
    TaskQuarantinedError,
    WorkerCrashError,
)
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

    def test_seed_distinguishes_cache_entries(self):
        first = experiments.run_workload(TINY_NAME, seed=1)
        second = experiments.run_workload(TINY_NAME, seed=2)
        assert vars(first.aggregate) != vars(second.aggregate)

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
        for key in (store_mod.trace_key, store_mod.sim_metrics_key):
            assert key(spec, two_way_l1, 1) != key(spec, SCALED_SYSTEM, 1)
        two_way = experiments.run_workload(TINY_NAME, two_way_l1)
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


def pin_cpus(monkeypatch, count: int) -> None:
    """Make the front door see ``count`` usable CPUs."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


@pytest.fixture
def count_sims(monkeypatch):
    """Counts streaming simulations; in-memory ones fail the test.

    The counter lives in this process, and forked workers' simulations
    never reach it, so the front door is pinned to one CPU (the serial
    backend, in-process).
    """
    pin_cpus(monkeypatch, 1)
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
    """The in-memory reference evaluation, encoded."""
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


# ----------------------------------------------------------------------
# Exhibits fill their whole workload x filter grid in one pass
# ----------------------------------------------------------------------

#: The tiny registry the figure builders iterate in these tests.
GRID_WORKLOADS = (TINY_NAME, PHASED.name)


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpu"])
def cpus(request, monkeypatch):
    """The usable CPUs the front door sees (its affinity mask)."""
    pin_cpus(monkeypatch, request.param)
    return request.param


@pytest.fixture
def tiny_registry(front_store, monkeypatch):
    """Figures iterate the tiny workloads instead of the paper's ten."""
    monkeypatch.setattr(
        figures, "WORKLOADS", {name: WORKLOADS[name] for name in GRID_WORKLOADS}
    )


@pytest.fixture
def replay_reports(monkeypatch):
    """The executor calls the front door makes: ``(kwargs, report)``."""
    calls = []
    original = runner.execute_replays

    def recording(jobs, **kwargs):
        report = original(jobs, **kwargs)
        calls.append((kwargs, report))
        return report

    monkeypatch.setattr(runner, "execute_replays", recording)
    return calls


def oracle_sim_metrics(workload: str, seed: int = 1) -> bytes:
    return store_mod.encode_sim_metrics(
        runner.compute_sim(WORKLOADS[workload], SCALED_SYSTEM, seed)
    )


def assert_cells_match_oracle(store, filter_names) -> None:
    for workload in GRID_WORKLOADS:
        spec = WORKLOADS[workload]
        mkey = store_mod.sim_metrics_key(spec, SCALED_SYSTEM, 1)
        assert store.get_blob(mkey) == oracle_sim_metrics(workload), workload
        for name in filter_names:
            key = store_mod.eval_key(spec, name, SCALED_SYSTEM, 1)
            assert store.get_blob(key) == oracle_blob(workload, name), (
                workload, name,
            )


def segment_count(store) -> int:
    total = 0
    for workload in GRID_WORKLOADS:
        tkey = store_mod.trace_key(WORKLOADS[workload], SCALED_SYSTEM, 1)
        manifest = store_mod.decode_trace_manifest(store.get_blob(tkey))
        total += sum(manifest["segments_per_node"])
    return total


class TestGridFrontDoor:
    def test_figure4a_matches_the_per_cell_oracle(
        self, front_store, cpus, tiny_registry, replay_reports
    ):
        figure = figures.build_figure4a()
        names = [series.label for series in figure.series]
        assert_cells_match_oracle(front_store, names)
        for series in figure.series:
            assert list(series.values) == list(GRID_WORKLOADS)
            for workload, value in series.values.items():
                expected = store_mod.decode_eval(oracle_blob(workload, series.label))
                assert value == expected.coverage.coverage
        # One executor call for the exhibit, one recording per workload.
        [(kwargs, report)] = replay_reports
        assert report.sims_run == len(GRID_WORKLOADS)
        assert report.evals_run == len(GRID_WORKLOADS) * len(names)
        assert kwargs["workers"] == cpus
        assert kwargs["backend"] == ("process" if cpus > 1 else "serial")
        stats = front_store.stats()
        assert (stats.traces, stats.sims) == (len(GRID_WORKLOADS), 0)

    def test_figure6_matches_the_per_cell_oracle(
        self, front_store, cpus, tiny_registry, replay_reports
    ):
        panels = figures.build_figure6()
        names = [series.label for series in panels["a"].series]
        assert_cells_match_oracle(front_store, names)
        accountant = EnergyAccountant()
        for workload in GRID_WORKLOADS:
            sim = runner.compute_sim(WORKLOADS[workload], SCALED_SYSTEM, 1)
            for panel, data in panels.items():
                for series in data.series:
                    reduction = accountant.reduction(
                        sim.aggregate,
                        store_mod.decode_eval(oracle_blob(workload, series.label)),
                        series.label,
                    )
                    expected = {
                        "a": reduction.over_snoops_serial,
                        "b": reduction.over_all_serial,
                        "c": reduction.over_snoops_parallel,
                        "d": reduction.over_all_parallel,
                    }[panel]
                    assert series.values[workload] == expected, (
                        panel, series.label, workload,
                    )
        assert sum(report.sims_run for _kwargs, report in replay_reports) == (
            len(GRID_WORKLOADS)
        )

    def test_each_workload_is_recorded_once_across_exhibits(
        self, front_store, cpus, tiny_registry, replay_reports
    ):
        figures.build_figure4a()
        figures.build_figure5a()
        experiments.summarize_nway(4, workloads=GRID_WORKLOADS)
        reports = [report for _kwargs, report in replay_reports]
        assert [report.sims_run for report in reports] == [2, 0, 0]
        assert [report.sims_cached for report in reports] == [0, 2, 2]
        assert front_store.stats().traces == len(GRID_WORKLOADS)

    def test_warm_grid_touches_no_trace_and_starts_no_executor(
        self, front_store, cpus, tiny_registry, monkeypatch
    ):
        cold = figures.build_figure4a()
        for name in ("load_trace", "unservable_filters", "execute_replays",
                     "execute"):
            monkeypatch.setattr(
                runner, name,
                lambda *a, _name=name, **k: pytest.fail(f"warm grid ran {_name}"),
            )
        warm = figures.build_figure4a()
        assert [s.values for s in warm.series] == [s.values for s in cold.series]

    def test_one_cpu_decodes_each_segment_once_without_a_pool(
        self, front_store, tiny_registry, monkeypatch
    ):
        pin_cpus(monkeypatch, 1)
        for pool in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
            monkeypatch.setattr(
                concurrent.futures, pool,
                lambda *a, _pool=pool, **k: pytest.fail(f"{_pool} created"),
            )
        decodes = []
        original = store_mod.decode_trace_segment

        def counting(blob):
            decodes.append(1)
            return original(blob)

        monkeypatch.setattr(store_mod, "decode_trace_segment", counting)
        figures.build_figure4a()
        segments = segment_count(front_store)
        assert len(decodes) == segments
        figures.build_figure4b()  # new filters, the same stored traces
        assert len(decodes) == 2 * segments

    def test_workers_never_exceed_the_workloads_to_record(
        self, front_store, replay_reports, monkeypatch
    ):
        pin_cpus(monkeypatch, 64)
        experiments.evaluate_filter(TINY_NAME, "EJ-8x2")
        # Only the phased workload misses its EJ-8x2 cell.
        experiments.evaluate_grid(GRID_WORKLOADS, ("EJ-8x2",))
        experiments.evaluate_grid(GRID_WORKLOADS, ("IJ-8x4x7",))
        [(one_cell, _), (one_row, _), (grid, _)] = replay_reports
        # A grid of one records in this process, as before the grid.
        assert (one_cell["workers"], one_cell["backend"]) == (1, "serial")
        assert (one_row["workers"], one_row["backend"]) == (1, "serial")
        assert (grid["workers"], grid["backend"]) == (2, "process")

    def test_partly_warm_grid_loads_each_trace_once(
        self, front_store, tiny_registry, monkeypatch
    ):
        pin_cpus(monkeypatch, 1)
        figures.build_figure4a()
        loads = []
        original = runner.load_trace

        def counting(store, tkey):
            loads.append(tkey)
            return original(store, tkey)

        monkeypatch.setattr(runner, "load_trace", counting)
        figures.build_figure4b()  # new filters, the same stored traces
        assert len(loads) == len(set(loads)) == len(GRID_WORKLOADS)

    def test_measured_only_trace_serves_warmed_cells_and_evaluates_the_rest_live(
        self, front_store, cpus, replay_reports
    ):
        spec = WORKLOADS[TINY_NAME]
        runner.record_trace(
            spec, SCALED_SYSTEM, 1,
            experiment_store=front_store, measured_only=True,
        )
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        # Manifest, segments and fast-forward row: segments and the
        # fast-forward row carry the manifest key as their group.
        recording = {
            entry.key: front_store.get_blob(entry.key)
            for entry in front_store.entries()
            if tkey in (entry.key, entry.filter_name)
        }
        assert len(recording) > 2
        served, unserved = runner.DEFAULT_SWEEP_FILTERS[0], "EJ-8x2"
        grid = experiments.evaluate_grid((TINY_NAME,), (served, unserved))
        for name in (served, unserved):
            key = store_mod.eval_key(spec, name, SCALED_SYSTEM, 1)
            assert front_store.get_blob(key) == oracle_blob(TINY_NAME, name)
            assert grid[TINY_NAME, name] is front_store.get_eval(key)
        [(_kwargs, report)] = replay_reports
        assert (report.sims_run, report.evals_run) == (0, 1)
        assert {key: front_store.get_blob(key) for key in recording} == recording
        assert store_mod.decode_trace_manifest(recording[tkey])["measured_only"]

    def test_filter_safety_error_keeps_its_type_through_the_pool(
        self, front_store, cpus, monkeypatch
    ):
        # A null filter that filters every snoop is unsafe on the first
        # snoop of a cached block.
        monkeypatch.setattr(NullFilter, "_probe", lambda self, block: False)
        with pytest.raises(FilterSafetyError):
            experiments.evaluate_grid(GRID_WORKLOADS, ("null", "oracle"))

    @pytest.mark.parametrize("stage", ["record", "replay"])
    def test_quarantined_cells_raise_instead_of_leaving_holes(
        self, front_store, cpus, monkeypatch, stage
    ):
        monkeypatch.setattr(
            resilience, "DEFAULT_RETRY_POLICY",
            resilience.RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        if stage == "record":
            original = runner.record_trace

            def crashing(spec, *args, **kwargs):
                if spec.name == PHASED.name:
                    raise WorkerCrashError("injected recording crash")
                return original(spec, *args, **kwargs)

            monkeypatch.setattr(runner, "record_trace", crashing)
        else:
            def crashing(*args, **kwargs):
                raise WorkerCrashError("injected replay crash")

            monkeypatch.setattr(runner, "replay_trace", crashing)
        with pytest.raises(TaskQuarantinedError, match="quarantined"):
            experiments.evaluate_grid(GRID_WORKLOADS, ("EJ-8x2",))

    def test_bad_filter_name_fails_before_simulating(
        self, front_store, count_sims
    ):
        with pytest.raises(FilterNameError):
            experiments.evaluate_grid((TINY_NAME,), ("EJ-8x2", "bogus"))
        assert count_sims == []


class TestWarmReplaysLoadNoTrace:
    """A fully stored job must not load (decode and probe) its trace."""

    def test_warm_execute_replays(self, front_store, monkeypatch):
        jobs = [runner.ReplayJob(TINY_NAME, ("EJ-8x2", "IJ-8x4x7"))]
        runner.execute_replays(jobs, experiment_store=front_store)
        monkeypatch.setattr(
            runner, "load_trace",
            lambda *a, **k: pytest.fail("warm execute_replays loaded a trace"),
        )
        report = runner.execute_replays(jobs, experiment_store=front_store)
        assert (report.sims_run, report.sims_cached) == (0, 1)
        assert (report.evals_run, report.evals_cached) == (0, 2)

    def test_warm_grid(self, front_store, cpus, monkeypatch):
        experiments.evaluate_grid(GRID_WORKLOADS, ("EJ-8x2",))
        monkeypatch.setattr(
            runner, "load_trace",
            lambda *a, **k: pytest.fail("warm grid loaded a trace"),
        )
        experiments.evaluate_grid(GRID_WORKLOADS, ("EJ-8x2",))


class TestReplayTasks:
    """A replay task serves all of a trace's filters, so each segment is
    decoded once, unless there are fewer traces than workers."""

    @pytest.mark.parametrize(
        "workloads, decodes_per_segment",
        [(GRID_WORKLOADS, 1), ((TINY_NAME,), 2)],
        ids=["traces-fill-the-workers", "fewer-traces-than-workers"],
    )
    def test_segment_decodes(
        self, front_store, monkeypatch, workloads, decodes_per_segment
    ):
        runner.execute_replays(
            [runner.ReplayJob(workload, ()) for workload in workloads],
            experiment_store=front_store, backend="serial",
        )
        decodes = []
        original = store_mod.decode_trace_segment

        def counting(blob):
            decodes.append(1)
            return original(blob)

        monkeypatch.setattr(store_mod, "decode_trace_segment", counting)
        # Threads share this process, so the counter sees every decode.
        report = runner.execute_replays(
            [runner.ReplayJob(workload, ("EJ-8x2", "IJ-8x4x7"))
             for workload in workloads],
            experiment_store=front_store, workers=2, backend="thread",
        )
        assert report.evals_run == 2 * len(workloads)
        segments = 0
        for workload in workloads:
            tkey = store_mod.trace_key(WORKLOADS[workload], SCALED_SYSTEM, 1)
            manifest = store_mod.decode_trace_manifest(front_store.get_blob(tkey))
            segments += sum(manifest["segments_per_node"])
        assert len(decodes) == decodes_per_segment * segments


class TestRecordOrder:
    """Recordings run costliest first, so pool workers finish together."""

    def test_snoop_bound_paper_workload_ranks_first(self):
        paper = [name for name in WORKLOADS if name != TINY_NAME]
        ranked = sorted(paper, key=lambda name: -runner._record_cost(WORKLOADS[name]))
        # em3d has the fewest accesses but by far the most L1 misses.
        assert ranked[0] == "em3d"

    def test_execute_replays_records_costliest_first(self, monkeypatch):
        long_spec = replace(tiny_spec(), name="test-tiny-long", n_accesses=8_000)
        specs = {TINY_NAME: tiny_spec(), long_spec.name: long_spec}
        keys = {
            name: store_mod.trace_key(spec, SCALED_SYSTEM, 1)
            for name, spec in specs.items()
        }
        # The store keys sort the cheap recording first: only the cost
        # order can put the long one ahead of it.
        assert sorted(specs, key=keys.get) == [TINY_NAME, long_spec.name]
        recorded = []
        original = runner.record_trace

        def logging(spec, *args, **kwargs):
            recorded.append(spec.name)
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(runner, "record_trace", logging)
        runner.execute_replays(
            [runner.ReplayJob(name, ("EJ-8x2",)) for name in specs],
            experiment_store=store_mod.ExperimentStore(), specs=specs,
            backend="serial",
        )
        assert recorded == [long_spec.name, TINY_NAME]
