"""Experiment orchestration: store-backed simulations and evaluations.

The coherence simulation of one workload is the expensive step.  A JETTY
never changes coherence behaviour (paper §2.2), so the exhibits simulate
each workload once, recording its packed event shards as a trace, and
every filter configuration replays that trace with the ``auto`` (NumPy
when available) kernel.  Traces, metrics and evaluations are kept in an
:class:`~repro.analysis.store.ExperimentStore` keyed by a complete
configuration fingerprint (workload spec, full system geometry, seed).
Only :func:`run_workload`, the explicit event-stream API, writes
buffered ``sim`` rows.  By default the store is in-memory — the
behaviour the bench suite always had — but pointing it at a file
(``set_store(path)`` or the ``REPRO_STORE`` environment variable) makes
every result durable across invocations.  Batched/parallel execution
lives in :mod:`repro.analysis.runner`; the functions here are the
convenient one-at-a-time front door that shares the same store.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import runner, store as store_mod
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.coherence.metrics import SimResult
from repro.core.stats import FilterEvaluation
from repro.energy.accounting import EnergyAccountant, EnergyReduction
from repro.errors import ConfigurationError
from repro.traces.workloads import WORKLOADS, get_workload

_STORE: ExperimentStore | None = None
_ACCOUNTANTS: dict[int, EnergyAccountant] = {}


def get_store() -> ExperimentStore:
    """The process-wide experiment store.

    Defaults to an in-memory store; set the ``REPRO_STORE`` environment
    variable (or call :func:`set_store`) to persist results on disk.
    """
    global _STORE
    if _STORE is None:
        _STORE = ExperimentStore(os.environ.get("REPRO_STORE") or None)
    return _STORE


def set_store(target: ExperimentStore | str | Path | None) -> ExperimentStore:
    """Replace the process-wide store (a path opens/creates a SQLite file)."""
    global _STORE
    if _STORE is not None:
        _STORE.close()
    if target is None or isinstance(target, (str, Path)):
        _STORE = ExperimentStore(target)
    else:
        _STORE = target
    return _STORE


def run_workload(
    name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> SimResult:
    """Simulate one named workload, keeping its event streams.

    The explicit buffered API (store-backed; warm hits are free) and the
    only writer of ``sim`` rows.  Exhibits that need just counters use
    :func:`workload_metrics`; filter evaluations use
    :func:`evaluate_filter`, which records and replays a trace instead.
    """
    spec = get_workload(name)
    store = get_store()
    key = store_mod.sim_key(spec, system, seed)
    result = store.get_sim(key)
    if result is None:
        result = runner.compute_sim(spec, system, seed)
        store.put_sim(key, result, seed=seed)
    return result


def workload_metrics(
    name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> SimResult:
    """Simulation statistics for one workload, without event streams.

    The metrics-only front door for exhibits that read counters (tables,
    stability, energy) but never replay events: it is satisfied by the
    ``sim-metrics`` row that every streamed run and every trace recording
    (so every :func:`evaluate_filter` miss) writes, then by a
    :func:`run_workload` ``sim`` row or a recorded trace's manifest, and
    only simulates — in O(chunk) streaming mode — when none exists.  The
    numbers are identical to :func:`run_workload`'s by the determinism
    contract; only the memory profile differs.
    """
    spec = get_workload(name)
    store = get_store()
    mkey = store_mod.sim_metrics_key(spec, system, seed)
    metrics = store.get_sim_metrics(mkey)
    if metrics is not None:
        return metrics
    full = store.get_sim(store_mod.sim_key(spec, system, seed))
    if full is not None:
        return full
    # A recorded trace embeds the run's metrics in its manifest; restore
    # the sim-metrics row from it (byte-identical) instead of simulating.
    manifest_blob = store.get_blob(store_mod.trace_key(spec, system, seed))
    if manifest_blob is not None:
        data = store_mod.decode_trace_manifest(manifest_blob)["metrics"]
        metrics = store_mod.sim_metrics_from_dict(data)
        store.put_sim_metrics(mkey, metrics, seed=seed)
        return metrics
    metrics, _evaluations = runner.compute_stream(spec, system, seed)
    store.put_sim_metrics(mkey, metrics, seed=seed)
    return metrics


def evaluate_filter(
    workload: str,
    filter_name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> FilterEvaluation:
    """Evaluate one filter over one workload (store-backed).

    Each node gets its own freshly built filter; the returned evaluation
    is the system-wide merge, as the paper reports.  A stored ``eval``
    row answers directly.  Otherwise the workload's stored trace is
    replayed with the ``auto`` kernel; with no trace, the workload is
    simulated once into a full trace first, so every later filter on it
    is a replay.  A stored trace that cannot serve this filter (a
    measured-only recording that did not warm it) is left alone and the
    filter is evaluated in one live streaming pass instead.
    """
    spec = get_workload(workload)
    store = get_store()
    key = store_mod.eval_key(spec, filter_name, system, seed)
    evaluation = store.get_eval(key)
    if evaluation is not None:
        return evaluation
    try:
        replayed = runner.replay_filter_from_store(
            spec, filter_name, system, seed, experiment_store=store,
        )
    except ConfigurationError:
        # The stored trace cannot serve this filter (a measured-only
        # recording that did not warm it).  It is the user's recording,
        # so evaluate live rather than re-record over it.
        _metrics, evaluations = runner.compute_stream(
            spec, system, seed, (filter_name,)
        )
        evaluation = evaluations[filter_name]
        store.put_eval(
            key, evaluation,
            workload=spec.name, n_cpus=system.n_cpus, seed=seed,
        )
        return evaluation
    if replayed is None:
        runner.record_trace(spec, system, seed, experiment_store=store)
        runner.replay_filter_from_store(
            spec, filter_name, system, seed, experiment_store=store,
        )
    # Read back through the store's decoded cache, so every later call
    # returns this same object.
    return store.get_eval(key)


def evaluate_filters_streaming(
    workload: str,
    filters: tuple[str, ...] = runner.DEFAULT_SWEEP_FILTERS,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
    chunk_size: int | None = None,
) -> "runner.StreamOutcome":
    """Evaluate N filters in one single-pass streaming simulation.

    The store-backed front door to paper-scale runs: memory stays
    O(chunk_size) however long the trace, and the resulting evaluations
    are byte-identical to (and share store entries with)
    :func:`evaluate_filter`'s trace replays.
    """
    spec = get_workload(workload)
    kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
    return runner.evaluate_streaming(
        spec, system, tuple(filters), seed,
        experiment_store=get_store(), **kwargs,
    )


def evaluate_filters_replay(
    workload: str,
    filters: tuple[str, ...] = runner.DEFAULT_SWEEP_FILTERS,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
    chunk_size: int | None = None,
    workers: int = 1,
    backend: str | None = None,
) -> "runner.StreamOutcome":
    """Evaluate N filters via the record-once / replay-many trace store.

    The first call records the workload's trace (one O(chunk) streaming
    simulation whose packed event shards persist in the store); this and
    every later call replay the stored segments — so sweeping new filter
    configurations costs replays only, parallelisable per configuration
    with ``workers``/``backend``.  Results are byte-identical to (and
    share store entries with) :func:`evaluate_filter` and the streaming
    mode.
    """
    spec = get_workload(workload)
    kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
    return runner.evaluate_replay(
        spec, system, tuple(filters), seed,
        workers=workers, backend=backend,
        experiment_store=get_store(), **kwargs,
    )


def coverage_for(
    workload: str,
    filter_name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> float:
    """Snoop-miss coverage of one filter on one workload (paper §4.3)."""
    return evaluate_filter(workload, filter_name, system, seed).coverage.coverage


def _accountant(system: SystemConfig) -> EnergyAccountant:
    """One accountant per process (paper-scale pricing is system-independent)."""
    if 0 not in _ACCOUNTANTS:
        _ACCOUNTANTS[0] = EnergyAccountant()
    return _ACCOUNTANTS[0]


def energy_reduction_for(
    workload: str,
    filter_name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> EnergyReduction:
    """Figure 6's four reduction numbers for one (workload, filter)."""
    # Filter first: its recording stores the metrics row read next, so a
    # cold store simulates the workload once, not twice.
    evaluation = evaluate_filter(workload, filter_name, system, seed)
    result = workload_metrics(workload, system, seed)
    return _accountant(system).reduction(result.aggregate, evaluation, filter_name)


@dataclass(frozen=True)
class NWaySummary:
    """The §4.3.4 scaling summary for one SMP width."""

    n_cpus: int
    snoop_miss_of_all: float
    mean_coverage: float


def summarize_nway(
    n_cpus: int,
    filter_name: str = "HJ(IJ-10x4x7, EJ-32x4)",
    seed: int = 1,
    workloads: tuple[str, ...] | None = None,
) -> NWaySummary:
    """Reproduce the paper's 8-way summary for any SMP width.

    The paper reports that on an 8-way SMP snoop-induced misses grow to
    76.4% of all L2 accesses (vs 54.5% on 4-way) and best-HJ coverage
    rises to 79%.
    """
    system = SCALED_SYSTEM.with_cpus(n_cpus)
    names = workloads if workloads is not None else tuple(WORKLOADS)
    miss_fracs = []
    coverages = []
    for name in names:
        # Filter first, as in energy_reduction_for: one simulation each.
        coverages.append(coverage_for(name, filter_name, system, seed))
        result = workload_metrics(name, system, seed)
        miss_fracs.append(result.snoop_miss_fraction_of_all)
    return NWaySummary(
        n_cpus=n_cpus,
        snoop_miss_of_all=sum(miss_fracs) / len(miss_fracs),
        mean_coverage=sum(coverages) / len(coverages),
    )


def clear_caches() -> None:
    """Drop every stored simulation and evaluation (tests use this)."""
    get_store().clear()
