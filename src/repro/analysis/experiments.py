"""Experiment orchestration: store-backed simulations and evaluations.

The coherence simulation of one workload is the expensive step.  A JETTY
never changes coherence behaviour (paper §2.2), so the exhibits simulate
each workload once, recording its packed event shards as a trace, and
every filter configuration replays that trace with the ``auto`` (NumPy
when available) kernel.  Traces, metrics and evaluations are kept in an
:class:`~repro.analysis.store.ExperimentStore` keyed by a complete
configuration fingerprint (workload spec, full system geometry, seed).
:func:`run_workload`, the explicit event-stream API, simulates in memory
and stores nothing.  By default the store is in-memory — the
behaviour the bench suite always had — but pointing it at a file
(``set_store(path)`` or the ``REPRO_STORE`` environment variable) makes
every result durable across invocations.

The front door is a grid: :func:`evaluate_grid` answers a whole
workload x filter exhibit in one pass.  It reads every stored cell
first, then hands the misses to :mod:`repro.analysis.runner` as one
record-and-replay job per workload, so the recordings run concurrently
on the CPUs the process may use (its affinity mask; ``taskset -c 0``
makes the run serial), one worker per workload at most, and each trace
is decoded once for all of its filters.  The one-cell functions
(:func:`evaluate_filter`, :func:`coverage_for`,
:func:`energy_reduction_for`) are grids of one.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import runner, store as store_mod
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.coherence.metrics import SimResult
from repro.core.config import parse_filter_name
from repro.core.stats import FilterEvaluation
from repro.energy.accounting import EnergyAccountant, EnergyReduction
from repro.errors import TaskQuarantinedError
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

    The explicit event-stream API: an in-memory simulation (O(trace)
    memory) that nothing stores.  Exhibits that need just counters use
    :func:`workload_metrics`; filter evaluations use
    :func:`evaluate_filter`, which records and replays a trace instead.
    """
    return runner.compute_sim(get_workload(name), system, seed)


def workload_metrics(
    name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> SimResult:
    """Simulation statistics for one workload, without event streams.

    The metrics-only front door for exhibits that read counters (tables,
    stability, energy) but never replay events: it is satisfied by the
    ``sim-metrics`` row that every streamed run and every trace recording
    (so every :func:`evaluate_filter` miss) writes, then by a recorded
    trace's manifest, and only simulates — in O(chunk) streaming mode —
    when neither exists.  The numbers are identical to
    :func:`run_workload`'s by the determinism contract; only the memory
    profile differs.
    """
    spec = get_workload(name)
    store = get_store()
    mkey = store_mod.sim_metrics_key(spec, system, seed)
    metrics = store.get_sim_metrics(mkey)
    if metrics is not None:
        return metrics
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


def _usable_cpus() -> int:
    """CPUs this process may run on, as its affinity mask says."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _fill_grid(
    store: ExperimentStore,
    specs: dict,
    missing: dict[str, list[str]],
    system: SystemConfig,
    seed: int,
) -> None:
    """Compute the missing cells, one record-and-replay job per workload.

    A stored measured-only trace that did not warm a filter cannot
    replay it, and it is the user's recording, so those cells are
    evaluated live instead of re-recording over it.
    """
    for names in missing.values():
        for name in names:
            parse_filter_name(name)  # fail before simulating anything
    # One worker per usable CPU, but never more than there are
    # workloads to record: a grid of one (the one-cell front door) runs
    # serially in this process, recording straight into the store.
    workers = min(_usable_cpus(), len(missing))
    options = dict(
        experiment_store=store, specs=specs, workers=workers,
        backend="process" if workers > 1 else "serial",
    )
    live, replayed = [], []
    for workload, names in missing.items():
        unservable = runner.unservable_filters(
            store, specs[workload], system, seed, names
        )
        if unservable:
            live.append(runner.StreamJob(workload, unservable, system, seed))
        servable = tuple(name for name in names if name not in unservable)
        if servable:
            replayed.append(runner.ReplayJob(workload, servable, system, seed))
    if live:
        runner.execute(live, **options)
    if replayed:
        runner.execute_replays(replayed, **options)


def evaluate_grid(
    workloads: Iterable[str],
    filter_names: Iterable[str],
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> dict[tuple[str, str], FilterEvaluation]:
    """Evaluate every filter over every workload (store-backed).

    Returns ``(workload, filter) -> evaluation``, the system-wide merge
    over nodes that the paper reports.  Stored ``eval`` rows answer
    first, so a warm grid touches no trace and starts no executor.  The
    missing cells run as one :class:`~repro.analysis.runner.ReplayJob`
    per workload through :func:`~repro.analysis.runner.execute_replays`:
    a workload without a stored trace is simulated once into one, and
    every filter on it is a replay of that trace.  Workers follow the
    CPUs this process may use, capped at the number of workloads with
    missing cells: the ``process`` backend when that leaves several,
    ``serial`` when it leaves one (``taskset -c 0``, or a one-workload
    grid such as :func:`evaluate_filter`).  Results are byte-identical
    either way.  A cell that the executor quarantined raises
    :class:`~repro.errors.TaskQuarantinedError`; the grid never comes
    back with holes.
    """
    store = get_store()
    specs = {name: get_workload(name) for name in workloads}
    names = tuple(dict.fromkeys(filter_names))
    keys = {
        (workload, name): store_mod.eval_key(spec, name, system, seed)
        for workload, spec in specs.items()
        for name in names
    }
    grid = {cell: store.get_eval(key) for cell, key in keys.items()}
    missing: dict[str, list[str]] = {}
    for (workload, name), evaluation in grid.items():
        if evaluation is None:
            missing.setdefault(workload, []).append(name)
    if missing:
        _fill_grid(store, specs, missing, system, seed)
        holes = []
        for cell, evaluation in grid.items():
            if evaluation is None:
                # Read back through the store's decoded cache, so every
                # later call returns this same object.
                grid[cell] = store.get_eval(keys[cell])
                if grid[cell] is None:
                    holes.append(cell)
        if holes:
            raise TaskQuarantinedError(
                f"{len(holes)} evaluation(s) failed every attempt and were "
                "quarantined: "
                + ", ".join(f"{name} on {workload}" for workload, name in holes)
            )
    return grid


def evaluate_filter(
    workload: str,
    filter_name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> FilterEvaluation:
    """Evaluate one filter over one workload: a grid of one cell.

    Each node gets its own freshly built filter; the returned evaluation
    is the system-wide merge, as the paper reports.  See
    :func:`evaluate_grid`.
    """
    grid = evaluate_grid((workload,), (filter_name,), system, seed)
    return grid[workload, filter_name]


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


def energy_reductions(
    workloads: Iterable[str],
    filter_names: Iterable[str],
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> dict[tuple[str, str], EnergyReduction]:
    """Figure 6's four reduction numbers for every (workload, filter)."""
    # Filters first: their recordings store the metrics rows read next,
    # so a cold store simulates each workload once, not twice.
    grid = evaluate_grid(workloads, filter_names, system, seed)
    accountant = _accountant(system)
    metrics: dict[str, SimResult] = {}
    reductions = {}
    for (workload, filter_name), evaluation in grid.items():
        if workload not in metrics:
            metrics[workload] = workload_metrics(workload, system, seed)
        reductions[workload, filter_name] = accountant.reduction(
            metrics[workload].aggregate, evaluation, filter_name
        )
    return reductions


def energy_reduction_for(
    workload: str,
    filter_name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> EnergyReduction:
    """Figure 6's four reduction numbers for one (workload, filter)."""
    reductions = energy_reductions((workload,), (filter_name,), system, seed)
    return reductions[workload, filter_name]


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
    # Filter first, as in energy_reductions: one simulation each.
    grid = evaluate_grid(names, (filter_name,), system, seed)
    coverages = [grid[name, filter_name].coverage.coverage for name in names]
    miss_fracs = [
        workload_metrics(name, system, seed).snoop_miss_fraction_of_all
        for name in names
    ]
    return NWaySummary(
        n_cpus=n_cpus,
        snoop_miss_of_all=sum(miss_fracs) / len(miss_fracs),
        mean_coverage=sum(coverages) / len(coverages),
    )


def clear_caches() -> None:
    """Drop every stored simulation and evaluation (tests use this)."""
    get_store().clear()
