"""Parallel experiment engine: fan simulation jobs out over processes.

The engine takes batched job lists — :class:`SimJob` (simulate one
workload on one system with one seed), :class:`EvalJob` (replay one
filter over that simulation's recorded event streams), :class:`StreamJob`
(one single-pass streaming simulation with any number of filters
attached live), and :class:`ReplayJob` (record one simulation's packed
event shards into the store once, then evaluate any number of filters by
replaying the persisted trace) — deduplicates them against an
:class:`~repro.analysis.store.ExperimentStore`, and runs the misses
either inline or on a pluggable executor backend (``serial``,
``process`` — a supervised process pool, the default — or ``thread``).
Fan-out is *supervised* (see :mod:`repro.analysis.resilience`): worker
crashes respawn the pool and requeue in-flight tasks, per-task
deadlines kill stuck workers, failed attempts retry with deterministic
backoff, and a task that exhausts its budget is quarantined — the
sweep completes with partial results and the
:class:`ExecutionReport` says exactly what happened.

**Record once, replay many.**  A filter never alters coherence
behaviour, so sweeping F filter configurations over one
``(workload, system, seed)`` re-observes the *same* event stream F
times.  :func:`execute_replays` exploits that: the first run records
the stream as a persisted trace (kind ``sim-events`` — fixed-size
compressed segments of packed events, written incrementally with
O(segment) memory), and every filter configuration — including ones
invented weeks later — replays the trace without instantiating caches,
bus, or nodes.  Replay tasks fan out across workers that each open the
store read-only and decode segments independently, so a warm filter
sweep costs O(filters x replay) instead of O(filters x simulation), and
parallelises per filter configuration.  Replayed evaluations are
byte-identical to live ones and share the one ``eval`` keyspace.

**Buffered vs streaming.**  A buffered experiment is two phases: the
simulation records every node's full event stream into the store, then
each filter replays that recording.  Memory is O(trace), which caps runs
at toy sizes.  A :class:`StreamJob` instead fuses both phases into one
pass: the simulation emits bounded event *shards* (see the shard/marker
protocol in :mod:`repro.coherence.smp`), every requested filter consumes
each shard as it appears, and only metrics are stored — N filters are
evaluated in one simulation with O(chunk) memory, never O(trace).  This
is the only mode that reaches paper-scale traces (Table 2's tens of
millions of accesses).

**Determinism contract.**  A job is a pure function of its inputs.
Every worker derives its random stream from the job's explicit seed (see
:func:`repro.traces.workloads.build_workload_stream`), so a parallel run
produces *bitwise identical* store payloads to a serial run of the same
jobs — the determinism tests diff the two stores byte for byte.  The
contract extends across modes: for the same ``(spec, system, seed)``, a
streamed evaluation's payload is byte-identical to the buffered replay's,
regardless of chunk size or worker count, which is why both modes share
one ``eval`` keyspace in the store.

**Checkpointing.**  Streamed runs (live-filter or recording) accept a
``checkpoint_every`` cadence: every N stream accesses the run snapshots
its *complete* logical state — caches, write buffers, bus, filter
banks, trace-sink watermarks, generator — into the store (kind
``checkpoint``), and a warm start resumes from the newest usable
snapshot instead of access 0.  Snapshots ride the uniform
``snapshot()``/``restore()`` protocol every stateful layer implements;
restore rebuilds each layer's derived fast-path state, and the
determinism contract extends to interruption: a killed-and-resumed run
produces byte-identical metrics, evaluations, and recorded trace
segments.  Completed runs retire their checkpoint chains; ``repro
checkpoint list|info|rm`` inspects or drops leftovers.

Buffered execution is two-phase: first every missing simulation runs
(these are the expensive, minutes-scale jobs), then every missing filter
replay runs with its simulation's compressed payload shipped to the
worker.  Stream jobs are single-phase by construction.  Jobs are sorted
by store key before submission so insertion order — and therefore the
store file — is independent of the caller's iteration order.
"""

from __future__ import annotations

import base64
import logging
import sqlite3
import time
import urllib.parse
import zlib
from dataclasses import dataclass, field, replace

from repro.analysis import store as store_mod
from repro.analysis.resilience import (
    QUARANTINED,
    RetryPolicy,
    SQLITE_RETRY_POLICY,
    SupervisedExecutor,
    retry_call,
)
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.coherence.metrics import SimResult
from repro.coherence.smp import (
    DEFAULT_CHUNK_SIZE,
    SMPSystem,
    TRACE_SEGMENT_EVENTS,
    TraceSink,
    simulate,
    simulate_streaming,
)
from repro.core.config import build_filter
from repro.core.stats import (
    FilterEvaluation,
    REPLAY_KERNELS,
    ShardFanout,
    StreamingFilterBank,
    TraceReader,
    replay_trace,
)
from repro.errors import (
    ConfigurationError,
    ExecutionError,
    ReproError,
    StoreCorruptionError,
)
from repro.traces.workloads import (
    WorkloadSpec,
    apply_preset,
    get_workload,
    resume_stream,
    simulate_workload_accesses,
    stream_fingerprint,
)

_logger = logging.getLogger("repro.runner")

#: A representative sweep when the CLI is given no ``--filters``: the best
#: member of each family plus the paper's headline hybrid.
DEFAULT_SWEEP_FILTERS = (
    "EJ-32x4",
    "VEJ-32x4-8",
    "IJ-10x4x7",
    "HJ(IJ-10x4x7, EJ-32x4)",
)


@dataclass(frozen=True)
class SimJob:
    """Simulate one workload; the expensive half of every experiment."""

    workload: str
    system: SystemConfig = SCALED_SYSTEM
    seed: int = 1


@dataclass(frozen=True)
class EvalJob:
    """Replay one filter over one simulation's recorded event streams."""

    workload: str
    filter_name: str
    system: SystemConfig = SCALED_SYSTEM
    seed: int = 1

    @property
    def sim_job(self) -> SimJob:
        return SimJob(self.workload, self.system, self.seed)


@dataclass(frozen=True)
class ReplayJob:
    """Record one simulation's trace once; replay N filters against it.

    The record-once / replay-many unit of work: if the store holds no
    complete trace for ``(workload, system, seed)``, one streaming
    simulation runs with a :class:`~repro.coherence.smp.TraceSink`
    attached, persisting the packed event shards (and the run's metrics)
    — thereafter, *every* filter evaluation for this configuration is a
    cheap replay of the stored segments, parallelisable per filter.
    ``chunk_size`` tunes the recording pass's memory only; it can never
    change a stored byte (segments are cut at fixed event counts) and is
    absent from all keys.  An empty ``filter_names`` is a pure record
    job.

    ``codec`` picks the segment wire format for a *new* recording (see
    :data:`repro.analysis.store.SEGMENT_CODECS`) and ``measured_only``
    records only post-warm-up events plus a fast-forward snapshot of
    the warmed filter state.  Both are execution hints like
    ``chunk_size``: replays decode whatever is stored, evaluations are
    byte-identical either way, and neither appears in any store key.
    """

    workload: str
    filter_names: tuple[str, ...] = ()
    system: SystemConfig = SCALED_SYSTEM
    seed: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    codec: str = store_mod.DEFAULT_SEGMENT_CODEC
    measured_only: bool = False
    #: Extra filter configurations to warm (and snapshot) during a
    #: measured-only recording, beyond ``filter_names`` and the default
    #: sweep set — a pure record job names its future replay targets here.
    warm_filters: tuple[str, ...] = ()


@dataclass(frozen=True)
class StreamJob:
    """One single-pass streaming simulation with N filters attached live.

    All listed filters are evaluated during the one simulation; memory is
    O(chunk_size) regardless of the workload's access count.  The chunk
    size tunes memory/overhead only — by the determinism contract it can
    never change any stored byte, so it is absent from store keys.
    """

    workload: str
    filter_names: tuple[str, ...] = ()
    system: SystemConfig = SCALED_SYSTEM
    seed: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE


# ----------------------------------------------------------------------
# Pure compute kernels (shared by the serial path and pool workers)
# ----------------------------------------------------------------------

def _phase_plan(spec: WorkloadSpec) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """``(phase_marks, phase_names)`` of a spec; ``((), ())`` when plain.

    The one place the runner derives phase structure: marks are absolute
    stream positions (warm-up included) fed to the simulation layer,
    names label the per-phase splits in every evaluation.  Plain
    workloads yield empty tuples, so every phase-less code path —
    including its stored payload bytes — is exactly what it always was.
    """
    if not getattr(spec, "phases", ()):
        return (), ()
    return spec.phase_marks(), spec.phase_names()


def compute_sim(spec: WorkloadSpec, system: SystemConfig, seed: int) -> SimResult:
    """Simulate one workload from scratch — deterministic in its inputs."""
    stream, warmup = simulate_workload_accesses(
        spec, n_cpus=system.n_cpus, seed=seed
    )
    marks, _names = _phase_plan(spec)
    return simulate(system, stream, spec.name, warmup=warmup, phase_marks=marks)


def compute_eval(
    sim: SimResult,
    filter_name: str,
    system: SystemConfig,
    phase_names: tuple[str, ...] = (),
) -> FilterEvaluation:
    """Replay one filter config over every node's stream and merge.

    Buffered replay is the degenerate streaming case: the recorded
    streams are one big shard, consumed by the same bank the live path
    uses — a single construction site keeps the two modes' byte-identity
    contract safe by design.
    """
    bank = _build_bank(filter_name, system, phase_names=phase_names)
    bank.consume(sim.event_streams)
    return bank.finish()


def _build_filters(filter_name: str, system: SystemConfig) -> list:
    """One freshly built filter per node for one configuration."""
    return [
        build_filter(
            filter_name,
            counter_bits=system.ij_counter_bits,
            addr_bits=system.block_address_bits,
        )
        for _ in range(system.n_cpus)
    ]


def _build_bank(
    filter_name: str,
    system: SystemConfig,
    kernel: str = "auto",
    phase_names: tuple[str, ...] = (),
    filter_states=None,
) -> StreamingFilterBank:
    """One filter bank: a freshly built filter per node.

    ``kernel`` selects the replay kernel per node (see
    :data:`repro.core.stats.REPLAY_KERNELS`).  Live, checkpointed and
    buffered call sites keep the default ``"auto"`` — vectorised where
    a family and NumPy allow, and checkpoints cross kernels; replay call
    sites pass the caller's choice.  The one exception is the
    measured-only recording's warm banks (see :func:`record_trace`).
    ``phase_names`` labels PHASE-marker splits in the finished
    evaluations.

    ``filter_states`` (one snapshot per node, from a fast-forward row)
    restores warmed state into the filters *before* the bank wires its
    replayers — the vector kernels import filter state at construction,
    so the restore must happen first.
    """
    filters = _build_filters(filter_name, system)
    if filter_states is not None:
        if len(filter_states) != len(filters):
            raise ConfigurationError(
                f"fast-forward snapshot covers {len(filter_states)} "
                f"node(s), system has {len(filters)}"
            )
        for snoop_filter, state in zip(filters, filter_states):
            snoop_filter.restore(state)
    return StreamingFilterBank(
        filters,
        kernel=kernel,
        phase_names=phase_names,
    )


def compute_stream(
    spec: WorkloadSpec,
    system: SystemConfig,
    seed: int,
    filter_names: tuple[str, ...] = (),
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    checkpoint_every: int | None = None,
    experiment_store: ExperimentStore | None = None,
) -> tuple[SimResult, dict[str, FilterEvaluation]]:
    """Run one streaming simulation with all ``filter_names`` attached.

    Returns the metrics-only result plus one merged evaluation per
    filter.  Every number is identical to what the buffered
    :func:`compute_sim` + :func:`compute_eval` pair produces — only the
    memory profile differs (O(chunk_size) instead of O(trace)).  The
    banks run on the ``auto`` kernel behind one :class:`ShardFanout`:
    each node's shard is wrapped once and that one segment feeds every
    bank, as stored segments do in :func:`replay_trace`.

    With ``checkpoint_every`` (which requires ``experiment_store``), the
    run snapshots its complete state — caches, write buffers, bus,
    filter banks, generator — into the store every that many accesses
    and warm-starts from the latest stored checkpoint, so a killed run
    repeats only the tail since its last snapshot.  The returned values
    are byte-for-byte what an uninterrupted (or checkpoint-free) run
    produces; the run's checkpoint chain is deleted on completion.
    """
    if checkpoint_every is not None:
        if experiment_store is None:
            raise ConfigurationError(
                "checkpoint_every needs an experiment_store to keep "
                "checkpoints in"
            )
        metrics, evaluations, _sink, chain = _run_checkpointed(
            spec, system, seed, tuple(filter_names), chunk_size,
            checkpoint_every, experiment_store,
        )
        experiment_store.delete_group(store_mod.CHECKPOINT_KIND, chain)
        return metrics, evaluations
    stream, warmup = simulate_workload_accesses(
        spec, n_cpus=system.n_cpus, seed=seed
    )
    marks, names = _phase_plan(spec)
    banks = {
        name: _build_bank(name, system, phase_names=names)
        for name in filter_names
    }
    metrics = simulate_streaming(
        system,
        stream,
        spec.name,
        warmup=warmup,
        chunk_size=chunk_size,
        sinks=[ShardFanout(banks.values())],
        phase_marks=marks,
    )
    return metrics, {name: bank.finish() for name, bank in banks.items()}


# ----------------------------------------------------------------------
# Checkpointed streaming (mid-run snapshot / resume)
# ----------------------------------------------------------------------

def _save_checkpoint(
    experiment_store: ExperimentStore,
    chain: str,
    spec: WorkloadSpec,
    system_cfg: SystemConfig,
    seed: int,
    *,
    system: SMPSystem,
    banks: dict[str, StreamingFilterBank],
    sink: TraceSink | None,
    stream,
    position: int,
    measured: bool,
    mkey: str,
    tkey: str | None,
) -> None:
    """Persist one mid-run snapshot under ``(chain, position)``.

    The payload composes every layer's ``snapshot()`` (system, filter
    banks, trace sink) with the generator checkpoint and enough identity
    (``mkey``/``tkey``) for garbage collection to recognise the chain as
    superseded once the run's results land.  Unlike result payloads the
    encoding is non-canonical fast-path JSON at zlib level 1 (see
    :func:`repro.analysis.store.encode_checkpoint`); the *state* itself
    is chunk-size-invariant, because the machine at access ``position``
    is by the determinism contract.
    """
    state = {
        "version": 1,
        "workload": spec.name,
        "n_cpus": system_cfg.n_cpus,
        "seed": seed,
        "filters": sorted(banks),
        "record": sink is not None,
        "position": position,
        "measured": measured,
        "mkey": mkey,
        "tkey": tkey,
        "system": system.snapshot(),
        "banks": {name: bank.snapshot() for name, bank in banks.items()},
        "sink": None if sink is None else sink.snapshot(),
        "stream": base64.b64encode(stream.checkpoint()).decode("ascii"),
    }
    experiment_store.put_blob(
        store_mod.checkpoint_key(chain, position),
        store_mod.encode_checkpoint(state),
        kind=store_mod.CHECKPOINT_KIND,
        workload=spec.name,
        filter_name=chain,
        n_cpus=system_cfg.n_cpus,
        seed=seed,
    )


def _load_latest_checkpoint(
    experiment_store: ExperimentStore, chain: str, validate=None
) -> tuple[str, dict] | None:
    """The newest usable checkpoint of a chain, as ``(key, state)``.

    Candidates are tried highest watermark first; one that fails to
    decode, carries an unknown snapshot version, or fails ``validate``
    is *deleted* and the previous watermark is tried — the resume
    ladder the interrupted-recording satellite requires (a truncated
    final segment must send the run back one checkpoint, never crash
    it).  The key rides along so the caller can extend the same
    treatment to restore-time failures.
    """
    candidates = []
    for key in experiment_store.group_keys(store_mod.CHECKPOINT_KIND, chain):
        blob = experiment_store.get_blob(key)
        if blob is None:  # pragma: no cover - raced deletion
            continue
        try:
            state = store_mod.decode_checkpoint(blob)
            position = int(state["position"])
            usable = state.get("version") == 1
        except (StoreCorruptionError, KeyError, ValueError, TypeError) as error:
            # Corrupt or structurally wrong snapshot: fall back one
            # watermark, loudly — silent swallowing hid corruption.
            _logger.warning("discarding unusable checkpoint %s: %s", key, error)
            usable = False
        if not usable:
            experiment_store.delete_key(key)
            continue
        candidates.append((position, key, state))
    for _position, key, state in sorted(candidates, reverse=True):
        if validate is None or validate(state):
            return key, state
        experiment_store.delete_key(key)
    return None


def _validate_recording(
    experiment_store: ExperimentStore, tkey: str, sink_state: dict
) -> bool:
    """Check a checkpoint's recorded segments are durable and intact.

    Every segment below the snapshot's watermark must be present, and
    the *last* one per node must decompress to exactly the segment size
    with the CRC the sink computed when writing it — the last write is
    the one an interruption can truncate.  A bad final segment is
    deleted (the resume from the previous watermark rewrites it
    byte-identically); any failure makes the whole checkpoint unusable.
    """
    segment_bytes = sink_state["segment_bytes"]
    for node_id, count in enumerate(sink_state["next_index"]):
        if count == 0:
            continue
        for index in range(count - 1):
            key = store_mod.trace_segment_key(tkey, node_id, index)
            if not experiment_store.contains(key):
                return False
        last_key = store_mod.trace_segment_key(tkey, node_id, count - 1)
        blob = experiment_store.get_blob(last_key)
        if blob is None:
            return False
        try:
            events = store_mod.decode_trace_segment(blob)
            raw = events.tobytes()
        except StoreCorruptionError as error:
            _logger.warning(
                "discarding truncated tail segment %s: %s", last_key, error
            )
            experiment_store.delete_key(last_key)
            return False
        crc = sink_state["last_segment_crc"][node_id]
        if len(raw) != segment_bytes or (
            crc is not None and zlib.crc32(raw) != crc
        ):
            experiment_store.delete_key(last_key)
            return False
    return True


def _run_checkpointed(
    spec: WorkloadSpec,
    system_cfg: SystemConfig,
    seed: int,
    filter_names: tuple[str, ...],
    chunk_size: int,
    checkpoint_every: int,
    experiment_store: ExperimentStore,
    *,
    record: bool = False,
    write_segment=None,
    tkey: str | None = None,
    report: ExecutionReport | None = None,
    segment_events: int = TRACE_SEGMENT_EVENTS,
) -> tuple[SimResult, dict[str, FilterEvaluation], TraceSink | None, str]:
    """One streaming run that snapshots every ``checkpoint_every`` accesses.

    The loop is :func:`repro.coherence.smp.simulate_streaming` with stops
    cut at checkpoint watermarks (multiples of ``checkpoint_every`` of
    the *stream* position, warm-up included) as well as the warm-up
    boundary.  On entry the store is probed for this run's chain and the
    newest usable checkpoint restores every layer — machine, filter
    banks, trace sink, generator — so only the tail since that watermark
    re-simulates.  By the determinism contract the results (and, when
    recording, every written segment) are byte-identical to an
    uninterrupted run's, whatever the chunk size of either attempt.

    Returns ``(metrics, evaluations, sink, chain)``; the *caller* owns
    finishing the sink (tail segments/manifest) and retiring the chain
    once its results are durable.
    """
    if checkpoint_every < 1:
        raise ConfigurationError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    chain = store_mod.checkpoint_chain_key(
        spec, system_cfg, seed, filter_names, record
    )
    mkey = store_mod.sim_metrics_key(spec, system_cfg, seed)
    warmup = spec.warmup_accesses
    marks, phase_names = _phase_plan(spec)
    expected_fingerprint = stream_fingerprint(
        spec, n_cpus=system_cfg.n_cpus, seed=seed, include_warmup=True
    )

    def build_fresh():
        fresh_system = SMPSystem(system_cfg)
        fresh_banks = {
            name: _build_bank(name, system_cfg, phase_names=phase_names)
            for name in filter_names
        }
        fresh_sink = (
            TraceSink(system_cfg.n_cpus, write_segment, segment_events)
            if record else None
        )
        return fresh_system, fresh_banks, fresh_sink

    system, banks, sink = build_fresh()
    validate = None
    if record:
        def validate(state):
            return _validate_recording(experiment_store, tkey, state["sink"])

    # Resume ladder: a checkpoint that decodes and validates can still
    # fail to *restore* (a structurally damaged payload); such a row is
    # deleted like any other bad checkpoint, partially mutated objects
    # are rebuilt fresh, and the next-lower watermark is tried — a bad
    # snapshot must never brick the chain.
    resumed = False
    while not resumed:
        loaded = _load_latest_checkpoint(experiment_store, chain, validate)
        if loaded is None:
            break
        key, state = loaded
        try:
            system.restore(state["system"])
            for name, bank in banks.items():
                bank.restore(state["banks"][name])
            if sink is not None:
                sink.restore(state["sink"])
            # Fingerprint-validated: a checkpoint whose stream was
            # generated under a different spec/profile/seed/topology is
            # rejected here (ConfigurationError) and, like any other bad
            # snapshot, deleted — the ladder falls back rather than
            # silently continuing a diverged stream.
            stream = resume_stream(
                base64.b64decode(state["stream"]), expected_fingerprint
            )
            position = int(state["position"])
            measured = bool(state["measured"])
        except (ReproError, KeyError, ValueError, TypeError,
                IndexError) as error:
            # Decoded but failed to *restore*: structural damage
            # surfaces as TraceError/StoreCorruptionError from the
            # layers' restore methods, a diverged stream fingerprint
            # as ConfigurationError, missing/mistyped fields as the
            # builtin errors.  Delete the snapshot, rebuild the
            # partially mutated layers, fall back a link.
            _logger.warning(
                "checkpoint %s failed to restore (%s: %s); "
                "falling back to the previous watermark",
                key, type(error).__name__, error,
            )
            experiment_store.delete_key(key)
            system, banks, sink = build_fresh()
            continue
        resumed = True
        if report is not None:
            report.checkpoints_resumed += 1
            report.resumed_accesses = position
    if not resumed:
        if record:
            # Fresh recording: stale segments from an interrupted or
            # partially collected attempt must never mix with new ones.
            experiment_store.delete_trace(tkey)
        stream, _warmup = simulate_workload_accesses(
            spec, n_cpus=system_cfg.n_cpus, seed=seed
        )
        position = 0
        measured = warmup == 0

    consumers = [ShardFanout(banks.values())]
    if sink is not None:
        consumers.append(sink)
    # Phase marks strictly below the start position were emitted (and
    # consumed into the snapshotted replayer state) before the resumed
    # checkpoint was saved; a mark *at* the position was not — saves
    # happen at the loop bottom, marker emission at the next loop top —
    # so it must be emitted now.
    next_phase = sum(1 for mark in marks if mark < position)
    saved_positions: list[int] = []
    while stream.remaining > 0:
        if not measured and position >= warmup:
            system.begin_measurement()
            measured = True
        while next_phase < len(marks) and marks[next_phase] <= position:
            system.mark_phase(next_phase)
            next_phase += 1
        next_checkpoint = (
            position - position % checkpoint_every + checkpoint_every
        )
        stop = next_checkpoint if measured else min(next_checkpoint, warmup)
        if next_phase < len(marks):
            stop = min(stop, marks[next_phase])
        for shard in system.run_chunked(
            stream, chunk_size, limit=stop - position
        ):
            for consumer in consumers:
                consumer.consume(shard)
        position = stream.position
        if position == next_checkpoint and stream.remaining > 0:
            save_started = time.perf_counter()
            _save_checkpoint(
                experiment_store, chain, spec, system_cfg, seed,
                system=system, banks=banks, sink=sink, stream=stream,
                position=position, measured=measured, mkey=mkey, tkey=tkey,
            )
            # Keep the chain short while the run lives: the resume
            # ladder only ever wants the newest snapshot plus one
            # fallback (truncated-segment or failed-restore cases), so
            # older rows written by *this* run are dead weight — prune
            # them instead of letting a 25M-access run accumulate
            # hundreds.  Rows inherited from a killed attempt are left
            # for completion (or gc) to clear.
            saved_positions.append(position)
            if len(saved_positions) > 2:
                experiment_store.delete_key(
                    store_mod.checkpoint_key(chain, saved_positions.pop(0))
                )
            if report is not None:
                report.checkpoints_written += 1
                report.checkpoint_seconds += (
                    time.perf_counter() - save_started
                )
    if not measured:
        system.begin_measurement()
    # The warm-up MARKER (and nothing else) can remain pending, exactly
    # as in simulate_streaming.
    residue = system.take_shard()
    if any(node_stream.events for node_stream in residue):
        for consumer in consumers:
            consumer.consume(residue)
    system.finish()
    metrics = system.result(spec.name, include_events=False)
    evaluations = {name: bank.finish() for name, bank in banks.items()}
    return metrics, evaluations, sink, chain


def _sim_task(task: tuple[str, WorkloadSpec, SystemConfig, int]) -> tuple[str, bytes]:
    """Worker entry: run one simulation, return its canonical payload."""
    key, spec, system, seed = task
    return key, store_mod.encode_sim(compute_sim(spec, system, seed))


def _stream_task(task) -> tuple[str, bytes, list[tuple[str, bytes]]]:
    """Worker entry: one fused streaming pass, encoded results back.

    ``pairs`` lists ``(eval_key, filter_name)`` for every evaluation this
    pass must produce; the metrics payload rides along under ``mkey``.
    """
    mkey, spec, system, seed, chunk_size, pairs = task
    metrics, evaluations = compute_stream(
        spec, system, seed,
        tuple(name for _key, name in pairs), chunk_size,
    )
    return (
        mkey,
        store_mod.encode_sim_metrics(metrics),
        [(key, store_mod.encode_eval(evaluations[name])) for key, name in pairs],
    )


def _eval_group_task(
    task: tuple[bytes, SystemConfig, list[tuple[str, str]], tuple[str, ...]]
) -> list[tuple[str, bytes]]:
    """Worker entry: decode one shipped simulation, replay several filters.

    Grouping all of a simulation's filter replays into one task means the
    compressed payload crosses the process boundary (and is decoded)
    exactly once per simulation, not once per filter.  ``phase_names``
    labels the recorded PHASE markers (empty for plain workloads).
    """
    sim_blob, system, pairs, phase_names = task
    sim = store_mod.decode_sim(sim_blob)
    return [
        (
            key,
            store_mod.encode_eval(
                compute_eval(sim, filter_name, system, phase_names)
            ),
        )
        for key, filter_name in pairs
    ]


def _checkpointed_stream_task(task):
    """Worker entry: one checkpointed streaming run, writes owned locally.

    Unlike the other worker entries, this one does not ship results back
    for the parent to store: a checkpointed run *is* a store client — it
    snapshots mid-run state at every watermark — so the worker opens its
    own read-write connection to the shared SQLite file and lands
    checkpoints, metrics, and evaluations itself (every ``put_blob``
    retries under ``SQLITE_RETRY_POLICY``, so concurrent writers from
    sibling workers contend safely).  Only counters cross the process
    boundary.  This is what lets checkpointed sweeps fan out instead of
    being forced serial in the parent.
    """
    (path, spec, system, seed, all_names, chunk_size,
     checkpoint_every, mkey, pairs) = task
    store = ExperimentStore(path)
    try:
        local = ExecutionReport()
        metrics, evaluations, _sink, chain = _run_checkpointed(
            spec, system, seed, all_names, chunk_size, checkpoint_every,
            store, report=local,
        )
        store.put_sim_metrics_blob(
            mkey, store_mod.encode_sim_metrics(metrics),
            workload=spec.name, n_cpus=system.n_cpus, seed=seed,
        )
        for ekey, name in pairs:
            store.put_eval_blob(
                ekey, store_mod.encode_eval(evaluations[name]),
                workload=spec.name, filter_name=name,
                n_cpus=system.n_cpus, seed=seed,
            )
        # Results are durable; retire the chain from the worker too.
        store.delete_group(store_mod.CHECKPOINT_KIND, chain)
        return len(pairs), {
            "checkpoints_written": local.checkpoints_written,
            "checkpoints_resumed": local.checkpoints_resumed,
            "resumed_accesses": local.resumed_accesses,
            "checkpoint_seconds": local.checkpoint_seconds,
        }
    finally:
        store.close()


#: Pluggable executor backends (the runner's ``backend=`` knob):
#: ``serial`` runs inline whatever the worker count, ``process`` is the
#: default supervised process pool (true parallelism for the CPU-bound
#: simulate/replay kernels, plus crash detection and per-task
#: deadlines), and ``thread`` is a supervised thread pool — GIL-bound
#: for the pure-Python kernels, useful when tasks wait on I/O (store
#: reads over slow storage) or when process spawn cost dwarfs the task.
#: When process-pool creation itself fails the executor degrades
#: process → thread → serial rather than dying.
EXECUTOR_BACKENDS = ("serial", "process", "thread")


def _map_tasks(
    worker,
    tasks,
    workers: int,
    backend: str | None = None,
    *,
    stage: str = "task",
    report: "ExecutionReport | None" = None,
    policy: RetryPolicy | None = None,
    task_timeout: float | None = None,
    fault_plan=None,
):
    """Run ``worker`` over ``tasks`` on the selected executor backend.

    Results come back in task order on every backend, so the parent
    inserts them into the store in a deterministic sequence — which
    executor ran a task can never change a stored byte.  Execution is
    supervised (:class:`~repro.analysis.resilience.SupervisedExecutor`):
    worker crashes respawn the pool and requeue in-flight tasks,
    ``task_timeout`` enforces per-task deadlines on the process
    backend, and a task that exhausts its retry budget comes back as
    the :data:`~repro.analysis.resilience.QUARANTINED` sentinel in its
    slot — callers skip those slots and the sweep degrades to partial
    results.  All supervision events are counted on ``report``.
    """
    name = backend or "process"
    if name not in EXECUTOR_BACKENDS:
        raise ConfigurationError(
            f"unknown executor backend {name!r}; "
            f"choose one of {', '.join(EXECUTOR_BACKENDS)}"
        )
    executor = SupervisedExecutor(
        min(max(1, workers), max(1, len(tasks))),
        backend=name,
        policy=policy,
        timeout=task_timeout,
        report=report,
        fault_plan=fault_plan,
        stage=stage,
    )
    return executor.map(worker, tasks)


# ----------------------------------------------------------------------
# Batched execution
# ----------------------------------------------------------------------

@dataclass
class ExecutionReport:
    """What one batched run actually did (cache hits vs fresh work)."""

    sims_run: int = 0
    sims_cached: int = 0
    evals_run: int = 0
    evals_cached: int = 0
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: Mid-run checkpoints written during this batch (``checkpoint_every``).
    checkpoints_written: int = 0
    #: Runs that warm-started from a stored checkpoint instead of access 0.
    checkpoints_resumed: int = 0
    #: Access watermark the most recent resume started from.
    resumed_accesses: int = 0
    #: Wall time spent snapshotting + writing checkpoints (the pause a
    #: run pays for resumability; the rest of the loop is untouched).
    checkpoint_seconds: float = 0.0
    #: Task attempts re-run after a failure of their own (a raised
    #: transient error or a deadline miss).
    retried: int = 0
    #: Tasks resubmitted because a pool-level event (worker crash,
    #: deadline kill) took them down while in flight.
    requeued: int = 0
    #: Tasks that failed every allowed attempt and were set aside; their
    #: results are missing and the sweep reports partial coverage.
    quarantined: int = 0
    #: Per-task deadline misses (process backend only).
    timeouts: int = 0
    #: Worker-pool breakages detected and recovered by respawning.
    worker_crashes: int = 0
    #: ``"process->thread"`` etc. when pool creation failed and the
    #: executor fell back to a slower backend; ``None`` when the
    #: requested backend ran.
    backend_degraded: str | None = None

    def summary(self) -> str:
        text = (
            f"sims: {self.sims_run} run / {self.sims_cached} cached; "
            f"evals: {self.evals_run} run / {self.evals_cached} cached; "
            f"workers: {self.workers}; "
            f"wall time {self.elapsed_seconds:.2f}s"
        )
        if self.checkpoints_resumed == 1:
            text += (
                f"; resumed from checkpoint @ {self.resumed_accesses:,} "
                "accesses"
            )
        elif self.checkpoints_resumed:
            # Several runs resumed; a single watermark would misattribute.
            text += (
                f"; resumed from checkpoints ({self.checkpoints_resumed} "
                "runs)"
            )
        if self.checkpoints_written:
            text += f"; checkpoints: {self.checkpoints_written} written"
        # Fault accounting only when something actually went wrong, so
        # clean-run summaries keep their historical shape.
        faults = [
            f"{count} {label}"
            for count, label in (
                (self.quarantined, "quarantined"),
                (self.retried, "retried"),
                (self.requeued, "requeued"),
                (self.timeouts, "timed out"),
                (self.worker_crashes, "pool crashes"),
            )
            if count
        ]
        if faults:
            text += f"; faults: {', '.join(faults)}"
        if self.backend_degraded:
            text += f"; backend degraded: {self.backend_degraded}"
        return text


def _spec_for(job: SimJob | EvalJob, specs: dict[str, WorkloadSpec]) -> WorkloadSpec:
    spec = specs.get(job.workload)
    if spec is None:
        spec = get_workload(job.workload)
        specs[job.workload] = spec
    return spec


def execute(
    sim_jobs: list[SimJob] | tuple[SimJob, ...] = (),
    eval_jobs: list[EvalJob] | tuple[EvalJob, ...] = (),
    *,
    experiment_store: ExperimentStore,
    workers: int = 1,
    backend: str | None = None,
    specs: dict[str, WorkloadSpec] | None = None,
    policy: RetryPolicy | None = None,
    task_timeout: float | None = None,
    fault_plan=None,
) -> ExecutionReport:
    """Run every job not already in the store; return what happened.

    ``specs`` optionally maps workload names to explicit
    :class:`WorkloadSpec` objects (the sweep CLI uses this for reduced
    access counts); unlisted names resolve through the registry.
    ``backend`` selects the executor (:data:`EXECUTOR_BACKENDS`;
    default ``process``).  ``policy`` / ``task_timeout`` / ``fault_plan``
    configure supervision (see :func:`_map_tasks`); a quarantined
    simulation also skips every evaluation depending on it, so the
    sweep completes with partial results and the report says so.
    """
    started = time.perf_counter()
    report = ExecutionReport(workers=max(1, workers))
    specs = specs if specs is not None else {}
    supervision = dict(
        report=report, policy=policy,
        task_timeout=task_timeout, fault_plan=fault_plan,
    )

    # Phase 1 — every simulation any job needs, deduplicated by key.
    # A simulation is *demanded* when a SimJob names it explicitly or an
    # eval job that misses the store depends on it; a sim that only backs
    # already-cached evaluations (e.g. after a streamed sweep, which
    # stores evals but no full recording) must not be re-run.
    needed_sims: dict[str, SimJob] = {}
    demanded: set[str] = set()
    for job in sim_jobs:
        key = store_mod.sim_key(_spec_for(job, specs), job.system, job.seed)
        needed_sims.setdefault(key, job)
        demanded.add(key)
    for ej in eval_jobs:
        spec = _spec_for(ej, specs)
        key = store_mod.sim_key(spec, ej.system, ej.seed)
        needed_sims.setdefault(key, ej.sim_job)
        ekey = store_mod.eval_key(spec, ej.filter_name, ej.system, ej.seed)
        if not experiment_store.contains(ekey):
            demanded.add(key)

    sim_tasks = []
    for key in sorted(needed_sims):
        job = needed_sims[key]
        if experiment_store.contains(key) or key not in demanded:
            report.sims_cached += 1
        else:
            sim_tasks.append((key, specs[job.workload], job.system, job.seed))
    for outcome in _map_tasks(
        _sim_task, sim_tasks, workers, backend, stage="sim", **supervision
    ):
        if outcome is QUARANTINED:
            continue
        key, blob = outcome
        job = needed_sims[key]
        experiment_store.put_sim_blob(
            key, blob, workload=specs[job.workload].name,
            n_cpus=job.system.n_cpus, seed=job.seed,
        )
        report.sims_run += 1

    # Phase 2 — filter replays, grouped per simulation so each compressed
    # payload is shipped to and decoded by a worker exactly once.
    needed_evals: dict[str, EvalJob] = {}
    for job in eval_jobs:
        key = store_mod.eval_key(
            _spec_for(job, specs), job.filter_name, job.system, job.seed
        )
        needed_evals.setdefault(key, job)

    groups: dict[str, list[tuple[str, str]]] = {}
    for key in sorted(needed_evals):
        job = needed_evals[key]
        if experiment_store.contains(key):
            report.evals_cached += 1
            continue
        skey = store_mod.sim_key(specs[job.workload], job.system, job.seed)
        groups.setdefault(skey, []).append((key, job.filter_name))

    eval_tasks = []
    for skey in sorted(groups):
        pairs = groups[skey]
        sim_blob = experiment_store.get_blob(skey)
        if sim_blob is None:
            # Phase 1 normally guarantees the blob; its absence means
            # the simulation was quarantined this run.  Degrade: skip
            # the dependent evaluations rather than dying.
            if not report.quarantined:  # pragma: no cover - invariant
                raise ExecutionError(
                    f"simulation missing for eval keys {pairs} "
                    "without a quarantine"
                )
            _logger.warning(
                "skipping %d evaluation(s): simulation %s was quarantined",
                len(pairs), skey,
            )
            continue
        job = needed_evals[pairs[0][0]]
        eval_tasks.append(
            (sim_blob, job.system, pairs, _phase_plan(specs[job.workload])[1])
        )
    for results in _map_tasks(
        _eval_group_task, eval_tasks, workers, backend,
        stage="eval", **supervision
    ):
        if results is QUARANTINED:
            continue
        for key, blob in results:
            job = needed_evals[key]
            experiment_store.put_eval_blob(
                key, blob, workload=specs[job.workload].name,
                filter_name=job.filter_name,
                n_cpus=job.system.n_cpus, seed=job.seed,
            )
            report.evals_run += 1

    report.elapsed_seconds = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------
# Streaming execution
# ----------------------------------------------------------------------

def execute_streams(
    stream_jobs: list[StreamJob] | tuple[StreamJob, ...],
    *,
    experiment_store: ExperimentStore,
    workers: int = 1,
    backend: str | None = None,
    specs: dict[str, WorkloadSpec] | None = None,
    checkpoint_every: int | None = None,
    policy: RetryPolicy | None = None,
    task_timeout: float | None = None,
    fault_plan=None,
) -> ExecutionReport:
    """Run every streaming job whose results are not already stored.

    Jobs targeting the same ``(workload, system, seed)`` are fused into
    one simulation pass evaluating the union of their filters.  A job is
    skipped entirely when its metrics *and* every requested evaluation
    are already in the store — including evaluations produced earlier by
    the buffered path, since both modes share the ``eval`` keyspace.

    With ``checkpoint_every``, each simulation snapshots its full state
    into the store at that access cadence and resumes from the newest
    stored checkpoint on a warm start (see :func:`_run_checkpointed`).
    When the store is a SQLite file and parallel workers are requested,
    checkpointed runs fan out like plain ones — each worker owns its
    own store connection and writes its checkpoints, metrics, and
    evaluations under the SQLite retry policy
    (:func:`_checkpointed_stream_task`).  In-memory stores and the
    serial backend keep the runs in the parent, which owns the only
    store connection.  Results are byte-identical either way; completed
    runs retire their checkpoint chains.

    ``policy`` / ``task_timeout`` / ``fault_plan`` configure supervised
    execution of the fanned-out stages (see :func:`_map_tasks`),
    checkpointed or not — though a checkpointed run's first recovery
    story is its own chain: a respawned task resumes at the dead
    worker's last watermark instead of access 0.
    """
    started = time.perf_counter()
    report = ExecutionReport(workers=max(1, workers))
    specs = specs if specs is not None else {}
    supervision = dict(
        report=report, policy=policy,
        task_timeout=task_timeout, fault_plan=fault_plan,
    )

    # Fuse jobs by simulation identity; collect each group's filter set.
    grouped: dict[str, tuple[StreamJob, dict[str, str]]] = {}
    for job in stream_jobs:
        spec = _spec_for(job, specs)
        mkey = store_mod.sim_metrics_key(spec, job.system, job.seed)
        _job, filters = grouped.setdefault(mkey, (job, {}))
        for name in job.filter_names:
            filters[store_mod.eval_key(spec, name, job.system, job.seed)] = name

    tasks = []
    replay_tasks = []
    for mkey in sorted(grouped):
        job, filters = grouped[mkey]
        spec = specs[job.workload]
        pairs = []
        for ekey in sorted(filters):
            if experiment_store.contains(ekey):
                report.evals_cached += 1
            else:
                pairs.append((ekey, filters[ekey]))
        if not pairs and experiment_store.contains(mkey):
            report.sims_cached += 1
            continue
        # A buffered recording of this exact configuration may already be
        # stored (full event streams included).  If so, nothing needs
        # simulating: missing evaluations replay from the recording and
        # the metrics payload is derived from it — both byte-identical to
        # a genuine streaming pass by the determinism contract.  This is
        # what makes buffered sweeps warm streamed ones completely.
        sim_blob = experiment_store.get_blob(
            store_mod.sim_key(spec, job.system, job.seed)
        )
        if sim_blob is not None:
            if not experiment_store.contains(mkey):
                experiment_store.put_sim_metrics_blob(
                    mkey,
                    store_mod.encode_sim_metrics(store_mod.decode_sim(sim_blob)),
                    workload=spec.name,
                    n_cpus=job.system.n_cpus,
                    seed=job.seed,
                )
            report.sims_cached += 1
            if pairs:
                replay_tasks.append(
                    (sim_blob, job.system, pairs, _phase_plan(spec)[1])
                )
            continue
        tasks.append((mkey, spec, job.system, job.seed, job.chunk_size, pairs))

    # Replays of stored recordings share the worker pool, exactly like
    # the buffered engine's phase 2.
    eval_owner = {
        ekey: grouped[mkey] for mkey in grouped for ekey in grouped[mkey][1]
    }
    for results in _map_tasks(
        _eval_group_task, replay_tasks, workers, backend,
        stage="stream-eval", **supervision
    ):
        if results is QUARANTINED:
            continue
        for ekey, blob in results:
            job, filters = eval_owner[ekey]
            experiment_store.put_eval_blob(
                ekey, blob, workload=specs[job.workload].name,
                filter_name=filters[ekey],
                n_cpus=job.system.n_cpus, seed=job.seed,
            )
            report.evals_run += 1

    if checkpoint_every is not None:
        parallel = (
            experiment_store.path is not None
            and max(1, workers) > 1
            and len(tasks) > 1
            and (backend or "process") != "serial"
        )
        if parallel:
            # Worker-side checkpoint writers: each run opens its own
            # connection to the shared SQLite file and lands snapshots,
            # metrics, and evaluations itself (see
            # :func:`_checkpointed_stream_task`), so checkpointed
            # sweeps fan out like plain ones.  Only counters return.
            ck_tasks = []
            for mkey, spec, system, seed, task_chunk, pairs in tasks:
                _job, filters_map = grouped[mkey]
                all_names = tuple(sorted(set(filters_map.values())))
                ck_tasks.append((
                    str(experiment_store.path), spec, system, seed,
                    all_names, task_chunk, checkpoint_every, mkey, pairs,
                ))
            for outcome in _map_tasks(
                _checkpointed_stream_task, ck_tasks, workers, backend,
                stage="checkpoint", **supervision
            ):
                if outcome is QUARANTINED:
                    continue
                evals_done, counters = outcome
                report.sims_run += 1
                report.evals_run += evals_done
                report.checkpoints_written += counters["checkpoints_written"]
                report.checkpoints_resumed += counters["checkpoints_resumed"]
                report.resumed_accesses += counters["resumed_accesses"]
                report.checkpoint_seconds += counters["checkpoint_seconds"]
            report.elapsed_seconds = time.perf_counter() - started
            return report
        # In-memory or serial: checkpointed runs stay in the parent —
        # they need the live store connection for their snapshots.
        for mkey, spec, system, seed, task_chunk, pairs in tasks:
            # The chain (and the attached banks) covers the job's *full*
            # filter union, not just the currently missing evaluations:
            # deriving it from the warm-state-dependent subset would
            # orphan the chain if a kill landed between the metrics and
            # eval writes (or another sweep warmed one eval meanwhile),
            # silently restarting a near-complete run from access 0.
            _job, filters_map = grouped[mkey]
            all_names = tuple(sorted(set(filters_map.values())))
            metrics, evaluations, _sink, chain = _run_checkpointed(
                spec, system, seed, all_names,
                task_chunk, checkpoint_every, experiment_store,
                report=report,
            )
            experiment_store.put_sim_metrics_blob(
                mkey, store_mod.encode_sim_metrics(metrics),
                workload=spec.name, n_cpus=system.n_cpus, seed=seed,
            )
            report.sims_run += 1
            for ekey, name in pairs:
                experiment_store.put_eval_blob(
                    ekey, store_mod.encode_eval(evaluations[name]),
                    workload=spec.name, filter_name=name,
                    n_cpus=system.n_cpus, seed=seed,
                )
                report.evals_run += 1
            # Results are durable; the chain can never be resumed into
            # anything new, so retire it now rather than waiting for gc.
            experiment_store.delete_group(store_mod.CHECKPOINT_KIND, chain)
        report.elapsed_seconds = time.perf_counter() - started
        return report

    for outcome in _map_tasks(
        _stream_task, tasks, workers, backend, stage="stream", **supervision
    ):
        if outcome is QUARANTINED:
            continue
        mkey, metrics_blob, eval_blobs = outcome
        job, _filters = grouped[mkey]
        spec = specs[job.workload]
        experiment_store.put_sim_metrics_blob(
            mkey, metrics_blob, workload=spec.name,
            n_cpus=job.system.n_cpus, seed=job.seed,
        )
        report.sims_run += 1
        for ekey, blob in eval_blobs:
            experiment_store.put_eval_blob(
                ekey, blob, workload=spec.name,
                filter_name=_filters[ekey],
                n_cpus=job.system.n_cpus, seed=job.seed,
            )
            report.evals_run += 1

    report.elapsed_seconds = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------
# Record-once / replay-many execution (persisted traces)
# ----------------------------------------------------------------------

def record_trace(
    spec: WorkloadSpec,
    system: SystemConfig,
    seed: int,
    *,
    experiment_store: ExperimentStore,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_every: int | None = None,
    report: ExecutionReport | None = None,
    segment_events: int = TRACE_SEGMENT_EVENTS,
    codec: str = store_mod.DEFAULT_SEGMENT_CODEC,
    measured_only: bool = False,
    warm_filters: tuple[str, ...] = (),
) -> SimResult:
    """Simulate once, persisting the packed event shards as a trace.

    One streaming pass with a :class:`~repro.coherence.smp.TraceSink`
    attached: segments are compressed and written to the store *as the
    simulation advances* (O(segment) memory, never O(trace)), the
    manifest — per-node segment/event counts plus the run's metrics —
    lands last, and the ``sim-metrics`` row is stored too if missing, so
    a recording warms every metrics consumer exactly like a plain
    streamed run.  When starting fresh, any pre-existing rows under this
    trace key are dropped first: stale segments from an interrupted or
    partially collected recording must never mix with fresh ones.
    Returns the metrics-only result.

    ``codec`` selects the segment wire format (see
    :data:`repro.analysis.store.SEGMENT_CODECS`); replays sniff it per
    segment, so the choice never appears in a key and mixed-codec
    stores stay warm.

    With ``measured_only=True`` (requires a warm-up), only post-warm-up
    events are recorded: live per-node filter banks for ``warm_filters``
    plus the default sweep set consume the warm-up shards, their warmed
    state is snapshotted at ``begin_measurement`` into a ``fast-forward``
    store row (written *before* the manifest, so a manifest always
    implies its snapshot landed), and replays restore that state instead
    of re-replaying warm-up.  Evaluations stay byte-identical to a
    full-trace replay per the determinism contract — pinned per family
    by the codec test suite.

    With ``checkpoint_every``, the recording snapshots its state (the
    machine *and* the sink's segment watermarks) at that access cadence;
    an interrupted recording then resumes at its last durable segment
    instead of re-recording from scratch.  The resume first validates
    the newest recorded segment per node against the checkpoint's CRC —
    a truncated final segment is dropped and the run falls back to the
    previous watermark.  Either way the recorded bytes equal an
    uninterrupted recording's exactly.
    """
    if codec not in store_mod.SEGMENT_CODECS:
        raise ConfigurationError(
            f"unknown trace segment codec {codec!r}; choose one of "
            f"{', '.join(store_mod.SEGMENT_CODECS)}"
        )
    tkey = store_mod.trace_key(spec, system, seed)

    def write_segment(node_id: int, index: int, raw: bytes) -> None:
        experiment_store.put_blob(
            store_mod.trace_segment_key(tkey, node_id, index),
            store_mod.encode_trace_segment(raw, codec),
            kind=store_mod.TRACE_KIND,
            workload=spec.name,
            filter_name=tkey,
            n_cpus=system.n_cpus,
            seed=seed,
        )

    chain = None
    ffkey = None
    warmup = 0
    if measured_only:
        if checkpoint_every is not None:
            raise ConfigurationError(
                "measured-only recording does not support "
                "checkpoint_every: the warm-up filter banks are not "
                "part of the checkpoint protocol"
            )
        stream, warmup = simulate_workload_accesses(
            spec, n_cpus=system.n_cpus, seed=seed
        )
        if warmup <= 0:
            raise ConfigurationError(
                f"measured-only recording of {spec.name!r} needs a "
                "positive warm-up: with none there is no state to "
                "fast-forward over"
            )
        experiment_store.delete_trace(tkey)
        sink = TraceSink(system.n_cpus, write_segment, segment_events)
        families = sorted(set(warm_filters) | set(DEFAULT_SWEEP_FILTERS))
        # Pinned to python: capture() snapshots the filter objects, which
        # only this kernel drives — and the stored bytes keep EJ ways.
        warm_banks = {
            name: _build_bank(name, system, kernel="python")
            for name in families
        }
        snapshots: dict[str, list[dict]] = {}

        def capture(_system) -> None:
            for name, bank in warm_banks.items():
                states = []
                for replayer in bank.replayers:
                    snoop_filter = replayer.snoop_filter
                    # Canonical zero-count snapshots: replay resets the
                    # counts at the warm-up MARKER anyway, and zeroing
                    # here keeps the payload independent of warm-up
                    # event tallies.
                    snoop_filter.reset_counts()
                    states.append(snoop_filter.snapshot())
                snapshots[name] = states

        metrics = simulate_streaming(
            system, stream, spec.name,
            warmup=warmup, chunk_size=chunk_size,
            warmup_sinks=[ShardFanout(warm_banks.values())],
            measurement_sinks=[sink],
            on_measurement=capture,
            phase_marks=_phase_plan(spec)[0],
        )
        ffkey = store_mod.fast_forward_key(spec, system, seed, warmup)
    elif checkpoint_every is not None:
        metrics, _evaluations, sink, chain = _run_checkpointed(
            spec, system, seed, (), chunk_size, checkpoint_every,
            experiment_store, record=True, write_segment=write_segment,
            tkey=tkey, report=report, segment_events=segment_events,
        )
    else:
        experiment_store.delete_trace(tkey)
        sink = TraceSink(system.n_cpus, write_segment, segment_events)
        stream, warmup = simulate_workload_accesses(
            spec, n_cpus=system.n_cpus, seed=seed
        )
        metrics = simulate_streaming(
            system, stream, spec.name,
            warmup=warmup, chunk_size=chunk_size, sinks=[sink],
            phase_marks=_phase_plan(spec)[0],
        )
    segments_per_node = sink.finish()
    manifest = {
        "version": 1,
        "workload": spec.name,
        "n_cpus": system.n_cpus,
        "seed": seed,
        "segments_per_node": segments_per_node,
        "events_per_node": list(sink.events_per_node),
        "metrics": store_mod.sim_metrics_to_dict(metrics),
    }
    if codec != store_mod.DEFAULT_SEGMENT_CODEC:
        # Informational only (decode sniffs per segment); omitted at the
        # default so pre-codec recordings' manifest bytes are unchanged.
        manifest["codec"] = codec
    if measured_only:
        manifest["measured_only"] = True
        manifest["warmup"] = warmup
        manifest["fast_forward"] = ffkey
        # Durability ladder: the snapshot lands before the manifest that
        # references it, so a crash between the writes leaves a trace
        # that merely looks unrecorded — never one that replays without
        # its warm state.
        experiment_store.put_blob(
            ffkey,
            store_mod.encode_fast_forward({
                "version": 1,
                "workload": spec.name,
                "n_cpus": system.n_cpus,
                "seed": seed,
                "warmup": warmup,
                "filters": snapshots,
            }),
            kind=store_mod.FAST_FORWARD_KIND,
            workload=spec.name,
            filter_name=tkey,
            n_cpus=system.n_cpus,
            seed=seed,
        )
    experiment_store.put_blob(
        tkey,
        store_mod.encode_trace_manifest(manifest),
        kind=store_mod.TRACE_KIND,
        workload=spec.name,
        filter_name=None,
        n_cpus=system.n_cpus,
        seed=seed,
    )
    mkey = store_mod.sim_metrics_key(spec, system, seed)
    if not experiment_store.contains(mkey):
        experiment_store.put_sim_metrics(mkey, metrics, seed=seed)
    if chain is not None:
        # Manifest and metrics are durable — the chain is now stale.
        experiment_store.delete_group(store_mod.CHECKPOINT_KIND, chain)
    return metrics


def load_trace(
    experiment_store: ExperimentStore, tkey: str
) -> tuple[dict, list[list[str]]] | None:
    """Fetch a trace's manifest and verify every segment is present.

    Returns ``(manifest, segment_keys_by_node)``, or ``None`` when the
    manifest is missing *or any segment row is gone* (e.g. after a
    partial external deletion) — an incomplete trace must look absent so
    the caller re-records rather than replaying a truncated stream.  The
    presence checks double as LRU touches, keeping a replayed trace's
    rows fresh as one unit.
    """
    blob = experiment_store.get_blob(tkey)
    if blob is None:
        return None
    manifest = store_mod.decode_trace_manifest(blob)
    if manifest.get("measured_only") and not experiment_store.contains(
        manifest["fast_forward"]
    ):
        # A measured-only trace without its warm state cannot replay
        # byte-identically; treat it like any other incomplete trace.
        return None
    segment_keys = [
        [store_mod.trace_segment_key(tkey, node_id, index)
         for index in range(count)]
        for node_id, count in enumerate(manifest["segments_per_node"])
    ]
    for node_keys in segment_keys:
        for key in node_keys:
            if not experiment_store.contains(key):
                return None
    return manifest, segment_keys


def _warm_states_for(
    experiment_store: ExperimentStore,
    manifest: dict,
    pairs: list[tuple[str, str]],
) -> dict[str, list[dict]] | None:
    """The fast-forward states a replay of ``pairs`` needs, or ``None``.

    Full-trace manifests need none.  For a measured-only trace every
    requested filter family must have been warmed at record time — a
    family the snapshot lacks cannot replay byte-identically, so the
    error names the fix (re-record with the family in the warm set)
    rather than silently evaluating from cold state.
    """
    if not manifest.get("measured_only"):
        return None
    blob = experiment_store.get_blob(manifest["fast_forward"])
    if blob is None:
        # load_trace checked presence; a vanish since then is corruption.
        raise StoreCorruptionError(
            "fast-forward snapshot vanished from the store mid-replay"
        )
    payload = store_mod.decode_fast_forward(blob)
    states = payload["filters"]
    missing = sorted({name for _ekey, name in pairs} - set(states))
    if missing:
        raise ConfigurationError(
            f"measured-only trace of {manifest['workload']!r} has no "
            f"fast-forward state for filter(s) {', '.join(missing)}; "
            "re-record the trace with these filters in the warm set "
            "(they are warmed automatically when requested at record "
            "time)"
        )
    return {name: states[name] for _ekey, name in pairs}


def transcode_trace(
    experiment_store: ExperimentStore, tkey: str, codec: str
) -> tuple[int, int]:
    """Rewrite one stored trace's segments under ``codec``, in place.

    Decode-and-re-encode every segment (byte-exact round trip — the
    packed events, and therefore every replay, are unchanged), update
    the manifest's codec note, and return ``(bytes_before,
    bytes_after)`` over the rewritten segment rows.  Keys never change:
    the codec is an encoding detail, so evaluations stay warm and
    mixed-codec archives converge row by row.  Each segment is rewritten
    with one ``INSERT OR REPLACE`` — an interrupted transcode leaves a
    mixed-codec trace that still replays correctly.
    """
    if codec not in store_mod.SEGMENT_CODECS:
        raise ConfigurationError(
            f"unknown trace segment codec {codec!r}; choose one of "
            f"{', '.join(store_mod.SEGMENT_CODECS)}"
        )
    loaded = load_trace(experiment_store, tkey)
    if loaded is None:
        raise ConfigurationError(
            "no complete trace stored under this key; nothing to "
            "transcode"
        )
    manifest, segment_keys = loaded
    before = after = 0
    for node_keys in segment_keys:
        for key in node_keys:
            blob = experiment_store.get_blob(key)
            before += len(blob)
            if store_mod.segment_codec(blob) != codec:
                events = store_mod.decode_trace_segment(blob)
                raw = events.tobytes()
                blob = store_mod.encode_trace_segment(raw, codec)
                experiment_store.put_blob(
                    key, blob,
                    kind=store_mod.TRACE_KIND,
                    workload=manifest["workload"],
                    filter_name=tkey,
                    n_cpus=manifest["n_cpus"],
                    seed=manifest["seed"],
                )
            after += len(blob)
    if manifest.get("codec", store_mod.DEFAULT_SEGMENT_CODEC) != codec:
        if codec == store_mod.DEFAULT_SEGMENT_CODEC:
            manifest.pop("codec", None)
        else:
            manifest["codec"] = codec
        experiment_store.put_blob(
            tkey,
            store_mod.encode_trace_manifest(manifest),
            kind=store_mod.TRACE_KIND,
            workload=manifest["workload"],
            filter_name=None,
            n_cpus=manifest["n_cpus"],
            seed=manifest["seed"],
        )
    return before, after


def _segment_payload(
    experiment_store: ExperimentStore, segment_keys: list[list[str]]
) -> tuple[str | None, list[list]]:
    """The ``(path, segments)`` half of a replay task.

    Persistent stores ship their path plus the segment *keys* — workers
    open the file read-only and fetch one segment at a time (O(segment)
    memory); in-memory stores have no file, so the compressed blobs ride
    in the task itself.
    """
    if experiment_store.path is not None:
        return str(experiment_store.path), segment_keys
    return None, [
        [experiment_store.get_blob(key) for key in node_keys]
        for node_keys in segment_keys
    ]


def _replay_task(task) -> list[tuple[str, bytes]]:
    """Worker entry: replay one trace through one or more filters.

    ``segments`` is either per-node lists of *store keys* (``path`` set:
    the worker opens the store file read-only — with SQLite's mmap I/O
    where available — and fetches payloads itself, so nothing heavy
    crosses the process boundary) or per-node lists of already-compressed
    blobs (in-memory stores).  Each segment is decoded once and fed to
    every requested bank via the shared :func:`replay_trace` kernel.

    ``warm_states`` (measured-only traces) maps each task filter name to
    its per-node fast-forward snapshots; the banks restore them before
    consuming the recorded measurement stream.
    """
    path, segments, system, pairs, kernel, phase_names, warm_states = task
    connection = None
    if path is not None:
        # Percent-encode the filesystem path: a raw '?', '#', or '%' in
        # it would be parsed as URI syntax and open the wrong file.
        # The open retries on transient contention ("database is
        # locked"/"busy"): the parent holds a writer connection, and a
        # replay worker racing one of its commits must not fail the
        # whole task over a lock that clears in milliseconds.
        quoted = urllib.parse.quote(path, safe="/:")
        connection = retry_call(
            lambda: sqlite3.connect(f"file:{quoted}?mode=ro", uri=True),
            policy=SQLITE_RETRY_POLICY,
            label="replay-store-open",
        )
        try:
            connection.execute("PRAGMA mmap_size = 268435456")
        except sqlite3.Error:  # pragma: no cover - pragma support varies
            pass

        def fetch(node_id: int, index: int):
            row = retry_call(
                lambda: connection.execute(
                    "SELECT payload FROM results WHERE key = ?",
                    (segments[node_id][index],),
                ).fetchone(),
                policy=SQLITE_RETRY_POLICY,
                label="replay-segment-fetch",
            )
            if row is None:
                raise ConfigurationError(
                    f"trace segment {index} of node {node_id} vanished "
                    "from the store mid-replay"
                )
            return store_mod.decode_trace_segment(row[0])
    else:
        def fetch(node_id: int, index: int):
            return store_mod.decode_trace_segment(segments[node_id][index])

    try:
        banks = [
            (ekey, _build_bank(
                name, system, kernel, phase_names,
                filter_states=(
                    None if warm_states is None else warm_states[name]
                ),
            ))
            for ekey, name in pairs
        ]
        reader = TraceReader([len(keys) for keys in segments], fetch)
        replay_trace(reader, [bank for _ekey, bank in banks])
        return [
            (ekey, store_mod.encode_eval(bank.finish()))
            for ekey, bank in banks
        ]
    finally:
        if connection is not None:
            connection.close()


def execute_replays(
    replay_jobs: list[ReplayJob] | tuple[ReplayJob, ...],
    *,
    experiment_store: ExperimentStore,
    workers: int = 1,
    backend: str | None = None,
    specs: dict[str, WorkloadSpec] | None = None,
    checkpoint_every: int | None = None,
    kernel: str = "auto",
    policy: RetryPolicy | None = None,
    task_timeout: float | None = None,
    fault_plan=None,
) -> ExecutionReport:
    """Record every missing trace once; replay every missing evaluation.

    Jobs targeting the same ``(workload, system, seed)`` are fused onto
    one trace.  Recording (the expensive simulation) runs in the parent
    process, one trace at a time; replays fan out on the selected
    executor backend — one task per filter configuration when parallel
    workers are available (each decodes segments independently), or one
    task per trace when serial (each segment then decodes exactly once
    for all filters).  Evaluations land under the shared ``eval``
    keyspace, byte-identical to live streamed or buffered ones.

    ``checkpoint_every`` makes each *recording* checkpointable: an
    interrupted recording resumes at its last durable segment (see
    :func:`record_trace`) rather than re-recording from scratch.
    Replays need no checkpoints — they are already cheap restarts.

    ``kernel`` selects the replay kernel (``"auto"`` vectorises
    supported filter families when NumPy is importable and falls back
    per family otherwise; see :data:`repro.core.stats.REPLAY_KERNELS`).
    Evaluations are byte-identical across kernels by the parity
    contract, so kernel choice never participates in store keys.
    """
    if kernel not in REPLAY_KERNELS:
        raise ConfigurationError(
            f"unknown replay kernel {kernel!r}; choose one of "
            f"{', '.join(REPLAY_KERNELS)}"
        )
    started = time.perf_counter()
    report = ExecutionReport(workers=max(1, workers))
    specs = specs if specs is not None else {}
    supervision = dict(
        report=report, policy=policy,
        task_timeout=task_timeout, fault_plan=fault_plan,
    )

    grouped: dict[str, tuple[ReplayJob, dict[str, str]]] = {}
    #: Trace keys some job *explicitly* asked to record (empty
    #: filter_names = a pure record job, e.g. ``trace record``): these
    #: must end up recorded even when nothing else needs the trace.
    record_requested: set[str] = set()
    for job in replay_jobs:
        spec = _spec_for(job, specs)
        tkey = store_mod.trace_key(spec, job.system, job.seed)
        _job, filters = grouped.setdefault(tkey, (job, {}))
        if not job.filter_names:
            record_requested.add(tkey)
        for name in job.filter_names:
            filters[store_mod.eval_key(spec, name, job.system, job.seed)] = name

    # Phase 1 — ensure every group's trace (and metrics row) exists.
    units = []
    for tkey in sorted(grouped):
        job, filters = grouped[tkey]
        spec = specs[job.workload]
        pairs = []
        for ekey in sorted(filters):
            if experiment_store.contains(ekey):
                report.evals_cached += 1
            else:
                pairs.append((ekey, filters[ekey]))
        loaded = load_trace(experiment_store, tkey)
        if loaded is None:
            # Run-the-misses contract: when every requested evaluation
            # and the metrics row are already stored (e.g. warmed by an
            # earlier streamed sweep) there is nothing to replay, so a
            # missing trace is not worth a full simulation — unless a
            # pure record job asked for the trace itself.
            mkey = store_mod.sim_metrics_key(spec, job.system, job.seed)
            if (
                not pairs
                and tkey not in record_requested
                and experiment_store.contains(mkey)
            ):
                report.sims_cached += 1
                continue
            record_trace(
                spec, job.system, job.seed,
                experiment_store=experiment_store,
                chunk_size=job.chunk_size,
                checkpoint_every=checkpoint_every,
                report=report,
                codec=job.codec,
                measured_only=job.measured_only,
                warm_filters=tuple(filters.values()) + job.warm_filters,
            )
            report.sims_run += 1
            loaded = load_trace(experiment_store, tkey)
            assert loaded is not None  # record_trace just wrote it
        else:
            report.sims_cached += 1
            mkey = store_mod.sim_metrics_key(spec, job.system, job.seed)
            if not experiment_store.contains(mkey):
                # The manifest embeds the run's metrics, so a trace can
                # resurrect an evicted sim-metrics row byte-identically.
                experiment_store.put_sim_metrics_blob(
                    mkey,
                    store_mod.encode_sim_metrics_dict(loaded[0]["metrics"]),
                    workload=spec.name,
                    n_cpus=job.system.n_cpus,
                    seed=job.seed,
                )
        if pairs:
            manifest, segment_keys = loaded
            units.append((tkey, manifest, segment_keys, pairs, job))

    # Phase 2 — replay, fanned out per filter configuration.
    backend_name = backend or "process"
    parallel = backend_name != "serial" and workers > 1
    owners = {
        ekey: grouped[tkey] for tkey in grouped for ekey in grouped[tkey][1]
    }
    tasks = []
    for tkey, manifest, segment_keys, pairs, job in units:
        path, segments = _segment_payload(experiment_store, segment_keys)
        phase_names = _phase_plan(specs[job.workload])[1]
        warm_states = _warm_states_for(experiment_store, manifest, pairs)
        if parallel and len(pairs) > 1:
            tasks.extend(
                (path, segments, job.system, [pair], kernel, phase_names,
                 None if warm_states is None
                 else {pair[1]: warm_states[pair[1]]})
                for pair in pairs
            )
        else:
            tasks.append(
                (path, segments, job.system, pairs, kernel, phase_names,
                 warm_states)
            )
    for results in _map_tasks(
        _replay_task, tasks, workers, backend, stage="replay", **supervision
    ):
        if results is QUARANTINED:
            continue
        for ekey, blob in results:
            job, filters = owners[ekey]
            experiment_store.put_eval_blob(
                ekey, blob, workload=specs[job.workload].name,
                filter_name=filters[ekey],
                n_cpus=job.system.n_cpus, seed=job.seed,
            )
            report.evals_run += 1

    report.elapsed_seconds = time.perf_counter() - started
    return report


def replay_filter_from_store(
    spec: WorkloadSpec,
    filter_name: str,
    system: SystemConfig,
    seed: int,
    *,
    experiment_store: ExperimentStore,
    kernel: str = "auto",
) -> FilterEvaluation | None:
    """Evaluate one filter from an already-recorded trace, if any.

    The opportunistic fast path behind
    :func:`repro.analysis.experiments.evaluate_filter`: when the store
    holds a complete trace for this configuration, the evaluation is a
    cheap replay (stored under the shared ``eval`` key as usual);
    otherwise ``None`` — the caller decides whether simulating (or
    recording) is worth it.  Never records a trace itself.
    """
    tkey = store_mod.trace_key(spec, system, seed)
    loaded = load_trace(experiment_store, tkey)
    if loaded is None:
        return None
    manifest, segment_keys = loaded
    path, segments = _segment_payload(experiment_store, segment_keys)
    ekey = store_mod.eval_key(spec, filter_name, system, seed)
    pairs = [(ekey, filter_name)]
    [(_key, blob)] = _replay_task(
        (path, segments, system, pairs, kernel,
         _phase_plan(spec)[1],
         _warm_states_for(experiment_store, manifest, pairs))
    )
    experiment_store.put_eval_blob(
        ekey, blob, workload=spec.name, filter_name=filter_name,
        n_cpus=system.n_cpus, seed=seed,
    )
    return store_mod.decode_eval(blob)


@dataclass
class StreamOutcome:
    """What one streaming evaluation produced (all store-backed)."""

    metrics: SimResult
    #: ``filter_name -> FilterEvaluation`` for every requested filter.
    evaluations: dict[str, FilterEvaluation]
    report: ExecutionReport

    def coverage(self, filter_name: str) -> float:
        return self.evaluations[filter_name].coverage.coverage


def evaluate_streaming(
    spec: WorkloadSpec | str,
    system: SystemConfig = SCALED_SYSTEM,
    filters: tuple[str, ...] = DEFAULT_SWEEP_FILTERS,
    seed: int = 1,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    experiment_store: ExperimentStore | None = None,
) -> StreamOutcome:
    """Evaluate N filters against one workload in a single streaming pass.

    The front door to paper-scale runs: all ``filters`` ride the live
    snoop stream of one simulation, so cost is one simulation plus N
    cheap replays and memory stays O(chunk_size).  Results are
    store-backed exactly like the buffered path — warm evaluations
    (from either mode) are never recomputed, and the numbers are
    byte-identical to buffered replays of the same configuration.
    """
    if isinstance(spec, str):
        spec = get_workload(spec)
    if experiment_store is None:
        from repro.analysis import experiments

        experiment_store = experiments.get_store()

    filters = tuple(filters)
    job = StreamJob(spec.name, filters, system, seed, chunk_size)
    report = execute_streams(
        [job], experiment_store=experiment_store, workers=1,
        specs={spec.name: spec},
    )
    metrics = experiment_store.get_sim_metrics(
        store_mod.sim_metrics_key(spec, system, seed)
    )
    assert metrics is not None
    evaluations = {}
    for name in filters:
        evaluation = experiment_store.get_eval(
            store_mod.eval_key(spec, name, system, seed)
        )
        assert evaluation is not None
        evaluations[name] = evaluation
    return StreamOutcome(metrics=metrics, evaluations=evaluations, report=report)


def evaluate_replay(
    spec: WorkloadSpec | str,
    system: SystemConfig = SCALED_SYSTEM,
    filters: tuple[str, ...] = DEFAULT_SWEEP_FILTERS,
    seed: int = 1,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    backend: str | None = None,
    experiment_store: ExperimentStore | None = None,
    kernel: str = "auto",
    codec: str = store_mod.DEFAULT_SEGMENT_CODEC,
    measured_only: bool = False,
) -> StreamOutcome:
    """Evaluate N filters via the record-once / replay-many path.

    The trace-backed sibling of :func:`evaluate_streaming`: the first
    call records the configuration's trace (one streaming simulation),
    and every call after that — with these filters or any others — only
    replays stored segments, fanning out across ``workers`` when a
    parallel backend is selected.  Results are byte-identical to the
    other modes' and share their store entries.  ``codec`` and
    ``measured_only`` shape a *new* recording only; an already-stored
    trace replays as recorded.
    """
    if isinstance(spec, str):
        spec = get_workload(spec)
    if experiment_store is None:
        from repro.analysis import experiments

        experiment_store = experiments.get_store()

    filters = tuple(filters)
    job = ReplayJob(
        spec.name, filters, system, seed, chunk_size, codec, measured_only
    )
    report = execute_replays(
        [job], experiment_store=experiment_store,
        workers=workers, backend=backend, specs={spec.name: spec},
        kernel=kernel,
    )
    metrics = experiment_store.get_sim_metrics(
        store_mod.sim_metrics_key(spec, system, seed)
    )
    assert metrics is not None  # record/restore guarantees it
    evaluations = {}
    for name in filters:
        evaluation = experiment_store.get_eval(
            store_mod.eval_key(spec, name, system, seed)
        )
        assert evaluation is not None
        evaluations[name] = evaluation
    return StreamOutcome(metrics=metrics, evaluations=evaluations, report=report)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

@dataclass
class SweepResult:
    """One sweep's evaluations plus the execution report behind them."""

    report: ExecutionReport
    #: ``(workload, filter_name, seed) -> FilterEvaluation``.
    evaluations: dict[tuple[str, str, int], FilterEvaluation] = field(
        default_factory=dict
    )

    def coverage(self, workload: str, filter_name: str, seed: int = 1) -> float:
        return self.evaluations[(workload, filter_name, seed)].coverage.coverage


def run_sweep(
    workloads,
    filters,
    *,
    system: SystemConfig = SCALED_SYSTEM,
    seeds=(1,),
    workers: int = 1,
    experiment_store: ExperimentStore | None = None,
    accesses: int | None = None,
    warmup: int | None = None,
    preset: str | None = None,
    stream: bool = False,
    replay: bool = False,
    backend: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_every: int | None = None,
    kernel: str = "auto",
    codec: str = store_mod.DEFAULT_SEGMENT_CODEC,
    measured_only: bool = False,
    policy: RetryPolicy | None = None,
    task_timeout: float | None = None,
    fault_plan=None,
) -> SweepResult:
    """Run a full workload x filter x seed sweep through the store.

    ``accesses``/``warmup`` shrink every workload spec (smoke runs) and
    ``preset`` applies a named spec transformation first (e.g.
    ``"paper-scale"``); every override participates in the store key, so
    modified runs never collide with stock ones.

    With ``stream=True`` each (workload, seed) becomes one single-pass
    :class:`StreamJob` evaluating all filters with O(chunk_size) memory —
    the required mode for paper-scale access counts.  With
    ``replay=True`` each (workload, seed) becomes a :class:`ReplayJob`:
    the first sweep records the trace once, and every later sweep — any
    filter set — replays it without simulating, fanning filter configs
    out across ``workers`` on the chosen ``backend``.  Evaluations land
    under the same store keys in every mode (they are byte-identical by
    the determinism contract), so all modes warm each other.

    ``checkpoint_every`` (streamed and replay modes only) snapshots each
    in-flight simulation into the store every N accesses, so a killed
    paper-scale sweep restarted with the same flags resumes from its
    latest checkpoint and still lands byte-identical results.

    ``kernel`` (replay mode only) picks the replay kernel — ``"auto"``
    vectorises supported families when NumPy is importable; results are
    byte-identical either way.  Streamed and buffered sweeps always run
    their banks on ``"auto"`` and accept only that.

    ``codec`` and ``measured_only`` (replay mode only) shape any *new*
    recording the sweep performs — segment wire format and
    measured-region-only capture with a fast-forward snapshot.  Like
    ``chunk_size`` they are execution hints: already-recorded traces
    replay as stored, and no store key changes.

    ``policy`` / ``task_timeout`` / ``fault_plan`` configure supervised
    execution (see :func:`_map_tasks`).  When tasks are quarantined the
    sweep returns *partial* results: the affected ``(workload, filter,
    seed)`` cells are simply absent from ``evaluations`` and the
    report's fault counters say why.
    """
    if kernel != "auto" and not replay:
        raise ConfigurationError(
            "kernel selection applies to replay sweeps only: streamed "
            "and buffered sweeps always run their filter banks on the "
            "auto kernel"
        )
    if (codec != store_mod.DEFAULT_SEGMENT_CODEC or measured_only) and (
        not replay
    ):
        raise ConfigurationError(
            "codec and measured-only selection apply to replay sweeps "
            "only: nothing else records traces"
        )
    if stream and replay:
        raise ConfigurationError(
            "choose stream=True or replay=True, not both: streaming "
            "discards events as they are consumed, replay persists them"
        )
    if checkpoint_every is not None and not (stream or replay):
        raise ConfigurationError(
            "checkpoint_every applies to streamed or replay sweeps: "
            "buffered simulations already persist whole recordings, so "
            "there is no mid-run state to checkpoint"
        )
    if experiment_store is None:
        from repro.analysis import experiments

        experiment_store = experiments.get_store()

    specs: dict[str, WorkloadSpec] = {}
    for name in workloads:
        spec = get_workload(name)
        if preset is not None:
            spec = apply_preset(spec, preset)
        if accesses is not None:
            spec = replace(spec, n_accesses=accesses)
        if warmup is not None:
            spec = replace(spec, warmup_accesses=warmup)
        specs[name] = spec

    if replay:
        replay_jobs = [
            ReplayJob(
                workload, tuple(filters), system, seed, chunk_size,
                codec, measured_only,
            )
            for workload in workloads
            for seed in seeds
        ]
        report = execute_replays(
            replay_jobs,
            experiment_store=experiment_store, workers=workers,
            backend=backend, specs=specs,
            checkpoint_every=checkpoint_every,
            kernel=kernel,
            policy=policy, task_timeout=task_timeout, fault_plan=fault_plan,
        )
    elif stream:
        stream_jobs = [
            StreamJob(workload, tuple(filters), system, seed, chunk_size)
            for workload in workloads
            for seed in seeds
        ]
        report = execute_streams(
            stream_jobs,
            experiment_store=experiment_store, workers=workers,
            backend=backend, specs=specs,
            checkpoint_every=checkpoint_every,
            policy=policy, task_timeout=task_timeout, fault_plan=fault_plan,
        )
    else:
        eval_jobs = [
            EvalJob(workload, filter_name, system, seed)
            for workload in workloads
            for filter_name in filters
            for seed in seeds
        ]
        report = execute(
            (), eval_jobs,
            experiment_store=experiment_store, workers=workers,
            backend=backend, specs=specs,
            policy=policy, task_timeout=task_timeout, fault_plan=fault_plan,
        )

    result = SweepResult(report=report)
    for workload in workloads:
        for filter_name in filters:
            for seed in seeds:
                key = store_mod.eval_key(
                    specs[workload], filter_name, system, seed
                )
                evaluation = experiment_store.get_eval(key)
                if evaluation is None:
                    # Only quarantine may leave a cell empty — anything
                    # else is a bug worth crashing on.
                    assert report.quarantined, (
                        f"evaluation missing for {workload}/{filter_name}"
                        f"/seed {seed} without a quarantine"
                    )
                    continue
                result.evaluations[(workload, filter_name, seed)] = evaluation
    return result
