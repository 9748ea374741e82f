"""Command-line interface: regenerate any exhibit from the terminal.

Examples::

    jetty-repro workloads
    jetty-repro table 3
    jetty-repro figure 5b
    jetty-repro coverage raytrace "HJ(IJ-10x4x7, EJ-32x4)"
    jetty-repro energy lu "HJ(IJ-9x4x7, EJ-32x4)"
    jetty-repro nway 8
    jetty-repro sweep --workers 4 --workloads lu fft --filters EJ-32x4 IJ-10x4x7
    jetty-repro sweep --stream --workloads em3d --accesses 2e6 --chunk-size 65536
    jetty-repro sweep --stream --preset paper-scale --workloads lu
    jetty-repro --store traces.sqlite trace record em3d --accesses 2e6
    jetty-repro --store traces.sqlite trace replay em3d --accesses 2e6 \
        --workers 2 --backend process
    jetty-repro --store traces.sqlite sweep --replay --workloads lu radix
    jetty-repro --store results.sqlite sweep --stream --preset paper-scale \
        --workloads em3d --checkpoint-every 500000
    jetty-repro --store results.sqlite checkpoint list
    jetty-repro --store results.sqlite cache info
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import experiments, figures, report, runner, tables
from repro.coherence.config import SCALED_SYSTEM
from repro.core.stats import REPLAY_KERNELS
from repro.traces.workloads import PRESETS, WORKLOADS
from repro.utils.text import format_percent, render_table


def _count(text: str) -> int:
    """Access-count argument: plain ints or paper-scale floats like 25e6."""
    import math

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0 or value != int(value):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative whole number, got {text!r}"
        )
    return int(value)


def _positive_count(text: str) -> int:
    """Like :func:`_count` but zero is rejected (chunk sizes)."""
    value = _count(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive whole number, got {text!r}"
        )
    return value


def _cmd_workloads(_args: argparse.Namespace) -> int:
    headers = ["name", "ab", "accesses", "repeat", "description"]
    rows = [
        [s.name, s.abbrev, f"{s.n_accesses:,}", f"{s.repeat_frac:.2f}", s.description]
        for s in WORKLOADS.values()
    ]
    print(render_table(headers, rows, title="Workloads (paper Table 2)"))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    builders = {
        "1": tables.build_table1,
        "2": lambda: tables.build_table2(seed=args.seed),
        "3": lambda: tables.build_table3(seed=args.seed),
        "4": tables.build_table4,
    }
    builder = builders.get(args.which)
    if builder is None:
        print(f"unknown table {args.which!r}; choose 1-4", file=sys.stderr)
        return 2
    headers, rows = builder()
    print(report.render_table_rows(headers, rows, title=f"Table {args.which}"))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    which = args.which.lower()
    if which in ("2", "2a", "2b"):
        block = 64 if which == "2b" else 32
        print(report.render_figure(figures.build_figure2(block_bytes=block)))
        return 0
    builders = {
        "4a": figures.build_figure4a,
        "4b": figures.build_figure4b,
        "5a": figures.build_figure5a,
        "5b": figures.build_figure5b,
    }
    if which in builders:
        print(report.render_figure(builders[which](seed=args.seed)))
        return 0
    if which in ("6", "6a", "6b", "6c", "6d"):
        panels = figures.build_figure6(seed=args.seed)
        wanted = panels if which == "6" else {which[-1]: panels[which[-1]]}
        for panel in wanted.values():
            print(report.render_figure(panel))
            print()
        return 0
    print(f"unknown figure {args.which!r}; choose 2, 4a, 4b, 5a, 5b, 6[a-d]",
          file=sys.stderr)
    return 2


def _cmd_coverage(args: argparse.Namespace) -> int:
    value = experiments.coverage_for(args.workload, args.filter, seed=args.seed)
    print(f"{args.filter} on {args.workload}: coverage {format_percent(value)}")
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    reduction = experiments.energy_reduction_for(
        args.workload, args.filter, seed=args.seed
    )
    headers = ["metric", "reduction"]
    rows = [
        ["over snoops, serial L2", format_percent(reduction.over_snoops_serial)],
        ["over all L2, serial L2", format_percent(reduction.over_all_serial)],
        ["over snoops, parallel L2", format_percent(reduction.over_snoops_parallel)],
        ["over all L2, parallel L2", format_percent(reduction.over_all_parallel)],
    ]
    print(render_table(headers, rows, title=f"{args.filter} on {args.workload}"))
    return 0


def _cmd_nway(args: argparse.Namespace) -> int:
    summary = experiments.summarize_nway(args.cpus, seed=args.seed)
    print(
        f"{summary.n_cpus}-way SMP: snoop misses are "
        f"{format_percent(summary.snoop_miss_of_all)} of all L2 accesses; "
        f"best-HJ coverage {format_percent(summary.mean_coverage)}"
    )
    return 0


def _cmd_size(args: argparse.Namespace) -> int:
    from repro.core.sizing import smallest_covering_config

    result = smallest_covering_config(
        args.workloads, args.target, seed=args.seed
    )
    if result is None:
        print(f"no evaluated configuration reaches {args.target:.0%} "
              "coverage on all given workloads", file=sys.stderr)
        return 1
    print(f"smallest configuration covering >= {args.target:.0%}: "
          f"{result.config_name} ({result.storage_bits / 8 / 1024:.2f} KiB)")
    for workload, coverage in result.per_workload.items():
        print(f"  {workload:14s} {format_percent(coverage)}")
    return 0


def _cmd_trace_save(args: argparse.Namespace) -> int:
    from repro.traces.io import save_trace, trace_length
    from repro.traces.workloads import build_workload_stream

    stream = build_workload_stream(
        args.workload, n_accesses=args.accesses, seed=args.seed
    )
    count = save_trace(args.path, stream)
    print(f"wrote {count:,} accesses ({trace_length(args.path):,} verified) "
          f"to {args.path}")
    return 0


def _replay_spec(args: argparse.Namespace):
    """The (possibly access-count-overridden) spec a trace command targets.

    Record and replay must apply identical overrides or their store keys
    would never meet — one helper keeps them in lockstep.
    """
    from dataclasses import replace as dc_replace

    from repro.traces.workloads import get_workload

    spec = get_workload(args.workload)
    if args.accesses is not None:
        spec = dc_replace(spec, n_accesses=args.accesses)
    if args.warmup is not None:
        spec = dc_replace(spec, warmup_accesses=args.warmup)
    return spec


def _trace_system(args: argparse.Namespace):
    return SCALED_SYSTEM if args.cpus is None else SCALED_SYSTEM.with_cpus(args.cpus)


def _trace_accounting(store) -> tuple[dict[str, dict], dict[str, tuple[int, int]]]:
    """Stored-byte accounting for every trace, in one store pass.

    Returns ``(per_trace, orphans)``.  ``per_trace[manifest_key]`` holds
    ``segments`` (rows actually present), ``segment_bytes`` and
    ``manifest_bytes`` — totals that include the manifest row, matching
    what deleting the trace would free.  ``orphans`` maps manifest keys
    that have segment rows but *no manifest* (a partial record killed
    before its durability point) to ``(rows, bytes)``; the fsck ladder
    removes them, inspection must at least show them.
    """
    from repro.analysis.store import TRACE_KIND

    manifest_bytes: dict[str, int] = {}
    groups: dict[str, tuple[int, int]] = {}
    for entry in store.entries():
        if entry.kind != TRACE_KIND:
            continue
        if entry.filter_name is None:  # manifest row
            manifest_bytes[entry.key] = entry.payload_bytes
        else:  # segment row, grouped by its manifest key
            rows, total = groups.get(entry.filter_name, (0, 0))
            groups[entry.filter_name] = (rows + 1, total + entry.payload_bytes)
    per_trace = {}
    for key, mbytes in manifest_bytes.items():
        rows, sbytes = groups.pop(key, (0, 0))
        per_trace[key] = {
            "segments": rows,
            "segment_bytes": sbytes,
            "manifest_bytes": mbytes,
        }
    return per_trace, groups  # leftover groups have no manifest: orphans


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.analysis import store as store_mod

    spec = _replay_spec(args)
    system = _trace_system(args)
    store = experiments.get_store()
    if args.warm_filters:
        from repro.core.config import parse_filter_name

        for filter_name in args.warm_filters:
            parse_filter_name(filter_name)
    report = runner.execute_replays(
        [runner.ReplayJob(spec.name, (), system, args.seed, args.chunk_size,
                          args.codec, args.measured_only,
                          tuple(args.warm_filters or ()))],
        experiment_store=store, specs={spec.name: spec},
    )
    tkey = store_mod.trace_key(spec, system, args.seed)
    acct, _ = _trace_accounting(store)
    info = acct.get(tkey, {"segments": 0, "segment_bytes": 0,
                           "manifest_bytes": 0})
    nbytes = info["segment_bytes"] + info["manifest_bytes"]
    verb = "recorded" if report.sims_run else "already recorded"
    mode = " (measured region only)" if args.measured_only else ""
    print(f"{verb}: {spec.name} seed {args.seed} on {system.n_cpus} CPUs — "
          f"{spec.n_accesses:,} accesses{mode}, {info['segments']} segment(s), "
          f"{nbytes / 1024:.1f} KiB stored")
    print(report.summary())
    return 0


def _cmd_trace_transcode(args: argparse.Namespace) -> int:
    from repro.analysis import store as store_mod

    spec = _replay_spec(args)
    system = _trace_system(args)
    store = experiments.get_store()
    tkey = store_mod.trace_key(spec, system, args.seed)
    before, after = runner.transcode_trace(store, tkey, args.codec)
    ratio = after / before if before else 1.0
    print(f"transcoded: {spec.name} seed {args.seed} on {system.n_cpus} CPUs "
          f"to {args.codec} — segment bytes {before:,} -> {after:,} "
          f"({ratio:.2f}x)")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from repro.core.config import parse_filter_name

    spec = _replay_spec(args)
    system = _trace_system(args)
    filters = args.filters if args.filters else list(runner.DEFAULT_SWEEP_FILTERS)
    for filter_name in filters:
        parse_filter_name(filter_name)
    outcome = runner.evaluate_replay(
        spec, system, tuple(filters), args.seed,
        workers=args.workers, backend=args.backend,
        experiment_store=experiments.get_store(),
        kernel=args.kernel,
        codec=args.codec,
        measured_only=args.measured_only,
    )
    headers = ["filter", "coverage"]
    rows = [[name, format_percent(outcome.coverage(name))] for name in filters]
    print(render_table(
        headers, rows,
        title=f"replay: {spec.name} seed {args.seed} ({system.n_cpus} CPUs)",
    ))
    print(outcome.report.summary())
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.analysis import store as store_mod
    from repro.analysis.store import TRACE_KIND

    store = experiments.get_store()
    manifests = [
        entry for entry in store.entries()
        if entry.kind == TRACE_KIND and entry.filter_name is None
    ]
    if args.workload is not None:
        manifests = [m for m in manifests if m.workload == args.workload]
    acct, orphans = _trace_accounting(store)
    if not manifests and not orphans:
        print("no recorded traces"
              + (f" for workload {args.workload!r}" if args.workload else ""))
        return 0
    headers = ["workload", "cpus", "seed", "accesses", "events", "codec",
               "mode", "segments", "size"]
    rows = []
    for entry in manifests:
        manifest = store_mod.decode_trace_manifest(store.get_blob(entry.key))
        info = acct.get(entry.key, {"segments": 0, "segment_bytes": 0,
                                    "manifest_bytes": entry.payload_bytes})
        expected = sum(manifest["segments_per_node"])
        present = info["segments"]
        segments = (
            str(expected) if present == expected
            else f"{present}/{expected} (incomplete)"
        )
        nbytes = info["segment_bytes"] + info["manifest_bytes"]
        rows.append([
            entry.workload,
            str(entry.n_cpus),
            str(entry.seed),
            f"{manifest['metrics']['accesses']:,}",
            f"{sum(manifest['events_per_node']):,}",
            manifest.get("codec", store_mod.DEFAULT_SEGMENT_CODEC),
            "measured" if manifest.get("measured_only") else "full",
            segments,
            f"{nbytes / 1024:.1f} KiB",
        ])
    if rows:
        print(render_table(headers, rows, title="recorded traces (sim-events)"))
    if orphans and args.workload is None:
        print("orphaned segments (no manifest — partial record; "
              "cache fsck removes them):")
        for key in sorted(orphans):
            count, nbytes = orphans[key]
            print(f"  {key[:16]}: {count} segment(s), {nbytes / 1024:.1f} KiB")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.config import parse_filter_name
    from repro.traces.workloads import get_workload

    if args.preset == "paper-scale" and not (args.stream or args.replay):
        print(
            "error: --preset paper-scale requires --stream or --replay "
            "(buffered mode materialises the full event trace in memory "
            "at paper scale)",
            file=sys.stderr,
        )
        return 2
    if args.stream and args.replay:
        print("error: choose --stream or --replay, not both", file=sys.stderr)
        return 2
    if args.checkpoint_every is not None and not (args.stream or args.replay):
        print(
            "error: --checkpoint-every requires --stream or --replay "
            "(buffered sweeps persist whole recordings; only streamed "
            "simulations have mid-run state to checkpoint)",
            file=sys.stderr,
        )
        return 2
    if args.kernel != "auto" and not args.replay:
        print(
            "error: --kernel requires --replay (streamed and buffered "
            "sweeps always run their filter banks on the auto kernel)",
            file=sys.stderr,
        )
        return 2
    workloads = args.workloads if args.workloads else list(WORKLOADS)
    filters = args.filters if args.filters else list(runner.DEFAULT_SWEEP_FILTERS)
    # Validate every name up front: a typo'd filter must not surface only
    # after minutes of simulation.
    for workload in workloads:
        get_workload(workload)
    for filter_name in filters:
        parse_filter_name(filter_name)
    system = SCALED_SYSTEM if args.cpus is None else SCALED_SYSTEM.with_cpus(args.cpus)
    seeds = tuple(args.seeds) if args.seeds else (args.seed,)
    result = runner.run_sweep(
        workloads,
        filters,
        system=system,
        seeds=seeds,
        workers=args.workers,
        experiment_store=experiments.get_store(),
        accesses=args.accesses,
        warmup=args.warmup,
        preset=args.preset,
        stream=args.stream,
        replay=args.replay,
        backend=args.backend,
        chunk_size=args.chunk_size,
        checkpoint_every=args.checkpoint_every,
        kernel=args.kernel,
        codec=args.codec,
        measured_only=args.measured_only,
        task_timeout=args.task_timeout,
    )
    headers = ["workload"] + [f"{f} (cov)" for f in filters]
    rows = []
    for workload in workloads:
        row = [workload]
        for filter_name in filters:
            cells = [
                result.evaluations.get((workload, filter_name, s))
                for s in seeds
            ]
            if any(cell is None for cell in cells):
                # Quarantined under supervision: the sweep degraded to a
                # partial result rather than aborting — say so in place.
                row.append("(failed)")
                continue
            values = [cell.coverage.coverage for cell in cells]
            row.append(format_percent(sum(values) / len(values)))
        rows.append(row)
    title = f"sweep: {len(workloads)} workloads x {len(filters)} filters"
    if args.stream:
        title += " [streamed]"
    if args.replay:
        title += " [replayed]"
    if len(seeds) > 1:
        title += f" (mean over seeds {seeds})"
    print(render_table(headers, rows, title=title))
    print(result.report.summary())
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.analysis.evaluate_matrix import evaluate_matrix
    from repro.core.config import parse_filter_name
    from repro.traces.suite import SUITES

    profiles = args.profiles if args.profiles else None
    if profiles:
        for name in profiles:
            if name not in SUITES:
                print(f"error: unknown profile suite {name!r}; choose from "
                      f"{', '.join(sorted(SUITES))}", file=sys.stderr)
                return 2
    filters = args.filters if args.filters else list(runner.DEFAULT_SWEEP_FILTERS)
    for filter_name in filters:
        parse_filter_name(filter_name)
    accesses, warmup = args.accesses, args.warmup
    if args.quick:
        # Smoke scale: every suite shrunk to the same short run (phase
        # boundaries scale proportionally), small enough for CI.
        accesses = accesses if accesses is not None else 12_000
        warmup = warmup if warmup is not None else 2_000
    outcome = evaluate_matrix(
        profiles,
        tuple(filters),
        seed=args.seed,
        accesses=accesses,
        warmup=warmup,
        workers=args.workers,
        backend=args.backend,
        chunk_size=args.chunk_size,
        experiment_store=experiments.get_store(),
    )
    print(outcome.tables())
    print(outcome.summary)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.testing.faults import run_chaos

    result = run_chaos(
        args.plan,
        workers=args.workers,
        backend=args.backend or "process",
    )
    print(result.summary())
    return 0


def _require_store_path(command: str):
    """The service commands share one SQLite file — in-memory won't do."""
    store = experiments.get_store()
    if store.path is None:
        print(
            f"error: {command} requires a persistent --store PATH "
            "(server and workers share the SQLite file as the data plane)",
            file=sys.stderr,
        )
        return None
    return store


def _cmd_serve(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.service.server import (
        SERVICE_RETRY_POLICY,
        SweepService,
        serve,
    )

    store = _require_store_path("serve")
    if store is None:
        return 2
    policy = SERVICE_RETRY_POLICY
    if args.max_attempts is not None:
        policy = dc_replace(policy, max_attempts=args.max_attempts)
    service = SweepService(
        store,
        policy=policy,
        lease_seconds=args.lease_seconds,
        max_pending=args.max_pending,
    )
    serve(
        service,
        args.host,
        args.port,
        drain_grace=args.drain_grace,
        delay_ms=args.delay_ms,
        ready_path=args.ready_file,
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.worker import ServiceWorker

    store = _require_store_path("worker")
    if store is None:
        return 2
    worker = ServiceWorker(
        args.server,
        str(store.path),
        name=args.name,
        poll_seconds=args.poll,
        max_shards=args.max_shards,
        idle_seconds=args.idle_exit,
        drop_heartbeats=args.drop_heartbeats,
        poison=tuple(args.poison or ()),
    )
    completed = worker.run()
    print(f"worker {args.name} exiting: {completed} shard(s) completed")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.server, timeout=10.0)
    workloads = args.workloads if args.workloads else list(WORKLOADS)
    filters = args.filters if args.filters else list(runner.DEFAULT_SWEEP_FILTERS)
    seeds = list(args.seeds) if args.seeds else [args.seed]
    request = {
        "workloads": workloads,
        "filters": filters,
        "seeds": seeds,
        "mode": "stream" if args.stream else "replay",
    }
    for field in ("accesses", "warmup", "preset", "cpus"):
        value = getattr(args, field)
        if value is not None:
            request[field] = value
    if args.codec is not None:
        request["codec"] = args.codec
    if args.measured_only:
        request["measured_only"] = True
    status = client.submit(**request)
    print(f"job {status['job'][:12]} {status['state']}: {status['summary']}")
    if not args.wait:
        return 0
    status = client.wait(status["job"], timeout=args.timeout)
    print(f"job {status['job'][:12]} {status['state']}: {status['summary']}")
    headers = ["workload"] + [f"{f} (cov)" for f in filters]
    rows = []
    for workload in workloads:
        row = [workload]
        for filter_name in filters:
            values = []
            for seed in seeds:
                cell = client.result(
                    workload, filter_name, seed=seed,
                    mode=request["mode"],
                    accesses=request.get("accesses"),
                    warmup=request.get("warmup"),
                    preset=request.get("preset"),
                    cpus=request.get("cpus"),
                )
                if cell is not None:
                    values.append(cell["coverage"])
            if len(values) < len(seeds):
                # Quarantined on the server: the job finished degraded;
                # say so in place, like a supervised local sweep does.
                row.append("(failed)")
            else:
                row.append(format_percent(sum(values) / len(values)))
        rows.append(row)
    title = f"service sweep: {len(workloads)} workloads x {len(filters)} filters"
    if len(seeds) > 1:
        title += f" (mean over seeds {tuple(seeds)})"
    print(render_table(headers, rows, title=title))
    return 0 if status["state"] == "done" else 1


def _decoded_bytes_by_kind(store) -> dict[str, int]:
    """Decoded (in-memory) byte totals per result kind.

    Stored payloads are compressed: canonical-JSON rows zlib-deflate,
    trace segments go through the segment codec.  The decoded column is
    what replay/decode actually materialises — packed events are 8 bytes
    each regardless of codec, so this is the figure a codec shrinks the
    *stored* side of without touching.
    """
    import zlib

    from repro.analysis import store as store_mod
    from repro.analysis.store import TRACE_KIND

    decoded: dict[str, int] = {}
    for entry in store.entries():
        blob = store.get_blob(entry.key)
        if blob is None:
            continue
        if entry.kind == TRACE_KIND and entry.filter_name is not None:
            try:
                size = store_mod.decoded_segment_bytes(blob)
            except Exception:
                size = len(blob)  # corrupt segment: fsck's problem
        else:
            try:
                size = len(zlib.decompress(blob))
            except zlib.error:
                size = len(blob)
        decoded[entry.kind] = decoded.get(entry.kind, 0) + size
    return decoded


def _print_trace_economics(store) -> None:
    """Per-trace-manifest stored bytes/access lines under ``cache info``."""
    from repro.analysis import store as store_mod
    from repro.analysis.store import TRACE_KIND
    from repro.errors import StoreCorruptionError

    acct, _ = _trace_accounting(store)
    manifests = [
        entry for entry in store.entries()
        if entry.kind == TRACE_KIND and entry.filter_name is None
    ]
    for entry in manifests:
        try:
            manifest = store_mod.decode_trace_manifest(store.get_blob(entry.key))
        except StoreCorruptionError:
            continue  # fsck's problem, not inspection's
        info = acct.get(entry.key)
        if info is None:
            continue
        nbytes = info["segment_bytes"] + info["manifest_bytes"]
        accesses = manifest.get("metrics", {}).get("accesses", 0)
        if not accesses:
            continue
        codec = manifest.get("codec", store_mod.DEFAULT_SEGMENT_CODEC)
        mode = "measured" if manifest.get("measured_only") else "full"
        print(f"  trace {entry.workload} seed {entry.seed} "
              f"({entry.n_cpus}-way, {codec}, {mode}): "
              f"{nbytes / accesses:.2f} bytes/access "
              f"({nbytes / 1024:.1f} KiB / {accesses:,} accesses)")


def _cmd_cache(args: argparse.Namespace) -> int:
    store = experiments.get_store()
    if args.action == "fsck":
        fsck = store.fsck(quarantine=args.quarantine)
        print(fsck.summary())
        for key in fsck.corrupt:
            print(f"  corrupt: {key[:16]}")
        return 0 if fsck.clean else 1
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} stored result(s)")
        return 0
    if args.action == "gc":
        if args.max_bytes is None:
            print("error: cache gc requires --max-bytes", file=sys.stderr)
            return 2
        removed, freed = store.gc(args.max_bytes)
        stats = store.stats()
        print(
            f"evicted {removed} least-recently-used result(s) "
            f"({freed / 1024:.1f} KiB); store now holds "
            f"{stats.payload_bytes / 1024:.1f} KiB "
            f"(budget {args.max_bytes / 1024:.1f} KiB)"
        )
        return 0
    stats = store.stats()
    location = stats.path or "in-memory (set --store or REPRO_STORE to persist)"
    print(f"store:    {location}")
    print(f"sims:     {stats.sims}")
    print(f"streamed: {stats.stream_sims}")
    print(f"traces:   {stats.traces}")
    print(f"checkpoints: {stats.checkpoints}")
    print(f"jobs:     {stats.jobs}")
    print(f"evals:    {stats.evals}")
    print(f"payload:  {stats.payload_bytes / 1024:.1f} KiB")
    decoded_by_kind = _decoded_bytes_by_kind(store)
    for kind, nbytes in stats.bytes_by_kind:
        decoded = decoded_by_kind.get(kind, nbytes)
        print(f"  {kind + ':':13s}{nbytes / 1024:.1f} KiB stored / "
              f"{decoded / 1024:.1f} KiB decoded")
    _print_trace_economics(store)
    if args.action == "list":
        from repro.analysis.store import CHECKPOINT_KIND, TRACE_KIND

        for entry in store.entries():
            if entry.kind == TRACE_KIND:
                what = (
                    "(trace manifest)" if entry.filter_name is None
                    else f"(trace segment of {entry.filter_name[:12]})"
                )
            elif entry.kind == CHECKPOINT_KIND:
                what = f"(checkpoint, chain {entry.filter_name[:12]})"
            else:
                what = entry.filter_name or "(simulation)"
            print(
                f"  {entry.kind:4s} {entry.workload:14s} {what:28s} "
                f"{entry.n_cpus}-way seed {entry.seed} "
                f"{entry.payload_bytes / 1024:.1f} KiB"
            )
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.analysis import store as store_mod
    from repro.analysis.store import CHECKPOINT_KIND
    from repro.errors import StoreCorruptionError

    store = experiments.get_store()
    rows = [e for e in store.entries() if e.kind == CHECKPOINT_KIND]

    if args.action == "rm":
        if not args.all and args.workload is None:
            print("error: checkpoint rm needs a workload (or --all)",
                  file=sys.stderr)
            return 2
        chains = sorted({
            e.filter_name for e in rows
            if args.all or e.workload == args.workload
        })
        removed = sum(
            store.delete_group(CHECKPOINT_KIND, chain) for chain in chains
        )
        print(f"removed {removed} checkpoint(s) across {len(chains)} chain(s)")
        return 0

    if args.workload is not None:
        rows = [e for e in rows if e.workload == args.workload]
    if not rows:
        print("no stored checkpoints"
              + (f" for workload {args.workload!r}" if args.workload else ""))
        return 0

    chains: dict[str, list] = {}
    for entry in rows:
        chains.setdefault(entry.filter_name, []).append(entry)

    def decoded(entry):
        """The entry's snapshot dict, or None for a damaged payload.

        Corrupt checkpoint rows are the one artifact class this feature
        exists to survive — inspection must render them, never crash on
        them (the resume ladder deletes them when it next runs).
        """
        try:
            return store_mod.decode_checkpoint(store.get_blob(entry.key))
        except StoreCorruptionError:
            return None

    if args.action == "list":
        headers = ["workload", "cpus", "seed", "mode", "filters",
                   "checkpoints", "latest", "size"]
        out = []
        for chain in sorted(chains):
            entries = chains[chain]
            states = [s for s in map(decoded, entries) if s is not None]
            size = f"{sum(e.payload_bytes for e in entries) / 1024:.1f} KiB"
            if states:
                newest = max(states, key=lambda s: s.get("position", 0))
                out.append([
                    newest["workload"],
                    str(newest["n_cpus"]),
                    str(newest["seed"]),
                    "record" if newest["record"] else "stream",
                    str(len(newest["filters"])),
                    str(len(entries)),
                    f"{newest['position']:,}",
                    size,
                ])
            else:
                first = entries[0]
                out.append([
                    first.workload, str(first.n_cpus), str(first.seed),
                    "?", "?", str(len(entries)), "(undecodable)", size,
                ])
        print(render_table(headers, out,
                           title="checkpoint chains (interrupted runs)"))
        return 0

    # info: every stored watermark, newest first per chain.
    headers = ["workload", "seed", "mode", "accesses", "measured",
               "chain", "size"]
    out = []
    for chain in sorted(chains):
        pairs = [(decoded(entry), entry) for entry in chains[chain]]
        pairs.sort(
            key=lambda pair: -(pair[0] or {}).get("position", -1)
        )
        for state, entry in pairs:
            size = f"{entry.payload_bytes / 1024:.1f} KiB"
            if state is None:
                out.append([entry.workload, str(entry.seed), "?",
                            "(undecodable)", "?", chain[:12], size])
                continue
            out.append([
                state["workload"],
                str(state["seed"]),
                "record" if state["record"] else "stream",
                f"{state['position']:,}",
                "yes" if state["measured"] else "warm-up",
                chain[:12],
                size,
            ])
    print(render_table(headers, out, title="stored checkpoints"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetty-repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent experiment store (SQLite file; default: in-memory "
        "or $REPRO_STORE)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the ten workloads").set_defaults(
        func=_cmd_workloads
    )

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("which", help="table number: 1, 2, 3 or 4")
    p_table.set_defaults(func=_cmd_table)

    p_figure = sub.add_parser("figure", help="regenerate a paper figure")
    p_figure.add_argument("which", help="figure id: 2, 4a, 4b, 5a, 5b, 6[a-d]")
    p_figure.set_defaults(func=_cmd_figure)

    p_cov = sub.add_parser("coverage", help="coverage of one filter on one workload")
    p_cov.add_argument("workload")
    p_cov.add_argument("filter")
    p_cov.set_defaults(func=_cmd_coverage)

    p_energy = sub.add_parser("energy", help="energy reduction of one filter")
    p_energy.add_argument("workload")
    p_energy.add_argument("filter")
    p_energy.set_defaults(func=_cmd_energy)

    p_nway = sub.add_parser("nway", help="SMP-width scaling summary (Section 4.3.4)")
    p_nway.add_argument("cpus", type=int)
    p_nway.set_defaults(func=_cmd_nway)

    p_size = sub.add_parser(
        "size", help="smallest JETTY meeting a coverage target"
    )
    p_size.add_argument("target", type=float, help="coverage target in (0, 1]")
    p_size.add_argument("workloads", nargs="+", help="workload names")
    p_size.set_defaults(func=_cmd_size)

    p_trace = sub.add_parser(
        "trace",
        help="record, replay, inspect, or archive workload traces",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    def _trace_overrides(p) -> None:
        p.add_argument("--accesses", type=_count, default=None,
                       help="override the workload's access count "
                       "(record and replay must agree)")
        p.add_argument("--warmup", type=_count, default=None,
                       help="override the workload's warm-up accesses")
        p.add_argument("--cpus", type=int, default=None,
                       help="SMP width (default: the scaled system's 4)")

    from repro.analysis.store import DEFAULT_SEGMENT_CODEC, SEGMENT_CODECS

    def _codec_overrides(p) -> None:
        p.add_argument("--codec", default=DEFAULT_SEGMENT_CODEC,
                       choices=sorted(SEGMENT_CODECS),
                       help="segment wire format for a *new* recording "
                       "(delta-v1 shrinks dense traces; decoded events "
                       "and replay results are byte-identical)")
        p.add_argument("--measured-only", action="store_true",
                       help="record only the measured region, persisting "
                       "a fast-forward snapshot of the warmed filter "
                       "state at the measurement boundary (requires a "
                       "warm-up; replay restores the snapshot instead "
                       "of replaying warm-up events)")

    t_record = trace_sub.add_parser(
        "record", help="simulate once, persisting the packed event shards"
    )
    t_record.add_argument("workload")
    _trace_overrides(t_record)
    _codec_overrides(t_record)
    t_record.add_argument("--chunk-size", type=_positive_count,
                          default=runner.DEFAULT_CHUNK_SIZE,
                          help="recording pass chunk size (memory knob; "
                          "never changes the stored bytes)")
    t_record.add_argument("--warm-filters", nargs="+", default=None,
                          metavar="FILTER",
                          help="measured-only: extra filter configs to "
                          "warm and snapshot besides the default sweep "
                          "set (replaying a config absent from the "
                          "snapshot requires re-recording)")
    t_record.set_defaults(func=_cmd_trace_record)

    t_transcode = trace_sub.add_parser(
        "transcode", help="rewrite a stored trace's segments under "
        "another codec, in place (keys and replays unchanged)"
    )
    t_transcode.add_argument("workload")
    _trace_overrides(t_transcode)
    t_transcode.add_argument("--codec", default=None, required=True,
                             choices=sorted(SEGMENT_CODECS),
                             help="target segment wire format")
    t_transcode.set_defaults(func=_cmd_trace_transcode)

    t_replay = trace_sub.add_parser(
        "replay", help="evaluate filters against a recorded trace "
        "(records it first if missing)"
    )
    t_replay.add_argument("workload")
    t_replay.add_argument("--filters", nargs="+", default=None,
                          help="filter configuration names "
                          "(default: best of each family)")
    _trace_overrides(t_replay)
    t_replay.add_argument("--workers", type=int, default=1,
                          help="replay workers (one filter config per task)")
    t_replay.add_argument("--backend", default=None,
                          choices=runner.EXECUTOR_BACKENDS,
                          help="executor backend for replay fan-out "
                          "(default: process)")
    t_replay.add_argument("--kernel", default="auto",
                          choices=REPLAY_KERNELS,
                          help="replay kernel: auto vectorises supported "
                          "filter families with NumPy when available; "
                          "results are byte-identical across kernels")
    _codec_overrides(t_replay)
    t_replay.set_defaults(func=_cmd_trace_replay)

    t_info = trace_sub.add_parser(
        "info", help="list recorded traces in the experiment store"
    )
    t_info.add_argument("workload", nargs="?", default=None)
    t_info.set_defaults(func=_cmd_trace_info)

    t_save = trace_sub.add_parser(
        "save", help="archive a workload trace to a .npz file"
    )
    t_save.add_argument("workload")
    t_save.add_argument("path")
    t_save.add_argument("--accesses", type=_count, default=None,
                        help="override the workload's access count")
    t_save.set_defaults(func=_cmd_trace_save)

    p_sweep = sub.add_parser(
        "sweep", help="run a workload x filter sweep on N worker processes"
    )
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = in-process serial)")
    p_sweep.add_argument("--workloads", nargs="+", default=None,
                         help="workload names (default: all ten)")
    p_sweep.add_argument("--filters", nargs="+", default=None,
                         help="filter configuration names")
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=None,
                         help="seeds to sweep (default: --seed)")
    p_sweep.add_argument("--cpus", type=int, default=None,
                         help="SMP width (default: the scaled system's 4)")
    p_sweep.add_argument("--accesses", type=_count, default=None,
                         help="override per-workload access count; accepts "
                         "paper-scale values like 25e6")
    p_sweep.add_argument("--warmup", type=_count, default=None,
                         help="override per-workload warm-up accesses")
    p_sweep.add_argument("--stream", action="store_true",
                         help="single-pass streaming mode: evaluate all "
                         "filters live with O(chunk) memory (required for "
                         "paper-scale access counts)")
    p_sweep.add_argument("--replay", action="store_true",
                         help="record-once / replay-many mode: persist each "
                         "(workload, seed) trace on first run, then replay "
                         "it for every filter config without re-simulating")
    p_sweep.add_argument("--backend", default=None,
                         choices=runner.EXECUTOR_BACKENDS,
                         help="executor backend for worker fan-out "
                         "(default: process)")
    p_sweep.add_argument("--chunk-size", type=_positive_count,
                         default=runner.DEFAULT_CHUNK_SIZE,
                         help="accesses per streaming chunk (memory/overhead "
                         "knob; never changes results)")
    p_sweep.add_argument("--preset", default=None,
                         choices=sorted(PRESETS),
                         help="named workload transformation, e.g. "
                         "paper-scale (Table 2 trace lengths, capped)")
    p_sweep.add_argument("--checkpoint-every", type=_positive_count,
                         default=None, metavar="N",
                         help="snapshot each streamed/recorded simulation "
                         "to the store every N accesses; a killed sweep "
                         "rerun with the same flags resumes from its "
                         "latest checkpoint (requires --stream/--replay)")
    p_sweep.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-task deadline under the process backend; "
                         "overdue workers are killed and the task retried "
                         "(default: no deadline)")
    p_sweep.add_argument("--kernel", default="auto",
                         choices=REPLAY_KERNELS,
                         help="replay kernel for --replay sweeps: auto "
                         "vectorises supported filter families with NumPy "
                         "when available; results are byte-identical "
                         "across kernels")
    _codec_overrides(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_matrix = sub.add_parser(
        "matrix",
        help="profile x filter evaluation matrix with per-phase metrics",
    )
    p_matrix.add_argument("--profiles", nargs="+", default=None,
                          help="profile suite names (default: the full "
                          "catalogue plus the flip mixes)")
    p_matrix.add_argument("--filters", nargs="+", default=None,
                          help="filter configuration names "
                          "(default: best of each family)")
    p_matrix.add_argument("--accesses", type=_count, default=None,
                          help="override each suite's access count "
                          "(phase boundaries scale proportionally)")
    p_matrix.add_argument("--warmup", type=_count, default=None,
                          help="override each suite's warm-up accesses")
    p_matrix.add_argument("--quick", action="store_true",
                          help="smoke scale: 12k accesses / 2k warm-up per "
                          "suite unless overridden")
    p_matrix.add_argument("--workers", type=int, default=1,
                          help="worker processes for the underlying sweep")
    p_matrix.add_argument("--backend", default=None,
                          choices=runner.EXECUTOR_BACKENDS,
                          help="executor backend for worker fan-out")
    p_matrix.add_argument("--chunk-size", type=_positive_count,
                          default=runner.DEFAULT_CHUNK_SIZE,
                          help="streaming chunk size (memory knob; never "
                          "changes results)")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_checkpoint = sub.add_parser(
        "checkpoint",
        help="inspect or drop mid-run checkpoints of interrupted sweeps",
    )
    p_checkpoint.add_argument("action", nargs="?", default="list",
                              choices=("list", "info", "rm"))
    p_checkpoint.add_argument("workload", nargs="?", default=None,
                              help="restrict to one workload's checkpoints")
    p_checkpoint.add_argument("--all", action="store_true",
                              help="rm: drop every stored checkpoint chain")
    p_checkpoint.set_defaults(func=_cmd_checkpoint)

    p_cache = sub.add_parser(
        "cache",
        help="inspect, verify, clear, or garbage-collect the experiment store",
    )
    p_cache.add_argument("action", nargs="?", default="info",
                         choices=("info", "list", "clear", "gc", "fsck"))
    p_cache.add_argument("--max-bytes", type=_count, default=None,
                         metavar="N",
                         help="gc: evict least-recently-used results until "
                         "the compressed payload fits N bytes (accepts "
                         "forms like 5e6)")
    p_cache.add_argument("--quarantine", action="store_true",
                         help="fsck: move corrupt rows aside for post-mortem "
                         "instead of deleting them")
    p_cache.set_defaults(func=_cmd_cache)

    p_chaos = sub.add_parser(
        "chaos",
        help="run the deterministic fault-injection drill end to end",
    )
    p_chaos.add_argument("--plan", default="aggressive",
                         choices=("none", "mild", "aggressive", "service"),
                         help="named fault plan to inject (default: "
                         "aggressive); 'service' runs the subprocess "
                         "server/worker drill")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="worker processes for the drill's sweeps")
    p_chaos.add_argument("--backend", default=None,
                         choices=runner.EXECUTOR_BACKENDS,
                         help="executor backend for the drill "
                         "(default: process)")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="run the crash-safe sweep server over the shared store",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument("--lease-seconds", type=float, default=15.0,
                         help="lease term; a worker silent this long "
                         "forfeits its shard to reassignment")
    p_serve.add_argument("--max-pending", type=int, default=256,
                         help="bounded queue: submissions that would "
                         "exceed this many pending shards get 429 + "
                         "Retry-After")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         help="SIGTERM drain: seconds to let in-flight "
                         "leases land before exiting")
    p_serve.add_argument("--max-attempts", type=int, default=None,
                         help="override the service retry policy's "
                         "quarantine threshold")
    p_serve.add_argument("--delay-ms", type=float, default=0.0,
                         help="inject a fixed delay before every response "
                         "(chaos harness fault)")
    p_serve.add_argument("--ready-file", default=None, metavar="PATH",
                         help="write host:port here once listening "
                         "(subprocess orchestration handshake)")
    p_serve.set_defaults(func=_cmd_serve)

    p_worker = sub.add_parser(
        "worker",
        help="run a leased sweep worker against a server",
    )
    p_worker.add_argument("--server", default="http://127.0.0.1:8765",
                          help="server base URL")
    p_worker.add_argument("--name", default="worker",
                          help="worker name (appears in leases and logs)")
    p_worker.add_argument("--poll", type=float, default=0.5,
                          help="seconds between lease polls when idle")
    p_worker.add_argument("--max-shards", type=int, default=None,
                          help="exit after completing this many shards")
    p_worker.add_argument("--idle-exit", type=float, default=None,
                          metavar="SECONDS",
                          help="exit after this long without a lease grant")
    p_worker.add_argument("--drop-heartbeats", action="store_true",
                          help="chaos hook: never heartbeat, so every "
                          "lease expires mid-run")
    p_worker.add_argument("--poison", nargs="+", default=None,
                          metavar="WORKLOAD",
                          help="chaos hook: report failure for these "
                          "workloads without executing them")
    p_worker.set_defaults(func=_cmd_worker)

    p_submit = sub.add_parser(
        "submit",
        help="submit a sweep to a running server over HTTP",
    )
    p_submit.add_argument("--server", default="http://127.0.0.1:8765",
                          help="server base URL")
    p_submit.add_argument("--workloads", nargs="+", default=None,
                          help="workload names (default: all ten)")
    p_submit.add_argument("--filters", nargs="+", default=None,
                          help="filter configuration names")
    p_submit.add_argument("--seeds", type=int, nargs="+", default=None,
                          help="seeds to sweep (default: --seed)")
    p_submit.add_argument("--accesses", type=_count, default=None,
                          help="override per-workload access count")
    p_submit.add_argument("--warmup", type=_count, default=None,
                          help="override per-workload warm-up accesses")
    p_submit.add_argument("--cpus", type=int, default=None,
                          help="SMP width (default: the scaled system's 4)")
    p_submit.add_argument("--preset", default=None,
                          choices=sorted(PRESETS),
                          help="named workload transformation")
    p_submit.add_argument("--stream", action="store_true",
                          help="streamed shards instead of record/replay")
    p_submit.add_argument("--codec", default=None,
                          choices=sorted(SEGMENT_CODECS),
                          help="segment wire format for new recordings "
                          "(replay submissions only)")
    p_submit.add_argument("--measured-only", action="store_true",
                          help="record only measured regions with a "
                          "fast-forward snapshot (replay submissions only)")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the job settles, then render "
                          "the coverage table")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          help="--wait deadline in seconds")
    p_submit.set_defaults(func=_cmd_submit)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "store", None):
            experiments.set_store(args.store)
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
