"""Deterministic service chaos drill: kill everything, demand identity.

``repro chaos --plan service`` stages the full fault menu against a
real server + worker fleet (separate processes, real sockets, one
shared SQLite store) and holds the result to the same oracle as the
in-process chaos plans — **byte identity**:

1. a clean reference store is built by a plain serial replay sweep;
2. a server (with delayed responses injected) and two workers — one
   healthy, one that drops every heartbeat — chew through the same
   sweep submitted over HTTP, plus a *poisoned* job every worker
   refuses (driving its shards into quarantine);
3. mid-sweep, the healthy worker is SIGKILLed while holding a lease,
   then the server itself is SIGKILLed;
4. a restarted server must recover the journal (completed shards stay
   done, leased shards requeue), a fresh worker heals the fleet, and
   the main job must finish;
5. a warm re-submit must answer ``sims: 0 run`` with no worker help;
6. ``SIGTERM`` must drain the server cleanly (exit 0);
7. the surviving store — minus the ``job`` journal rows, which are
   operational state, not results — must be byte-identical to the
   clean reference, pass ``fsck``, and the poisoned job's quarantine
   accounting must be exact.

Everything observable is asserted from outside: process exit codes,
server stdout (lease reassignments, journal recovery), HTTP status
polls, and raw SQLite payload bytes.
"""

from __future__ import annotations

import os
import signal
import socket
import sqlite3
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.runner import run_sweep
from repro.analysis.store import CHECKPOINT_KIND, JOB_KIND, ExperimentStore
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.server import SERVICE_RETRY_POLICY

#: Store kinds excluded from the byte-identity diff: the journal is
#: operational state (it legitimately differs between a chaotic and a
#: clean run), and checkpoints never outlive their run anyway.
_EXCLUDED_KINDS = (JOB_KIND, CHECKPOINT_KIND)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _env() -> dict:
    src = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _payloads(path: Path) -> dict[str, bytes]:
    quoted = str(path).replace("?", "%3f").replace("#", "%23")
    db = sqlite3.connect(f"file:{quoted}?mode=ro", uri=True)
    try:
        placeholders = ",".join("?" for _ in _EXCLUDED_KINDS)
        rows = db.execute(
            f"SELECT key, payload FROM results WHERE kind NOT IN "
            f"({placeholders})",
            _EXCLUDED_KINDS,
        ).fetchall()
    finally:
        db.close()
    return {key: bytes(payload) for key, payload in rows}


@dataclass
class ServiceChaosResult:
    """Everything the service drill asserted, for the one-line verdict."""

    byte_identical: bool
    fsck_clean: bool
    drained_cleanly: bool
    warm_answer: str
    reassigned: int
    recovered_done: int
    quarantined_shards: int
    expected_quarantined: int
    quarantine_attempts: tuple[int, ...]
    wall_seconds: float
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.byte_identical
            and self.fsck_clean
            and self.drained_cleanly
            and self.warm_answer.startswith("sims: 0 run")
            and self.reassigned >= 1
            and self.recovered_done >= 1
            and self.quarantined_shards == self.expected_quarantined
            and all(
                count == SERVICE_RETRY_POLICY.max_attempts
                for count in self.quarantine_attempts
            )
        )

    def summary(self) -> str:
        lines = [
            "service chaos drill: server SIGKILL + worker kill + "
            "dropped heartbeats + delayed responses "
            f"({self.wall_seconds:.1f}s)",
            f"  lease reassignments: {self.reassigned}",
            "  restarted server resumed journal: "
            f"{self.recovered_done} shard(s) already done",
            f"  warm re-submit answered: {self.warm_answer}",
            "  poisoned-task demo: "
            f"{self.quarantined_shards}/{self.expected_quarantined} "
            f"shard(s) quarantined after "
            f"{SERVICE_RETRY_POLICY.max_attempts} attempts each: "
            + ("yes" if self.quarantined_shards == self.expected_quarantined
               and all(c == SERVICE_RETRY_POLICY.max_attempts
                       for c in self.quarantine_attempts) else "NO"),
            f"  drain on SIGTERM exited cleanly: "
            + ("yes" if self.drained_cleanly else "NO"),
            f"  fsck: store {'clean' if self.fsck_clean else 'CORRUPT'}",
            "  store byte-identical to clean run: "
            + ("yes" if self.byte_identical else "NO"),
        ]
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


class _Fleet:
    """Process babysitter: spawn, kill, and harvest stdout."""

    def __init__(self, env: dict, log_dir: Path) -> None:
        self.env = env
        self.log_dir = log_dir
        self.procs: dict[str, subprocess.Popen] = {}
        self.logs: dict[str, Path] = {}
        self._handles: list = []

    def spawn(self, name: str, argv: list[str]) -> subprocess.Popen:
        log_path = self.log_dir / f"{name}.log"
        self.logs[name] = log_path
        handle = open(log_path, "w", encoding="utf-8")
        self._handles.append(handle)
        proc = subprocess.Popen(
            argv,
            stdout=handle,
            stderr=subprocess.STDOUT,
            env=self.env,
        )
        self.procs[name] = proc
        return proc

    def output(self, name: str) -> str:
        try:
            return self.logs[name].read_text(encoding="utf-8")
        except (KeyError, OSError):
            return ""

    def sigkill(self, name: str) -> None:
        proc = self.procs.get(name)
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)

    def sigterm(self, name: str, timeout: float = 30.0) -> int | None:
        proc = self.procs.get(name)
        if proc is None:
            return None
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        return proc.returncode

    def cleanup(self) -> None:
        for name in list(self.procs):
            self.sigterm(name, timeout=5.0)
        for handle in self._handles:
            handle.close()


def _wait(predicate, *, timeout: float, interval: float = 0.1,
          what: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if predicate():
                return
        except OSError:
            pass
        time.sleep(interval)
    raise ServiceError(f"timed out after {timeout:.0f}s waiting for {what}")


def run_service_chaos(
    *,
    workloads: tuple[str, ...] = ("lu", "fft"),
    filters: tuple[str, ...] = ("EJ-32x4", "IJ-10x4x7"),
    seeds: tuple[int, ...] = (1, 2),
    accesses: int = 24000,
    warmup: int = 6000,
    poison_workload: str = "radix",
    lease_seconds: float = 2.0,
    timeout: float = 300.0,
) -> ServiceChaosResult:
    """Run the full service drill; see the module docstring for the plot."""
    started = time.monotonic()
    notes: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-service-chaos-") as tmp:
        tmp_path = Path(tmp)
        clean_path = tmp_path / "clean.sqlite"
        store_path = tmp_path / "service.sqlite"
        port = _free_port()
        base_url = f"http://127.0.0.1:{port}"

        # 1. Clean reference: plain serial replay sweep, no service.
        with ExperimentStore(clean_path) as clean_store:
            run_sweep(
                list(workloads), tuple(filters), seeds=tuple(seeds),
                experiment_store=clean_store, accesses=accesses,
                warmup=warmup, workers=1, backend="serial",
            )
        reference = _payloads(clean_path)

        fleet = _Fleet(_env(), tmp_path)
        client = ServiceClient(base_url, timeout=5.0)
        server_argv = [
            sys.executable, "-m", "repro.cli",
            "--store", str(store_path),
            "serve", "--host", "127.0.0.1", "--port", str(port),
            "--lease-seconds", str(lease_seconds),
            "--delay-ms", "25",
        ]

        def worker_argv(name: str, **flags) -> list[str]:
            argv = [
                sys.executable, "-m", "repro.cli",
                "--store", str(store_path),
                "worker", "--server", base_url,
                "--name", name, "--poll", "0.1",
                "--poison", poison_workload,
            ]
            if flags.get("drop_heartbeats"):
                argv.append("--drop-heartbeats")
            if flags.get("max_shards") is not None:
                argv += ["--max-shards", str(flags["max_shards"])]
            if flags.get("idle_exit") is not None:
                argv += ["--idle-exit", str(flags["idle_exit"])]
            return argv

        try:
            # 2. Server + a healthy worker + a heartbeat-dropping one.
            fleet.spawn("server-1", server_argv)
            _wait(lambda: client.health()["status"] == "ok",
                  timeout=30, what="server 1 to listen")
            fleet.spawn("worker-a", worker_argv("worker-a", idle_exit=60))
            fleet.spawn("worker-b", worker_argv(
                "worker-b", drop_heartbeats=True, max_shards=2,
                idle_exit=60,
            ))

            request = dict(
                workloads=list(workloads), filters=list(filters),
                seeds=list(seeds), mode="replay",
                accesses=accesses, warmup=warmup,
            )
            main_job = client.submit(**request)["job"]
            poison_job = client.submit(
                workloads=[poison_workload], filters=list(filters),
                seeds=[seeds[0]], mode="replay",
                accesses=accesses, warmup=warmup,
            )["job"]
            expected_quarantined = 1

            # 3a. SIGKILL the healthy worker while it holds a lease on a
            # *main-job* shard (a poisoned lease is failed in
            # milliseconds — killing mid-poison would race the kill).
            main_ids = {
                shard["id"] for shard in client.job(main_job)["shards"]
            }

            def a_holds_lease() -> bool:
                return any(
                    lease["worker"] == "worker-a"
                    and lease["shard"] in main_ids
                    for lease in client.health()["leases"]
                )

            _wait(a_holds_lease, timeout=60, interval=0.05,
                  what="worker-a to hold a lease")
            fleet.sigkill("worker-a")
            notes.append("worker-a SIGKILLed mid-lease")

            # The dead worker's lease must *expire and reassign* while
            # this server still lives — that is the fault being drilled.
            _wait(lambda: client.health()["reassigned"] >= 1,
                  timeout=60, what="the orphaned lease to be reassigned")

            # 3b. SIGKILL the server once at least one shard is done.
            def one_done() -> bool:
                return client.job(main_job)["states"]["done"] >= 1

            _wait(one_done, timeout=120, what="first shard to finish")
            fleet.sigkill("server-1")
            notes.append("server-1 SIGKILLed mid-sweep")

            # 4. Restart the server on the same store and port; heal the
            # fleet with a fresh healthy worker.  worker-b (and the
            # journal) bridge the outage.
            fleet.spawn("server-2", server_argv)
            _wait(lambda: client.health()["status"] == "ok",
                  timeout=30, what="server 2 to listen")
            fleet.spawn("worker-c", worker_argv("worker-c", idle_exit=60))

            final = client.wait(main_job, timeout=timeout)
            if final["state"] != "done":
                notes.append(f"main job ended {final['state']}: {final}")
            poisoned = client.wait(poison_job, timeout=timeout)
            quarantine_attempts = tuple(
                shard["attempts"] for shard in poisoned["shards"]
                if shard["state"] == "quarantined"
            )

            # 5. Warm re-submit: answered from the store, no new leases.
            before = client.health()["leases_granted"]
            warm = client.submit(**request)
            warm_answer = warm["summary"]
            after = client.health()["leases_granted"]
            if warm["state"] != "done" or after != before:
                notes.append(
                    f"warm re-submit not warm: state={warm['state']}, "
                    f"leases {before}->{after}"
                )
                warm_answer = f"(not warm) {warm_answer}"

            # 6. Drain: workers first, then SIGTERM the server.
            fleet.sigterm("worker-b")
            fleet.sigterm("worker-c")
            server_rc = fleet.sigterm("server-2", timeout=60.0)
            drained = server_rc == 0

            recovery_log = fleet.output("server-2")
            recovered_done = 0
            for line in recovery_log.splitlines():
                if "recovered" in line and "already done" in line:
                    recovered_done = int(
                        line.split("job(s):")[1].split("shard")[0].strip()
                    )
            reassigned = (
                fleet.output("server-1").count("; reassigned")
                + recovery_log.count("; reassigned")
            )
        finally:
            fleet.cleanup()

        # 7. The oracle: byte identity, fsck, quarantine accounting.
        healed = _payloads(store_path)
        byte_identical = healed == reference
        if not byte_identical:
            missing = sorted(set(reference) - set(healed))[:3]
            extra = sorted(set(healed) - set(reference))[:3]
            differ = sorted(
                key for key in set(reference) & set(healed)
                if reference[key] != healed[key]
            )[:3]
            notes.append(
                f"store diff: {len(missing)}+ missing, {len(extra)}+ "
                f"extra, {len(differ)}+ differing "
                f"(samples: {missing + extra + differ})"
            )
        with ExperimentStore(store_path) as survivor:
            fsck_clean = survivor.fsck().clean

        return ServiceChaosResult(
            byte_identical=byte_identical,
            fsck_clean=fsck_clean,
            drained_cleanly=drained,
            warm_answer=warm_answer,
            reassigned=reassigned,
            recovered_done=recovered_done,
            quarantined_shards=len(quarantine_attempts),
            expected_quarantined=expected_quarantined,
            quarantine_attempts=quarantine_attempts,
            wall_seconds=time.monotonic() - started,
            notes=notes,
        )
