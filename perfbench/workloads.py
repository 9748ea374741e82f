"""The benchmark's three workloads.

Every repetition of a workload runs measured passes, ``cold`` and then
``warm``, and checks its outputs outside the timed region:

``exhibit-cold``
    Paper Figure 4(a) (ten applications x the six ``PAPER_EJ_NAMES``)
    through the public front door (``figures.build_figure4a`` ->
    ``experiments.coverage_for``).  Cold: into an empty file-backed
    store, which runs generation, coherence, the python replay kernel,
    sim-row encoding and store writes.  Warm: the same figure read from
    the store opened afresh, as a second ``repro figure 4a`` would read
    it; ten warm passes per repetition.  The applications run at a
    quarter of their registry sizes (accesses and warm-up alike) so
    several repetitions fit in one run.
``sweep``
    em3d (snoop-heavy) and lu (snoop-light) through
    ``runner.execute_replays`` with all 21 paper filter configurations,
    serial backend, one worker.  Cold: into an empty file store (record
    and replay).  Warm: after ``delete_kind("eval")`` (replay only).
``live-stream``
    One single pass over em3d and lu with the four
    ``DEFAULT_SWEEP_FILTERS`` banks attached live
    (``runner.compute_stream``); nothing is stored.  The warm pass
    repeats the cold one, because a pass that keeps nothing has nothing
    to reuse: ``warm_s`` would fall only if a change began to reuse work.

The sweep and live-stream workloads simulate em3d and lu at the same
(registry) sizes and seed, so the sweep verifies after its timed
repetitions that the live python-kernel payloads of the four live
filters equal its numpy-replayed ones byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from pathlib import Path

#: Applications of the sweep and live-stream workloads.
PAIR = ("em3d", "lu")
#: Share of the registry size at which ``exhibit-cold`` runs each application.
EXHIBIT_SCALE = 0.25
#: Warm passes per ``exhibit-cold`` repetition.  One warm pass (one
#: figure read) takes milliseconds and now and then a stall of tens of
#: milliseconds, so a run needs many of them for a steady median.
WARM_READS = 10


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _scaled(spec, scale: float):
    return dataclasses.replace(
        spec,
        n_accesses=int(spec.n_accesses * scale),
        warmup_accesses=int(spec.warmup_accesses * scale),
    )


def _remove_store(path: Path) -> None:
    for suffix in ("", "-journal", "-wal", "-shm"):
        try:
            os.remove(f"{path}{suffix}")
        except FileNotFoundError:
            pass


def _paper_deviation(metrics_by_app: dict, specs: dict) -> tuple[float, float]:
    """Mean |ours - paper| of the L2 hit rate and snoop-miss share."""
    l2 = [
        abs(m.aggregate.l2_local_hit_rate - specs[app].paper.l2_hit_rate)
        for app, m in metrics_by_app.items()
    ]
    snoop = [
        abs(m.snoop_miss_fraction_of_all - specs[app].paper.snoop_miss_of_all)
        for app, m in metrics_by_app.items()
    ]
    return sum(l2) / len(l2), sum(snoop) / len(snoop)


class Checks:
    """Counts output checks: one operation per evaluation per pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


class Workload:
    """Base: per-repetition passes plus output checks.

    Subclasses set ``name`` and, in :meth:`setup`, ``specs`` and
    ``measured_accesses`` (measured-region accesses of one cold pass),
    and implement :meth:`setup`, :meth:`probe_store`, :meth:`rep` and
    optionally :meth:`verify`.
    """

    name = ""
    measured_accesses = 0

    def __init__(self) -> None:
        #: ``(workload, filter, seed)`` -> payload digest of the first rep.
        self.reference: dict[tuple, str] = {}
        #: Paper deviation of the first repetition.
        self.paper_dev: tuple[float, float] | None = None

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def probe_store(self) -> None:
        """Create and discard one empty store, as a repetition's set-up does."""
        raise NotImplementedError

    def rep(self, measure, checks: Checks) -> None:
        raise NotImplementedError

    def verify(self, checks: Checks) -> None:
        """Checks run once after the timed repetitions."""

    def sizes(self) -> dict[str, list[int]]:
        """``app -> [measured accesses, warm-up accesses]``."""
        return {
            app: [spec.n_accesses, spec.warmup_accesses]
            for app, spec in self.specs.items()
        }

    def _check_digests(self, digests: dict, checks: Checks, label: str) -> None:
        """Every payload must equal the first repetition's, byte for byte."""
        first = not self.reference
        for key, digest in digests.items():
            if first:
                self.reference[key] = digest
            checks.op(
                digest is not None and digest == self.reference.get(key),
                f"{label}: payload of {key} differs from the first repetition",
            )

    def _check_paper(self, dev: tuple[float, float], label: str,
                     checks: Checks) -> None:
        if self.paper_dev is None:
            self.paper_dev = dev
        checks.op(dev == self.paper_dev, f"{label}: paper deviation changed")


class ExhibitCold(Workload):
    name = "exhibit-cold"

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.analysis import experiments, figures, store
        from repro.coherence.config import SCALED_SYSTEM
        from repro.core.config import PAPER_EJ_NAMES
        from repro.traces import workloads

        self.seed = seed
        self.workdir = workdir
        self.experiments, self.figures, self.store = experiments, figures, store
        self.system = SCALED_SYSTEM
        self.filters = PAPER_EJ_NAMES
        # The front door resolves applications by name through the
        # registry, so the registry itself is sized for the benchmark.
        self.specs = {
            app: _scaled(spec, EXHIBIT_SCALE)
            for app, spec in workloads.WORKLOADS.items()
        }
        workloads.WORKLOADS.update(self.specs)
        self.measured_accesses = sum(s.n_accesses for s in self.specs.values())

    def new_store(self) -> Path:
        path = self.workdir / "exhibit.sqlite"
        _remove_store(path)
        self.experiments.set_store(path)
        return path

    def probe_store(self) -> None:
        path = self.new_store()
        self.experiments.set_store(None)
        _remove_store(path)

    def _values(self, figure) -> dict:
        return {
            (app, series.label): value
            for series in figure.series
            for app, value in series.values.items()
        }

    def rep(self, measure, checks: Checks) -> None:
        experiments, store = self.experiments, self.store
        path = self.new_store()
        try:
            with measure("cold"):
                cold = self.figures.build_figure4a(seed=self.seed)
            cold_values = self._values(cold)
            current = experiments.get_store()
            digests = {}
            for app, spec in self.specs.items():
                for name in self.filters:
                    value = cold_values.get((app, name))
                    checks.op(
                        value is not None and 0.0 <= value <= 1.0,
                        f"cold coverage of {name} on {app} = {value}",
                    )
                    blob = current.get_blob(
                        store.eval_key(spec, name, self.system, self.seed)
                    )
                    digests[(app, name, self.seed)] = (
                        None if blob is None else _digest(blob)
                    )
            metrics = {
                app: experiments.workload_metrics(app, seed=self.seed)
                for app in self.specs
            }
            self._check_paper(
                _paper_deviation(metrics, self.specs), "exhibit", checks
            )
            warm = []
            for _ in range(WARM_READS):
                with measure("warm"):
                    # Each read opens the store afresh, as a second
                    # invocation of the exhibit would.
                    experiments.set_store(path)
                    warm.append(self.figures.build_figure4a(seed=self.seed))
            for figure in warm:
                warm_values = self._values(figure)
                for key, value in cold_values.items():
                    checks.op(
                        warm_values.get(key) == value,
                        f"warm coverage of {key} differs from cold",
                    )
            self._check_digests(digests, checks, "exhibit")
        finally:
            experiments.set_store(None)
            _remove_store(path)


class Sweep(Workload):
    name = "sweep"

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.analysis import runner, store
        from repro.coherence.config import SCALED_SYSTEM
        from repro.core import vector_replay  # noqa: F401 - loads numpy before timing
        from repro.core.config import (
            PAPER_EJ_NAMES,
            PAPER_HJ_NAMES,
            PAPER_IJ_NAMES,
            PAPER_VEJ_NAMES,
        )
        from repro.traces.workloads import get_workload

        self.seed = seed
        self.workdir = workdir
        self.runner, self.store = runner, store
        self.system = SCALED_SYSTEM
        self.filters = (
            PAPER_EJ_NAMES + PAPER_VEJ_NAMES + PAPER_IJ_NAMES + PAPER_HJ_NAMES
        )
        self.specs = {app: get_workload(app) for app in PAIR}
        self.jobs = [
            runner.ReplayJob(app, self.filters, seed=seed) for app in PAIR
        ]
        self.measured_accesses = sum(s.n_accesses for s in self.specs.values())

    def new_store(self):
        path = self.workdir / "sweep.sqlite"
        _remove_store(path)
        return path, self.store.ExperimentStore(path)

    def probe_store(self) -> None:
        path, experiment_store = self.new_store()
        experiment_store.close()
        _remove_store(path)

    def _execute(self, experiment_store):
        return self.runner.execute_replays(
            self.jobs, experiment_store=experiment_store, workers=1,
            backend="serial", specs=dict(self.specs),
        )

    def _payloads(self, experiment_store) -> dict:
        return {
            (app, name, self.seed): experiment_store.get_blob(
                self.store.eval_key(spec, name, self.system, self.seed)
            )
            for app, spec in self.specs.items()
            for name in self.filters
        }

    def _check_pass(self, label, report, payloads, sims_run, checks) -> bool:
        evals = len(PAIR) * len(self.filters)
        ok = (
            report.sims_run == sims_run
            and report.evals_run == evals
            and report.quarantined == 0
        )
        for key, blob in payloads.items():
            valid = ok and blob is not None
            if valid:
                coverage = self.store.decode_eval(blob).coverage.coverage
                valid = 0.0 <= coverage <= 1.0
            checks.op(valid, f"{label} evaluation {key}: {report.summary()}")
        return ok

    def rep(self, measure, checks: Checks) -> None:
        path, experiment_store = self.new_store()
        try:
            with measure("cold"):
                report = self._execute(experiment_store)
            cold = self._payloads(experiment_store)
            self._check_pass("cold", report, cold, len(PAIR), checks)
            metrics = {
                app: experiment_store.get_sim_metrics(
                    self.store.sim_metrics_key(spec, self.system, self.seed)
                )
                for app, spec in self.specs.items()
            }
            self._check_paper(
                _paper_deviation(metrics, self.specs), "sweep", checks
            )
            experiment_store.delete_kind("eval")
            with measure("warm"):
                report = self._execute(experiment_store)
            warm = self._payloads(experiment_store)
            self._check_pass("warm", report, warm, 0, checks)
            for key, blob in cold.items():
                checks.op(
                    blob is not None and warm[key] == blob,
                    f"warm payload of {key} differs from cold",
                )
            self._check_digests(
                {
                    key: None if blob is None else _digest(blob)
                    for key, blob in cold.items()
                },
                checks, "sweep",
            )
        finally:
            experiment_store.close()
            _remove_store(path)

    def verify(self, checks: Checks) -> None:
        """Live python-kernel payloads must equal the numpy replays."""
        runner = self.runner
        for app, spec in self.specs.items():
            _metrics, evaluations = runner.compute_stream(
                spec, self.system, self.seed, runner.DEFAULT_SWEEP_FILTERS
            )
            for name, evaluation in evaluations.items():
                key = (app, name, self.seed)
                checks.op(
                    key in self.reference
                    and _digest(self.store.encode_eval(evaluation))
                    == self.reference[key],
                    f"live payload of {key} differs from the replayed one",
                )


class LiveStream(Workload):
    name = "live-stream"

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.analysis import runner, store
        from repro.coherence.config import SCALED_SYSTEM
        from repro.traces.workloads import get_workload

        self.seed = seed
        self.runner, self.store = runner, store
        self.system = SCALED_SYSTEM
        self.filters = runner.DEFAULT_SWEEP_FILTERS
        self.specs = {app: get_workload(app) for app in PAIR}
        self.measured_accesses = sum(s.n_accesses for s in self.specs.values())

    def probe_store(self) -> None:
        """Nothing to create: the live pass stores nothing."""

    def _pass(self):
        return {
            app: self.runner.compute_stream(
                spec, self.system, self.seed, self.filters
            )
            for app, spec in self.specs.items()
        }

    def _digests(self, results, checks: Checks, label: str) -> dict:
        digests = {}
        for app, (_metrics, evaluations) in results.items():
            for name in self.filters:
                evaluation = evaluations.get(name)
                ok = (
                    evaluation is not None
                    and 0.0 <= evaluation.coverage.coverage <= 1.0
                )
                checks.op(ok, f"{label} evaluation of {name} on {app}")
                digests[(app, name, self.seed)] = (
                    _digest(self.store.encode_eval(evaluation)) if ok else None
                )
        return digests

    def rep(self, measure, checks: Checks) -> None:
        with measure("cold"):
            cold = self._pass()
        cold_digests = self._digests(cold, checks, "cold")
        self._check_paper(
            _paper_deviation(
                {app: metrics for app, (metrics, _e) in cold.items()},
                self.specs,
            ),
            "live-stream", checks,
        )
        with measure("warm"):
            warm = self._pass()
        warm_digests = self._digests(warm, checks, "warm")
        for key, digest in cold_digests.items():
            checks.op(
                digest is not None and warm_digests.get(key) == digest,
                f"warm payload of {key} differs from cold",
            )
        self._check_digests(cold_digests, checks, "live-stream")


WORKLOADS = {
    workload.name: workload
    for workload in (ExhibitCold, Sweep, LiveStream)
}
