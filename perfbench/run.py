#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

A run sets up, then repeats the workload (cold and warm passes each
time, see ``perfbench/workloads.py``) until ``--seconds`` is used up, at
least three times, and reports medians over the passes.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repetitions and prints the per-layer
metrics of the traced ones, plus the tracing overhead.  Every output is
checked; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  When a
repetition raises before each kind of repetition has completed once,
that line still comes, with the failure counted and no metrics, and the
exit code is 1.  Untraced runs also time set-up in fresh interpreters,
twice before each repetition, and report the median as ``setup_s``.

The program is imported from ``src/`` of the checkout this file sits in,
and nothing else: without it the run fails before measuring anything.
Run metadata goes to standard output and, with every result, to
``.perfbench-work/results.jsonl``; traced runs also write their spans
under ``.perfbench-work/spans/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(ROOT))

from perfbench import metrics as pm  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Checks  # noqa: E402

#: ``(name, unit, better)`` of every end-to-end metric, in print order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cold_s", "s", "lower"),
    ("warm_s", "s", "lower"),
    ("acc_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "fraction", "higher"),
    ("paper_dev_l2_hit", "fraction", "lower"),
    ("paper_dev_snoop_miss", "fraction", "lower"),
]

#: Set-ups timed before each untraced repetition, each in a fresh
#: interpreter.  Spreading them over the run, rather than timing them all
#: at the start, lets their median see the same host as the passes do.
SETUP_PROBES_PER_REP = 2
#: Fewest repetitions (untraced) or untraced/traced pairs (traced) per run.
MIN_REPS = 3
MIN_PAIRS = 2


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or fail."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise BenchError(
            f"no program source at {package.relative_to(ROOT)}; run the "
            "benchmark from a full checkout"
        )
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise BenchError(
            f"imported repro from {repro.__file__}, not from this checkout"
        )


# ----------------------------------------------------------------------
# Host measurements
# ----------------------------------------------------------------------

def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def commit() -> str | None:
    """The checkout's commit, when it is a git work tree of its own."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metadata(args, workload) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "sizes": workload.sizes(),
        "commit": commit(),
    }


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------

class Timer:
    """The ``measure(pass_name)`` context a workload repetition times with."""

    def __init__(self, tracer: tracing.Tracer | None, run_id: str) -> None:
        self.tracer = tracer
        self.run_id = run_id
        #: ``pass name -> wall seconds`` of each time the pass ran.
        self.walls: dict[str, list[float]] = {}

    @contextmanager
    def __call__(self, pass_name: str):
        gc.collect()
        span = (
            nullcontext() if self.tracer is None
            else self.tracer.measure(pass_name, f"{self.run_id}/{pass_name}")
        )
        with span:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.walls.setdefault(pass_name, []).append(
                    time.perf_counter() - start
                )


def one_rep(workload, checks: Checks, tracer, run_id: str) -> dict:
    """Run one repetition; return its pass walls and peak memory."""
    gc.collect()
    reset_peak_rss()
    timer = Timer(tracer, run_id)
    with tracer.installed() if tracer is not None else nullcontext():
        workload.rep(timer, checks)
    return {"walls": timer.walls, "rss_mb": peak_rss_mb()}


def repeat(workload, checks: Checks, seconds: float, traced: bool,
           tracer: tracing.Tracer, before_group=None) -> list[dict]:
    """Repeat until ``seconds`` is used up; stop at the first exception.

    Untraced runs repeat the workload; traced runs repeat untraced/traced
    pairs, alternating which goes first.  ``before_group``, when given, is
    called before each repetition or pair, outside the timed passes.
    """
    reps: list[dict] = []
    group_walls: list[float] = []
    started = time.perf_counter()
    index = 0
    while True:
        group_start = time.perf_counter()
        if before_group is not None:
            before_group()
        kinds = [False]
        if traced:
            kinds = [False, True] if index % 2 == 0 else [True, False]
        for use_tracer in kinds:
            run_id = f"{workload.name}/seed{workload.seed}/rep{len(reps)}"
            try:
                rep = one_rep(
                    workload, checks, tracer if use_tracer else None, run_id
                )
            except Exception:  # noqa: BLE001 - reported as a failed op
                traceback.print_exc(file=sys.stderr)
                checks.op(False, f"repetition {run_id} raised")
                return reps
            rep["traced"] = use_tracer
            reps.append(rep)
        index += 1
        group_walls.append(time.perf_counter() - group_start)
        elapsed = time.perf_counter() - started
        enough = index >= (MIN_PAIRS if traced else MIN_REPS)
        if enough and elapsed + statistics.median(group_walls) > seconds:
            return reps


def probe_setup(args) -> float:
    """One set-up, timed from before the program is imported."""
    started = time.perf_counter()
    import_program()
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, Path(args.workdir))
    workload.probe_store()
    return time.perf_counter() - started


def setup_probe(args, workdir: Path) -> float:
    """Time one set-up in a fresh interpreter, in its own directory."""
    workdir.mkdir(parents=True, exist_ok=True)
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--setup-probe", "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if child.returncode != 0:
        raise BenchError(f"set-up failed:\n{child.stderr.strip()}")
    return json.loads(child.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

def end_to_end(workload, reps, setup_s: float, checks: Checks) -> dict:
    cold = [wall for rep in reps for wall in rep["walls"]["cold"]]
    warm = [wall for rep in reps for wall in rep["walls"]["warm"]]
    l2_dev, snoop_dev = workload.paper_dev
    return {
        "setup_s": setup_s,
        "cold_s": statistics.median(cold),
        "warm_s": statistics.median(warm),
        "acc_per_s": statistics.median(workload.measured_accesses / s for s in cold),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        "ok_frac": 1.0 - checks.failed / checks.attempted,
        "paper_dev_l2_hit": l2_dev,
        "paper_dev_snoop_miss": snoop_dev,
    }


def per_layer(reps, tracer: tracing.Tracer) -> dict:
    out = {}
    for pass_name in tracing.PASSES:
        runs = [m for name, m in tracer.results if name == pass_name]
        for name, _unit, _better in tracing.layer_metric_specs():
            out[f"{pass_name}.{name}"] = statistics.median(m[name] for m in runs)

    def wall(rep):
        return sum(sum(walls) for walls in rep["walls"].values())

    traced = statistics.median(wall(rep) for rep in reps if rep["traced"])
    untraced = statistics.median(wall(rep) for rep in reps if not rep["traced"])
    out["trace_overhead_frac"] = traced / untraced - 1.0
    return out


def expected_metrics(trace: int) -> list[tuple[str, str, str]]:
    return tracing.per_layer_specs() if trace else END_TO_END


def check_against_benchmark(trace: int) -> None:
    """The metrics this run prints must be the ones ``BENCHMARK.json`` lists."""
    try:
        declared = pm.load_benchmark()["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as error:
        raise BenchError(f"cannot read BENCHMARK.json: {error}") from error
    theirs = [(m["name"], m["unit"], m["better"]) for m in declared]
    if list(expected_metrics(trace)) != theirs:
        raise BenchError("BENCHMARK.json lists other metrics than this run prints")


def run(args) -> int:
    check_against_benchmark(args.trace)
    import_program()
    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_samples: list[float] = []
    before_group = None
    if not args.trace:
        # One discarded probe first warms the page cache and imports.
        setup_probe(args, workdir / "probe")

        def before_group():
            for _ in range(SETUP_PROBES_PER_REP):
                setup_samples.append(setup_probe(args, workdir / "probe"))

    try:
        workload.setup(args.seed, workdir)
        meta = metadata(args, workload)
        checks = Checks()
        tracer = tracing.Tracer()
        reps = repeat(workload, checks, args.seconds, bool(args.trace), tracer,
                      before_group)
        completed = {rep["traced"] for rep in reps}
        complete = completed == ({False, True} if args.trace else {False})
        if complete:
            try:
                workload.verify(checks)
            except Exception:  # noqa: BLE001 - reported as a failed op
                traceback.print_exc(file=sys.stderr)
                checks.op(False, "post-run verification raised")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)

    values = {}
    if complete:
        values = (
            per_layer(reps, tracer) if args.trace
            else end_to_end(workload, reps, statistics.median(setup_samples),
                            checks)
        )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better in expected_metrics(args.trace)
        if name in values
    }
    meta.update(
        loadavg_after=list(os.getloadavg()),
        setup_s_samples=setup_samples,
        repetitions=[
            {"traced": rep["traced"], "walls": rep["walls"],
             "rss_mb": rep["rss_mb"]}
            for rep in reps
        ],
    )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    WORK.mkdir(exist_ok=True)
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": meta, "result": result}) + "\n")
    if args.trace and complete:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        spans_file = spans_dir / f"{args.workload}-seed{args.seed}-{stamp}.jsonl"
        with open(spans_file, "w", encoding="utf-8") as handle:
            for row in tracer.dump():
                handle.write(json.dumps(row) + "\n")

    for name, unit, _better in expected_metrics(args.trace):
        if name in values:
            value = values[name]
            shown = (f"{value:>16d}" if isinstance(value, int)
                     else f"{value:>16.6g}")
            print(f"{name:<36} {shown} {unit}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    # A repetition that raised leaves no metrics to report: the result
    # line still counts the failure, and the exit code says so.
    return 0 if complete else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps(probe_setup(args)))
            return 0
        return run(args)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
