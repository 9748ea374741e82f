"""The benchmark's per-layer tracer must find every function it wraps.

``perfbench/tracing.py`` resolves each traced function through
``owner.__dict__[attr]``, so renaming or deleting one of them makes every
traced benchmark repetition fail with a ``KeyError``.  These tests install
the tracer as the benchmark does, so such a change fails here first.
"""

from __future__ import annotations

from perfbench import tracing
from repro.analysis import runner
from repro.analysis.store import ExperimentStore
from tests.test_experiments import tiny_spec


def test_tracer_installs_and_restores_every_traced_function():
    originals = [
        (owner, attr, owner.__dict__[attr])
        for owner, attr, _span, _count in tracing._traced_functions()
    ]
    with tracing.Tracer().installed():
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, (owner, attr)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_traced_default_sweep_records_runner_and_store_layers():
    spec = tiny_spec()
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.measure("cold", "contract"):
        runner.execute_replays(
            [runner.ReplayJob(spec.name, ("EJ-8x2",))],
            experiment_store=ExperimentStore(), specs={spec.name: spec},
        )
    [(pass_name, metrics)] = tracer.results
    assert pass_name == "cold"
    assert metrics["runner.tasks"] == 1  # the replayed evaluation
    assert metrics["store.puts"] > 0
    assert metrics["coherence.events"] > 0
