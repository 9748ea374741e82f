"""Shared fixtures: small system configurations and trace helpers.

Unit and property tests run on deliberately tiny cache geometries so the
interesting states (evictions, conflicts, write-buffer pressure) appear
within a few hundred accesses.
"""

from __future__ import annotations

import random

import pytest

from repro.coherence.config import CacheConfig, SystemConfig


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current implementation "
        "instead of comparing against it (review the diff before committing)",
    )


@pytest.fixture
def tiny_system() -> SystemConfig:
    """A 4-way SMP with very small caches (heavy eviction traffic)."""
    return SystemConfig(
        n_cpus=4,
        l1=CacheConfig(capacity_bytes=256, block_bytes=32, subblock_bytes=32),
        l2=CacheConfig(capacity_bytes=2048, block_bytes=64, subblock_bytes=32),
        wb_entries=2,
        address_bits=24,
    )


@pytest.fixture
def tiny_system_2cpu(tiny_system: SystemConfig) -> SystemConfig:
    return tiny_system.with_cpus(2)


def make_random_trace(
    n_accesses: int,
    n_cpus: int = 4,
    seed: int = 0,
    shared_span: int = 1 << 12,
    private_span: int = 1 << 13,
    shared_frac: float = 0.4,
    write_frac: float = 0.3,
) -> list[tuple[int, int, bool]]:
    """A random trace with both shared and per-CPU private regions."""
    rng = random.Random(seed)
    trace = []
    for _ in range(n_accesses):
        cpu = rng.randrange(n_cpus)
        if rng.random() < shared_frac:
            address = rng.randrange(shared_span)
        else:
            address = (1 << 16) * (cpu + 1) + rng.randrange(private_span)
        trace.append((cpu, address & ~0x3, rng.random() < write_frac))
    return trace


def put_legacy_sim(store, spec, system, seed: int = 1) -> str:
    """Plant a legacy ``sim`` row (a full in-memory simulation) in a store.

    Nothing writes this kind any more; older stores still hold such rows,
    so tests build one under the key older versions used and return it.
    """
    from repro.analysis import runner
    from repro.analysis import store as store_mod

    key = store_mod._digest({
        "kind": "sim",
        "schema": store_mod.SCHEMA_VERSION,
        "spec": store_mod.spec_fingerprint(spec),
        "system": store_mod.system_fingerprint(system),
        "seed": seed,
    })
    store.put_blob(
        key,
        store_mod.encode_sim(runner.compute_sim(spec, system, seed)),
        kind="sim",
        workload=spec.name,
        filter_name=None,
        n_cpus=system.n_cpus,
        seed=seed,
    )
    return key
