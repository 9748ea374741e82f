"""Pure helpers shared by the benchmark runner, the compare tool and tests.

Nothing here imports the program under test, so the helpers load (and
their tests run) in a checkout that holds only the benchmark files.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

#: Where ``BENCHMARK.json`` lives relative to this package.
BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: A metric or workload name: starts with a letter or digit, then letters,
#: digits, ``_``, ``.`` and ``-``, at most 64 characters in all.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return NAME_RE.fullmatch(name) is not None


def load_benchmark(path: Path = BENCHMARK_FILE) -> dict:
    """Parse ``BENCHMARK.json``."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values) -> tuple[float, float]:
    """``(q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles.
    """
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values) -> float:
    """Interquartile range as a share of the median (0 when the median is 0)."""
    q1, q3 = quartiles(values)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
