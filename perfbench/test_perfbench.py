"""Fast tests of the benchmark's own pure helpers.

They need neither the program under test nor a timing run:
``python -m pytest perfbench -q``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from perfbench import compare, metrics, tracing
from perfbench.run import END_TO_END


# -- metric names -------------------------------------------------------

@pytest.mark.parametrize("name", [
    "setup_s", "cold.core.HJ.numpy.ns_per_event", "exhibit-cold", "9lives",
    "a" * 64,
])
def test_valid_names(name):
    assert metrics.valid_name(name)


@pytest.mark.parametrize("name", [
    "", "_lead", ".lead", "has space", "a/b", "core.EJ(x)", "a" * 65,
    "naïve",
])
def test_invalid_names(name):
    assert not metrics.valid_name(name)


def test_benchmark_json_names_and_bounds():
    doc = metrics.load_benchmark()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(metrics.valid_name(name) for name in names)
    assert len(names) == len(set(names))
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert metric["better"] in ("higher", "lower")
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in doc["end_to_end"]
    )


def test_benchmark_json_lists_what_the_runner_prints():
    doc = metrics.load_benchmark()
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == tracing.per_layer_specs()


# -- self time ----------------------------------------------------------

#: root 0..100 > coherence 10..40 > traces 15..25; root > store.put 50..60.
SPANS = [
    ("pass", 0, 100, None),
    ("coherence", 10, 40, 0),
    ("traces", 15, 25, 1),
    ("store.put", 50, 60, 0),
]


def test_self_time_subtracts_children_only():
    assert tracing.self_times(SPANS) == [60, 20, 10, 10]
    assert sum(tracing.self_times(SPANS)) == 100


def test_pass_metrics_attribute_self_time_per_layer():
    counts = Counter({"traces.accesses": 5, "coherence.events": 10})
    out = tracing.pass_metrics(SPANS, counts)
    assert out["coherence.self_s"] == pytest.approx(20e-9)
    assert out["traces.take_s"] == pytest.approx(10e-9)
    assert out["traces.ns_per_access"] == pytest.approx(2.0)
    assert out["coherence.events_per_access"] == pytest.approx(2.0)
    assert out["store.put_s"] == pytest.approx(10e-9)
    assert out["unattributed_s"] == pytest.approx(60e-9)
    assert out["core.EJ.numpy.ns_per_event"] == 0.0
    assert set(out) == {name for name, _u, _b in tracing.layer_metric_specs()}


def test_tracer_nests_spans_and_counts_outermost_only():
    tracer = tracing.Tracer()

    def take(count, inner=0):
        return [0] * count + (traced(inner) if inner else [])

    traced = tracer.wrap(
        take, "traces",
        lambda args, kwargs, result: [("traces.accesses", len(result))],
    )
    assert traced(3) == [0, 0, 0]  # outside a pass: untraced
    with tracer.measure("cold", "run"):
        traced(2, inner=4)
    (run_id, spans), = tracer.passes
    assert run_id == "run"
    assert [(name, parent) for name, _s, _e, parent in spans] == [
        ("pass", None), ("traces", 0), ("traces", 1),
    ]
    (pass_name, out), = tracer.results
    assert pass_name == "cold"
    assert out["traces.accesses"] == 6


# -- pair rule ----------------------------------------------------------

def _pairs(parent, change):
    return list(zip(parent, change))


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_consistent_gain_is_a_win():
    change = [p * 0.8 for p in PARENT]
    row = compare.judge_metric(_pairs(PARENT, change), "lower", 0.1)
    assert row["verdict"] == "win" and row["wins"] == 10


def test_win_needs_nine_tenths_and_ties_count_for_neither():
    change = [p * 0.8 for p in PARENT]
    change[0] = PARENT[0]  # tie
    row = compare.judge_metric(_pairs(PARENT, change), "lower", 0.1)
    assert row["verdict"] == "win" and row["wins"] == 9
    change[1] = PARENT[1]  # second tie: 8 of 10
    row = compare.judge_metric(_pairs(PARENT, change), "lower", 0.1)
    assert row["wins"] == 8 and row["verdict"] != "win"


def test_win_needs_ten_pairs():
    change = [p * 0.8 for p in PARENT]
    row = compare.judge_metric(_pairs(PARENT[:9], change[:9]), "lower", 0.1)
    assert row["wins"] == 9 and row["verdict"] != "win"


def test_win_needs_gap_beyond_parent_spread():
    noisy = [8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 9.5, 10.5, 8.0, 12.0]
    change = [p - 0.5 for p in noisy]  # wins every pair, gap < IQR
    row = compare.judge_metric(_pairs(noisy, change), "lower", 0.5)
    assert row["wins"] == 10 and row["verdict"] == "unchanged"


def test_wide_spread_is_unresolved_not_unchanged():
    noisy = [8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 9.5, 10.5, 8.0, 12.0]
    row = compare.judge_metric(_pairs(noisy, list(reversed(noisy))),
                               "lower", 0.05)
    assert row["verdict"] == "unresolved"


def test_slower_change_is_a_regression_and_higher_is_better_flips():
    slower = [p * 1.3 for p in PARENT]
    assert compare.judge_metric(
        _pairs(PARENT, slower), "lower", 0.1)["verdict"] == "regression"
    assert compare.judge_metric(
        _pairs(PARENT, slower), "higher", 0.1)["verdict"] == "win"
    assert compare.judge_metric(
        _pairs(PARENT, PARENT), "lower", 0.1)["verdict"] == "unchanged"


def test_judge_reports_each_workload_and_failed_checks():
    benchmark = {
        "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [{"name": "cold_s", "unit": "s", "better": "lower",
                        "bound": 0.1}],
    }

    def record(workload, pair, side, value, failed=0):
        return {"workload": workload, "pair": pair, "side": side,
                "result": {"failed": failed,
                           "metrics": {"cold_s": {"value": value}}}}

    records = []
    for pair, value in enumerate(PARENT):
        records += [record("a", pair, "parent", value),
                    record("a", pair, "change", value * 0.8),
                    record("b", pair, "parent", value),
                    record("b", pair, "change", value * 0.8, failed=1)]
    rows = compare.judge(records, benchmark)
    assert [(r["workload"], r["verdict"]) for r in rows] == [
        ("a", "win"), ("b", "failed checks"),
    ]


def test_run_without_metrics_is_skipped_and_counts_as_failed():
    benchmark = {
        "workloads": [{"name": "a"}],
        "end_to_end": [{"name": "cold_s", "unit": "s", "better": "lower",
                        "bound": 0.1}],
    }
    records = [
        {"workload": "a", "pair": 0, "side": "parent",
         "result": {"failed": 0, "metrics": {"cold_s": {"value": 1.0}}}},
        {"workload": "a", "pair": 0, "side": "change",
         "result": compare.parse_result("Traceback ...\n")},
    ]
    rows = compare.judge(records, benchmark)
    assert [(r["verdict"], r["pairs"]) for r in rows] == [("failed checks", 0)]
    compare.print_rows(rows)


def test_parse_result_reads_the_last_line():
    line = '{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}'
    assert compare.parse_result("noise\n" + line + "\n")["attempted"] == 3
