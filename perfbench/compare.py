#!/usr/bin/env python3
"""Compare a parent and a change checkout with the benchmark.

Runs the benchmark in alternating parent/change pairs (which side goes
first alternates from pair to pair) and judges every end-to-end metric of
every workload by the pair rule:

* **win**: over at least ten pairs, the change is better in at least nine
  tenths of them (ties count for neither side) *and* the medians differ,
  in the change's favour, by more than the parent's interquartile range;
* **unresolved**: otherwise, when either side's spread (interquartile
  range over median) is wider than the metric's bound in
  ``BENCHMARK.json``, unless every change run beats every parent run;
* **regression**: otherwise, when the change's median is worse than the
  parent's by more than the bound (as a share of the parent's median);
* **unchanged**: anything else.

A workload where the change fails more output checks than the parent is
reported as **failed checks** whatever its timings.  A run that raised
reports no metrics, and a run that printed no result counts as one failed
check; pairs without the metric on both sides are left out of its rule.

Usage, from the change's checkout::

    python3 perfbench/compare.py run --parent ../parent --change . \\
        --pairs 10 --seed 7 --out compare.jsonl
    python3 perfbench/compare.py judge compare.jsonl

Both checkouts must carry the same benchmark files; a change that claims a
gain does not edit the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import metrics as pm  # noqa: E402

#: Share of pairs the change must win for a claimed gain.
WIN_SHARE = 0.9
#: Fewest pairs on which a gain may be claimed.
MIN_WIN_PAIRS = 10
#: The seed held out for claims (development uses seed 1).
HELD_OUT_SEED = 7


def _better(a: float, b: float, better: str) -> bool:
    """Whether ``a`` reads better than ``b``."""
    return a > b if better == "higher" else a < b


def judge_metric(pairs, better: str, bound: float) -> dict:
    """Verdict of one metric on one workload from ``(parent, change)`` pairs."""
    parent = [p for p, _c in pairs]
    change = [c for _p, c in pairs]
    wins = sum(1 for p, c in pairs if _better(c, p, better))
    parent_mid, change_mid = statistics.median(parent), statistics.median(change)
    q1, q3 = pm.quartiles(parent)
    gain = change_mid - parent_mid if better == "higher" else parent_mid - change_mid
    spread = max(pm.spread(parent), pm.spread(change))
    if better == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    worse = -gain / abs(parent_mid) if parent_mid else 0.0
    won = len(pairs) >= MIN_WIN_PAIRS and wins >= WIN_SHARE * len(pairs)
    if won and gain > q3 - q1:
        verdict = "win"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict,
        "wins": wins,
        "pairs": len(pairs),
        "parent": (parent_mid, *pm.quartiles(parent)),
        "change": (change_mid, *pm.quartiles(change)),
        "spread": spread,
    }


def judge(records, benchmark: dict) -> list[dict]:
    """One row per (workload, metric) from ``run`` records."""
    rows = []
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        sides: dict[tuple[int, str], dict] = {
            (r["pair"], r["side"]): r["result"]
            for r in records if r["workload"] == workload
        }
        pair_ids = sorted({pair for pair, side in sides if side == "parent"}
                          & {pair for pair, side in sides if side == "change"})
        if not pair_ids:
            continue
        failed = {
            side: sum(sides[(pair, side)]["failed"] for pair in pair_ids)
            for side in ("parent", "change")
        }
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            # A run that raised reports no metrics; its pair is skipped.
            pairs = [
                (sides[(pair, "parent")]["metrics"][name]["value"],
                 sides[(pair, "change")]["metrics"][name]["value"])
                for pair in pair_ids
                if all(name in sides[(pair, side)]["metrics"]
                       for side in ("parent", "change"))
            ]
            if pairs:
                row = judge_metric(pairs, metric["better"], metric["bound"])
            else:
                row = {"verdict": "unresolved", "wins": 0, "pairs": 0,
                       "parent": None, "change": None, "spread": None}
            if failed["change"] > failed["parent"]:
                row["verdict"] = "failed checks"
            rows.append({"workload": workload, "metric": name, **row})
    return rows


def print_rows(rows) -> None:
    print(f"{'workload':<14} {'metric':<22} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>7}  verdict")
    def show(side):
        return "-" if side is None else "{:.6g} [{:.6g}, {:.6g}]".format(*side)

    for row in rows:
        parent, change = show(row["parent"]), show(row["change"])
        print(f"{row['workload']:<14} {row['metric']:<22} {parent:<34} "
              f"{change:<34} {row['wins']:>3}/{row['pairs']:<3}  "
              f"{row['verdict']}")


def parse_result(stdout: str) -> dict:
    """A run's result line; a run that printed none counts as one failure."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or "failed" not in result:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result


def run_pairs(args, benchmark: dict) -> None:
    """Run alternating pairs, appending one record per run to ``args.out``."""
    sides = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = str(benchmark["run_seconds"])
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in workloads:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    command = list(benchmark["command"]) + [
                        "--workload", workload, "--seed", str(args.seed),
                        "--seconds", seconds, "--trace", "0",
                    ]
                    child = subprocess.run(
                        command, cwd=sides[side], capture_output=True,
                        text=True, timeout=900,
                    )
                    result = parse_result(child.stdout)
                    if child.returncode != 0:
                        print(f"{side} run of {workload} exited "
                              f"{child.returncode}:\n{child.stderr.strip()}",
                              file=sys.stderr)
                    out.write(json.dumps({
                        "workload": workload, "pair": pair, "side": side,
                        "first": order[0], "result": result,
                    }) + "\n")
                    out.flush()
                    print(f"{workload} pair {pair} {side} done", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run alternating pairs, then judge them")
    run.add_argument("--parent", required=True, help="parent checkout")
    run.add_argument("--change", required=True, help="change checkout")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    run.add_argument("--out", required=True, help="JSON-lines record file")
    judge_cmd = sub.add_parser("judge", help="judge a record file")
    judge_cmd.add_argument("records")
    args = parser.parse_args(argv)
    benchmark = pm.load_benchmark()
    if args.command == "run":
        run_pairs(args, benchmark)
        path = args.out
    else:
        path = args.records
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    print_rows(judge(records, benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
