#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or check one set for steadiness.

    python3 bench/compare.py BEFORE_DIR [AFTER_DIR]

Each directory holds the record files that `bench/run.py --record-dir DIR`
writes; only untraced runs are read, one per workload and seed (of two
records with the same seed, the later one counts). For every workload and end-to-end
metric of BENCHMARK.json the table gives each set's median and quartiles
(`statistics.quantiles(values, n=4)`) and its spread, the distance between
the quartiles as a share of the median.

With one directory the verdict says whether the spread is within the
metric's bound (and within a third of it, the target for a steady
benchmark). With two it also counts the pairs, runs with the same seed,
in which AFTER is better, and gives a verdict:

- unresolved: a spread is wider than the bound, and the runs overlap;
- worse: AFTER's median is worse than BEFORE's by more than the bound;
- better: AFTER wins at least nine tenths of the pairs and the medians
  differ by more than BEFORE's spread between quartiles;
- within bound: anything else.

It also compares the share of failed operations between the sets.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load_runs(directory: str) -> dict[str, list[dict]]:
    """Untraced run records by workload, ordered by seed."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    if not runs:
        sys.exit(f"no untraced run records in {directory}")
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance as a share of the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def values_of(records: list[dict], metric: str) -> dict[int, float]:
    return {r["seed"]: r["result"]["metrics"][metric]["value"]
            for r in records if metric in r["result"]["metrics"]}


def failed_share(records: list[dict]) -> str:
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    return f"{failed}/{attempted}"


def verdict(before: dict[int, float], after: dict[int, float], bound: float, lower: bool) -> tuple[str, str]:
    b_med, b_q1, b_q3, b_spread = summary(list(before.values()))
    a_med, _, _, a_spread = summary(list(after.values()))
    sign = 1.0 if lower else -1.0
    better = lambda a, b: sign * (b - a) > 0  # noqa: E731 - a is better than b
    pairs = [(after[s], before[s]) for s in after if s in before]
    wins = sum(better(a, b) for a, b in pairs)
    all_better = all(better(a, b) for a in after.values() for b in before.values())
    all_worse = all(better(b, a) for a in after.values() for b in before.values())
    if max(b_spread, a_spread) > bound and not (all_better or all_worse):
        text = "unresolved"
    elif sign * (a_med - b_med) > bound * b_med:
        text = "worse"
    elif pairs and wins >= 0.9 * len(pairs) and sign * (b_med - a_med) > b_q3 - b_q1:
        text = "better"
    else:
        text = "within bound"
    return f"{wins}/{len(pairs)}", text


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("before")
    p.add_argument("after", nargs="?")
    args = p.parse_args(argv)
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    before = load_runs(args.before)
    after = load_runs(args.after) if args.after else None

    def cell(values: dict[int, float]) -> str:
        med, q1, q3, spread = summary(list(values.values()))
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}] {100 * spread:.1f}%"

    header = ["workload", "metric", "bound", "before (n) median [q1, q3] spread"]
    if after is not None:
        header += ["after median [q1, q3] spread", "change", "wins", "verdict"]
    else:
        header += ["verdict"]
    print(" | ".join(header))
    for workload in sorted(before):
        print(f"{workload}: failed before {failed_share(before[workload])}"
              + (f", after {failed_share(after.get(workload, []))}" if after is not None else ""))
        for m in metrics:
            b = values_of(before[workload], m["name"])
            if not b:
                continue
            row = [workload, m["name"], f"{m['bound']:.2f}", f"({len(b)}) {cell(b)}"]
            if after is None:
                spread = summary(list(b.values()))[3]
                if m["name"] == "setup_s":
                    row.append("spread not checked")
                elif spread > m["bound"]:
                    row.append("too wide")
                else:
                    row.append("steady" if spread <= m["bound"] / 3 else "within bound")
            else:
                a = values_of(after.get(workload, []), m["name"])
                if not a:
                    row += ["missing", "", "", ""]
                else:
                    change = summary(list(a.values()))[0] / summary(list(b.values()))[0] - 1.0
                    wins, text = verdict(b, a, m["bound"], m["better"] == "lower")
                    row += [f"({len(a)}) {cell(a)}", f"{100 * change:+.1f}%", wins, text]
            print(" | ".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
