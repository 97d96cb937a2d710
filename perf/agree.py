#!/usr/bin/env python
"""Do two sets of benchmark runs agree within the benchmark's bounds?

    python3 perf/agree.py A_DIR B_DIR

Each directory holds the untraced results ``<workload>.s<seed>.t0.json``
that ``perf/run.py --out DIR`` writes.  For every workload and
end-to-end metric of ``BENCHMARK.json`` this prints each set's median
and quartiles, the spread (interquartile range over median), and a
verdict:

- ``unresolved`` when either set's spread exceeds the metric's bound,
- ``agree`` when the medians differ by at most the bound,
- ``disagree`` otherwise.

Simulated-time metrics (``sim_*``) are deterministic for a seed, so
they must also be identical, seed by seed, wherever both sets ran the
same seed.  Exits 1 on any disagreement or any differing simulated
value.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """``{workload: {seed: {metric: value}}}`` of a result directory."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.t0.json"))):
        with open(path) as fh:
            record = json.load(fh)
        runs.setdefault(record["workload"], {})[record["seed"]] = {
            name: m["value"] for name, m in record["metrics"].items()}
    return runs


def summary(values) -> tuple:
    """(median, q1, q3, spread) with ``statistics.quantiles(n=4)``."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def compare(a: dict, b: dict, metrics: list) -> int:
    status = 0
    for workload in sorted(set(a) | set(b)):
        print(f"\n{workload}: {len(a.get(workload, {}))} vs "
              f"{len(b.get(workload, {}))} runs")
        runs_a, runs_b = a.get(workload, {}), b.get(workload, {})
        if not runs_a or not runs_b:
            print("  missing in one set")
            status = 1
            continue
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            med_a, q1_a, q3_a, spread_a = summary(
                [r[name] for r in runs_a.values()])
            med_b, q1_b, q3_b, spread_b = summary(
                [r[name] for r in runs_b.values()])
            shift = abs(med_b - med_a) / med_a if med_a else 0.0
            if max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif shift <= bound:
                verdict = "agree"
            else:
                verdict = "disagree"
                status = 1
            print(f"  {name:22s} A {med_a:12.6g} [{q1_a:.6g}, {q3_a:.6g}] "
                  f"{100 * spread_a:5.2f}%  B {med_b:12.6g} "
                  f"[{q1_b:.6g}, {q3_b:.6g}] {100 * spread_b:5.2f}%  "
                  f"shift {100 * shift:5.2f}% bound {100 * bound:g}%  "
                  f"{verdict}")
        for seed in sorted(set(runs_a) & set(runs_b)):
            differ = [n for n in runs_a[seed]
                      if n.startswith("sim_")
                      and runs_a[seed][n] != runs_b[seed].get(n)]
            if differ:
                print(f"  seed {seed}: simulated metrics differ: {differ}")
                status = 1
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    return compare(load(argv[0]), load(argv[1]), metrics)


if __name__ == "__main__":
    sys.exit(main())
