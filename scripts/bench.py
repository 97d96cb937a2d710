#!/usr/bin/env python
"""Simulator-core perf trajectory: measure, record, and guard.

Runs hot-path probes of the simulator core (engine ping-pong,
processor-sharing churn, end-to-end Pagoda stack),
a wide fan of tickers colliding on every instant
(``engine_events_per_s_fan``), microbenchmarks of the indexed
runtime structures (scheduler dirty-row wakes, WarpTable
dispatch/retire), the serving frontend end-to-end (arrivals through
latency accounting), the cluster fleet sequentially vs sharded across
worker processes (``cluster_speedup``, guarded by an absolute >=2x
floor on hosts with >= 4 cores), the same fleet over a 1%-lossy
fabric (``fleet_degraded_throughput``, deterministic virtual-time
goodput under the reliability lane), the partitioned noisy-neighbor
scenario (``partition_p99_ratio`` / ``partition_elastic_recovery``,
deterministic virtual-time shape metrics of the SR-IOV-style compute
partitioning), the incident-scenario catalog (``scenarios`` in the
record: per-scenario pass/fail from ``repro.scenarios``, every layer
but ``paper`` — each must pass, an absolute deterministic guard), plus a
small Fig. 5 slice, and writes ``BENCH_simcore.json`` at
the repo root so every PR leaves a perf data point behind.  Guards
that stand down on this host (for example the cluster speedup floor
on small machines) are listed under ``skipped`` in the record *and*
printed on exit, so silent skips are visible in CI logs as well as to
``--json`` consumers.

If a committed ``BENCH_simcore.json`` already exists, the fresh
throughputs are compared against it first: any metric that regresses
by more than ``REGRESSION_TOLERANCE`` (20 %) prints a warning and the
script exits non-zero (pass ``--no-fail`` to downgrade to a warning
only).  A missing or schema-mismatched baseline is not an error — the
script records a fresh one and exits 0 ("no baseline, recording
fresh"), so first runs and record-format changes never fail a guard
that has nothing to guard against.  Wall-clock numbers are machine-dependent; the guard is meant
to catch order-of-magnitude hot-path regressions, not scheduler noise
— hence the generous tolerance and best-of-N timing.

Usage::

    python scripts/bench.py             # measure, check, rewrite JSON
    python scripts/bench.py --no-fail   # never exit non-zero
    python scripts/bench.py --check     # compare without rewriting
    python scripts/bench.py --json      # machine-readable record on
                                        # stdout, human output on stderr
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import cluster as bench_cluster_mod  # noqa: E402
from repro.bench import fig5  # noqa: E402
# re-exported at module level: tests and sibling scripts import the
# conda-silencing helper from here by name
from repro.bench.subproc import clean_subprocess_env  # noqa: E402,F401
from repro.core import PagodaConfig, run_pagoda  # noqa: E402
from repro.gpu.phases import Phase  # noqa: E402
from repro.sim import Engine, ProcessorSharing  # noqa: E402
from repro.tasks import TaskSpec  # noqa: E402

OUTPUT = ROOT / "BENCH_simcore.json"
REGRESSION_TOLERANCE = 0.20
FIG5_SLICE_TASKS = 48
#: hard floor on instrumented/uninstrumented pagoda throughput: obs-on
#: is allowed to cost (profiler wrapping is per-event), but if a full
#: Obs context ever costs more than 4x it stopped being "observability"
#: and became the workload.
OBS_OVERHEAD_FLOOR = 0.25
#: wide-fan scenario shape: many identical tickers colliding on every
#: instant -> FAN_TICKERS * FAN_TICKS timer events per run.
FAN_TICKERS = 64
FAN_TICKS = 3_125
#: hard floor on the sequential/sharded wall-time ratio of the cluster
#: fleet scenario at CLUSTER_WORKERS workers.  Only enforced on hosts
#: with at least that many cores: a 1-core container cannot
#: demonstrate parallel speedup, so there the ratio is recorded
#: unguarded (the byte-identity assertion inside the measurement still
#: applies everywhere).
CLUSTER_SPEEDUP_FLOOR = 2.0
CLUSTER_WORKERS = 4
#: hard floors on the partitioned noisy-neighbor scenario, absolute
#: and deterministic (virtual time): static partitioning must keep the
#: victim's p99 strictly below the shared-device run, and the elastic
#: rebalancer must win back at least half the utilization gap static
#: isolation opens against the shared device.
PARTITION_P99_RATIO_FLOOR = 1.0
PARTITION_RECOVERY_FLOOR = 0.5

#: Seed-commit throughputs measured on the machine that recorded the
#: first BENCH_simcore.json (best-of-run minima of the since-removed
#: pytest-benchmark suite at the pre-optimization seed).  Kept so the
#: recorded speedup of the simulation-core overhaul stays visible in
#: the trajectory.
SEED_BASELINE = {
    "engine_events_per_s": 1_334_000.0,   # 20k ping-pong events / 15.0 ms
    "ps_jobs_per_s": 19_470.0,            # 2k churn jobs / 102.7 ms
    "pagoda_tasks_per_s": 5_535.0,        # 500 tasks / 90.3 ms
}


def _best_of(fn, repeats):
    """(result, best wall seconds) over ``repeats`` timed calls.

    The cyclic collector is drained before and paused during each
    timed call: scenarios run back-to-back in one process, and without
    this the garbage of one scenario is collected inside the timing
    window of the next (observed as a spurious ~25% slowdown of the
    Pagoda stack when measured after the PS churn).
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return result, best


def bench_engine_events(repeats: int = 5):
    """Ping-pong of timers: pure event-loop overhead -> events/s."""
    def run():
        eng = Engine()

        def ticker():
            for _ in range(20_000):
                yield 1.0

        eng.spawn(ticker())
        eng.run()
        return eng.event_count

    events, wall = _best_of(run, repeats)
    return events / wall, wall


def bench_engine_fan(repeats: int = 5):
    """Wide fan of identical tickers -> events/s.

    Every instant carries ``FAN_TICKERS`` simultaneous timer firings,
    so the heap holds many equal timestamps (unlike
    ``engine_events_per_s``, whose single-ticker ping-pong keeps one
    record queued).
    """
    def run():
        eng = Engine()

        def ticker():
            for _ in range(FAN_TICKS):
                yield 1.0

        for _ in range(FAN_TICKERS):
            eng.spawn(ticker())
        eng.run()
        return eng.event_count

    events, wall = _best_of(run, repeats)
    return events / wall, wall


def bench_ps_churn(repeats: int = 5):
    """Arrival/departure churn on one PS pool -> jobs/s."""
    def run():
        eng = Engine()
        ps = ProcessorSharing(eng, rate=4.0, per_job_cap=1.0)
        done = []

        def job(i):
            yield ps.consume(10.0 + (i % 7))
            done.append(i)

        for i in range(2_000):
            eng.spawn(job(i))
        eng.run()
        return len(done)

    jobs, wall = _best_of(run, repeats)
    return jobs / wall, wall


def bench_pagoda_stack(repeats: int = 3):
    """End-to-end tasks/s through MasterKernel + TaskTable + host."""
    def kernel(task, block_id, warp_id):
        yield Phase(inst=2_000, mem_bytes=256)

    def run():
        tasks = [TaskSpec(f"t{i}", 128, 1, kernel) for i in range(500)]
        stats = run_pagoda(tasks, config=PagodaConfig(
            copy_inputs=False, copy_outputs=False))
        return len(stats.results)

    completed, wall = _best_of(run, repeats)
    return completed / wall, wall


def bench_obs_overhead(repeats: int = 3):
    """The pagoda-stack scenario again with a full Obs attached.

    Returns ``(tasks/s, wall, snapshot)``; the ratio against the
    uninstrumented run is the ``obs_on_off_ratio`` guard metric, and
    the (deterministic) snapshot rides in the bench record so every PR
    leaves a stats digest behind alongside its perf numbers.
    """
    from repro.obs import Obs

    def kernel(task, block_id, warp_id):
        yield Phase(inst=2_000, mem_bytes=256)

    snapshots = []

    def run():
        tasks = [TaskSpec(f"t{i}", 128, 1, kernel) for i in range(500)]
        obs = Obs()
        stats = run_pagoda(tasks, config=PagodaConfig(
            copy_inputs=False, copy_outputs=False, obs=obs))
        snapshots.append(stats.meta["stats_snapshot"])
        return len(stats.results)

    completed, wall = _best_of(run, repeats)
    return completed / wall, wall, snapshots[-1]


def bench_scheduler_wakes(repeats: int = 5):
    """Dirty-row mark/drain churn on a TaskTable -> wakes/s.

    Models the scheduler-warp wake path: writers flag random rows of a
    column, one wake claims the column's whole mask and walks only the
    set bits — the O(changed) replacement for the seed's 32-row rescan.
    """
    from repro.core.tasktable import TaskTable
    from repro.gpu.timing import TimingModel
    from repro.pcie.bus import PcieBus

    WAKES = 20_000
    ROWS = 32

    def run():
        eng = Engine()
        table = TaskTable(eng, PcieBus(eng, TimingModel()), 48, rows=ROWS)
        mark = table.mark_row_dirty
        take = table.take_dirty_rows
        visited = 0
        # a deterministic pseudo-random row stream (LCG; no RNG dep)
        state = 0x2545F491
        for wake in range(WAKES):
            col = wake % 48
            for _ in range(3):  # three writers per wake, typical load
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                mark(col, state % ROWS)
            mask = take(col)
            while mask:
                mask &= mask - 1
                visited += 1
        return WAKES

    wakes, wall = _best_of(run, repeats)
    return wakes / wall, wall


def bench_warptable_churn(repeats: int = 5):
    """Dispatch/retire churn on one WarpTable -> dispatches/s.

    Models pSched's inner loop: pick the lowest free slot from the
    ballot word, fill it, retire another — the O(1) replacement for the
    seed's materialized free-list rebuild per placement.
    """
    from repro.core.warptable import WarpTable

    OPS = 50_000

    def run():
        wt = WarpTable()
        dispatch = wt.dispatch
        retire = wt.retire
        lowest = wt.lowest_free
        busy = []
        for op in range(OPS):
            if busy and (op & 3) == 3 or wt.free_count == 0:
                retire(busy.pop())
            else:
                slot = lowest()
                dispatch(slot, warp_id=op & 31, e_num=op & 31,
                         sm_index=0, bar_id=-1, block_id=0)
                busy.append(slot)
        return OPS

    ops, wall = _best_of(run, repeats)
    return ops / wall, wall


def bench_serve_stack(repeats: int = 3):
    """End-to-end requests/s through the serving frontend (arrivals ->
    admission -> spawn -> latency accounting) -> requests/s."""
    from repro.serve import PoissonArrivals, TenantSpec, serve

    def kernel(task, block_id, warp_id):
        yield Phase(inst=2_000, mem_bytes=256)

    def run():
        tasks = [TaskSpec(f"t{i}", 128, 1, kernel) for i in range(500)]
        rep = serve([TenantSpec("bench", tasks,
                                PoissonArrivals(200_000.0, seed=1))])
        return rep.completed

    completed, wall = _best_of(run, repeats)
    return completed / wall, wall


def bench_cluster():
    """Fleet scenario sequentially vs process-sharded -> speedup ratio.

    The measurement asserts byte-identity of the two runs' fleet
    reports before returning any number, so the recorded
    ``cluster_speedup`` is always a ratio of two identical
    simulations.  Not best-of-N: one sharded run forks a worker pool,
    and the pool setup cost is part of what the number should reflect.
    """
    workers = min(CLUSTER_WORKERS, max(1, os.cpu_count() or 1))
    measured = bench_cluster_mod.measure_speedup(workers)
    return measured


def bench_cluster_degraded():
    """Fleet goodput over a 1%-lossy fabric -> virtual throughput.

    ``fleet_degraded_throughput`` is completions per *simulated*
    second under the reliability lane (retransmits, hedging), so it is
    deterministic: it tracks how much goodput the self-healing layer
    preserves, not host speed — and is therefore excluded from the
    generic wall-clock regression comparison.
    """
    return bench_cluster_mod.measure_degraded()


def bench_partition():
    """Noisy-neighbor scenario through shared/static/elastic modes.

    ``partition_p99_ratio`` (shared victim p99 over static victim p99
    — isolation must keep it > 1) and ``partition_elastic_recovery``
    (fraction of the shared-vs-static utilization gap the elastic
    rebalancer wins back) are virtual-time and deterministic, so they
    are excluded from the generic wall-clock regression comparison;
    any change is a semantic change in the partition manager.
    """
    from repro.bench import partition as bench_partition_mod

    start = time.perf_counter()
    results = bench_partition_mod.run(num_tasks=96)
    wall = time.perf_counter() - start
    return {
        "partition_p99_ratio": round(results["p99_shared_over_static"], 2),
        "partition_elastic_recovery":
            round(results["elastic_util_recovery"], 3),
        "partition_wall_s": round(wall, 4),
    }


def bench_scenarios():
    """The incident-scenario catalog, every scenario at its default
    seed.  Verdicts are virtual-time and deterministic; the guard is
    absolute (all must pass) and the per-scenario lines ride in the
    record so ``--json`` consumers see which scenario broke.  The
    ``paper`` layer's claims are left to the scenario check (they run
    whole bench artefacts, over a minute of wall time)."""
    from repro.scenarios import get, names, run_scenario

    start = time.perf_counter()
    results = [run_scenario(name) for name in names()
               if get(name).layer != "paper"]
    wall = time.perf_counter() - start
    return {
        "passed": sum(1 for r in results if r.passed),
        "total": len(results),
        "all_passed": all(r.passed for r in results),
        "lines": [r.summary_line() for r in results],
        "failures": [v.to_dict() for r in results for v in r.verdicts
                     if not v.passed],
        "wall_s": round(wall, 4),
    }


def bench_fig5_slice(repeats: int = 1):
    """Small Fig. 5 slice: full multi-runtime sweep wall time."""
    _, wall = _best_of(lambda: fig5.run(num_tasks=FIG5_SLICE_TASKS), repeats)
    return wall


def measure() -> dict:
    """Run every scenario and assemble the record."""
    events_per_s, events_wall = bench_engine_events()
    fan_per_s, fan_wall = bench_engine_fan()
    jobs_per_s, ps_wall = bench_ps_churn()
    tasks_per_s, pagoda_wall = bench_pagoda_stack()
    obs_tasks_per_s, obs_wall, stats_snapshot = bench_obs_overhead()
    wakes_per_s, wakes_wall = bench_scheduler_wakes()
    warp_ops_per_s, warp_wall = bench_warptable_churn()
    serve_per_s, serve_wall = bench_serve_stack()
    cluster_measured = bench_cluster()
    cluster_degraded = bench_cluster_degraded()
    partition_measured = bench_partition()
    scenarios_measured = bench_scenarios()
    fig5_wall = bench_fig5_slice()
    metrics = {
        "engine_events_per_s": round(events_per_s, 1),
        "engine_events_per_s_fan": round(fan_per_s, 1),
        "ps_jobs_per_s": round(jobs_per_s, 1),
        "pagoda_tasks_per_s": round(tasks_per_s, 1),
        "pagoda_tasks_per_s_obs": round(obs_tasks_per_s, 1),
        "obs_on_off_ratio": round(obs_tasks_per_s / tasks_per_s, 3),
        "scheduler_wakes_per_s": round(wakes_per_s, 1),
        "warptable_ops_per_s": round(warp_ops_per_s, 1),
        "serve_requests_per_s": round(serve_per_s, 1),
        "cluster_speedup": cluster_measured["cluster_speedup"],
        "fleet_degraded_throughput":
            cluster_degraded["fleet_degraded_throughput"],
        "partition_p99_ratio": partition_measured["partition_p99_ratio"],
        "partition_elastic_recovery":
            partition_measured["partition_elastic_recovery"],
    }
    return {
        "metrics": metrics,
        "wall_s": {
            "engine_ping_pong": round(events_wall, 4),
            "engine_fan": round(fan_wall, 4),
            "ps_churn": round(ps_wall, 4),
            "pagoda_stack": round(pagoda_wall, 4),
            "pagoda_stack_obs": round(obs_wall, 4),
            "scheduler_wakes": round(wakes_wall, 4),
            "warptable_churn": round(warp_wall, 4),
            "serve_stack": round(serve_wall, 4),
            "cluster_seq": cluster_measured["seq_wall_s"],
            "cluster_sharded": cluster_measured["par_wall_s"],
            "cluster_degraded": cluster_degraded["degraded_wall_s"],
            "partition_isolation": partition_measured["partition_wall_s"],
            "scenario_catalog": scenarios_measured["wall_s"],
            f"fig5_slice_{FIG5_SLICE_TASKS}_tasks": round(fig5_wall, 2),
        },
        "stats_snapshot": stats_snapshot,
        "scenarios": {k: v for k, v in scenarios_measured.items()
                      if k != "wall_s"},
        "cluster_workers": cluster_measured["workers"],
        # metrics introduced after the seed commit have no seed number
        # to compare against and are simply absent here
        "speedup_vs_seed": {
            key: round(metrics[key] / seed, 2)
            for key, seed in SEED_BASELINE.items()
            if key in metrics
        },
        "seed_baseline": SEED_BASELINE,
        "python": platform.python_version(),
        "recorded_unix_time": int(time.time()),
    }


def load_baseline(baseline_path: pathlib.Path):
    """The committed baseline's metrics, or ``None`` when unusable.

    Missing file, unparsable JSON, a record without a ``metrics``
    mapping, or non-numeric metric values all count as "no baseline" —
    the caller records a fresh one instead of crashing, so a first run
    (or a schema change in the record format) never breaks ``--check``.
    """
    if not baseline_path.exists():
        return None
    try:
        metrics = json.loads(baseline_path.read_text())["metrics"]
    except (ValueError, KeyError, TypeError):
        return None
    if not isinstance(metrics, dict) or not all(
            isinstance(v, (int, float)) for v in metrics.values()):
        return None
    return metrics


# Guard metrics with their own dedicated checks (the obs overhead
# ratio has a hard floor above) are excluded from
# the generic >20% throughput comparison: a ratio of two noisy timings
# swings far more run-to-run than either timing alone.
# ``fleet_degraded_throughput`` is excluded for the opposite reason —
# it is *virtual-time* throughput, deterministic by construction, so
# any change is a semantic change in the reliability lane, not a host
# perf regression the generic wall-clock guard should judge.
_NON_THROUGHPUT_METRICS = frozenset({"obs_on_off_ratio",
                                     "cluster_speedup",
                                     "fleet_degraded_throughput",
                                     "partition_p99_ratio",
                                     "partition_elastic_recovery"})


def check_regression(record: dict, baseline: dict) -> list:
    """Metrics that regressed >tolerance vs the committed baseline."""
    regressed = []
    for key, old in baseline.items():
        if key in _NON_THROUGHPUT_METRICS:
            continue
        new = record["metrics"].get(key)
        if new is None or old <= 0:
            continue
        if new < old * (1.0 - REGRESSION_TOLERANCE):
            regressed.append((key, old, new))
    return regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-fail", action="store_true",
                        help="warn on regression but exit 0")
    parser.add_argument("--check", "--check-only", dest="check_only",
                        action="store_true",
                        help="compare against the baseline without rewriting it")
    parser.add_argument("--output", type=pathlib.Path, default=OUTPUT,
                        help=f"record path (default: {OUTPUT})")
    parser.add_argument("--json", action="store_true",
                        help="emit the record as JSON on stdout; all "
                             "human-readable output moves to stderr so "
                             "the stream stays machine-parsable")
    args = parser.parse_args(argv)

    if args.json:
        def say(*a, **kw):
            print(*a, file=sys.stderr, **kw)
    else:
        say = print

    record = measure()
    #: guards that stood down on this host, with the reason — so a
    #: --json consumer can tell "passed" from "not run"
    record["skipped"] = []

    def finish(rc: int) -> int:
        # skipped guards are printed, not just recorded: a silent
        # stand-down in CI reads as "passed" when it was "not run"
        for item in record["skipped"]:
            say(f"skipped check: {item['check']} ({item['reason']})")
        if args.json:
            print(json.dumps(record, indent=2))
        return rc

    for key, value in record["metrics"].items():
        speedup = record["speedup_vs_seed"].get(key)
        vs_seed = f"({speedup:.2f}x vs seed)" if speedup else "(no seed ref)"
        say(f"{key:>24}: {value:>14,.1f}  {vs_seed}")
    for key, value in record["wall_s"].items():
        say(f"{key:>24}: {value:>12.3f} s")

    # the obs guard is absolute, not baseline-relative: instrumentation
    # overhead is a contract, so the floor applies from the first run
    ratio = record["metrics"].get("obs_on_off_ratio")
    if ratio is not None and ratio < OBS_OVERHEAD_FLOOR:
        say(f"\nWARNING: obs_on_off_ratio {ratio:.3f} is below the "
            f"{OBS_OVERHEAD_FLOOR} floor: observability costs more "
            "than its budget")
        if not args.no_fail:
            return finish(1)

    # the cluster floor is also absolute, but conditional on hardware:
    # one engine per worker process can only beat one process when the
    # host actually has the cores — on smaller machines the ratio is
    # recorded for the trajectory and the guard stands down
    cluster_speedup = record["metrics"].get("cluster_speedup")
    cores = os.cpu_count() or 1
    if cluster_speedup is not None and cores >= CLUSTER_WORKERS:
        if cluster_speedup < CLUSTER_SPEEDUP_FLOOR:
            say(f"\nWARNING: cluster_speedup {cluster_speedup:.2f}x at "
                f"{record.get('cluster_workers')} workers is below the "
                f"{CLUSTER_SPEEDUP_FLOOR}x floor: process sharding "
                "stopped paying for itself")
            if not args.no_fail:
                return finish(1)
    elif cluster_speedup is not None:
        say(f"\ncluster_speedup {cluster_speedup:.2f}x recorded "
            f"unguarded ({cores} cores < {CLUSTER_WORKERS} needed "
            "to demonstrate parallel speedup)")
        record["skipped"].append({
            "check": "cluster_speedup_floor",
            "reason": f"{cores} cores < {CLUSTER_WORKERS} needed to "
                      "demonstrate parallel speedup",
        })

    # the partition floors are absolute and deterministic: virtual-time
    # shape properties of the partition manager, guarded from run one
    p99_ratio = record["metrics"].get("partition_p99_ratio")
    if p99_ratio is not None and p99_ratio <= PARTITION_P99_RATIO_FLOOR:
        say(f"\nWARNING: partition_p99_ratio {p99_ratio:.2f} is not "
            f"above {PARTITION_P99_RATIO_FLOOR}: static partitioning "
            "stopped isolating the victim's tail from the aggressor")
        if not args.no_fail:
            return finish(1)
    recovery = record["metrics"].get("partition_elastic_recovery")
    if recovery is not None and recovery < PARTITION_RECOVERY_FLOOR:
        say(f"\nWARNING: partition_elastic_recovery {recovery:.3f} is "
            f"below the {PARTITION_RECOVERY_FLOOR} floor: the elastic "
            "rebalancer no longer wins back half the utilization gap")
        if not args.no_fail:
            return finish(1)

    # the scenario catalog is an absolute deterministic guard: every
    # incident scenario must pass its detectors on every run
    scen = record.get("scenarios") or {}
    say(f"\nscenario catalog: {scen.get('passed', 0)}/"
        f"{scen.get('total', 0)} passed")
    for line in scen.get("lines", []):
        say(f"  {line}")
    if scen and not scen.get("all_passed"):
        say("\nWARNING: incident-scenario catalog failed:")
        for failure in scen.get("failures", []):
            say(f"  FAIL {failure['detector']}: {failure['detail']}")
        if not args.no_fail:
            return finish(1)

    baseline = load_baseline(args.output)
    if baseline is None:
        # first run on this machine, or the record schema changed:
        # nothing comparable to guard against — record and succeed,
        # even under --check (a guard with no baseline must not fail)
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        say(f"no baseline, recording fresh: wrote {args.output}")
        return finish(0)

    regressed = check_regression(record, baseline)
    if not args.check_only:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        say(f"wrote {args.output}")

    if regressed:
        say(f"\nWARNING: throughput regressed >"
            f"{REGRESSION_TOLERANCE:.0%} vs committed baseline:")
        for key, old, new in regressed:
            say(f"  {key}: {old:,.1f} -> {new:,.1f} "
                f"({new / old - 1.0:+.1%})")
        if not args.no_fail:
            return finish(1)
    else:
        say("perf check ok: no metric regressed "
            f">{REGRESSION_TOLERANCE:.0%} vs baseline")
    return finish(0)


if __name__ == "__main__":
    sys.exit(main())
