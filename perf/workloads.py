"""The benchmark's four workloads, each a list of short simulation cells.

A workload is built from a seed in two steps.  :func:`build` makes the
inputs (task lists, arrival processes, fault plans, topologies) and
wraps each cell's call into the program as a :class:`Cell`; running a
cell returns an :class:`Outcome` with the canonical digest of what the
simulator produced, its simulated-time statistics and any broken
invariant.  Per-run objects that carry state through a run (admission
policies, ``Obs`` contexts, configs) are created inside the cell so
that every repetition starts from the same inputs.

Cells stay at or below ~0.3 s of host time on a 2-core host: the
calibration that normalises their wall time (``calibrate.py``) only
tracks host-speed swings that are slower than a cell.

Entry points are called through their modules (``harness.run_tasks``,
``core.run_pagoda``, ``serve_pkg.serve``, ``cluster.run_cluster``) so
that ``trace.py`` can wrap them from outside.  No ``lane=`` is passed
anywhere: every cell runs its entry point's default engine.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import repro.cluster as cluster
import repro.core as core
import repro.serve as serve_pkg
from repro.bench import fig5, harness
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.obs import Obs
from repro.serve.histogram import LatencyHistogram
from repro.serve.slo import SloClass
from repro.tasks import TaskSpec

NAMES = ("fig5_grid", "narrow_stream", "serve_obs", "fleet_lossy")
#: the latency tenant of serve_obs and fleet_lossy, whose deadline
#: accounting ``sim_deadline_met_pct`` reports
LAT = "lat"

# fig5_grid: the paper's Fig. 5 grid at harness scale
FIG5_TASKS = 512
FIG5_RUNTIMES = ("sequential", "pthreads", "hyperq", "gemtc", "pagoda")

# narrow_stream: single-warp tasks arriving every 4.3 us, ~80% of the
# Pagoda batch capacity for these kernels
NARROW_KERNELS = ("3des", "mb", "conv", "dct")
NARROW_SEEDS = 4
NARROW_TASKS = 750
NARROW_THREADS = 32
NARROW_GAP_NS = 4300.0

# serve_obs: a latency tenant and a bursty batch tenant behind a token
# bucket, with an Obs context attached as every scenario does
SERVE_CELLS = 12
SERVE_REQUESTS = 250
SERVE_LAT_RATE = 1.5e6
SERVE_LAT_DEADLINE_NS = 2e6
SERVE_BURST = (32, 200.0, 30_000.0)
SERVE_BUCKET = (3e6, 16)

# fleet_lossy: 8 nodes over a 2%-lossy fabric (the reliable lane)
FLEET_CELLS = 12
FLEET_NODES = 8
FLEET_LINK_NS = 20_000.0
FLEET_REQUESTS = 150
FLEET_LAT_RATE = 4e5
FLEET_BAT_RATE = 2e5
FLEET_LAT_DEADLINE_NS = 1e6
FLEET_DROP_RATE = 0.02


@dataclass
class Outcome:
    """What one cell execution produced."""

    #: sha256 of the cell's canonical output.
    digest: str
    #: completed tasks (fig5_grid, narrow_stream) or requests.
    completed: int
    #: arrival-to-completion latencies of the completed ones.
    latency: LatencyHistogram
    #: simulated makespan, ns.
    makespan_ns: float
    #: broken invariants (empty when the output is consistent).
    errors: List[str] = field(default_factory=list)
    #: offered / dropped / failed requests and the latency tenant's
    #: deadline accounting (serve_obs, fleet_lossy).
    offered: int = 0
    dropped: int = 0
    failed: int = 0
    lat_offered: int = 0
    lat_good: int = 0
    #: the program's own report or RunStats, for per-layer metrics.
    report: object = None


@dataclass
class Cell:
    """One simulation call on prebuilt inputs."""

    name: str
    #: grouping key of per-runtime splits (a fig5 runtime, else the
    #: workload name).
    runtime: str
    run: Callable[[], Outcome]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stats_outcome(stats, expected: int) -> Outcome:
    """Outcome of a ``RunStats`` run (fig5_grid, narrow_stream)."""
    hist = LatencyHistogram()
    errors = []
    times = []
    for r in stats.results:
        if not r.end_time >= r.spawn_time >= 0.0:
            errors.append(f"task {r.task_id} ends before it spawns")
        hist.record(max(0.0, r.latency))
        times.append((r.spawn_time, r.end_time))
    if len(stats.results) != expected:
        errors.append(f"{len(stats.results)} results for {expected} tasks")
    if not stats.makespan > 0.0:
        errors.append(f"non-positive makespan {stats.makespan!r}")
    return Outcome(
        digest=_sha(repr((stats.makespan, times))),
        completed=len(stats.results), latency=hist,
        makespan_ns=stats.makespan, errors=errors, report=stats)


def _conserved(offered, completed, failed, dropped) -> List[str]:
    if offered != completed + failed + dropped:
        return [f"offered {offered} != completed {completed} + failed "
                f"{failed} + dropped {dropped}"]
    return []


# -- fig5_grid ------------------------------------------------------------------

def _fig5_cells(seed: int) -> List[Cell]:
    cells = []
    for kernel in fig5.WORKLOADS:
        tasks = harness.make_tasks(kernel, FIG5_TASKS,
                                   fig5.THREADS_PER_TASK, seed)
        for runtime in FIG5_RUNTIMES:
            if kernel == "slud" and runtime == "gemtc":
                continue  # GeMTC needs a static task count (paper 6.2)

            def run(tasks=tasks, runtime=runtime):
                return stats_outcome(harness.run_tasks(tasks, runtime),
                                      len(tasks))
            cells.append(Cell(f"{kernel}/{runtime}", runtime, run))
    return cells


def paper_err_pct(cells: List[Cell], outcomes: List[Outcome]) -> float:
    """Mean over PThreads, HyperQ and GeMTC of |measured Pagoda geomean
    speedup / paper geomean - 1| x 100, from one rep of fig5_grid."""
    per_kernel: Dict[str, Dict[str, object]] = {}
    for cell, out in zip(cells, outcomes):
        kernel, runtime = cell.name.split("/")
        per_kernel.setdefault(kernel, {})[runtime] = out.report
    speedups = {k: harness.speedups_vs(v, "sequential")
                for k, v in per_kernel.items()}
    errs = []
    for runtime, paper in fig5.PAPER_GEOMEANS.items():
        contributing = {k: v for k, v in speedups.items() if runtime in v}
        measured = (harness.geomean_speedup(contributing, "pagoda")
                    / harness.geomean_speedup(contributing, runtime))
        errs.append(abs(measured / paper - 1.0) * 100.0)
    return sum(errs) / len(errs)


# -- narrow_stream --------------------------------------------------------------

def _narrow_cells(seed: int) -> List[Cell]:
    cells = []
    for kernel in NARROW_KERNELS:
        for k in range(NARROW_SEEDS):
            tasks = harness.make_tasks(kernel, NARROW_TASKS, NARROW_THREADS,
                                       seed * NARROW_SEEDS + k)

            def run(tasks=tasks):
                stats = core.run_pagoda(tasks, config=core.PagodaConfig(
                    open_loop=True, spawn_gap_ns=NARROW_GAP_NS))
                return stats_outcome(stats, len(tasks))
            cells.append(Cell(f"{kernel}/{k}", "narrow_stream", run))
    return cells


# -- serve_obs ------------------------------------------------------------------

def serve_outcome(report) -> Outcome:
    errors = _conserved(report.offered, report.completed, report.failed,
                        report.dropped)
    if report.admitted != report.completed + report.failed:
        errors.append(f"admitted {report.admitted} != completed "
                      f"{report.completed} + failed {report.failed}")
    stats = report.tenant_stats[LAT]
    return Outcome(
        digest=_sha(report.to_json()), completed=report.completed,
        latency=report.hist_total, makespan_ns=report.makespan_ns,
        errors=errors, offered=report.offered, dropped=report.dropped,
        failed=report.failed, lat_offered=stats["offered"],
        lat_good=stats["good"], report=report)


def _serve_cells(seed: int, obs: bool = True) -> List[Cell]:
    cells = []
    for j in range(SERVE_CELLS):
        cell_seed = seed * SERVE_CELLS + j
        tenants = [
            serve_pkg.TenantSpec(
                LAT, harness.make_tasks("3des", SERVE_REQUESTS,
                                          seed=cell_seed),
                serve_pkg.PoissonArrivals(SERVE_LAT_RATE, seed=cell_seed),
                slo=SloClass(LAT, deadline_ns=SERVE_LAT_DEADLINE_NS)),
            serve_pkg.TenantSpec(
                "bat", harness.make_tasks("mm", SERVE_REQUESTS,
                                          seed=cell_seed),
                serve_pkg.BurstyArrivals(*SERVE_BURST)),
        ]

        def run(tenants=tenants):
            config = serve_pkg.ServeConfig(
                policy=serve_pkg.TokenBucket(*SERVE_BUCKET))
            if obs:
                config.pagoda.obs = Obs(profile=False)
            return serve_outcome(serve_pkg.serve(tenants, config))
        cells.append(Cell(f"serve/{j}", "serve_obs", run))
    return cells


# -- fleet_lossy ----------------------------------------------------------------

def fleet_kernel(task, block_id, warp_id):
    """Two-phase warp body of the fleet tenants (module level so task
    specs stay picklable)."""
    yield Phase(inst=4_000.0, mem_bytes=512)
    yield Phase(inst=4_000.0, mem_bytes=512)


def fleet_outcome(report) -> Outcome:
    frontier = report.frontier
    totals = report.totals()
    errors = _conserved(frontier["offered"], frontier["completed"],
                        frontier["failed"], frontier["dropped"])
    errors += _conserved(totals["offered"], totals["completed"],
                         totals["failed"], totals["dropped"])
    lat_offered = lat_good = 0
    for node in report.node_reports.values():
        stats = node.tenant_stats.get(LAT)
        if stats is not None:
            lat_offered += stats["offered"]
            lat_good += stats["good"]
    return Outcome(
        digest=_sha(report.to_json()), completed=frontier["completed"],
        latency=report.merged_hist(), makespan_ns=report.makespan_ns,
        errors=errors, offered=frontier["offered"],
        dropped=frontier["dropped"], failed=frontier["failed"],
        lat_offered=lat_offered, lat_good=lat_good, report=report)


def _fleet_cells(seed: int) -> List[Cell]:
    topology = cluster.Topology(
        nodes=[cluster.NodeSpec(f"n{i}") for i in range(FLEET_NODES)],
        link_ns=FLEET_LINK_NS)
    cells = []
    for j in range(FLEET_CELLS):
        cell_seed = seed * FLEET_CELLS + j

        def tasks(prefix):
            return [TaskSpec(f"{prefix}{i % 4}", 64, 2, fleet_kernel)
                    for i in range(FLEET_REQUESTS)]
        tenants = [
            serve_pkg.TenantSpec(
                LAT, tasks("lat"),
                serve_pkg.PoissonArrivals(FLEET_LAT_RATE, seed=2 * cell_seed),
                slo=SloClass(LAT, deadline_ns=FLEET_LAT_DEADLINE_NS)),
            serve_pkg.TenantSpec(
                "bat", tasks("bat"),
                serve_pkg.PoissonArrivals(FLEET_BAT_RATE,
                                          seed=2 * cell_seed + 1)),
        ]
        plan = FaultPlan(specs=[FaultSpec(
            kind="fabric.link.drop", meta={"rate": FLEET_DROP_RATE})],
            seed=cell_seed)

        def run(tenants=tenants, plan=plan):
            report = cluster.run_cluster(
                tenants, topology,
                router=cluster.ConsistentHashRouter(topology, key="request"),
                workers=0, fabric_plan=plan)
            return fleet_outcome(report)
        cells.append(Cell(f"fleet/{j}", "fleet_lossy", run))
    return cells


_CELL_MAKERS = {
    "fig5_grid": _fig5_cells,
    "narrow_stream": _narrow_cells,
    "serve_obs": _serve_cells,
    "fleet_lossy": _fleet_cells,
}


def build(name: str, seed: int) -> List[Cell]:
    """The cells of workload ``name`` with inputs made from ``seed``."""
    if name not in _CELL_MAKERS:
        raise KeyError(f"unknown workload {name!r}; have {list(NAMES)}")
    return _CELL_MAKERS[name](seed)


def build_serve_without_obs(seed: int) -> List[Cell]:
    """serve_obs with the Obs context detached (``obs.on_off_ratio``)."""
    return _serve_cells(seed, obs=False)


def percentile_us(hists: List[LatencyHistogram], pct: float) -> float:
    """``pct`` percentile of the merged histograms, microseconds."""
    merged = LatencyHistogram()
    for hist in hists:
        merged.merge(hist)
    return merged.percentile(pct) / 1e3
