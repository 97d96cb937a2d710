"""Noisy-neighbor isolation: shared vs partitioned vs elastic.

The scenario SR-IOV-style compute partitioning exists for: a steady
latency-sensitive tenant (the *victim*) shares a device with a bursty
batch tenant (the *aggressor*).  Three configurations run on the same
seed — identical arrival schedules and task lists:

- **shared**: one unpartitioned stack; both tenants contend for the
  same TaskTable, executor warps, issue slots, and DRAM.
- **static**: a DPX plan (2 x 12 SMMs); each tenant owns a partition
  with its own MasterKernel, table, PCIe function, and DRAM slice.
- **elastic**: the same DPX plan plus the epoch-driven rebalancer —
  the victim's idle SMMs migrate to the choked aggressor and its
  oversubscribed register quota borrows idle sibling headroom.

Reported per mode: the victim's p99, the aggressor's p99, device
utilization (issue-slot work served over issue-slot capacity), and the
elastic move count.  The shape the partition manager must deliver:
the victim's p99 improves strictly under static partitioning (bursts
no longer queue ahead of it), at a utilization price (the aggressor
cannot reach the victim's idle SMMs); elastic wins back at least half
of that utilization gap while keeping the victim's tail close to the
static bound.  All numbers are virtual-time and deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.reporting import format_table
from repro.gpu.phases import Phase, phase_table
from repro.partition import (
    ElasticConfig,
    PartitionedStack,
    PartitionPlan,
)
from repro.partition.serve import serve_partitioned
from repro.serve.arrivals import BurstyArrivals, PoissonArrivals
from repro.serve.server import ServeConfig, TaskServer, TenantSpec
from repro.tasks import TaskSpec

#: instruction-heavy tasks: per-thread lane work in warp-instruction
#: units (== ns at the per-warp issue cap)
VICTIM_INST = 2_000.0
AGGRESSOR_INST = 40_000.0
#: the victim stays narrow (2 warps); the aggressor is wide enough
#: (8 warps) that one burst oversubscribes every issue slot it can see
VICTIM_THREADS = 64
AGGRESSOR_THREADS = 256
#: victim: steady narrow requests; aggressor: saturating bursts
VICTIM_RATE_PER_S = 400_000.0
BURST_SIZE = 48
BURST_GAP_NS = 150.0
IDLE_GAP_NS = 120_000.0
#: elastic policy for the DPX plan; the victim may donate down to 4
#: SMMs, and the aggressor's register quota may oversubscribe 1.5x
ELASTIC = ElasticConfig(epoch_ns=30_000.0, high_util=0.4,
                        low_util=0.15, min_smms=4, quota_step=0.5,
                        moves_per_epoch=1)
OVERSUBSCRIBE = 1.5


@phase_table(lambda task, block_id, warp_id: task.work)
def _inst_kernel(task: TaskSpec, block_id: int, warp_id: int):
    """Four compute phases, a final write-back — no input streaming,
    so partition capacity (SMM issue slots) is the binding resource."""
    inst = task.work / 4.0
    for _ in range(3):
        yield Phase(inst=inst)
    yield Phase(inst=inst, mem_bytes=256.0)


def _make_tasks(prefix: str, n: int, inst: float, threads: int,
                regs: int = 32) -> List[TaskSpec]:
    return [
        TaskSpec(f"{prefix}{i}", threads_per_block=threads, num_blocks=1,
                 kernel=_inst_kernel, work=inst, regs_per_thread=regs)
        for i in range(n)
    ]


def _tenants(num_victim: int, num_aggressor: int, seed: int,
             partitioned: bool) -> List[TenantSpec]:
    victim = TenantSpec(
        "victim",
        _make_tasks("v", num_victim, VICTIM_INST, VICTIM_THREADS),
        PoissonArrivals(VICTIM_RATE_PER_S, seed=seed + 1),
        partition="victim" if partitioned else None,
    )
    aggressor = TenantSpec(
        "aggressor",
        _make_tasks("a", num_aggressor, AGGRESSOR_INST,
                    AGGRESSOR_THREADS, regs=64),
        BurstyArrivals(burst_size=BURST_SIZE, gap_in_burst_ns=BURST_GAP_NS,
                       idle_gap_ns=IDLE_GAP_NS, seed=seed + 2),
        partition="aggressor" if partitioned else None,
    )
    return [victim, aggressor]


def _plan(elastic: Optional[ElasticConfig]) -> PartitionPlan:
    return PartitionPlan.from_mode(
        "DPX", oversubscribe=OVERSUBSCRIBE, elastic=elastic,
        names=["victim", "aggressor"],
    )


def _issue_utilization(gpu, makespan_ns: float) -> float:
    """Device-wide issue-slot utilization: warp-instructions actually
    issued over the issue capacity available during the run.  Unlike a
    resident-warp integral this does not reward queueing — warps
    parked behind a saturated scheduler add nothing."""
    served = sum(smm.issue.served_integral() for smm in gpu.smms)
    cap = sum(smm.issue.rate for smm in gpu.smms) * makespan_ns
    return served / cap if cap > 0 else 0.0


def _cell(reports, utilization: float, moves: int) -> Dict[str, float]:
    makespan = max(r.makespan_ns for r in reports)
    stats = {}
    for rep in reports:
        for tenant, st in rep.tenant_stats.items():
            stats[tenant] = st
    return {
        "victim_p99_us": stats["victim"]["hist"].percentile(99) / 1e3,
        "aggressor_p99_us":
            stats["aggressor"]["hist"].percentile(99) / 1e3,
        "completed": float(sum(r.completed for r in reports)),
        "makespan_us": makespan / 1e3,
        "utilization": utilization,
        "moves": float(moves),
    }


def _run_shared(tenants: List[TenantSpec]) -> Dict[str, float]:
    config = ServeConfig(label="shared")
    server = TaskServer(tenants, config)
    report = server.run()
    util = _issue_utilization(server.sessions[0].gpu,
                              report.makespan_ns)
    return _cell([report], util, moves=0)


def _run_partitioned(tenants: List[TenantSpec],
                     elastic: Optional[ElasticConfig],
                     label: str) -> Dict[str, float]:
    plan = _plan(elastic)
    config = ServeConfig(partition=plan, label=label)
    stack = PartitionedStack(plan)
    reports = serve_partitioned(tenants, config, stack=stack)
    makespan = max(r.makespan_ns for r in reports.values())
    util = _issue_utilization(stack.gpu, makespan)
    return _cell(list(reports.values()), util, moves=len(stack.moves))


def run(num_tasks: int = 96, seed: int = 0) -> Dict:
    """One victim/aggressor pair through all three modes, same seed."""
    num_victim = 2 * num_tasks
    num_aggressor = 2 * num_tasks
    results = {
        "shared": _run_shared(
            _tenants(num_victim, num_aggressor, seed, False)),
        "static": _run_partitioned(
            _tenants(num_victim, num_aggressor, seed, True),
            None, "static"),
        "elastic": _run_partitioned(
            _tenants(num_victim, num_aggressor, seed, True),
            ELASTIC, "elastic"),
    }
    shared, static, elastic = (results[m]["utilization"]
                               for m in ("shared", "static", "elastic"))
    gap = shared - static
    recovery = (elastic - static) / gap if gap > 0 else 1.0
    return {
        "num_victim": num_victim,
        "num_aggressor": num_aggressor,
        "results": results,
        "p99_shared_over_static":
            results["shared"]["victim_p99_us"]
            / results["static"]["victim_p99_us"],
        "elastic_util_recovery": recovery,
    }


def report(results: Dict) -> str:
    """Render the experiment's text report."""
    modes = ["shared", "static", "elastic"]
    metrics = [("victim_p99_us", "victim p99 (us)", 1),
               ("aggressor_p99_us", "aggressor p99 (us)", 1),
               ("utilization", "device utilization", 3),
               ("makespan_us", "makespan (us)", 1),
               ("completed", "completed", 0),
               ("moves", "elastic SMM moves", 0)]
    rows = []
    for key, label, digits in metrics:
        rows.append([label] + [round(results["results"][m][key], digits)
                               for m in modes])
    table = format_table(
        ["metric"] + modes, rows,
        title=(f"PARTITION: noisy-neighbor isolation, "
               f"{results['num_victim']} victim + "
               f"{results['num_aggressor']} aggressor tasks"),
    )
    shape = (
        f"\nShape check: static partitioning cuts the victim's p99 "
        f"{results['p99_shared_over_static']:.1f}x vs shared (must be "
        f">1), at a device-utilization cost; the elastic rebalancer "
        f"recovers {100 * results['elastic_util_recovery']:.0f}% of "
        f"that utilization gap (target: >=50%) by lending the "
        f"victim's idle SMMs to the aggressor between bursts."
    )
    return table + shape
