"""Shared plumbing for the chaos suite.

Every chaos test drives a *small* Pagoda stack (2 SMMs -> 4 MTB
columns) so a 50-seed sweep stays cheap, and builds its workload from
a seeded RNG so any failing seed replays exactly.
"""

import random

from repro.gpu.phases import BLOCK_SYNC, Phase
from repro.gpu.spec import GpuSpec
from repro.serve import DeterministicArrivals, ServeConfig, TenantSpec
from repro.serve.server import TaskServer
from repro.tasks import TaskSpec

#: MTB columns of the chaos GPU (num_smms * MTBS_PER_SMM).
CHAOS_COLUMNS = 4


def chaos_spec() -> GpuSpec:
    """A 2-SMM Maxwell-like GPU: full per-SMM limits, tiny device."""
    return GpuSpec(
        name="chaos-2smm",
        num_smms=2,
        cores_per_smm=128,
        max_warps_per_smm=64,
        max_blocks_per_smm=32,
        max_threads_per_block=1024,
        registers_per_smm=64 * 1024,
        shared_mem_per_smm=96 * 1024,
        max_shared_mem_per_block=48 * 1024,
        register_alloc_unit=256,
        clock_ghz=1.0,
        dram_bandwidth_gbps=336.0,
        hyperq_connections=32,
    )


def serve_batch(tasks, num_gpus, pagoda, spec=None):
    """Offer every task at t=0 from one tenant to a ``num_gpus`` serve
    node and run it; returns the finished server (it keeps the
    failover record) and its report."""
    server = TaskServer(
        [TenantSpec("batch", tasks, DeterministicArrivals(0.0))],
        ServeConfig(pagoda=pagoda, num_gpus=num_gpus), spec)
    return server, server.run()


def const_kernel(inst, mem=0.0):
    def kernel(task, block_id, warp_id):
        yield Phase(inst=float(inst), mem_bytes=float(mem))
    return kernel


def sync_kernel(task, block_id, warp_id):
    for _ in range(2):
        yield Phase(inst=400.0 * (warp_id + 1))
        yield BLOCK_SYNC
    yield Phase(inst=100.0)


def chaos_tasks(seed: int, count: int = 18):
    """A seeded hostile mix: plain, synchronizing, shared-memory."""
    rng = random.Random(seed * 7919 + 11)
    tasks = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            tasks.append(TaskSpec(
                f"plain{i}", 32 * rng.randrange(1, 7), 1,
                const_kernel(rng.randrange(500, 6000)),
            ))
        elif kind == 1:
            tasks.append(TaskSpec(
                f"sync{i}", 96, 2, sync_kernel, needs_sync=True,
            ))
        else:
            tasks.append(TaskSpec(
                f"smem{i}", 64, 1, const_kernel(rng.randrange(500, 4000)),
                shared_mem_bytes=rng.choice([512, 2048, 8192]),
            ))
    return tasks
