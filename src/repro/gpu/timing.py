"""Calibrated cost constants for the timing model.

All times are nanoseconds; at the Titan X's 1 GHz, one cycle == 1 ns so
instruction counts read directly as nanoseconds when a warp runs at its
issue cap.

Calibration policy (DESIGN.md §4): constants were set once from public
hardware characteristics (launch overheads, PCIe latencies, DRAM
bandwidth) plus the paper's own measurements (e.g. Table 3's data-copy
fractions imply the copy-vs-compute balance), then frozen.  Experiments
vary *workloads and runtimes*, never these constants.

This module also hosts :func:`ps_completion_times`, the closed-form
completion times of a processor-sharing pool's resident jobs, as a
plain running-sum recurrence.  It is an oracle for the event loop
(``tests/differential/`` compares the two), not on its hot path: there
the lockstep warps of a block already travel as one weight-``k`` pool
entry (:meth:`repro.gpu.smm.Smm.run_phases`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


def ps_completion_times(
    now: float,
    v: float,
    finish_tags: Sequence[float],
    rate: float,
    per_job_cap: float,
) -> List[float]:
    """Closed-form completion times of every resident job of a
    processor-sharing pool, assuming no further arrivals.

    Jobs are described by their virtual-time finish tags (ascending);
    job ``k`` completes when the pool's virtual clock reaches its tag.
    While ``n`` jobs remain the clock advances at ``min(cap, rate/n)``,
    so completions follow tag by tag from one running sum.

    This is the *oracle* for per-SMM warp completion: the differential
    suite compares it against event-loop timings.
    """
    tags = sorted(finish_tags)
    out = []
    t = now
    prev = v
    n = len(tags)
    for k, tag in enumerate(tags):
        r = min(per_job_cap, rate / (n - k))
        t = t + (tag - prev) / r
        prev = tag
        out.append(t)
    return out


@dataclass(frozen=True)
class TimingModel:
    """Cost constants shared by all runtimes on the simulated node."""

    # --- GPU kernel machinery -------------------------------------------
    #: Host-side cost to push one asynchronous kernel launch into the
    #: CUDA runtime (driver call, command buffer write).
    kernel_launch_ns: float = 2_000.0
    #: Hardware delay for the GigaThread engine to place one threadblock
    #: on an SMM once resources are free.
    block_dispatch_ns: float = 80.0
    #: Fixed per-phase issue latency a warp pays besides its instruction
    #: stream (pipeline fill, dependency stalls).
    phase_overhead_ns: float = 20.0
    #: Per-phase DRAM access latency a warp exposes when the phase
    #: touches memory.  This stall is private to the warp — *other*
    #: resident warps keep issuing — which is exactly why occupancy
    #: matters (§2): a GPU with few resident warps cannot hide it.
    mem_latency_ns: float = 350.0
    #: Dependency-stall cycles per issued instruction, private to the
    #: warp (RAW hazards, pipeline latency).  A lone warp sustains an
    #: IPC of 1/(1+ratio); an SMM needs ~(1+ratio) x 4 resident warps
    #: to saturate its 4 issue slots.  At 2.0, HyperQ's 32 narrow
    #: kernels (~5 warps/SMM) reach ~44 % of peak issue while the
    #: MasterKernel's 62 warps/SMM saturate it — reproducing Fig. 7's
    #: ~2.3x compute-side gap.
    warp_stall_ratio: float = 2.0

    # --- PCIe ------------------------------------------------------------
    #: Per-cudaMemcpyAsync fixed cost (driver + DMA setup, pipelined on
    #: the copy engine).
    pcie_transaction_ns: float = 1_200.0
    #: Host-side driver time to *issue* one cudaMemcpyAsync.  Charged
    #: to whichever host thread makes the call — per-task in+out copies
    #: put 2 x this on HyperQ's launch thread, while Pagoda's second
    #: host thread absorbs the output-copy issues (Fig. 1a's two
    #: OpenMP tasks).
    memcpy_issue_ns: float = 1_200.0
    #: Sustained PCIe gen3 x16 bandwidth, bytes per ns (== GB/s).
    pcie_bandwidth_bpns: float = 12.0
    #: One-way visibility latency of a zero-copy (mapped, volatile)
    #: store, e.g. a TaskTable flag update observed by the polling GPU.
    mapped_write_ns: float = 900.0
    #: Serialization cost per posted TaskTable entry write on the
    #: host->device path.  Entry spawns are small mapped-memory writes,
    #: pipelined back-to-back — not DMA transactions — which is what
    #: gives Pagoda its high spawn rate (§4.2).
    entry_post_ns: float = 300.0

    # --- Pagoda / persistent-kernel software costs -----------------------
    #: Scheduler-warp cost to examine one TaskTable entry (load + branch
    #: over PCIe-visible memory).
    poll_iteration_ns: float = 120.0
    #: Cost of one pSched pass finding executor warps (Algorithm 2):
    #: warp-wide ballot + shared-memory atomics.
    psched_pass_ns: float = 180.0
    #: Buddy-tree shared memory alloc/dealloc, performed warp-parallel
    #: over the 128-node tree (§5.1).
    smem_alloc_ns: float = 90.0
    #: Acquire/release of a named barrier ID (§5.2).
    barrier_mgmt_ns: float = 40.0
    #: Cost per syncBlock() arrival (bar.sync on a named barrier).
    named_barrier_ns: float = 30.0
    #: Native __syncthreads() arrival cost, for CUDA-side kernels.
    syncthreads_ns: float = 20.0

    # --- GeMTC ------------------------------------------------------------
    #: Cost of one pop from GeMTC's single FIFO work queue: a
    #: global-memory atomic under contention from every worker block
    #: (the "significant task scheduling overhead" of §7).
    gemtc_pop_ns: float = 500.0
    #: Host-side cost to assemble and submit one GeMTC batch.
    gemtc_batch_submit_ns: float = 4_000.0
    #: Host-side cost per task to marshal its descriptor and device
    #: buffers into a GeMTC batch (GeMTC manages device memory per
    #: task, unlike HyperQ's single launch call).
    gemtc_task_setup_ns: float = 1_200.0
    #: Host-side cost per sub-task to marshal its parameters into the
    #: statically fused kernel's argument arrays (§6.3's fusion still
    #: gathers every task's inputs before the one launch).
    fusion_task_setup_ns: float = 1_000.0

    # --- CPU --------------------------------------------------------------
    #: Xeon E5-2660 v3 at 2.6 GHz; effective scalar+SIMD throughput in
    #: "warp-instruction equivalents" per ns.  A warp instruction is 32
    #: lanes of work; a CPU core retires ~4 scalar ops/cycle with AVX
    #: giving roughly 10 lane-ops/ns -> ~0.33 warp-inst-equivalents.
    cpu_core_warpinst_per_ns: float = 0.33
    #: Per-task overhead of a PThreads pool dispatch (mutex + wakeup).
    pthread_dispatch_ns: float = 1_500.0
    #: Serialized pthread_create cost per task in the spawning thread.
    #: The paper's strongest CPU contender is "PThreads-based task
    #: parallelism" (§6.2) — a thread per task; creation is the serial
    #: bottleneck that keeps 20 cores from scaling on narrow tasks.
    pthread_create_ns: float = 15_000.0
    #: Host DRAM bandwidth available to one core, bytes per ns.
    cpu_mem_bandwidth_bpns: float = 8.0
    #: Host-side cost of the Pagoda taskSpawn path (find entry, fill
    #:  parameters) excluding the PCIe copy itself.
    spawn_cpu_ns: float = 700.0
    #: Timeout after which wait()/waitAll() force a TaskTable copy-back
    #: (§4.2.2: "these functions therefore use a timeout").
    wait_timeout_ns: float = 50_000.0
    #: Host back-off between copy-back retries while hunting for a free
    #: TaskTable entry.
    host_retry_ns: float = 3_000.0

    def dram_bytes_per_ns(self, bandwidth_gbps: float) -> float:
        """GB/s -> bytes/ns (numerically identical; named for clarity)."""
        return bandwidth_gbps


DEFAULT_TIMING = TimingModel()
