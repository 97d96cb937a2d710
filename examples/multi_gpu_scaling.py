#!/usr/bin/env python
"""Scaling Pagoda across GPUs — the extension §8 leaves open.

The paper virtualizes ONE GPU at warp granularity; a node with several
GPUs can run one MasterKernel per device behind a load-balancing host.
This example measures how a GPU-saturating narrow-task storm scales
from 1 to 4 simulated Titan Xs, and exports a Chrome trace of the
2-GPU run (open in chrome://tracing or Perfetto).

Run:  python examples/multi_gpu_scaling.py
"""

import os
import tempfile

from repro.core import PagodaConfig, run_multi_gpu_pagoda
from repro.gpu.phases import Phase
from repro.tasks import TaskSpec
from repro.obs.perfetto import export_chrome_trace


def heavy_kernel(task, block_id, warp_id):
    """A compute-dense narrow task (keeps every executor warp busy)."""
    for _ in range(4):
        yield Phase(inst=40_000, mem_bytes=2048)


def main():
    tasks = [TaskSpec(f"t{i}", 128, 1, heavy_kernel) for i in range(800)]
    config = PagodaConfig(copy_inputs=False, copy_outputs=False)

    print(f"{len(tasks)} narrow tasks, 128 threads each\n")
    baseline = None
    for n_gpus in (1, 2, 4):
        stats = run_multi_gpu_pagoda(tasks, num_gpus=n_gpus, config=config)
        baseline = baseline or stats.makespan
        counts = [stats.meta["placements"].count(g) for g in range(n_gpus)]
        print(f"{n_gpus} GPU(s): makespan {stats.makespan / 1e6:7.2f} ms  "
              f"speedup {baseline / stats.makespan:4.2f}x  "
              f"occupancy {stats.mean_occupancy:.2f}  "
              f"placement {counts}")
        if n_gpus == 2:
            path = os.path.join(tempfile.gettempdir(),
                                "multi_gpu_trace.json")
            written = export_chrome_trace(stats, path)
            print(f"          -> {path} ({written} events)")


if __name__ == "__main__":
    main()
