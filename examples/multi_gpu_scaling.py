#!/usr/bin/env python
"""Scaling Pagoda across GPUs — the extension §8 leaves open.

The paper virtualizes ONE GPU at warp granularity; a node with several
GPUs can run one MasterKernel per device behind a load-balancing host.
This example offers a GPU-saturating narrow-task storm to a serve node
of 1, 2 and 4 simulated Titan Xs (every task arrives at t=0), prints
how the makespan scales, and exports a Chrome trace of the 2-GPU run
(open in chrome://tracing or Perfetto).

Run:  python examples/multi_gpu_scaling.py
"""

import os
import tempfile

from repro.core import PagodaConfig
from repro.gpu.phases import Phase
from repro.obs.perfetto import export_chrome_trace
from repro.serve import DeterministicArrivals, ServeConfig, TenantSpec, serve
from repro.tasks import TaskSpec


def heavy_kernel(task, block_id, warp_id):
    """A compute-dense narrow task (keeps every executor warp busy)."""
    for _ in range(4):
        yield Phase(inst=40_000, mem_bytes=2048)


def main():
    tasks = [TaskSpec(f"t{i}", 128, 1, heavy_kernel) for i in range(800)]
    pagoda = PagodaConfig(copy_inputs=False, copy_outputs=False)

    print(f"{len(tasks)} narrow tasks, 128 threads each\n")
    baseline = None
    for n_gpus in (1, 2, 4):
        storm = TenantSpec("storm", tasks, DeterministicArrivals(0.0))
        report = serve([storm], ServeConfig(pagoda=pagoda, num_gpus=n_gpus))
        makespan = report.makespan_ns
        baseline = baseline or makespan
        counts = [sum(r.gpu_index == g for r in report.requests)
                  for g in range(n_gpus)]
        print(f"{n_gpus} GPU(s): makespan {makespan / 1e6:7.2f} ms  "
              f"speedup {baseline / makespan:4.2f}x  "
              f"p99 {report.p99_us:8.1f} us  "
              f"placement {counts}")
        if n_gpus == 2:
            path = os.path.join(tempfile.gettempdir(),
                                "multi_gpu_trace.json")
            written = export_chrome_trace(report.run_stats(), path)
            print(f"          -> {path} ({written} events)")


if __name__ == "__main__":
    main()
