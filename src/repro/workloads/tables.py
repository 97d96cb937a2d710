"""Tables 3 and 4 of the paper, as queryable metadata.

Table 1 (the API) lives in :mod:`repro.core.api`, Table 2 (WarpTable
fields) in :mod:`repro.core.warptable`; this module holds the
benchmark-facing tables so the whole paper's tabular content is
embodied in code and cross-checked against the registry by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.workloads import REGISTRY


@dataclass(frozen=True)
class BenchmarkFacts:
    """One row of Tables 3 + 4."""

    name: str
    source: str
    task_type: str  # "Regular" | "Irregular"
    input_set: str
    paper_num_tasks: int
    paper_copy_pct: int
    paper_compute_pct: int
    benefits_shared_mem: bool
    requires_sync: bool
    default_regs: int
    description: str


TABLE34: Dict[str, BenchmarkFacts] = {
    "mb": BenchmarkFacts(
        "mb", "Quinn", "Irregular", "64 x 64 images", 32 * 1024,
        24, 76, False, False, 28,
        "Mandelbrot sets are used in fractal analysis; the computation "
        "per pixel is highly irregular, so each tile is a narrow task.",
    ),
    "fb": BenchmarkFacts(
        "fb", "StreamIt", "Regular", "Signals of width 2K", 32 * 1024,
        35, 65, False, True, 21,
        "Filterbank separates input signals into sub-signals with a "
        "set of filters; each radio's signal is one task.",
    ),
    "bf": BenchmarkFacts(
        "bf", "StreamIt", "Regular", "Signals of width 2K", 32 * 1024,
        13, 87, False, False, 34,
        "Beamformer controls the direction of signal reception; each "
        "beam's asynchronous input is a narrow task.",
    ),
    "conv": BenchmarkFacts(
        "conv", "CUDA SDK", "Regular", "128 x 128 images", 32 * 1024,
        30, 70, False, False, 25,
        "Convolution filters for blur/edge detection; each filter "
        "operation is a task parallel across pixels.",
    ),
    "dct": BenchmarkFacts(
        "dct", "CUDA SDK", "Regular", "128 x 128 images", 32 * 1024,
        81, 19, True, True, 33,
        "8x8 DCT as used by JPEG/MP3/MPEG; surveillance systems "
        "process images from many camera streams in parallel.",
    ),
    "mm": BenchmarkFacts(
        "mm", "CUDA SDK", "Regular", "64 x 64 matrix", 32 * 1024,
        51, 49, True, True, 30,
        "Small matrix multiplications as in an earthquake-engineering "
        "simulator concurrently simulating many structures.",
    ),
    "slud": BenchmarkFacts(
        "slud", "OpenMP Task Suite", "Irregular", "32 x 32 matrix",
        273 * 1024, 3, 97, False, False, 17,
        "Sparse LU via the multifrontal method; iteration-dependent "
        "computation sizes make it a task-based application.",
    ),
    "3des": BenchmarkFacts(
        "3des", "NIST", "Irregular", "Network packets sized 2K-64K",
        32 * 1024, 74, 26, False, False, 26,
        "Routers encrypt packets as they arrive; NetBench generates "
        "the varied packet sizes that 3DES encrypts.",
    ),
    "mpe": BenchmarkFacts(
        "mpe", "paper's own", "Irregular", "mix of 4 benchmarks",
        32 * 1024, -1, -1, True, True, 30,
        "Multi-programmed environment: 8K tasks each of 3DES and "
        "Mandelbrot (irregular), Filterbank (sync), and MatrixMul "
        "(shared memory).",
    ),
}


def check_consistency() -> None:
    """Cross-check Table 3/4 facts against the live registry."""
    for name, facts in TABLE34.items():
        workload = REGISTRY.get(name)
        if workload.regs_per_thread != facts.default_regs:
            raise AssertionError(
                f"{name}: registry regs {workload.regs_per_thread} != "
                f"table {facts.default_regs}"
            )
        if workload.uses_shared_mem != facts.benefits_shared_mem:
            raise AssertionError(f"{name}: shared-memory flag mismatch")
        if workload.needs_sync != facts.requires_sync:
            raise AssertionError(f"{name}: sync flag mismatch")
