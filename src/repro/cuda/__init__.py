"""CUDA runtime model: kernels, streams, HyperQ, block-level dispatch.

This is the baseline execution model Pagoda is measured against.  Its
defining property (§6.4) is *threadblock-granularity* residency: a
block's warps, registers, and shared memory are claimed together when
the GigaThread engine places the block and released only when the whole
block retires — a new block cannot start on freed warps until its
predecessor's slowest warp finishes.  Pagoda's warp-granularity
scheduler (in :mod:`repro.core`) exists to beat exactly this.

- :class:`~repro.cuda.runtime.CudaRuntime` — device context: launch,
  streams, memcpy, synchronize.
- :class:`~repro.cuda.stream.Stream` — in-order operation queue;
  HyperQ allows ``spec.hyperq_connections`` kernels in flight at once.
- :class:`~repro.cuda.barrier.WarpBarrier` — reusable block barrier
  (``__syncthreads``).
"""

from repro.cuda.barrier import WarpBarrier
from repro.cuda.runtime import CudaRuntime
from repro.cuda.stream import Stream

__all__ = [
    "CudaRuntime",
    "Stream",
    "WarpBarrier",
]
