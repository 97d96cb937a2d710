"""The paper's benchmark suite (Tables 3 & 4).

Nine workloads, each with a timing cost model and a real functional
implementation:

====== =============================================== ===========
name   description                                     source
====== =============================================== ===========
mb     Mandelbrot tiles (irregular per-pixel work)     Quinn
fb     FIR filter bank with barriers (Fig. 1c)         StreamIt
bf     delay-and-sum beamformer                        StreamIt
conv   5x5 image convolution                           CUDA SDK
dct    blockwise 8x8 DCT (smem + sync, copy-bound)     CUDA SDK
mm     64x64 matrix multiply (smem + sync)             CUDA SDK
slud   blocked sparse LU, dynamic fill-in task DAG     BOTS
3des   triple-DES packet encryption (NetBench sizes)   NIST
mpe    multi-programmed mix of 3des+mb+fb+mm           §6 (own)
====== =============================================== ===========

Use :data:`REGISTRY` (``REGISTRY.get("mb")``) or the module-level
singletons.
"""

from repro.workloads.base import REGISTRY, Workload, lanes_per_thread
from repro.workloads.beamformer import BEAMFORMER
from repro.workloads.convolution import CONVOLUTION
from repro.workloads.dct import DCT
from repro.workloads.des3 import DES3, des3_decrypt, des3_encrypt
from repro.workloads.filterbank import FILTERBANK
from repro.workloads.mandelbrot import MANDELBROT
from repro.workloads.matmul import MATMUL
from repro.workloads.mpe import MPE
from repro.workloads.sparse_lu import SPARSE_LU, SparseLuProblem, generate_waves

__all__ = [
    "REGISTRY",
    "Workload",
    "lanes_per_thread",
    "MANDELBROT",
    "FILTERBANK",
    "BEAMFORMER",
    "CONVOLUTION",
    "DCT",
    "MATMUL",
    "SPARSE_LU",
    "DES3",
    "MPE",
    "SparseLuProblem",
    "generate_waves",
    "des3_encrypt",
    "des3_decrypt",
]
