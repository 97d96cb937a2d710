"""FilterBank (FB): multi-stage FIR signal processing with barriers.

Table 4: "separates input signals into multiple sub-signals with a set
of filters."  The device code is the paper's own Fig. 1c: convolve with
H, down-sample, up-sample, convolve with F — with ``syncBlock()``
between stages.  One task processes one radio's 2K-sample signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.phases import BLOCK_SYNC, Phase, phase_table
from repro.tasks import TaskSpec
from repro.workloads.base import REGISTRY, Workload, lanes_per_thread

#: Table 3: signals of width 2K
N_SIM = 2048
#: filter taps (N_col in Fig. 1c)
N_COL = 32
#: down/up-sampling factor (N_samp)
N_SAMP = 8
#: lane ops per tap (multiply-accumulate + guard); calibrated so the
#: HyperQ copy fraction matches Table 3 (35%)
INST_PER_TAP = 2.0
BYTES_PER_SAMPLE = 4  # float32


@dataclass
class FilterBankWork:
    """Per-task payload: one signal and its two filters."""

    n_sim: int
    signal: np.ndarray = None
    h: np.ndarray = None
    f: np.ndarray = None
    out: np.ndarray = None


def reference_filterbank(signal: np.ndarray, h: np.ndarray,
                         f: np.ndarray) -> np.ndarray:
    """Reference pipeline matching Fig. 1c's kernel semantics.

    Vect_H[t] = sum_{k<=t} r[t-k] * H[k]  (causal convolve, guarded)
    down/up-sample by N_SAMP (zero-stuffed), then convolve with F.
    """
    n = len(signal)
    vect_h = np.zeros(n)
    # guard k < n: taps beyond the signal length contribute nothing
    # (Fig. 1c's `if ((tid-k) > 0)` bound)
    for k in range(min(len(h), n)):
        vect_h[k:] += signal[: n - k] * h[k]
    vect_dn = vect_h[::N_SAMP]
    vect_up = np.zeros(n)
    vect_up[: len(vect_dn)] = vect_dn  # Fig. 1c copies the first n/samp
    vect_f = np.zeros(n)
    for k in range(min(len(f), n)):
        vect_f[k:] += f[k] * vect_up[: n - k]
    return vect_f


@phase_table(lambda task, block_id, warp_id: (
    task.work.n_sim, task.threads_per_block, task.num_blocks))
def filterbank_kernel(task: TaskSpec, block_id: int, warp_id: int):
    """Timing kernel: the four Fig. 1c stages with barriers between."""
    work: FilterBankWork = task.work
    per_thread = lanes_per_thread(work.n_sim, task.total_threads)
    conv_inst = per_thread * N_COL * INST_PER_TAP
    sample_inst = per_thread * 2.0
    mem_per_warp = work.n_sim * BYTES_PER_SAMPLE / task.total_warps
    # stage 1: convolve H (reads the signal)
    yield Phase(inst=conv_inst, mem_bytes=mem_per_warp)
    yield BLOCK_SYNC
    # stage 2+3: down-sample then up-sample
    yield Phase(inst=sample_inst, mem_bytes=mem_per_warp / N_SAMP)
    yield BLOCK_SYNC
    # stage 4: convolve F (writes the result)
    yield Phase(inst=conv_inst, mem_bytes=mem_per_warp)


def filterbank_func(ctx) -> None:
    """Functional kernel: run the Fig. 1c pipeline."""
    work: FilterBankWork = ctx.args
    work.out[:] = reference_filterbank(work.signal, work.h, work.f)


class FilterBankWorkload(Workload):
    """FB benchmark (Table 3: width-2K signals, 21 regs, needs sync)."""

    def __init__(self) -> None:
        super().__init__(
            name="fb",
            description="FIR filter bank over radio signals",
            regs_per_thread=21,
            needs_sync=True,
        )

    def make_task(self, index, threads, rng, irregular, functional):
        """Build one TaskSpec (see Workload.make_task)."""
        n_sim = N_SIM
        if irregular:
            n_sim = int(rng.integers(N_SIM // 8, N_SIM + 1))
        work = FilterBankWork(n_sim=n_sim)
        if functional:
            work.signal = rng.standard_normal(n_sim)
            work.h = rng.standard_normal(N_COL) / N_COL
            work.f = rng.standard_normal(N_COL) / N_COL
            work.out = np.zeros(n_sim)
        return TaskSpec(
            name=f"fb{index}",
            threads_per_block=threads,
            num_blocks=1,
            kernel=filterbank_kernel,
            needs_sync=True,
            regs_per_thread=self.regs_per_thread,
            input_bytes=n_sim * BYTES_PER_SAMPLE + 2 * N_COL * 4,
            output_bytes=n_sim * BYTES_PER_SAMPLE,
            work=work,
            func=filterbank_func if functional else None,
        )

    def verify_task(self, task: TaskSpec) -> None:
        """Compare functional output with the reference."""
        work: FilterBankWork = task.work
        expected = reference_filterbank(work.signal, work.h, work.f)
        np.testing.assert_allclose(work.out, expected, rtol=1e-10)


FILTERBANK = REGISTRY.register(FilterBankWorkload())
