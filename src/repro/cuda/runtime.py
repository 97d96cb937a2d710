"""The CUDA runtime: kernel launch, HyperQ arbitration, block dispatch.

Execution model (faithful to §2 / §6.4):

- the host pays ``kernel_launch_ns`` per launch call;
- at most ``spec.hyperq_connections`` kernels are in flight at once
  (HyperQ); further launches queue FIFO;
- the GigaThread dispatcher places whole threadblocks onto SMMs as
  resources allow, in launch order, paying ``block_dispatch_ns`` each;
- a block's warps/registers/shared memory are released only when its
  **last** warp retires — the threadblock-granularity residency that
  Pagoda's warp-granularity scheduling beats in Fig. 8.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.cuda.barrier import WarpBarrier
from repro.cuda.stream import Stream
from repro.device_api import run_functional
from repro.gpu.device import Gpu
from repro.gpu.occupancy import registers_per_block
from repro.pcie.bus import Direction, PcieBus
from repro.sim import Engine, Event, Signal
from repro.tasks import TaskResult, TaskSpec


class CudaRuntime:
    """Simulated CUDA context on one GPU."""

    def __init__(self, engine: Engine, gpu: Gpu, bus: PcieBus,
                 functional: bool = False) -> None:
        self.engine = engine
        self.gpu = gpu
        self.bus = bus
        self.timing = gpu.timing
        self.functional = functional
        self._inflight_kernels = 0
        self._launch_queue: deque = deque()
        self._pending_blocks: deque = deque()
        self._work = Signal()
        self._freed = Signal()
        self.kernels_completed = 0
        self._streams = 0
        engine.spawn(self._dispatch_loop(), name="gigathread", daemon=True)

    # -- host API ----------------------------------------------------------

    def create_stream(self, name: str = "") -> Stream:
        """Create a new in-order CUDA stream."""
        self._streams += 1
        return Stream(self.engine, name or f"s{self._streams}")

    def host_launch(self, task: TaskSpec, stream: Stream,
                    result: Optional[TaskResult] = None) -> Generator:
        """Subroutine run by a host thread: pay the driver launch cost
        and enqueue the kernel on ``stream``; returns the completion
        event without waiting for it."""
        yield self.timing.kernel_launch_ns
        return self.launch_async(task, stream, result)

    def launch_async(self, task: TaskSpec, stream: Stream,
                     result: Optional[TaskResult] = None) -> Event:
        """Enqueue a kernel without host-side cost accounting."""
        self._validate_launch(task)
        return stream.enqueue(lambda: self._kernel_op(task, result))

    def _validate_launch(self, task: TaskSpec) -> None:
        """cudaErrorInvalidConfiguration: a block that can never be
        placed must fail at launch, not deadlock the dispatcher."""
        spec = self.gpu.spec
        if task.threads_per_block > spec.max_threads_per_block:
            raise ValueError(
                f"invalid configuration: {task.threads_per_block} "
                f"threads/block exceeds the device limit "
                f"{spec.max_threads_per_block}"
            )
        if task.shared_mem_bytes > spec.max_shared_mem_per_block:
            raise ValueError(
                f"invalid configuration: {task.shared_mem_bytes} B of "
                f"shared memory exceeds the per-block limit "
                f"{spec.max_shared_mem_per_block}"
            )
        warps, regs, smem = self._block_requirements(task)
        from repro.gpu.occupancy import blocks_per_smm
        if blocks_per_smm(spec, task.threads_per_block,
                          task.regs_per_thread, smem) == 0:
            raise ValueError(
                f"invalid configuration: a block of task {task.name!r} "
                "does not fit on any SMM (register/shared-memory "
                "footprint too large)"
            )

    def memcpy_async(self, nbytes: int, direction: Direction,
                     stream: Stream) -> Event:
        """cudaMemcpyAsync on a stream."""
        return stream.enqueue(
            lambda: self.bus.transfer(nbytes, direction)
        )

    # -- kernel lifecycle ---------------------------------------------------

    def _kernel_op(self, task: TaskSpec, result: Optional[TaskResult]) -> Generator:
        """Stream-driver subroutine for one kernel: HyperQ admission,
        block fan-out, completion."""
        while self._inflight_kernels >= self.gpu.spec.hyperq_connections:
            ev = Event()
            self._launch_queue.append(ev)
            yield ev
        self._inflight_kernels += 1
        if result is not None:
            result.sched_time = self.engine.now

        done = Event()
        state = {"remaining": task.num_blocks, "started": False}

        def on_block_start() -> None:
            if result is not None and not state["started"]:
                state["started"] = True
                result.start_time = self.engine.now

        def on_block_done() -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                done.fire(self.engine.now)

        for block_id in range(task.num_blocks):
            self._pending_blocks.append(
                (task, block_id, on_block_start, on_block_done)
            )
        self._work.pulse()
        yield done
        if result is not None:
            result.end_time = self.engine.now
        self.kernels_completed += 1
        if self.functional:
            run_functional(task)
        self._inflight_kernels -= 1
        if self._launch_queue:
            self._launch_queue.popleft().fire(None)

    def _block_requirements(self, task: TaskSpec):
        warps = task.warps_per_block
        regs = registers_per_block(
            self.gpu.spec, task.threads_per_block, task.regs_per_thread
        )
        return warps, regs, task.shared_mem_bytes

    def _dispatch_loop(self) -> Generator:
        """The GigaThread engine: place pending blocks, in order."""
        while True:
            if not self._pending_blocks:
                yield self._work.wait()
                continue
            # arm BEFORE probing: a block retiring during the
            # dispatch-cost window below must not be a lost wakeup
            freed_retry = self._freed.wait()
            task, block_id, on_start, on_done = self._pending_blocks[0]
            warps, regs, smem = self._block_requirements(task)
            smm = self.gpu.find_smm(warps, regs, smem)
            if smm is None:
                yield freed_retry
                continue
            self._pending_blocks.popleft()
            smm.reserve_block(warps, regs, smem)
            yield self.timing.block_dispatch_ns
            self.engine.spawn(
                self._run_block(task, block_id, smm, warps, regs, smem,
                                on_start, on_done),
                name=f"block.{task.name}.{block_id}",
            )

    def _run_block(self, task: TaskSpec, block_id: int, smm, warps: int,
                   regs: int, smem: int, on_start, on_done) -> Generator:
        on_start()
        yield self.gpu.run_block(
            task, block_id, smm,
            WarpBarrier(warps, f"task {task.name!r} block {block_id}"),
            self.timing.syncthreads_ns)
        smm.release_block(warps, regs, smem)
        on_done()
        self._freed.pulse()
