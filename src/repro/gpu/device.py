"""The whole GPU: SMM array plus device-wide shared pools."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gpu.smm import Smm
from repro.gpu.spec import GpuSpec, titan_x
from repro.gpu.timing import DEFAULT_TIMING, TimingModel
from repro.sim import Engine, Event, ProcessorSharing


class Gpu:
    """A simulated GPU attached to an engine.

    Holds the SMMs, the DRAM bandwidth pool they share and the run's
    phase tables (:meth:`warp_items`).  Placement policy (which SMM
    hosts which block) belongs to the runtimes — the hardware
    dispatcher in :mod:`repro.cuda` or Pagoda's static MTB layout — not
    to this class.
    """

    def __init__(
        self,
        engine: Engine,
        spec: Optional[GpuSpec] = None,
        timing: Optional[TimingModel] = None,
        obs=None,
    ) -> None:
        self.engine = engine
        self.spec = spec or titan_x()
        self.timing = timing or DEFAULT_TIMING
        self.smms: List[Smm] = [
            Smm(engine, self.spec, self.timing, i, obs=obs)
            for i in range(self.spec.num_smms)
        ]
        self.dram = ProcessorSharing(
            engine,
            rate=self.timing.dram_bytes_per_ns(self.spec.dram_bandwidth_gbps),
            name="dram",
        )
        #: ``(kernel, phase key) -> item tuple`` for this run's keyed
        #: kernels (:func:`repro.gpu.phases.phase_table`)
        self._tables: Dict[tuple, tuple] = {}

    def warp_items(self, task, block_id: int, warp_id: int):
        """The kernel items of one warp of ``task``: a phase table or
        an iterator, for :meth:`repro.gpu.smm.Smm.run_phases`.

        A keyed kernel's items are built once per distinct key as a
        tuple, and every warp with that key gets that same tuple (the
        SMM walks it by position, which lets a block's like warps move
        in lockstep); an unkeyed one runs its generator.  A kernel that
        raises while its table is built stores nothing and gets a fresh
        generator, which raises again when the warp reaches the fault.
        """
        kernel = task.kernel
        phase_key = getattr(kernel, "phase_key", None)
        if phase_key is not None:
            key = phase_key(task, block_id, warp_id)
            if key is not None:
                key = (kernel, key)
                table = self._tables.get(key)
                if table is None:
                    try:
                        table = tuple(kernel(task, block_id, warp_id))
                    except Exception:
                        # a kernel fault of any type: replay it on the
                        # warp's own clock, where the runtime handles it
                        return kernel(task, block_id, warp_id)
                    self._tables[key] = table
                return table
        return iter(kernel(task, block_id, warp_id))

    def run_block(self, task, block_id: int, smm: Smm, barrier,
                  sync_ns: float) -> Event:
        """Run the warps of one block of ``task`` on ``smm``, each from
        its own ready-ring record; the event fires once all have ended.
        A kernel exception or barrier mismatch propagates."""
        done = Event()
        left = [task.warps_per_block]

        def finish(item) -> None:  # every warp's done-waiter
            if item is not None:
                raise item  # the kernel raised, or the barriers differ
            left[0] -= 1
            if not left[0]:
                done.fire(None)

        def start(warp_id: int) -> None:
            item = smm.run_phases(self.warp_items(task, block_id, warp_id),
                                  self.dram, barrier, sync_ns)
            if type(item) is Event:
                item._add_waiter(finish)
            else:
                finish(item)

        # each warp starts from its own ready-ring slot, which carries
        # its warp id
        call_soon_with = self.engine.call_soon_with
        for warp_id in range(left[0]):
            call_soon_with(start, warp_id)
        return done

    def find_smm(self, warps: int, registers: int,
                 shared_mem: int) -> Optional[Smm]:
        """Least-loaded SMM that can host the block, or ``None``.

        Mirrors the GigaThread engine's load balancing: prefer the SMM
        with the most free warp slots.
        """
        best: Optional[Smm] = None
        for smm in self.smms:
            if smm.can_host(warps, registers, shared_mem):
                if best is None or smm.free_warps > best.free_warps:
                    best = smm
        return best

    def resident_warps(self) -> int:
        """Warps currently resident across the device."""
        return sum(
            self.spec.max_warps_per_smm - smm.free_warps for smm in self.smms
        )

    def mean_occupancy(self, end: Optional[float] = None) -> float:
        """Device-wide time-averaged occupancy (the paper's §2 metric)."""
        end = self.engine.now if end is None else end
        total = sum(smm.resident_warps.average(end) for smm in self.smms)
        return total / self.spec.total_warp_slots
