"""The whole GPU: SMM array plus device-wide shared pools."""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.gpu.smm import Smm
from repro.gpu.spec import GpuSpec, titan_x
from repro.gpu.timing import DEFAULT_TIMING, TimingModel
from repro.sim import Engine, ProcessorSharing


class Gpu:
    """A simulated GPU attached to an engine.

    Holds the SMMs and the DRAM bandwidth pool they share.  Placement
    policy (which SMM hosts which block) belongs to the runtimes — the
    hardware dispatcher in :mod:`repro.cuda` or Pagoda's static MTB
    layout — not to this class.
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

    def find_smm(
        self,
        warps: int,
        registers: int,
        shared_mem: int,
        mask: Optional[Iterable[int]] = None,
    ) -> Optional[Smm]:
        """Least-loaded SMM that can host the block, or ``None``.

        Mirrors the GigaThread engine's load balancing: prefer the SMM
        with the most free warp slots.  ``mask`` restricts the scan to a
        subset of SMM indices (a compute partition); ``None`` scans the
        whole device.  Both the legacy shared dispatcher and the
        partition path go through this single placement loop.
        """
        if mask is None:
            candidates = self.smms
        else:
            candidates = [self.smms[i] for i in sorted(mask)]
        best: Optional[Smm] = None
        for smm in candidates:
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
