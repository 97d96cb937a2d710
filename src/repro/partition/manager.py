"""The partition manager: SR-IOV-style sub-devices on one GPU.

A :class:`PartitionedStack` splits one simulated GPU's SMM array into
isolated logical partitions (the MI300 SPX/DPX/QPX modes, or arbitrary
masks).  Each partition is a :class:`~repro.core.PagodaSession` named
after its spec, on the spec's SMMs of the stack's one device — the
same host, TaskTable and MasterKernel every Pagoda stack has:

- its MasterKernel owns only the partition's MTB columns (global
  column numbering is preserved so SMMs can move between partitions
  at runtime);
- its full-width TaskTable opens only the owned columns for spawning
  and recycles entries FIFO;
- its own PCIe bus (the SR-IOV virtual function: each partition's
  posted writes and copy-backs ride dedicated lanes);
- its own DRAM bandwidth slice, rated by its share of the SMM array;
- its own optional seeded fault plan and injector, whose brown-outs
  land only on the partition's own boot columns.

What the session does not have, :class:`Partition` adds: the quota
signal, quota claims against the stack's ledger, and the refusal of a
``gpu.die`` (the device is every partition's).

Because partitions share **no timed resource**, a partition's
schedule — and therefore the bytes of its serve report
(:func:`repro.partition.serve.serve_partitioned`) — is unaffected by
anything its siblings do, including brown-outs and bursts.  That is
the isolation contract the tests pin, and it is what the shared-mode
baseline (one SPX partition, every tenant in it) deliberately gives
up.

On top of the static split sit the Zorua-style virtual quotas
(:mod:`repro.partition.quota`) and the elastic controller
(:mod:`repro.partition.elastic`), which trade some of that isolation
back for utilization — borrowing idle sibling headroom and moving
whole SMMs at epoch boundaries, all as deterministic engine events.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.core.masterkernel import MTBS_PER_SMM
from repro.core.runtime import PagodaConfig, PagodaSession, boot_gpu
from repro.gpu.spec import GpuSpec, titan_x
from repro.gpu.timing import DEFAULT_TIMING, TimingModel
from repro.partition.modes import mode_masks, validate_masks
from repro.partition.quota import QuotaLedger
from repro.sim import Engine, Signal
from repro.tasks import TaskSpec

def task_demand(task: TaskSpec) -> Tuple[int, int]:
    """(shared-mem bytes, registers) a task's admission claims."""
    smem = task.shared_mem_bytes * task.num_blocks
    regs = task.total_warps * 32 * task.regs_per_thread
    return smem, regs


@dataclass
class PartitionSpec:
    """Configuration of one partition within a plan."""

    name: str
    #: SMM indices this partition owns at boot.
    smms: List[int]
    #: virtual shared-memory and register quotas = oversubscribe x
    #: physical base.  1.0 = no oversubscription.
    oversubscribe: float = 1.0
    #: optional seeded :class:`repro.faults.FaultPlan` scoped to this
    #: partition only — its brown-outs and warp faults can, by
    #: construction, not touch a sibling.  A ``gpu.die`` in it raises
    #: ``ValueError`` when the partition is built.
    fault_plan: Optional[object] = None


@dataclass
class PartitionPlan:
    """A full device split: the partitions plus the elastic policy."""

    partitions: List[PartitionSpec]
    #: display label ("SPX"/"DPX"/"QPX"/"custom").
    mode: str = "custom"
    #: elastic rebalancing policy; None = static partitions.
    elastic: Optional[object] = None

    @classmethod
    def from_mode(cls, mode: str, oversubscribe: float = 1.0,
                  elastic: Optional[object] = None,
                  names: Optional[List[str]] = None) -> "PartitionPlan":
        """Build the symmetric plan of one hardware mode over the
        Titan X's SMM array."""
        masks = mode_masks(mode, titan_x().num_smms)
        if names is None:
            names = [f"p{i}" for i in range(len(masks))]
        if len(names) != len(masks):
            raise ValueError(
                f"{mode} has {len(masks)} partitions, got "
                f"{len(names)} names"
            )
        return cls(
            partitions=[
                PartitionSpec(name=n, smms=m, oversubscribe=oversubscribe)
                for n, m in zip(names, masks)
            ],
            mode=mode.upper(),
            elastic=elastic,
        )

    def validate(self, num_smms: int) -> None:
        names = [p.name for p in self.partitions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate partition names in {names}")
        validate_masks([p.smms for p in self.partitions], num_smms)


class Partition(PagodaSession):
    """One live partition: a :class:`PagodaSession` named after its
    spec, on the spec's SMMs of the stack's device, plus its quota."""

    def __init__(self, stack: "PartitionedStack",
                 pspec: PartitionSpec) -> None:
        self.stack = stack
        super().__init__(
            config=replace(stack.config, fault_plan=pspec.fault_plan),
            engine=stack.engine, gpu=stack.gpu, smms=pspec.smms,
            name=pspec.name,
        )
        if self.faults is not None and self.faults.time_triggered("gpu.die"):
            raise ValueError(
                f"gpu.die in partition {self.name!r}: the GPU is "
                "shared by every partition, so its death is not a "
                "partition fault; node death belongs in "
                "NodeSpec.fault_plan under repro.cluster"
            )
        #: pulsed whenever quota grants may have grown (a release, an
        #: epoch borrow, an SMM adopt) — quota claimants block here.
        self.quota_signal = Signal()
        num_columns = len(pspec.smms) * MTBS_PER_SMM
        smem_base = num_columns * self.master.arena_bytes
        regs_base = num_columns * self.master._registers
        stack.ledger.register(
            self.name,
            smem_base=smem_base, regs_base=regs_base,
            smem_quota=int(smem_base * pspec.oversubscribe),
            regs_quota=int(regs_base * pspec.oversubscribe),
        )
        if self.obs is not None:
            self.obs.timeline(f"gpu.partition.{self.name}.smms").set(
                0.0, len(pspec.smms))

    # -- quota admission ---------------------------------------------------

    def claim_quota(self, smem: int, regs: int) -> Generator:
        """Block until the footprint fits the partition's grant, then
        hold it.  Zero engine events when admission succeeds at once."""
        ledger = self.stack.ledger
        while True:
            # arm before trying: a release during this event must not
            # be a lost wakeup
            retry = self.quota_signal.wait()
            if ledger.try_acquire(self.name, smem, regs):
                return (smem, regs)
            yield retry

    def release_quota(self, claim: Tuple[int, int]) -> None:
        self.stack.ledger.release(self.name, *claim)
        self.quota_signal.pulse()


class PartitionedStack:
    """All partitions of one GPU on one engine, plus the movers."""

    def __init__(self, plan: PartitionPlan,
                 spec: Optional[GpuSpec] = None,
                 timing: Optional[TimingModel] = None,
                 config: Optional[PagodaConfig] = None,
                 engine: Optional[Engine] = None) -> None:
        self.plan = plan
        self.spec = spec or titan_x()
        self.timing = timing or DEFAULT_TIMING
        self.config = config or PagodaConfig()
        if self.config.fault_plan is not None:
            raise ValueError(
                "partitioned stacks take per-partition fault plans "
                "(PartitionSpec.fault_plan), not a device-wide one"
            )
        plan.validate(self.spec.num_smms)
        self.engine = engine or Engine()
        self.obs = self.config.obs
        self.gpu = boot_gpu(self.engine, self.spec, self.timing, self.obs)
        self.ledger = QuotaLedger(obs=self.obs)
        self.partitions: Dict[str, Partition] = {}
        for pspec in plan.partitions:
            self.partitions[pspec.name] = Partition(self, pspec)
        #: (when_ns, donor, recipient, smm_index) log of elastic moves.
        self.moves: List[Tuple[float, str, str, int]] = []
        #: SMM indices currently being handed over.  Moves of distinct
        #: SMMs drain independently, so several may be in flight at
        #: once; the same SMM never is.
        self._moves_inflight: Set[int] = set()
        #: cleared by the driver once the workload is done, so the
        #: elastic controller's epoch timer stops re-arming and the
        #: engine can drain.
        self.active = True
        #: driver-registered workload processes (collectors); the
        #: elastic controller exits once none of them is alive, which
        #: is what lets ``engine.run`` terminate.
        self.workload_procs: List[object] = []
        self._controller_proc = None
        if plan.elastic is not None:
            from repro.partition.elastic import elastic_controller
            self._controller_proc = self.engine.spawn(
                elastic_controller(self, plan.elastic),
                "partition-elastic",
            )

    def partition(self, name: str) -> Partition:
        return self.partitions[name]

    def effective_smms(self, name: str) -> int:
        """SMMs a partition will still own once in-flight hand-overs
        complete — what shrink policies must reason about, since a
        draining SMM stays in ``smm_indices`` until released."""
        return len([s for s in self.partitions[name].master.smm_indices
                    if s not in self._moves_inflight])

    def finish(self) -> None:
        """The workload is done: let the controller's loop exit."""
        self.active = False

    def shutdown(self) -> None:
        self.finish()
        for part in self.partitions.values():
            part.shutdown()

    # -- SMM movement (the grow/shrink/merge primitive) --------------------

    def lend_smm(self, donor: str, recipient: str,
                 smm_index: Optional[int] = None) -> bool:
        """Start moving one SMM from ``donor`` to ``recipient``.

        Returns False (and does nothing) when this SMM is already in
        flight or the donor has nothing to give; otherwise spawns the
        drain-and-transfer process and returns True.  The move is
        asynchronous: the donor's columns close immediately, the
        hand-over completes once they drain.  Moves of distinct SMMs
        may overlap.
        """
        d = self.partitions[donor]
        available = [s for s in d.master.smm_indices
                     if s not in self._moves_inflight]
        if len(available) <= 1:
            return False
        if smm_index is None:
            smm_index = available[-1]
        elif smm_index not in available:
            return False
        self._moves_inflight.add(smm_index)
        self.engine.spawn(
            self._move_proc(donor, recipient, smm_index),
            f"partition-move.{donor}.{recipient}.{smm_index}",
        )
        return True

    def _move_proc(self, donor: str, recipient: str,
                   smm_index: int) -> Generator:
        d = self.partitions[donor]
        r = self.partitions[recipient]
        cols = [smm_index * MTBS_PER_SMM + k for k in range(MTBS_PER_SMM)]
        for c in cols:
            d.table.close_column(c)
        while any(d.table.column_busy(c) for c in cols):
            # completions always pulse the donor's done signal; posted
            # writes in flight become residency before completing
            yield d.table.gpu_done_signal.wait()
        # detach from the completing executor's stack frame (the done
        # pulse resumes this proc synchronously from inside it) before
        # release_smm shuts that same MTB down
        yield 0.0
        d.master.release_smm(smm_index)
        now = self.engine.now
        arena = d.master.arena_bytes
        regs = d.master._registers
        self.ledger.transfer_base(donor, recipient, "smem",
                                  MTBS_PER_SMM * arena, now)
        self.ledger.transfer_base(donor, recipient, "regs",
                                  MTBS_PER_SMM * regs, now)
        r.master.adopt_smm(smm_index)
        for c in cols:
            r.table.open_column(c)
        self.moves.append((now, donor, recipient, smm_index))
        d.quota_signal.pulse()
        r.quota_signal.pulse()
        if self.obs is not None:
            self.obs.instant("gpu.partition", "repartition", now,
                             donor=donor, recipient=recipient,
                             smm=smm_index)
            self.obs.timeline(f"gpu.partition.{donor}.smms").set(
                now, len(d.master.smm_indices))
            self.obs.timeline(f"gpu.partition.{recipient}.smms").set(
                now, len(r.master.smm_indices))
        self._moves_inflight.discard(smm_index)
