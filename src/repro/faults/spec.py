"""Fault vocabulary: what can go wrong, where, and how hard.

A :class:`FaultSpec` names one perturbation of the simulated stack —
a dropped PCIe transaction, a warp that never yields, a browned-out
SMM.  Specs are pure data: the layers themselves carry the hook points
(see :mod:`repro.faults.injector`), and a seeded
:class:`~repro.faults.plan.FaultPlan` decides *which* specs exist, so
every chaos run is replayable from its seed.

The ``kind`` strings are the stable contract between plans and hook
points; :data:`FAULT_KINDS` is the catalog, grouped by the hardware
layer that owns the hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

# -- the fault catalog -------------------------------------------------------

#: PCIe link faults (hooks in :class:`repro.pcie.bus.PcieBus` and the
#: TaskTable's posted-write landing path).
PCIE_FAULTS = (
    # one DMA transaction is lost and must be replayed (pays the wire
    # time again) — models a replayed TLP after a CRC error.
    "pcie.drop",
    # one DMA transaction is delivered twice (pays wire time twice).
    "pcie.dup",
    # one DMA transaction takes ``magnitude_ns`` longer than modelled.
    "pcie.delay",
    # one TaskTable posted entry write lands ``magnitude_ns`` *beyond*
    # the normal mapped-write visibility latency — reordering it past
    # later posted writes (the cross-transaction ordering §4.2 defends
    # against).
    "pcie.reorder",
    # one aggregate copy-back reads a *stale* protocol word: a
    # completion the GPU already recorded is not observed this
    # copy-back (it surfaces on the next one).
    "pcie.stale_read",
)

#: GPU faults (hooks in the MasterKernel's executor warps / MTBs).
GPU_FAULTS = (
    # a warp stalls for ``magnitude_ns`` of extra dead time.
    "gpu.slow_warp",
    # a warp wedges forever; only the watchdog can reclaim the task.
    "gpu.stuck_warp",
    # an SMM brown-out evicts one resident MTB: every task executing on
    # it dies, its scheduler restarts from clean shared-memory state.
    "gpu.brownout",
    # whole-device death (multi-GPU runs only; the surviving GPUs
    # absorb the dead device's in-flight tasks).
    "gpu.die",
)

#: CUDA runtime faults.
CUDA_FAULTS = (
    # a taskSpawn's launch returns an error instead of enqueueing
    # (drawn by :class:`repro.core.host_api.PagodaHost`).
    "cuda.launch_fail",
    # a stream's driver thread stalls ``magnitude_ns`` before an op.
    # No hook draws it: the baselines' CUDA runtime takes no injector.
    "cuda.stream_stall",
)

#: Cluster fabric faults (hooks in :class:`repro.cluster.fabric.Fabric`
#: and the coordinator's digest-visibility layer).  ``target`` names a
#: node (the fault applies to every link touching it), a ``(src, dst)``
#: tuple (one directed link), or ``None`` (any link / every node).
FABRIC_FAULTS = (
    # one message is lost on the wire; the reliable layer's
    # ack-timeout retransmit recovers it.  A spec with
    # ``meta={"rate": p}`` is never spent and instead drops each
    # matching message with (hash-derived, seed-stable) probability p.
    "fabric.link.drop",
    # one message is delivered twice; receiver-side dedup by message
    # id suppresses the copy.
    "fabric.link.dup",
    # one message takes ``magnitude_ns`` longer than the link models.
    "fabric.link.delay_spike",
    # every message touching the target during
    # ``[at_ns, at_ns + magnitude_ns)`` is dropped, and the target's
    # status digests go dark for the window (the router suspects it).
    "fabric.link.partition",
    # gray failure: from ``at_ns`` the target's NIC stalls — messages
    # to/from it are *held* (delivered after the matching resume) and
    # its digests go dark.  A pause with no matching resume behaves
    # like a permanent partition (messages are dropped, not held).
    "fabric.node.pause",
    # ends the target's pause at ``at_ns``.
    "fabric.node.resume",
)

#: Workload kernel faults (hooks in the executor's phase loop).
TASK_FAULTS = (
    # the task's kernel coroutine raises mid-phase.
    "task.raise",
    # the task runs to completion but its output is poison: recorded
    # as a structured failure (and counted against its slot).
    "task.poison",
    # the kernel never yields another phase — indistinguishable from
    # gpu.stuck_warp at the hook, kept separate for plan statistics.
    "task.no_yield",
)

#: Every fault kind, grouped by layer.
FAULT_KINDS: Dict[str, Tuple[str, ...]] = {
    "pcie": PCIE_FAULTS,
    "gpu": GPU_FAULTS,
    "cuda": CUDA_FAULTS,
    "task": TASK_FAULTS,
    "fabric": FABRIC_FAULTS,
}

#: Flat set of all known kinds (plan validation).
ALL_FAULT_KINDS = frozenset(
    kind for kinds in FAULT_KINDS.values() for kind in kinds
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled perturbation.

    ``kind``
        A string from :data:`ALL_FAULT_KINDS` (validated).
    ``at_ns``
        The fault arms at this simulated time; a hook site draws it the
        first time it asks after ``at_ns``.  Time-triggered faults
        (``gpu.brownout``, ``gpu.die``) fire *at* ``at_ns`` via an
        engine callback instead of waiting for a hook.
    ``count``
        How many hook draws this spec satisfies before it is spent.
    ``target``
        Optional site filter; a hook passes its site (e.g. the MTB
        column, the PCIe direction name) and only a matching — or
        ``None`` i.e. wildcard — spec fires.  For time-triggered faults
        this is the victim (MTB column / GPU index).
    ``magnitude_ns``
        Fault-specific intensity: extra latency for delays/stalls,
        ignored by drop/raise kinds.
    ``meta``
        Free-form extras (kept out of equality-sensitive paths).
    """

    kind: str
    at_ns: float = 0.0
    count: int = 1
    target: Optional[Any] = None
    magnitude_ns: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; see "
                f"repro.faults.spec.FAULT_KINDS for the catalog"
            )
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.at_ns < 0:
            raise ValueError("at_ns must be >= 0")
        if self.magnitude_ns < 0:
            raise ValueError("magnitude_ns must be >= 0")

    @property
    def layer(self) -> str:
        """The hardware layer owning this fault's hook ("pcie", ...)."""
        return self.kind.split(".", 1)[0]

    def matches_site(self, site: Any) -> bool:
        """Whether this spec applies at ``site`` (None = wildcard)."""
        return self.target is None or self.target == site


@dataclass(frozen=True)
class InjectedFault:
    """Log record of one fault that actually fired (replay evidence)."""

    when_ns: float
    kind: str
    site: Any
    spec: FaultSpec
