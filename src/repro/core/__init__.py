"""Pagoda itself — the paper's primary contribution.

Layout mirrors the paper's §4-§5 structure:

- :mod:`~repro.core.tasktable` — the mirrored CPU/GPU TaskTable and its
  spawn-protocol state machine (§4.2, Fig. 2);
- :mod:`~repro.core.warptable` — per-MTB executor-warp bookkeeping
  (§4.1, Table 2);
- :mod:`~repro.core.masterkernel` — the persistent daemon kernel, MTBs,
  scheduler warps (Algorithm 1) and parallel pSched (Algorithm 2);
- :mod:`~repro.core.buddy` — software shared-memory buddy allocator
  (§5.1);
- :mod:`~repro.core.named_barriers` — sub-threadblock synchronization
  via PTX named barriers (§5.2);
- :mod:`~repro.core.host_api` — Table 1's CPU-side API;
- :mod:`~repro.core.runtime` — end-to-end runner / session (a
  multi-GPU node is :class:`repro.serve.TaskServer` over several
  sessions on one engine).
"""

from repro.core.buddy import BuddyAllocator
from repro.core.errors import (
    CudaLaunchError,
    DegradationEvent,
    GpuDeadError,
    QuarantineEvent,
    TaskError,
    TaskErrorGroup,
    WatchdogKill,
)
from repro.core.host_api import PagodaHost
from repro.core.masterkernel import MasterKernel, Mtb, MTB_ARENA_BYTES
from repro.core.named_barriers import NamedBarrierPool, PTX_NAMED_BARRIERS
from repro.core.runtime import PagodaConfig, PagodaSession, run_pagoda
from repro.core.validation import (
    InvariantViolation,
    check_quiescent,
    check_session,
)
from repro.core.tasktable import (
    READY_COPIED,
    READY_FREE,
    READY_SCHEDULING,
    TaskEntry,
    TaskTable,
)
from repro.core.warptable import WarpSlot, WarpTable

__all__ = [
    "BuddyAllocator",
    "CudaLaunchError",
    "DegradationEvent",
    "GpuDeadError",
    "QuarantineEvent",
    "TaskError",
    "TaskErrorGroup",
    "WatchdogKill",
    "PagodaHost",
    "MasterKernel",
    "Mtb",
    "MTB_ARENA_BYTES",
    "NamedBarrierPool",
    "PTX_NAMED_BARRIERS",
    "PagodaConfig",
    "PagodaSession",
    "run_pagoda",
    "InvariantViolation",
    "check_session",
    "check_quiescent",
    "READY_COPIED",
    "READY_FREE",
    "READY_SCHEDULING",
    "TaskEntry",
    "TaskTable",
    "WarpSlot",
    "WarpTable",
]
