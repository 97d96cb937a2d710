"""Structured failures and hardening policies for the Pagoda runtime.

The paper's protocol guarantees forward progress on healthy hardware;
this module is the vocabulary for everything else.  A task that dies —
kernel exception, wedged warp reclaimed by the watchdog, SMM brown-out,
GPU death — must surface as a :class:`TaskError` carried in its
TaskTable row and re-raised from ``wait()``; it must never hang
``wait``/``waitAll``.  The host re-issues failed spawns with capped
exponential backoff (:func:`retry_backoff_ns`), the TaskTable retires
repeatedly-lethal slots (:class:`QuarantineEvent`), and a multi-GPU
node records :class:`DegradationEvent`\\ s when it fails tasks over
from a dead device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


class TaskError(RuntimeError):
    """A spawned task failed instead of completing.

    Recorded in the task's TaskTable row on the GPU side, propagated to
    the CPU mirror by the next aggregate copy-back, and re-raised from
    ``PagodaHost.wait()`` / surfaced by ``wait_all()`` — so a failed
    task is always an *error*, never a hang.
    """

    def __init__(self, task_id: int, name: str, reason: str,
                 spawn_site: str = "", column: int = -1,
                 row: int = -1, when_ns: float = 0.0) -> None:
        self.task_id = task_id
        self.name = name
        self.reason = reason
        #: ``file:line`` of the ``taskSpawn`` call that issued the task.
        self.spawn_site = spawn_site
        self.column = column
        self.row = row
        self.when_ns = when_ns
        site = f" spawned at {spawn_site}" if spawn_site else ""
        super().__init__(
            f"task {task_id} ({name!r}){site} failed at "
            f"t={when_ns:.1f}ns in TaskTable slot ({column},{row}): {reason}"
        )


class TaskErrorGroup(RuntimeError):
    """``waitAll`` observed several failed tasks."""

    def __init__(self, errors: List[TaskError]) -> None:
        self.errors = list(errors)
        ids = ", ".join(str(e.task_id) for e in self.errors[:8])
        more = "" if len(self.errors) <= 8 else f" (+{len(self.errors) - 8})"
        super().__init__(
            f"{len(self.errors)} task(s) failed: ids [{ids}{more}]; "
            f"first: {self.errors[0]}"
        )


class GpuDeadError(RuntimeError):
    """The GPU behind this host/session died mid-run.

    Raised out of ``task_spawn``/``wait`` loops instead of spinning on
    a device that will never answer; the multi-GPU failover path
    catches it and re-routes the task to a survivor.
    """


class CudaLaunchError(RuntimeError):
    """A simulated kernel launch failed (cudaErrorLaunchFailure)."""


#: Capped exponential backoff for re-issued spawns.
#: ``PagodaHost.post`` re-issues a spawn whose launch failed
#: (:class:`CudaLaunchError`).  After ``RETRY_ATTEMPTS`` total attempts
#: the last error propagates to the caller.
RETRY_ATTEMPTS = 3
RETRY_BACKOFF_NS = 2_000.0
RETRY_BACKOFF_CAP_NS = 64_000.0


def retry_backoff_ns(attempt: int) -> float:
    """Sleep after failed attempt ``attempt`` (0-based): doubling from
    ``RETRY_BACKOFF_NS``, capped at ``RETRY_BACKOFF_CAP_NS``."""
    return min(RETRY_BACKOFF_NS * (2.0 ** attempt), RETRY_BACKOFF_CAP_NS)


@dataclass(frozen=True)
class QuarantineEvent:
    """A TaskTable slot was retired from the free list.

    Emitted when tasks die in the same ``(column, row)`` slot
    ``failures`` times — the software analogue of mapping out a bad
    page: a slot whose backing storage keeps corrupting tasks must
    stop being handed to new spawns.
    """

    when_ns: float
    column: int
    row: int
    failures: int


@dataclass(frozen=True)
class DegradationEvent:
    """A multi-GPU node lost a device and failed work over.

    ``resubmitted`` counts the in-flight requests put back in the
    queue for the survivors; throughput degrades proportionally
    instead of the run deadlocking.
    """

    when_ns: float
    gpu_index: int
    resubmitted: int
    survivors: Tuple[int, ...]
    reason: str = "gpu.die"


@dataclass
class WatchdogKill:
    """One watchdog reclamation, for the session's incident log."""

    when_ns: float
    task_id: int
    name: str
    column: int
    row: int
    deadline_ns: float
    reason: str = "watchdog_deadline"
