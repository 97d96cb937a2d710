"""SLO classes and the deadline-to-priority shim.

The Pagoda scheduler understands one thing beyond FIFO: an integer
per-task ``priority`` consulted by the deferred-scheduling extension.
The serve layer's deadlines and tenant tiers have to be *mapped onto*
that single knob at spawn time — this module is that mapping.

A :class:`SloClass` names a tenant's contract (deadline + base
priority).  At dispatch, :func:`slo_priority` adds
:data:`URGENCY_BOOST` when a request has already burned
:data:`URGENCY_FRACTION` of its deadline waiting in the ingress queue — a coarse, deterministic
EDF approximation that needs no new scheduler machinery.  The boost
only matters when the underlying :class:`~repro.core.PagodaConfig`
enables ``deferred_scheduling``; under plain FIFO the priorities ride
along unused, exactly like the paper's base scheduler.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro.tasks import TaskSpec

#: extra priority once a request has waited past
#: :data:`URGENCY_FRACTION` of its deadline.
URGENCY_BOOST = 1
URGENCY_FRACTION = 0.5


@dataclasses.dataclass(frozen=True)
class SloClass:
    """One tenant's service-level contract."""

    name: str = "best-effort"
    #: soft deadline for goodput accounting (None = every completion
    #: counts as good).
    deadline_ns: Optional[float] = None
    #: base scheduling priority (higher = scheduled first when the
    #: runtime runs with deferred scheduling).
    priority: int = 0

    def __post_init__(self) -> None:
        # 0, a negative or a non-finite deadline reads three ways: as
        # "none" to describe() and slo_priority, as almost nothing
        # good to goodput accounting, or as urgent at arrival
        if self.deadline_ns is not None and not (
                0.0 < self.deadline_ns < math.inf):
            raise ValueError(
                f"deadline_ns={self.deadline_ns!r}: must be None or a "
                "finite number > 0")

    def describe(self) -> str:
        """Stable one-line description (goes into the report JSON)."""
        deadline = (f"{self.deadline_ns:g}ns" if self.deadline_ns
                    else "none")
        return (f"slo({self.name}, deadline={deadline}, "
                f"priority={self.priority})")


def slo_priority(slo: SloClass, arrival_ns: float, now: float) -> int:
    """Effective priority of a request dispatched at ``now``."""
    priority = slo.priority
    if slo.deadline_ns:
        waited = now - arrival_ns
        if waited >= URGENCY_FRACTION * slo.deadline_ns:
            priority += URGENCY_BOOST
    return priority


def apply_slo(spec: TaskSpec, slo: SloClass, arrival_ns: float,
              now: float) -> TaskSpec:
    """The spec to actually spawn: priority remapped per the SLO.

    Returns the input spec unchanged when the priority already matches
    (the common case — no copy on the hot path).
    """
    priority = slo_priority(slo, arrival_ns, now)
    if priority == spec.priority:
        return spec
    return dataclasses.replace(spec, priority=priority)
