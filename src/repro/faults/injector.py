"""The fault injector: where a plan meets the simulated hardware.

Layers carry *hook points* — a line or two guarded by
``if self.faults is not None`` — and every hook funnels through
:meth:`FaultInjector.draw`:

======================  ====================================================
hook site               kinds drawn
======================  ====================================================
``PcieBus.transfer``    ``pcie.drop`` / ``pcie.dup`` / ``pcie.delay``
TaskTable entry post    ``pcie.reorder``
TaskTable copy-back     ``pcie.stale_read``
MTB executor warp       ``gpu.slow_warp`` / ``gpu.stuck_warp`` /
                        ``task.raise`` / ``task.poison`` / ``task.no_yield``
``PagodaHost`` spawn    ``cuda.launch_fail``
======================  ====================================================

``cuda.stream_stall`` is a plan kind that no hook draws: the CUDA
runtime of the HyperQ and fusion baselines runs without an injector.

``gpu.brownout`` and ``gpu.die`` are *time-triggered*: the session
wiring schedules them as engine callbacks at their ``at_ns`` (see
:meth:`FaultInjector.time_triggered`), because no per-operation hook
naturally observes "an SMM browned out".

Determinism: ``draw`` consults only the precomputed plan and the
simulated clock — no RNG at decision time — so identical runs inject
identical faults, and an injector carrying a zero-fault plan makes no
engine calls at all (schedule-identity with the uninstrumented run).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, _unit
from repro.faults.spec import FaultSpec, InjectedFault

#: Kinds fired by engine callbacks at ``at_ns`` rather than hook draws.
TIME_TRIGGERED_KINDS = frozenset({"gpu.brownout", "gpu.die"})


class FaultInjector:
    """Deterministic dispenser of one :class:`FaultPlan`'s faults."""

    def __init__(self, engine, plan: Optional[FaultPlan] = None) -> None:
        self.engine = engine
        self.plan = plan or FaultPlan.zero()
        #: kind -> [spec, remaining] queues, in plan (time) order.
        self._armed: Dict[str, List[List]] = {}
        for spec in self.plan:
            if spec.kind in TIME_TRIGGERED_KINDS:
                continue
            self._armed.setdefault(spec.kind, []).append([spec, spec.count])
        #: every fault that actually fired, in firing order.
        self.injected: List[InjectedFault] = []

    # -- hook-point API ------------------------------------------------------

    def draw(self, kind: str, site: Any = None) -> Optional[FaultSpec]:
        """Consume one armed fault of ``kind`` applicable at ``site``.

        Returns the spec (the hook reads ``magnitude_ns`` etc.) or
        ``None`` — the overwhelmingly common case, which costs one
        dict probe on a zero-fault plan.
        """
        return _dispense(self._armed, kind, self.engine.now, site,
                         FaultSpec.matches_site, self.injected)

    def record_fired(self, spec: FaultSpec, site: Any = None) -> None:
        """Log a time-triggered fault at its firing moment."""
        self.injected.append(
            InjectedFault(self.engine.now, spec.kind, site, spec)
        )

    # -- time-triggered faults ----------------------------------------------

    def time_triggered(self, kind: Optional[str] = None) -> List[FaultSpec]:
        """The plan's engine-callback faults (optionally one kind)."""
        return [
            spec for spec in self.plan
            if spec.kind in TIME_TRIGGERED_KINDS
            and (kind is None or spec.kind == kind)
        ]

    # -- reporting -----------------------------------------------------------

    @property
    def injected_count(self) -> int:
        """Faults fired so far (hook draws + time-triggered)."""
        return len(self.injected)

    def fingerprint(self) -> tuple:
        """Replay-comparable summary of what fired (time, kind, site)."""
        return tuple((f.when_ns, f.kind, f.site) for f in self.injected)


# -- the cluster fabric's injector -------------------------------------------

#: node-scoped outcomes of :meth:`FabricInjector.node_fate`.
OK, DROP, HOLD = "ok", "drop", "hold"


def _dispense(armed: Dict[str, List[List]], kind: str, now: float,
              site: Any, match, injected: List[InjectedFault]
              ) -> Optional[FaultSpec]:
    """Consume one armed count spec of ``kind`` due by ``now`` for which
    ``match(spec, site)`` holds: decrement its ``[spec, remaining]``
    record, prune it (and its kind's queue) once spent, and log the
    firing in ``injected``.  ``None`` when nothing applies."""
    queue = armed.get(kind)
    if not queue:
        return None
    for record in queue:
        spec, remaining = record
        if spec.at_ns > now:
            break  # queue is time-ordered; nothing later is armed
        if remaining <= 0 or not match(spec, site):
            continue
        record[1] = remaining - 1
        injected.append(InjectedFault(now, kind, site, spec))
        if record[1] <= 0:
            queue.remove(record)
            if not queue:
                del armed[kind]
        return spec
    return None


def _spec_on_link(spec: FaultSpec, site: Tuple[str, str]) -> bool:
    """Whether a fabric count spec covers the ``site = (src, dst)`` link."""
    return _match_link(spec.target, *site)


def _match_link(target: Any, src: str, dst: str) -> bool:
    """Whether a fabric spec's target covers the ``src -> dst`` link:
    ``None`` = any link, a tuple = that directed link, a node name =
    every link touching the node."""
    if target is None:
        return True
    if isinstance(target, (tuple, list)):
        return tuple(target) == (src, dst)
    return target in (src, dst)


class FabricInjector:
    """Deterministic dispenser of one fabric :class:`FaultPlan`.

    The cluster fabric has no engine clock of its own — every message
    carries its send instant — so unlike :class:`FaultInjector` all
    draws take an explicit ``now_ns``, and the rate-based specs
    (``meta={"rate": p}``) decide each message's fate from a
    :func:`~repro.faults.plan.hash01` over the message's stable
    identity instead of consuming an armed count.  :meth:`draw` formats
    that key itself, once per message, and hands it to
    :func:`~repro.faults.plan._unit` — the same bytes ``hash01`` would
    join.  Windowed kinds (``fabric.link.partition``,
    ``fabric.node.pause``/``resume``) are compiled into per-node time
    windows up front; a plan without any makes :meth:`node_fate` a
    constant.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan.zero()
        self.seed = self.plan.seed if self.plan.seed is not None else 0
        #: kind -> [spec, remaining] queues in time order (count specs).
        self._armed: Dict[str, List[List]] = {}
        #: kind -> [(at_ns, target, until_ns, rate, spec), ...] rate
        #: specs in time order, their fields read once here.
        self._rates: Dict[str, List[Tuple[float, Any, Optional[float],
                                          float, FaultSpec]]] = {}
        pauses: Dict[Any, List[float]] = {}
        resumes: Dict[Any, List[float]] = {}
        #: target -> [(start_ns, end_ns)] drop windows (partitions).
        self._partitions: List[Tuple[Any, float, float]] = []
        for spec in self.plan:
            if spec.layer != "fabric":
                raise ValueError(
                    f"fabric plan carries non-fabric kind {spec.kind!r}; "
                    "node-scoped faults belong on NodeSpec.fault_plan"
                )
            if spec.kind == "fabric.node.pause":
                pauses.setdefault(spec.target, []).append(spec.at_ns)
            elif spec.kind == "fabric.node.resume":
                resumes.setdefault(spec.target, []).append(spec.at_ns)
            elif spec.kind == "fabric.link.partition":
                self._partitions.append(
                    (spec.target, spec.at_ns, spec.at_ns + spec.magnitude_ns))
            elif "rate" in spec.meta:
                self._rates.setdefault(spec.kind, []).append(
                    (spec.at_ns, spec.target, spec.meta.get("until_ns"),
                     spec.meta["rate"], spec))
            else:
                self._armed.setdefault(spec.kind, []).append(
                    [spec, spec.count])
        #: target -> [(pause_ns, resume_ns)] hold windows; a pause with
        #: no later resume closes at +inf (permanent gray failure).
        self._pauses: Dict[Any, List[Tuple[float, float]]] = {}
        for target, starts in pauses.items():
            ends = sorted(resumes.get(target, []))
            windows = []
            used = 0
            for start in sorted(starts):
                while used < len(ends) and ends[used] < start:
                    used += 1
                if used < len(ends):
                    windows.append((start, ends[used]))
                    used += 1
                else:
                    windows.append((start, math.inf))
            self._pauses[target] = windows
        #: any partition or pause window at all? (else every node's
        #: fate is OK at every instant)
        self._windowed = bool(self._partitions or self._pauses)
        #: kinds :meth:`draw` can ever fire (rate or count specs); a
        #: draw of any other kind is ``None`` and may be skipped.
        self.drawn_kinds = frozenset(self._rates) | frozenset(self._armed)
        #: every fabric fault that actually fired, in firing order.
        self.injected: List[InjectedFault] = []

    # -- windowed kinds ------------------------------------------------------

    def node_fate(self, node: str, t_ns: float) -> Tuple[str, float, Any]:
        """What happens to a message touching ``node`` at ``t_ns``:
        ``(OK, t, None)``, ``(DROP, t, kind)`` (partition / permanent
        pause), or ``(HOLD, release_ns, kind)`` (finite pause: the NIC
        queues it until the matching resume)."""
        if not self._windowed:
            return OK, t_ns, None
        for target, start, end in self._partitions:
            if (target is None or target == node) and start <= t_ns < end:
                return DROP, t_ns, "fabric.link.partition"
        for target, windows in self._pauses.items():
            if target is not None and target != node:
                continue
            for start, end in windows:
                if start <= t_ns < end:
                    if math.isinf(end):
                        return DROP, t_ns, "fabric.node.pause"
                    return HOLD, end, "fabric.node.pause"
        return OK, t_ns, None

    def blackout(self, node: str, t_ns: float) -> bool:
        """Whether the node's status digests are dark at ``t_ns`` (the
        health layer's miss signal): any partition or pause window —
        finite or permanent — covering the instant."""
        return self.node_fate(node, t_ns)[0] != OK

    def record(self, when_ns: float, kind: str, site: Any,
               spec: Optional[FaultSpec] = None) -> None:
        """Log one windowed fault effect (partition/pause drop or
        hold) at the moment it bit a message."""
        self.injected.append(InjectedFault(when_ns, kind, site, spec))

    # -- per-message draws ---------------------------------------------------

    def draw(self, kind: str, now_ns: float, src: str, dst: str,
             mid: int, attempt: int) -> Optional[FaultSpec]:
        """Consume (or hash-derive) one armed ``kind`` fault for the
        message ``mid``/``attempt`` crossing ``src -> dst`` at
        ``now_ns``.  Deterministic: count specs consult only the plan
        and the clock; rate specs consult only the message identity."""
        site = (src, dst)
        unit = None
        for at_ns, target, until, rate, spec in self._rates.get(kind, ()):
            if at_ns > now_ns or not _match_link(target, src, dst):
                continue
            if until is not None and now_ns >= until:
                continue
            if unit is None:
                # hash01(seed, kind, mid, attempt), key built once
                unit = _unit(f"{self.seed}:{kind}:{mid}:{attempt}")
            if unit < rate:
                self.injected.append(
                    InjectedFault(now_ns, kind, site, spec))
                return spec
        return _dispense(self._armed, kind, now_ns, site, _spec_on_link,
                         self.injected)

    # -- reporting -----------------------------------------------------------

    @property
    def injected_count(self) -> int:
        return len(self.injected)

    def by_kind(self) -> Dict[str, int]:
        """Histogram of fired fabric faults (for the fleet report)."""
        out: Dict[str, int] = {}
        for fault in self.injected:
            out[fault.kind] = out.get(fault.kind, 0) + 1
        return out

    def fingerprint(self) -> tuple:
        return tuple((f.when_ns, f.kind, f.site) for f in self.injected)
