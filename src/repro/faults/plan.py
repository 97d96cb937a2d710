"""Seeded fault schedules.

A :class:`FaultPlan` is an ordered list of
:class:`~repro.faults.spec.FaultSpec` drawn *up front* from one seeded
RNG — the plan is fixed before the simulation starts, so a chaos run
is a pure function of ``(workload, plan)`` and any failure replays
from its seed alone (the property gem5's deterministic-perturbation
work builds its methodology on).

``FaultPlan.generate(seed, ...)`` is the chaos harness's entry point;
``FaultPlan.zero()`` is the control arm: an injector carrying a
zero-fault plan must leave the simulated schedule bit-identical to a
run with no injector at all (asserted by ``tests/chaos``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.spec import FAULT_KINDS, FaultSpec

#: Kinds that require a watchdog to reclaim the task (the warp wedges).
HANG_KINDS = ("gpu.stuck_warp", "task.no_yield")

#: Kinds the default single-GPU chaos sweep draws from.  ``gpu.die``
#: is excluded (it only makes sense on a multi-GPU node) and must be
#: requested explicitly.
DEFAULT_SWEEP_KINDS: Tuple[str, ...] = (
    FAULT_KINDS["pcie"] + tuple(k for k in FAULT_KINDS["gpu"]
                                if k != "gpu.die")
    + FAULT_KINDS["cuda"] + FAULT_KINDS["task"]
)

#: Kinds the cluster fabric chaos sweep draws from.  ``fabric.node.
#: resume`` is excluded: the generator emits it itself as the closing
#: half of every pause window it draws.
FABRIC_SWEEP_KINDS: Tuple[str, ...] = (
    "fabric.link.drop",
    "fabric.link.dup",
    "fabric.link.delay_spike",
    "fabric.link.partition",
    "fabric.node.pause",
)


def stream_seed(seed: int, name: str) -> int:
    """A per-entity RNG seed derived from ``(seed, name)``.

    Uses :mod:`hashlib` (blake2b), never Python's salted ``hash()``,
    so a node's noise stream is identical across processes,
    interpreter restarts, and Python versions — the property the
    cluster's byte-identity contract needs from node-local jitter.
    """
    digest = hashlib.blake2b(f"{seed}:{name}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def hash01(seed: int, *parts) -> float:
    """A deterministic draw in ``[0, 1)`` from ``(seed, *parts)``.

    The rate-based fabric faults use this instead of an RNG stream so
    each message's fate is a pure function of its stable identity
    (plan seed, message id, attempt number, link) — independent of
    draw order and interpreter salt.  The key is the ``":"``-joined
    ``str`` of every part; :func:`_unit` turns it into the draw, and a
    hot caller that formats the same key itself (the fabric injector's
    per-message draw) calls :func:`_unit` directly.
    """
    return _unit(":".join([str(seed)] + [str(p) for p in parts]))


def _unit(key: str) -> float:
    """The ``[0, 1)`` draw of one :func:`hash01` key: the first 8
    bytes of its blake2b digest over 2**64."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


@dataclass
class FaultPlan:
    """An immutable-by-convention, seed-replayable fault schedule."""

    specs: List[FaultSpec] = field(default_factory=list)
    seed: Optional[int] = None

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def is_zero(self) -> bool:
        """True for the control plan (no perturbation at all)."""
        return not self.specs

    def kinds(self) -> Dict[str, int]:
        """Histogram of fault kinds in the plan (for reporting)."""
        out: Dict[str, int] = {}
        for spec in self.specs:
            out[spec.kind] = out.get(spec.kind, 0) + 1
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "FaultPlan":
        """The control arm: no faults."""
        return cls(specs=[], seed=None)

    @classmethod
    def generate(
        cls,
        seed: int,
        n_faults: int = 8,
        horizon_ns: float = 1_000_000.0,
        kinds: Sequence[str] = DEFAULT_SWEEP_KINDS,
        columns: int = 0,
        gpus: int = 0,
        magnitude_ns: Tuple[float, float] = (500.0, 50_000.0),
    ) -> "FaultPlan":
        """Draw ``n_faults`` specs from ``random.Random(seed)``.

        ``horizon_ns`` bounds arming times (faults should land while
        the workload is still in flight); ``columns``/``gpus`` > 0
        let targeted kinds (brown-outs, device death) pick a victim.
        The draw order is fixed — kind, time, magnitude, target — so a
        plan is stable across Python versions for a given seed.
        """
        if n_faults < 0:
            raise ValueError("n_faults must be >= 0")
        rng = random.Random(seed)
        specs: List[FaultSpec] = []
        kinds = tuple(kinds)
        for _ in range(n_faults):
            kind = rng.choice(kinds)
            at_ns = round(rng.uniform(0.0, horizon_ns), 3)
            magnitude = round(rng.uniform(*magnitude_ns), 3)
            target = None
            if kind == "gpu.brownout" and columns > 0:
                target = rng.randrange(columns)
            elif kind == "gpu.die" and gpus > 0:
                target = rng.randrange(gpus)
            specs.append(FaultSpec(
                kind=kind, at_ns=at_ns, magnitude_ns=magnitude,
                target=target,
            ))
        # arming order == time order; ties keep draw order (stable sort)
        specs.sort(key=lambda s: s.at_ns)
        return cls(specs=specs, seed=seed)

    @classmethod
    def generate_fabric(
        cls,
        seed: int,
        nodes: Sequence[str],
        n_faults: int = 6,
        horizon_ns: float = 1_000_000.0,
        kinds: Sequence[str] = FABRIC_SWEEP_KINDS,
        window_ns: Tuple[float, float] = (100_000.0, 400_000.0),
        magnitude_ns: Tuple[float, float] = (10_000.0, 100_000.0),
    ) -> "FaultPlan":
        """Draw a cluster-fabric chaos plan over ``nodes``.

        Unlike :meth:`generate`, the draws come from **per-node RNG
        streams** seeded by :func:`stream_seed` ``(seed, node)``: each
        node's share of the faults is a pure function of the cluster
        seed and its own name, so adding a node to the topology never
        reshuffles another node's noise.  ``n_faults`` is the fleet
        total, split evenly with the remainder going to the first nodes
        in sorted order.

        Windowed kinds use ``window_ns`` for their duration
        (``fabric.link.partition`` windows, pause→resume spans);
        point kinds use ``magnitude_ns`` (delay-spike sizes).
        """
        if n_faults < 0:
            raise ValueError("n_faults must be >= 0")
        if not nodes:
            raise ValueError("need at least one node")
        kinds = tuple(kinds)
        ordered = sorted(nodes)
        base, rem = divmod(n_faults, len(ordered))
        specs: List[FaultSpec] = []
        for pos, node in enumerate(ordered):
            rng = random.Random(stream_seed(seed, node))
            for _ in range(base + (1 if pos < rem else 0)):
                kind = rng.choice(kinds)
                at_ns = round(rng.uniform(0.0, horizon_ns), 3)
                if kind in ("fabric.link.partition", "fabric.node.pause"):
                    span = round(rng.uniform(*window_ns), 3)
                    if kind == "fabric.node.pause":
                        specs.append(FaultSpec(kind=kind, at_ns=at_ns,
                                               target=node))
                        specs.append(FaultSpec(kind="fabric.node.resume",
                                               at_ns=round(at_ns + span, 3),
                                               target=node))
                    else:
                        specs.append(FaultSpec(kind=kind, at_ns=at_ns,
                                               magnitude_ns=span,
                                               target=node))
                else:
                    magnitude = round(rng.uniform(*magnitude_ns), 3)
                    count = rng.randrange(1, 4)
                    specs.append(FaultSpec(kind=kind, at_ns=at_ns,
                                           magnitude_ns=magnitude,
                                           count=count, target=node))
        specs.sort(key=lambda s: (s.at_ns, s.kind, str(s.target)))
        return cls(specs=specs, seed=seed)

    def needs_watchdog(self) -> bool:
        """Whether the plan can wedge a warp (watchdog required)."""
        return any(spec.kind in HANG_KINDS for spec in self.specs)
