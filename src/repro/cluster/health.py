"""Router-side health suspicion: suspect → quarantine → probation.

The coordinator never probes nodes; it *watches* them.  Every barrier
epoch each live node's status digest either arrives or is dark
(partition / pause windows swallow it — see
:meth:`~repro.faults.injector.FabricInjector.blackout`).  The
:class:`HealthTracker` turns that visibility bit-stream into a state
machine per node:

========== ============================================================
healthy    digests flowing; fully routable.
suspect    :data:`SUSPECT_AFTER` consecutive misses; pulled out of the
           routing view (``alive=0`` overlay) and its unanswered
           requests become hedging candidates.
quarantined :data:`QUARANTINE_AFTER` consecutive misses; additionally the
           fabric abandons its unacked node→router messages (their
           rids are hedged instead).
probation  a quarantined node heard again; routable, but one more
           miss relapses straight back to quarantined.  After
           :data:`PROBATION_EPOCHS` clean epochs it is healthy again.
========== ============================================================

All of this runs on the coordinator from boundary-instant data only,
so it replays byte-identically from the run's seeds.  Every
transition (and every fabric retry/hedge the driver performs) is
logged as a :class:`DegradationEvent` in the fleet report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

# health states
HEALTHY = "healthy"
SUSPECT = "suspect"
QUARANTINED = "quarantined"
PROBATION = "probation"

#: states the router may place requests on.
ROUTABLE_STATES = (HEALTHY, PROBATION)


#: consecutive missed digests before a node is suspected.
SUSPECT_AFTER = 2
#: consecutive missed digests before a suspect is quarantined.
QUARANTINE_AFTER = 4
#: clean epochs a re-heard quarantined node serves on probation
#: before it counts as healthy again.
PROBATION_EPOCHS = 3
#: the state machine's settings as the fleet report prints them.
HEALTH_DESC = (f"digest-suspicion(suspect={SUSPECT_AFTER}, "
               f"quarantine={QUARANTINE_AFTER}, "
               f"probation={PROBATION_EPOCHS})")


@dataclass(frozen=True)
class DegradationEvent:
    """One self-healing action the cluster took (report evidence).

    ``kind`` is one of: ``retransmit``, ``dead_letter``, ``suspect``,
    ``quarantine``, ``probation``, ``readmit``, ``relapse``,
    ``hedge``, ``reroute``, ``defer``.  ``mid``/``rid`` are -1 when
    the event is not about a specific message/request.
    """

    when_ns: float
    kind: str
    node: str
    mid: int = -1
    rid: int = -1
    detail: str = ""

    def to_dict(self) -> Dict:
        out = {"when_ns": self.when_ns, "kind": self.kind,
               "node": self.node}
        if self.mid >= 0:
            out["mid"] = self.mid
        if self.rid >= 0:
            out["rid"] = self.rid
        if self.detail:
            out["detail"] = self.detail
        return out


class HealthTracker:
    """Per-node suspicion state machine over digest visibility."""

    def __init__(self, nodes: List[str]) -> None:
        self.state: Dict[str, str] = {n: HEALTHY for n in nodes}
        self._misses: Dict[str, int] = {n: 0 for n in nodes}
        self._probation_left: Dict[str, int] = {n: 0 for n in nodes}

    def observe(self, heard: Dict[str, bool]) -> List[Tuple[str, str, str]]:
        """Fold one epoch boundary's digest visibility into the state
        machine.  Returns ``(node, old_state, new_state)`` transitions
        in sorted node order (deterministic event order)."""
        transitions: List[Tuple[str, str, str]] = []
        for node in sorted(self.state):
            if node not in heard:
                continue  # dead nodes are the router's problem, not ours
            old = self.state[node]
            new = old
            if heard[node]:
                if old == QUARANTINED:
                    new = PROBATION
                    self._probation_left[node] = PROBATION_EPOCHS
                elif old == PROBATION:
                    self._probation_left[node] -= 1
                    if self._probation_left[node] <= 0:
                        new = HEALTHY
                elif old == SUSPECT:
                    new = HEALTHY
                self._misses[node] = 0
            else:
                self._misses[node] += 1
                if old == PROBATION:
                    new = QUARANTINED  # relapse: no second chances
                elif self._misses[node] >= QUARANTINE_AFTER:
                    new = QUARANTINED
                elif self._misses[node] >= SUSPECT_AFTER:
                    new = SUSPECT
            if new != old:
                self.state[node] = new
                transitions.append((node, old, new))
        return transitions

    def routable(self, node: str) -> bool:
        """Whether the router may place fresh work on ``node``."""
        return self.state.get(node, HEALTHY) in ROUTABLE_STATES

    def bad_nodes(self) -> List[str]:
        """Nodes currently pulled from routing, sorted."""
        return sorted(n for n, s in self.state.items()
                      if s not in ROUTABLE_STATES)

    def final_states(self) -> Dict[str, str]:
        """Snapshot of every node's state (for the fleet report)."""
        return dict(sorted(self.state.items()))
