"""Scheduler decisions read back from an :class:`repro.obs.Obs`."""

from typing import Dict, List, Tuple


def sched_decisions(obs) -> Dict[str, List[Tuple[float, int]]]:
    """The ``sched.mtb*`` instants as ``name -> [(t_ns, task_id)]``.

    Names are sorted; each list keeps record order, which is the order
    the MTBs made the decisions in.
    """
    out: Dict[str, List[Tuple[float, int]]] = {}
    for track, name, t_ns, args in obs.instants:
        if track.startswith("sched.mtb"):
            out.setdefault(name, []).append((t_ns, args["task_id"]))
    return dict(sorted(out.items()))
