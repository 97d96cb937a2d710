"""Reusable detectors: predicates over reports and obs snapshots.

Detectors are deliberately small and declarative — a dotted path into
the report digest, a comparison, a bound — so a scenario definition
reads like the incident postmortem it encodes ("token bucket holds
victim p99 under 2x overload", "quarantine readmits within 8 epochs
of the heal").  Anything a detector quotes in its detail string is a
virtual-time value, keeping verdict bytes identical across worker
counts.

The dotted-path convention: ``"totals.completed"`` walks nested dicts
in ``ctx.report``; integer segments index into lists
(``"health.events.0.kind"``).
"""

from __future__ import annotations

from typing import Tuple

from repro.scenarios.spec import Detector, ScenarioContext

#: comparison operators a bound detector may use.
_OPS = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def lookup(table, path: str):
    """Walk ``table`` along a dotted path; raises ``KeyError`` naming
    the first missing segment."""
    node = table
    walked = []
    for segment in path.split("."):
        walked.append(segment)
        if isinstance(node, (list, tuple)):
            try:
                node = node[int(segment)]
                continue
            except (ValueError, IndexError):
                raise KeyError(".".join(walked)) from None
        if not isinstance(node, dict) or segment not in node:
            raise KeyError(".".join(walked))
        node = node[segment]
    return node


class ReportValue(Detector):
    """``report[path] <op> bound`` — the workhorse detector."""

    def __init__(self, name: str, path: str, op: str, bound) -> None:
        super().__init__(name)
        if op not in _OPS:
            raise ValueError(f"unknown op {op!r} (have {sorted(_OPS)})")
        self.path = path
        self.op = op
        self.bound = bound

    def _value(self, ctx: ScenarioContext):
        return lookup(ctx.report, self.path)

    def check(self, ctx: ScenarioContext) -> Tuple[bool, str]:
        value = self._value(ctx)
        passed = _OPS[self.op](value, self.bound)
        return passed, f"{self.path}={value} {self.op} {self.bound}"


class ExtraValue(ReportValue):
    """``extra[key] <op> bound`` over the runner's derived scalars."""

    def _value(self, ctx: ScenarioContext):
        return lookup(ctx.extra, self.path)


class ObsValue(ReportValue):
    """``obs_snapshot[path] <op> bound`` — asserts on the ``repro.obs``
    snapshot (``counters.serve.offered`` style paths are looked up as
    section + instrument name, since instrument names themselves
    contain dots)."""

    def _value(self, ctx: ScenarioContext):
        if ctx.obs is None:
            raise KeyError("scenario runner attached no obs snapshot")
        section, _, rest = self.path.partition(".")
        table = ctx.obs[section]
        if rest in table:
            return table[rest]
        # instrument names contain dots themselves — peel trailing
        # record fields off until a registered name matches
        parts = rest.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            name = ".".join(parts[:cut])
            if name in table:
                return lookup(table[name], ".".join(parts[cut:]))
        raise KeyError(self.path)


class ObsCounterMatchesReport(Detector):
    """The obs layer and the report must tell the same story: a named
    obs counter equals a report-digest field (e.g. ``serve.completed``
    vs ``totals.completed``).  Catches instrumentation drift — the
    class of bug where the dashboard and the billing disagree."""

    def __init__(self, name: str, counter: str, report_path: str) -> None:
        super().__init__(name)
        self.counter = counter
        self.report_path = report_path

    def check(self, ctx: ScenarioContext) -> Tuple[bool, str]:
        if ctx.obs is None:
            raise KeyError("scenario runner attached no obs snapshot")
        observed = ctx.obs["counters"][self.counter]
        reported = lookup(ctx.report, self.report_path)
        return (observed == reported,
                f"obs counters.{self.counter}={observed} == "
                f"{self.report_path}={reported}")


class Conservation(Detector):
    """No request may vanish: ``completed + failed + dropped ==
    offered`` over a totals-shaped table (a serve/fleet ``totals``
    section or the reliable lane's answer-ledger ``frontier``)."""

    def __init__(self, name: str = "requests_conserved",
                 path: str = "totals") -> None:
        super().__init__(name)
        self.path = path

    def check(self, ctx: ScenarioContext) -> Tuple[bool, str]:
        totals = lookup(ctx.report, self.path)
        offered = totals["offered"]
        answered = (totals["completed"] + totals["failed"]
                    + totals["dropped"])
        return (offered == answered,
                f"{self.path}: completed+failed+dropped={answered} == "
                f"offered={offered}")


class ReadmitWithin(Detector):
    """Self-healing closes its loop: after a node is quarantined, a
    ``readmit`` event for the same node must land within ``epochs``
    barrier epochs of the ``quarantine`` event.  Reads the reliable
    fleet digest's ``health.events`` log and ``sync.epoch_ns``."""

    def __init__(self, name: str, node: str, epochs: int) -> None:
        super().__init__(name)
        self.node = node
        self.epochs = epochs

    def check(self, ctx: ScenarioContext) -> Tuple[bool, str]:
        epoch_ns = lookup(ctx.report, "sync.epoch_ns")
        events = [e for e in lookup(ctx.report, "health.events")
                  if e["node"] == self.node]
        quarantined = [e["when_ns"] for e in events
                       if e["kind"] == "quarantine"]
        if not quarantined:
            return False, f"node {self.node}: no quarantine event"
        start = quarantined[0]
        readmits = [e["when_ns"] for e in events
                    if e["kind"] == "readmit" and e["when_ns"] > start]
        if not readmits:
            return False, (f"node {self.node}: quarantined at "
                           f"{start:g} ns, never readmitted")
        waited = (readmits[0] - start) / epoch_ns
        return (waited <= self.epochs,
                f"node {self.node}: readmitted {waited:g} epochs after "
                f"quarantine (bound {self.epochs})")
