"""The scenario contract: named, versioned, pass/fail-checkable runs.

A :class:`Scenario` is a declarative bundle of everything one incident
experiment needs — a workload (tenants + arrival processes), a fault
plan, SLO/admission configuration, and **detectors**: predicates that
assert on the run's deliverables (the canonical report digest, the
``repro.obs`` snapshot, and any deterministic scalars the runner
computed).  The split mirrors AIOpsLab's orchestrator / problem
registry / detector design: the *scenario* says what to run, the
*registry* (:mod:`repro.scenarios.registry`) knows how to run it, and
the *detectors* turn the outcome into machine-checkable verdicts.

Determinism is the whole point.  A scenario run is a pure function of
``(name, seed)``: the runner builds every seeded input up front, the
simulation is deterministic by the engine's contract, and detector
details quote virtual-time values only — so the
:meth:`ScenarioResult.to_json` bytes are identical across repeated
runs, which ``tests/scenarios`` asserts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: result JSON schema tag (bump when the digest's shape changes).
SCHEMA = "repro.scenarios/1"

#: the stack layers a scenario may exercise (reported + CI-matrixed).
LAYERS = ("serve", "fault", "cluster", "partition", "paper")


@dataclass(frozen=True)
class ScenarioParams:
    """Per-run knobs a caller may vary."""

    seed: int


@dataclass
class ScenarioOutcome:
    """What a scenario runner hands back to the detectors."""

    #: canonical, JSON-ready report digest (a ``ServeReport.to_dict``,
    #: a ``FleetReport.to_dict``, or a scenario-shaped dict of them).
    report: dict
    #: ``repro.obs`` snapshot (``repro.obs/2`` or the aggregate
    #: ``repro.obs/aggregate/2``), when the runner instrumented the run.
    obs: Optional[dict] = None
    #: deterministic virtual-time scalars the runner derived (ratios,
    #: calibrated capacities, trace mixes) for detectors to assert on.
    extra: Dict[str, float] = field(default_factory=dict)
    #: the artefact's human-readable report from the same run (what
    #: ``python -m repro.bench <name>`` prints); never part of the
    #: digest.
    text: str = ""


@dataclass
class ScenarioContext:
    """Everything a detector may look at."""

    scenario: "Scenario"
    params: ScenarioParams
    report: dict
    obs: Optional[dict]
    extra: Dict[str, float]


@dataclass(frozen=True)
class Verdict:
    """One detector's pass/fail with its (deterministic) evidence."""

    detector: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"detector": self.detector, "passed": self.passed,
                "detail": self.detail}


class Detector:
    """Base detector: a named predicate over a :class:`ScenarioContext`.

    Subclasses implement :meth:`check` returning ``(passed, detail)``;
    ``detail`` must be built from virtual-time values only so verdicts
    are byte-stable.  A detector that raises is reported as a failed
    verdict quoting the exception — a scenario must never crash the
    catalog run.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def check(self, ctx: ScenarioContext) -> Tuple[bool, str]:
        raise NotImplementedError

    def evaluate(self, ctx: ScenarioContext) -> Verdict:
        try:
            passed, detail = self.check(ctx)
        except Exception as exc:  # noqa: BLE001 - verdict, not crash
            return Verdict(self.name, False,
                           f"detector error: {type(exc).__name__}: {exc}")
        return Verdict(self.name, bool(passed), detail)


@dataclass(frozen=True)
class Scenario:
    """One named, versioned incident experiment."""

    name: str
    version: int
    #: which stack layer the incident exercises (one of :data:`LAYERS`).
    layer: str
    description: str
    #: builds the seeded inputs, runs the simulation, returns the
    #: outcome.
    runner: Callable[[ScenarioParams], ScenarioOutcome]
    detectors: Tuple[Detector, ...]
    default_seed: int = 0

    def __post_init__(self) -> None:
        if self.layer not in LAYERS:
            raise ValueError(
                f"scenario {self.name!r} layer {self.layer!r} not in "
                f"{LAYERS}"
            )
        if not self.detectors:
            raise ValueError(f"scenario {self.name!r} has no detectors")
        if self.version < 1:
            raise ValueError(f"scenario {self.name!r} version must be >= 1")


def _canonical_sha256(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True,
                   separators=(",", ":")).encode("utf-8")
    ).hexdigest()


@dataclass
class ScenarioResult:
    """One scenario run's full deliverable: outcome + verdicts."""

    scenario: Scenario
    params: ScenarioParams
    outcome: ScenarioOutcome
    verdicts: List[Verdict]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def summary_line(self) -> str:
        """One stable pass/fail line (the CI matrix row)."""
        ok = sum(1 for v in self.verdicts if v.passed)
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.scenario.name} v{self.scenario.version} "
                f"[{self.scenario.layer}] seed={self.params.seed} "
                f"detectors={ok}/{len(self.verdicts)}")

    def to_dict(self) -> dict:
        """The canonical digest: the verdicts, the runner's scalars and
        the report with its sha256 (and the obs snapshot's)."""
        digest = {
            "schema": SCHEMA,
            "scenario": self.scenario.name,
            "version": self.scenario.version,
            "layer": self.scenario.layer,
            "seed": self.params.seed,
            "passed": self.passed,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "extra": {k: self.outcome.extra[k]
                      for k in sorted(self.outcome.extra)},
            "report": self.outcome.report,
            "report_sha256": _canonical_sha256(self.outcome.report),
        }
        if self.outcome.obs is not None:
            digest["obs_sha256"] = _canonical_sha256(self.outcome.obs)
        return digest

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, fixed separators,
        pre-rounded floats."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
