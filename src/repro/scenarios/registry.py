"""The scenario registry: names -> runnable incident experiments.

AIOpsLab's split, transplanted: the *problem registry* is the lookup
table the orchestrator consults, and running a problem is one call
away from its name.  Here :func:`register` is called at import time by
:mod:`repro.scenarios.catalog` (and by any out-of-tree module that
wants its scenarios runnable by name), and :func:`run_scenario` is the
orchestrator — build params, invoke the scenario's runner, evaluate
its detectors, hand back the :class:`ScenarioResult`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.scenarios.spec import (
    Scenario,
    ScenarioContext,
    ScenarioParams,
    ScenarioResult,
)

_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (returns it, decorator-style)."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def _ensure_catalog() -> None:
    # the catalog registers itself on import; lazy so that spec/
    # detector definitions never depend on the (heavier) catalog
    import repro.scenarios.catalog  # noqa: F401
    import repro.scenarios.paper  # noqa: F401


def names() -> List[str]:
    """All registered scenario names, sorted."""
    _ensure_catalog()
    return sorted(_REGISTRY)


def get(name: str) -> Scenario:
    """Look a scenario up by name."""
    _ensure_catalog()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no scenario {name!r} (have {sorted(_REGISTRY)})"
        ) from None


def run_scenario(name: str, seed: Optional[int] = None) -> ScenarioResult:
    """Run one scenario end to end: runner, then every detector.

    ``seed`` defaults to the scenario's ``default_seed``.
    """
    scenario = get(name)
    params = ScenarioParams(
        seed=scenario.default_seed if seed is None else seed)
    outcome = scenario.runner(params)
    ctx = ScenarioContext(scenario=scenario, params=params,
                          report=outcome.report, obs=outcome.obs,
                          extra=outcome.extra)
    verdicts = [d.evaluate(ctx) for d in scenario.detectors]
    return ScenarioResult(scenario=scenario, params=params,
                          outcome=outcome, verdicts=verdicts)
