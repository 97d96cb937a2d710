"""Scenario results shared across the tier-1 session.

The ``paper.*`` scenarios run whole bench artefacts, so every test that
needs a scenario's result reads it from here: each scenario runs once
per session, however many tests check it.
"""

import functools

from repro.scenarios import run_scenario


@functools.lru_cache(maxsize=None)
def run_once(name: str):
    """:func:`repro.scenarios.run_scenario` at the default seed, memoized."""
    return run_scenario(name)
