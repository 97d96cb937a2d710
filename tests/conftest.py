"""Suite-wide fixtures.

A finished Pagoda session is a large cyclic object graph (48 MTBs x 32
suspended coroutines, signal waiters back-referencing their processes),
and several hundred tests each build fresh ones.  CPython's cycle
collector gets there eventually, but under pytest the garbage can pile
up to gigabytes before a threshold collection triggers — so sweep
explicitly after each test to keep the suite's footprint flat.
"""

import gc

import pytest

from repro.sim import Engine
from repro.sim.engine import Op


@pytest.fixture(autouse=True)
def _collect_session_garbage():
    yield
    gc.collect()


@pytest.fixture
def process_spawns(monkeypatch):
    """The name of every generator process spawned during the test:
    ``Engine.spawn`` counts each one that is not a callback
    :class:`~repro.sim.engine.Op`."""
    names = []
    spawn = Engine.spawn

    def counting(self, gen, name="", daemon=False):
        if not isinstance(gen, Op):
            names.append(name or getattr(gen, "__name__", "process"))
        return spawn(self, gen, name, daemon)

    monkeypatch.setattr(Engine, "spawn", counting)
    return names
