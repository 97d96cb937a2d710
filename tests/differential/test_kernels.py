"""The closed-form processor-sharing oracle and the occupancy memo.

:func:`repro.gpu.timing.ps_completion_times` must predict the event
loop's completion times for a pool with no further arrivals, and the
occupancy calculator's memo counters must count hits and misses.
"""

import pytest

from repro.gpu.occupancy import memo_stats, occupancy, reset_memo_counters
from repro.gpu.spec import titan_x
from repro.gpu.timing import ps_completion_times
from repro.sim import Engine, ProcessorSharing


# ---------------------------------------------------------------------------
# completion-time oracle
# ---------------------------------------------------------------------------

def test_ps_completion_times_matches_event_loop():
    """The closed-form oracle predicts the event loop's completion
    times for a no-further-arrivals pool (to timer granularity)."""
    engine = Engine()
    pool = ProcessorSharing(engine, rate=4.0, per_job_cap=1.0)
    amounts = [3.0, 5.0, 8.0, 13.0, 21.0]
    done = {}

    def job(i, amount):
        yield pool.consume(amount)
        done[i] = engine.now

    for i, amount in enumerate(amounts):
        engine.spawn(job(i, amount), name=f"j{i}")
    engine.run()
    predicted = ps_completion_times(0.0, 0.0, list(amounts), 4.0, 1.0)
    for i, t in enumerate(sorted(done.values())):
        assert t == pytest.approx(predicted[i], rel=1e-9)


def test_ps_completion_times_empty():
    assert ps_completion_times(1.0, 0.0, [], 4.0, 1.0) == []


# ---------------------------------------------------------------------------
# memo counters
# ---------------------------------------------------------------------------

def test_memo_stats_counts_hits_and_misses():
    spec = titan_x()
    reset_memo_counters()
    base = memo_stats()
    assert base == {"hits": 0, "misses": 0, "size": 0}
    occupancy(spec, 256, 32, 0)     # misses on every layer
    after_miss = memo_stats()
    assert after_miss["misses"] > 0
    assert after_miss["size"] > 0
    occupancy(spec, 256, 32, 0)     # pure hit
    after_hit = memo_stats()
    assert after_hit["hits"] == after_miss["hits"] + 1
    assert after_hit["misses"] == after_miss["misses"]
    reset_memo_counters()
    assert memo_stats() == {"hits": 0, "misses": 0, "size": 0}
