"""The engine's one run loop, checked two ways.

Engine level: ``Engine`` against the frozen seed ``ReferenceEngine`` on
bounded runs, resumes after ``max_events``, idle stops, deadlocks and
exceptions — every exit path of the loop.

End to end: each artifact the repo knows how to compare (schedule
fingerprints of the golden corpus and a 25-seed hostile sweep with and
without fault plans, fully instrumented obs snapshots, serve reports)
is produced by plain drains and again by drains chopped into short
``max_events`` slices (``harness.sliced_drains``).  Both must agree to
the byte, pinning that a bound stop resumes in the original
``(when, seq)`` order on real workloads.
"""

import pytest

from repro.bench.harness import make_tasks, run_tasks
from repro.sim import DeadlockError, Engine, Event
from repro.sim.reference import ReferenceEngine

from tests.differential.harness import (
    DIFF_SEEDS,
    chaos_fingerprint,
    drained_both_ways,
    obs_snapshot_json,
    serve_report_json,
    sliced_drains,
)
from tests.test_determinism import (
    GOLDEN_APPROX_CASES,
    GOLDEN_EXACT_CASES,
    _engine_soup,
    fingerprint,
)


# ---------------------------------------------------------------------------
# Engine level
# ---------------------------------------------------------------------------

def test_engine_soup_three_way():
    """Trace, final clock, and event count agree across plain drains,
    sliced drains, and the frozen seed implementation."""
    plain, sliced = drained_both_ways(_engine_soup, Engine)
    reference = _engine_soup(ReferenceEngine)
    assert plain == sliced == reference


def _bounded_trace(engine, until=None, max_events=None):
    trace = []

    def ticker(i):
        for j in range(6):
            yield 1.0
            trace.append((engine.now, i, j))

    for i in range(4):
        engine.spawn(ticker(i), name=f"t{i}")
    end = engine.run(until=until, max_events=max_events)
    return tuple(trace), end, engine.event_count


@pytest.mark.parametrize("until,max_events", [
    (None, 7), (3.5, None), (3.0, None), (None, 1), (2.0, 9),
])
def test_bounded_runs_equivalent(until, max_events):
    """``until``/``max_events`` bounds stop the engine and the reference
    at the same event, clock, and count — including stops inside one
    instant."""
    assert (_bounded_trace(Engine(), until, max_events)
            == _bounded_trace(ReferenceEngine(), until, max_events))


def test_bounded_run_resumes_identically():
    """A run stopped inside one instant by ``max_events`` resumes in
    the original order."""
    def run(engine):
        trace = []

        def ticker(i):
            for j in range(4):
                yield 1.0
                trace.append((engine.now, i, j))

        for i in range(5):
            engine.spawn(ticker(i), name=f"t{i}")
        engine.run(max_events=3)   # stops among the t=0 spawns
        mid = tuple(trace)
        engine.run()               # drain the rest
        return mid, tuple(trace), engine.now, engine.event_count

    assert run(Engine()) == run(ReferenceEngine())


def test_deadlock_detection_both_lanes():
    """Deadlocks are reported after a plain and after a sliced drain."""
    def stuck():
        yield Event()  # never fires

    engine = Engine()
    engine.spawn(stuck(), name="stuck")
    with pytest.raises(DeadlockError, match="stuck"):
        engine.run(raise_on_deadlock=True)
    with sliced_drains():
        engine = Engine()
        engine.spawn(stuck(), name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            engine.run(raise_on_deadlock=True)


def test_exception_mid_batch_preserves_remainder():
    """An exception thrown from a callback is not counted and leaves
    the same events pending as on the reference."""
    def run(engine):
        trace = []

        def ticker(i):
            yield 1.0
            trace.append((engine.now, i))

        for i in range(6):
            engine.spawn(ticker(i), name=f"t{i}")

        def boom():
            raise RuntimeError("boom")

        engine.call_at(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            engine.run()
        mid = (tuple(trace), engine.event_count)
        engine.run()  # the remainder drains in original order
        return mid, tuple(trace), engine.now, engine.event_count

    assert run(Engine()) == run(ReferenceEngine())


# ---------------------------------------------------------------------------
# Golden corpus (end-to-end runs)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload,runtime,seed",
                         GOLDEN_EXACT_CASES + GOLDEN_APPROX_CASES)
def test_golden_corpus_lane_identical(workload, runtime, seed):
    """Every corpus cell — including the ULP-drift ones — is exactly
    the same under sliced drains."""
    tasks = make_tasks(workload, 24, 128, seed=seed)
    plain, sliced = drained_both_ways(
        lambda: fingerprint(run_tasks(tasks, runtime)))
    assert plain == sliced


# ---------------------------------------------------------------------------
# Seed sweep: hostile mixes, with and without an active FaultPlan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_chaos_seed_identical(seed):
    plain, sliced = drained_both_ways(chaos_fingerprint, seed)
    assert plain == sliced


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_chaos_seed_identical_under_fault_plan(seed):
    plain, sliced = drained_both_ways(chaos_fingerprint, seed, faulty=True)
    assert plain == sliced


# ---------------------------------------------------------------------------
# Obs snapshots and serve reports (byte comparisons)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 7, 19])
def test_obs_snapshot_byte_identical(seed):
    """Instrumented runs agree to the byte — including the
    occupancy-memo counters."""
    plain, sliced = drained_both_ways(obs_snapshot_json, seed)
    assert plain == sliced
    assert '"gpu.occupancy.memo_hits"' in plain


def test_serve_report_byte_identical():
    plain, sliced = drained_both_ways(serve_report_json)
    assert plain == sliced


def test_serve_report_byte_identical_under_faults():
    plain, sliced = drained_both_ways(serve_report_json, faulty=True)
    assert plain == sliced
