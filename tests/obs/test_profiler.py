"""The sim profiler: deterministic tallies, wrapping, and teardown."""

from repro.obs import Obs, SimProfiler
from repro.sim import Engine, Event


def sleeper(naps, gap):
    def proc():
        for _ in range(naps):
            yield gap
    return proc


def test_counts_resumes_and_virtual_time():
    engine = Engine()
    profiler = engine.profiler = SimProfiler()
    engine.spawn(sleeper(3, 10.0)(), "worker")
    engine.run()
    stat = profiler.stats["worker"]
    assert stat.spawns == 1
    assert stat.events == 3
    assert stat.vtime_ns == 30.0
    assert engine.now == 30.0


def test_same_name_aggregates_spawns():
    engine = Engine()
    profiler = engine.profiler = SimProfiler()
    for _ in range(4):
        engine.spawn(sleeper(2, 5.0)(), "worker")
    engine.run()
    stat = profiler.stats["worker"]
    assert stat.spawns == 4
    assert stat.events == 8


def test_top_n_orders_by_events_then_name():
    engine = Engine()
    profiler = engine.profiler = SimProfiler()
    engine.spawn(sleeper(5, 1.0)(), "busy")
    engine.spawn(sleeper(2, 1.0)(), "b-quiet")
    engine.spawn(sleeper(2, 1.0)(), "a-quiet")
    engine.run()
    names = [s.name for s in profiler.top(3)]
    assert names == ["busy", "a-quiet", "b-quiet"]
    assert [s.name for s in profiler.top(1)] == ["busy"]


def test_report_shape_and_format():
    engine = Engine()
    profiler = engine.profiler = SimProfiler()
    engine.spawn(sleeper(3, 2.0)(), "p")
    engine.run()
    report = profiler.report(5)
    assert report["processes"] == 1
    assert report["total_events"] == 3
    assert report["heap_peak"] >= 0
    assert report["top"][0]["name"] == "p"


def test_unnamed_process_uses_generator_name():
    engine = Engine()
    profiler = engine.profiler = SimProfiler()

    def my_proc():
        yield 1.0

    engine.spawn(my_proc())
    engine.run()
    assert "my_proc" in profiler.stats


def test_interrupt_closes_wrapped_generator():
    """interrupt() closes the profiler wrapper; the inner generator's
    finally blocks must run with it (resource cleanup relies on this)."""
    engine = Engine()
    engine.profiler = SimProfiler()
    closed = []

    def daemon():
        try:
            yield 10.0
            yield Event()  # parks forever; only interrupt() ends it
        finally:
            closed.append(True)

    proc = engine.spawn(daemon(), "d", daemon=True)
    engine.spawn(sleeper(1, 5.0)(), "main")
    engine.run()
    proc.interrupt()
    assert closed == [True]


def test_return_value_passes_through():
    """StopIteration values must survive wrapping: ``yield from`` on a
    subprocess and task_spawn-style returns depend on it."""
    engine = Engine()
    engine.profiler = SimProfiler()
    got = []

    def inner():
        yield 1.0
        return 42

    def outer():
        value = yield from inner()
        got.append(value)

    engine.spawn(outer(), "outer")
    engine.run()
    assert got == [42]


def test_obs_profile_flag_controls_attachment():
    assert Obs().profiler is not None
    assert Obs(profile=False).profiler is None


def test_identical_runs_identical_reports():
    def run():
        engine = Engine()
        profiler = engine.profiler = SimProfiler()
        engine.spawn(sleeper(4, 3.0)(), "a")
        engine.spawn(sleeper(2, 7.0)(), "b")
        engine.run()
        return profiler.report()

    assert run() == run()
