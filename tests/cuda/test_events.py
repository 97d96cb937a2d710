"""CUDA event semantics."""

import pytest

from repro.cuda import Stream
from repro.cuda.events import CudaEvent
from repro.sim import Engine


def delay_op(duration):
    def op():
        yield duration
    return op


def test_record_completes_after_prior_stream_work():
    eng = Engine()
    s = Stream(eng, "s")
    ev = CudaEvent(eng, "e")
    s.enqueue(delay_op(100.0))
    ev.record(s)
    s.enqueue(delay_op(50.0))  # work after the record: not waited on
    eng.run()
    assert ev.completed
    assert ev.complete_time == pytest.approx(100.0)


def test_synchronize_blocks_until_completion():
    eng = Engine()
    s = Stream(eng, "s")
    ev = CudaEvent(eng, "e")
    s.enqueue(delay_op(30.0))
    ev.record(s)
    got = []

    def waiter():
        t = yield ev.synchronize()
        got.append(t)

    eng.spawn(waiter())
    eng.run()
    assert got == [pytest.approx(30.0)]


def test_synchronize_before_record_raises():
    ev = CudaEvent(Engine(), "e")
    with pytest.raises(RuntimeError):
        ev.synchronize()


def test_double_completion_guard():
    eng = Engine()
    s = Stream(eng, "s")
    ev = CudaEvent(eng, "e")
    ev.record(s)
    eng.run()
    with pytest.raises(RuntimeError):
        ev.record(s)


def test_elapsed_ms_between_events():
    eng = Engine()
    s = Stream(eng, "s")
    a, b = CudaEvent(eng, "a"), CudaEvent(eng, "b")
    a.record(s)
    s.enqueue(delay_op(2_000_000.0))  # 2 ms
    b.record(s)
    eng.run()
    assert a.elapsed_ms(b) == pytest.approx(2.0)


def test_elapsed_requires_completion():
    eng = Engine()
    s = Stream(eng, "s")
    a, b = CudaEvent(eng, "a"), CudaEvent(eng, "b")
    a.record(s)
    with pytest.raises(RuntimeError):
        a.elapsed_ms(b)

