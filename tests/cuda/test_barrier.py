"""WarpBarrier tests."""

import pytest

from repro.cuda import WarpBarrier
from repro.sim import Engine


def test_parties_validation():
    with pytest.raises(ValueError):
        WarpBarrier(0)


def test_single_party_passes_through():
    bar = WarpBarrier(1)
    ev = bar.arrive()
    assert ev.fired
    assert bar.generation == 1


def test_all_parties_released_together():
    eng = Engine()
    bar = WarpBarrier(3)
    released = []

    def warp(i, delay):
        yield delay
        yield bar.arrive()
        released.append((i, eng.now))

    eng.spawn(warp(0, 1.0))
    eng.spawn(warp(1, 5.0))
    eng.spawn(warp(2, 3.0))
    eng.run()
    assert all(t == 5.0 for _i, t in released)
    assert len(released) == 3


def test_barrier_reusable_across_generations():
    eng = Engine()
    bar = WarpBarrier(2)
    log = []

    def warp(i, d1, d2):
        yield d1
        yield bar.arrive()
        log.append(("gen1", i, eng.now))
        yield d2
        yield bar.arrive()
        log.append(("gen2", i, eng.now))

    eng.spawn(warp(0, 1.0, 10.0))
    eng.spawn(warp(1, 2.0, 1.0))
    eng.run()
    gen1 = [t for tag, _i, t in log if tag == "gen1"]
    gen2 = [t for tag, _i, t in log if tag == "gen2"]
    assert gen1 == [2.0, 2.0]
    assert gen2 == [12.0, 12.0]
    assert bar.generation == 2


def test_waiting_counter():
    bar = WarpBarrier(3)
    bar.arrive()
    assert bar.waiting == 1
    bar.arrive()
    assert bar.waiting == 2
    bar.arrive()
    assert bar.waiting == 0


def test_leave_after_every_generation_is_fine():
    bar = WarpBarrier(2, "b")
    bar.arrive()
    bar.arrive()
    bar.leave()
    bar.leave()
    assert bar.generation == 1 and bar.waiting == 0


def test_exit_while_warps_wait_is_a_mismatch():
    bar = WarpBarrier(3, "b")
    bar.arrive()
    with pytest.raises(RuntimeError, match=(
            r"barrier b: warps disagree on their barrier count at "
            r"generation 0 \(a warp exited while 1 of its 3 warps wait\)")):
        bar.leave()


def test_arrival_after_an_exit_is_a_mismatch():
    bar = WarpBarrier(2, "b")
    bar.arrive()
    bar.arrive()
    bar.leave()
    with pytest.raises(RuntimeError, match=(
            r"generation 1 \(a warp arrived after 1 of its 2 warps "
            r"exited\)")):
        bar.arrive()
