"""PCIe bus model tests."""

import pytest

from repro.gpu.timing import TimingModel
from repro.pcie import Direction, PcieBus
from repro.sim import Engine

TIMING = TimingModel(pcie_transaction_ns=1000.0, pcie_bandwidth_bpns=10.0)


def make_bus():
    eng = Engine()
    return eng, PcieBus(eng, TIMING)


def time_transfers(*sizes):
    """Simulated time to move ``sizes`` bytes one transfer after
    another on a fresh bus."""
    eng, bus = make_bus()

    def proc():
        for nbytes in sizes:
            yield from bus.transfer(nbytes, Direction.H2D)

    eng.spawn(proc())
    eng.run()
    return eng.now


def test_transfer_time_formula():
    assert time_transfers(0) == 1000.0
    assert time_transfers(10_000) == pytest.approx(2000.0)


def test_transfer_time_rejects_negative():
    _eng, bus = make_bus()
    with pytest.raises(ValueError):
        bus.transfer(-1, Direction.H2D)


def test_single_transfer_completes():
    eng, bus = make_bus()
    done = []

    def proc():
        yield from bus.transfer(10_000, Direction.H2D)
        done.append(eng.now)

    eng.spawn(proc())
    eng.run()
    assert done == [pytest.approx(2000.0)]
    assert bus.bytes_moved[Direction.H2D] == 10_000
    assert bus.transactions[Direction.H2D] == 1


def test_same_direction_transfers_serialize():
    eng, bus = make_bus()
    done = []

    def proc(tag):
        yield from bus.transfer(0, Direction.H2D)
        done.append((tag, eng.now))

    eng.spawn(proc("a"))
    eng.spawn(proc("b"))
    eng.run()
    assert dict(done) == {"a": pytest.approx(1000.0),
                          "b": pytest.approx(2000.0)}


def test_opposite_directions_overlap():
    eng, bus = make_bus()
    done = []

    def proc(tag, direction):
        yield from bus.transfer(0, direction)
        done.append((tag, eng.now))

    eng.spawn(proc("h2d", Direction.H2D))
    eng.spawn(proc("d2h", Direction.D2H))
    eng.run()
    assert dict(done) == {"h2d": pytest.approx(1000.0),
                          "d2h": pytest.approx(1000.0)}


def test_batching_beats_many_small_copies():
    """The economics behind lazy aggregate TaskTable updates (§4.2.2)."""
    many_small = time_transfers(*[256] * 32)
    one_big = time_transfers(32 * 256)
    assert one_big < many_small / 10


def test_busy_time_accounting():
    eng, bus = make_bus()

    def proc():
        yield from bus.transfer(10_000, Direction.H2D)
        yield from bus.transfer(5_000, Direction.H2D)
        yield from bus.transfer(2_000, Direction.D2H)

    eng.spawn(proc())
    eng.run()
    # two H2D transactions: 2 * 1000 overhead + 15000 bytes / 10 B/ns
    assert bus.busy_time(Direction.H2D) == pytest.approx(2000 + 1500)
    assert bus.busy_time(Direction.D2H) == pytest.approx(1200.0)
    assert bus.total_busy_time() == pytest.approx(3500 + 1200)


def test_recorder_samples_transfers():
    """Each finished transfer is tallied in its direction only."""
    eng, bus = make_bus()

    def proc():
        yield from bus.transfer(64, Direction.H2D)

    eng.spawn(proc())
    eng.run()
    assert bus.transactions[Direction.H2D] == 1
    assert bus.transactions[Direction.D2H] == 0
    assert bus.bytes_moved[Direction.H2D] == 64


def test_fifo_order_preserved_under_random_sizes():
    """Same-direction transfers complete in issue order regardless of
    size (posted/DMA FIFO semantics the TaskTable protocol relies on)."""
    import numpy as np

    rng = np.random.default_rng(5)
    eng, bus = make_bus()
    completions = []

    def proc(i, nbytes):
        yield from bus.transfer(nbytes, Direction.H2D)
        completions.append(i)

    for i in range(30):
        eng.spawn(proc(i, int(rng.integers(0, 100_000))))
    eng.run()
    assert completions == list(range(30))


# -- the per-transaction cost model ------------------------------------------


def run_transfers(bus, eng, jobs):
    """Drive (start_time, nbytes, direction) jobs; return finish times."""
    finished = {}

    def proc(i, start, nbytes, direction):
        if start:
            yield start
        yield from bus.transfer(nbytes, direction)
        finished[i] = eng.now

    for i, (start, nbytes, direction) in enumerate(jobs):
        eng.spawn(proc(i, start, nbytes, direction))
    eng.run()
    return finished


def test_coalesce_off_matches_seed_cost_model():
    """Every transaction pays setup, back-to-back or not: the numbers
    are exactly the paper's per-transaction model's."""
    eng = Engine()
    bus = PcieBus(eng, TIMING)
    finished = run_transfers(bus, eng, [
        (0.0, 10_000, Direction.H2D),
        (0.0, 10_000, Direction.H2D),
        (0.0, 10_000, Direction.H2D),
    ])
    assert finished == {0: pytest.approx(2000.0),
                       1: pytest.approx(4000.0),
                       2: pytest.approx(6000.0)}
    assert bus.busy_time(Direction.H2D) == pytest.approx(3 * 2000.0)


def test_concurrent_directions_do_not_reorder_within_direction():
    import numpy as np

    rng = np.random.default_rng(6)
    eng, bus = make_bus()
    h2d, d2h = [], []

    def proc(i, direction, log):
        yield from bus.transfer(int(rng.integers(0, 50_000)), direction)
        log.append(i)

    for i in range(10):
        eng.spawn(proc(i, Direction.H2D, h2d))
        eng.spawn(proc(i, Direction.D2H, d2h))
    eng.run()
    assert h2d == sorted(h2d)
    assert d2h == sorted(d2h)
