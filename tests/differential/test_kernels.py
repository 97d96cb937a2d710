"""The vectorized GPU timing/occupancy kernels vs their scalar math.

Every kernel in :mod:`repro.gpu.timing` / :mod:`repro.gpu.occupancy`
must be *bit-identical* to the scalar formulation it replaces — the
fast lane's speed may never move a float.  Comparisons here are strict
``==`` on floats, deliberately.
"""

import math
import random

import pytest

from repro.gpu.occupancy import (
    blocks_per_smm,
    blocks_per_smm_array,
    memo_stats,
    occupancy,
    occupancy_array,
    reset_memo_counters,
)
from repro.gpu.spec import titan_x
from repro.gpu.timing import (
    _ps_completion_times_scalar,
    ps_completion_times,
)
from repro.sim import Engine, ProcessorSharing


# ---------------------------------------------------------------------------
# completion-time oracle
# ---------------------------------------------------------------------------

def test_ps_completion_times_bit_identical_to_scalar():
    rng = random.Random(9)
    for trial in range(20):
        now = rng.uniform(0.0, 1e5)
        v = rng.uniform(0.0, 1e3)
        tags = sorted(v + rng.uniform(1e-3, 1e4)
                      for _ in range(rng.randrange(1, 64)))
        rate = rng.uniform(1.0, 16.0)
        cap = rng.uniform(0.5, 4.0)
        vec = ps_completion_times(now, v, tags, rate, cap)
        ref = _ps_completion_times_scalar(now, v, tags, rate, cap)
        assert vec == ref  # bitwise


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
# occupancy arrays
# ---------------------------------------------------------------------------

def _shape_corpus():
    rng = random.Random(5)
    shapes = [(rng.choice([32, 64, 96, 128, 192, 256, 512, 1024, 2048]),
               rng.choice([0, 16, 32, 64, 128]),
               rng.choice([0, 512, 2048, 8192, 48 * 1024, 64 * 1024]))
              for _ in range(60)]
    shapes += [(1, 0, 0), (32, 32, 0), (1024, 255, 48 * 1024)]
    return shapes


def test_blocks_per_smm_array_matches_scalar():
    spec = titan_x()
    shapes = _shape_corpus()
    threads, regs, smem = zip(*shapes)
    got = blocks_per_smm_array(spec, threads, regs, smem)
    want = [blocks_per_smm(spec, t, r, s) for t, r, s in shapes]
    assert got == want


def test_occupancy_array_matches_scalar():
    spec = titan_x()
    shapes = _shape_corpus()
    threads, regs, smem = zip(*shapes)
    concurrent = [None if i % 3 else 32 for i in range(len(shapes))]
    got = occupancy_array(spec, threads, regs, smem, concurrent)
    want = [occupancy(spec, t, r, s, concurrent_blocks=c)
            for (t, r, s), c in zip(shapes, concurrent)]
    assert got == want  # bitwise: both sides are one float64 division
    assert all(math.isfinite(x) for x in got)


def test_blocks_per_smm_array_validates_inputs():
    spec = titan_x()
    with pytest.raises(ValueError):
        blocks_per_smm_array(spec, [0], [32], [0])


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
