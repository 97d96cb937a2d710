"""Tables 3/4 metadata consistency."""

import pytest

from repro.bench.tab3 import PAPER_COPY_PCT
from repro.workloads import REGISTRY
from repro.workloads.tables import TABLE34, check_consistency


def test_every_registered_workload_has_a_row():
    assert set(TABLE34) == set(REGISTRY.names())


def test_facts_match_registry():
    check_consistency()


def test_copy_percentages_match_tab3_targets():
    """One source of truth: Table 3's copy column equals the bench
    module's calibration targets."""
    for name, target in PAPER_COPY_PCT.items():
        assert TABLE34[name].paper_copy_pct == target


def test_copy_plus_compute_is_100():
    for name, facts in TABLE34.items():
        if facts.paper_copy_pct >= 0:
            assert facts.paper_copy_pct + facts.paper_compute_pct == 100


def test_task_counts_match_paper():
    assert TABLE34["slud"].paper_num_tasks == 273 * 1024
    others = [f.paper_num_tasks for n, f in TABLE34.items() if n != "slud"]
    assert set(others) == {32 * 1024}

