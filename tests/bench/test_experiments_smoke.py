"""Smoke tests for every experiment module at tiny scale.

The real shape assertions are the ``paper.*`` scenarios
(``repro.scenarios.paper``); these verify that
each experiment runs end-to-end, returns the documented structure, and
renders a report, quickly enough for the unit-test suite.
"""

import pytest

from repro.bench import fig5, fig6, fig7, fig8, fig9, fig10, fig11, tab3, tab5


def test_fig5_structure():
    results = fig5.run(num_tasks=24)
    assert set(results["geomeans"]) == {"pthreads", "hyperq", "gemtc",
                                        "pagoda"}
    assert len(results["per_workload"]) == 9
    assert "gemtc" not in results["per_workload"]["slud"]  # §6.2
    report = fig5.report(results)
    assert "FIG5" in report and "5.7" in report


def test_fig6_structure():
    results = fig6.run(counts=[8, 16])
    assert results["counts"] == [8, 16]
    for per_rt in results["times"].values():
        for series in per_rt.values():
            assert set(series) == {8, 16}
    assert "FIG6" in fig6.report(results)


def test_fig7_structure():
    results = fig7.run(num_tasks=16, thread_counts=[64, 128])
    assert set(results["geomeans_128"]) == {"hyperq", "gemtc"}
    assert "FIG7" in fig7.report(results)


def test_fig8_structure(monkeypatch):
    monkeypatch.setattr(
        fig8, "sweep_points", lambda: ([16], [256, 1024], 8)
    )
    results = fig8.run()
    assert set(results["speedups"]) == {"mm", "conv"}
    assert "FIG8" in fig8.report(results)


def test_fig9_structure():
    results = fig9.run(num_tasks=16)
    assert results["pagoda_over_fusion"] > 0
    assert len(results["per_workload"]) == 8  # no SLUD (§6.3)
    assert "slud" not in results["per_workload"]
    assert "FIG9" in fig9.report(results)


def test_fig10_structure():
    results = fig10.run(counts=[16, 64])
    checks = fig10.run_and_check(results)
    assert set(checks) == {"3des", "mm"}
    assert "FIG10" in fig10.report(results)


def test_fig10_flatness_helper():
    assert fig10.flatness({1: 10.0, 2: 20.0}) == 2.0


def test_fig11_structure():
    results = fig11.run(num_tasks=32)
    for speeds in results["speedups"].values():
        assert speeds["gemtc"] == 1.0
    assert "FIG11" in fig11.report(results)


def test_fig11_batch_scaling():
    assert fig11.batch_size_for(32 * 1024) == 384
    assert fig11.batch_size_for(256) == 32
    assert fig11.batch_size_for(2048) == 256


def test_tab3_structure():
    results = tab3.run(num_tasks=24)
    assert set(results["copy_pct"]) == set(tab3.PAPER_COPY_PCT)
    assert "TAB3" in tab3.report(results)


def test_tab5_structure():
    results = tab5.run(num_tasks=16)
    assert set(results["measured"]) == set(tab5.PAPER)
    report = tab5.report(results)
    assert "TAB5" in report and "25%" in report


def test_tab5_occupancy_bound_math():
    import numpy as np
    from repro.bench.tab5 import achieved_occupancy_bound, make_variant
    dct_smem = make_variant("dct", 1, 64, True, 0)[0]
    assert achieved_occupancy_bound(dct_smem) == pytest.approx(25.0)
    dct_plain = make_variant("dct", 1, 64, False, 0)[0]
    assert achieved_occupancy_bound(dct_plain) == pytest.approx(
        100 * 31 / 32)


def test_latency_under_load_structure():
    from repro.bench import latency_under_load as lul
    results = lul.run(num_tasks=48, gaps_ns=[20_000.0, 5_000.0])
    assert set(results["results"]) == {"pagoda", "pagoda-batching",
                                       "hyperq"}
    for per_gap in results["results"].values():
        for metrics in per_gap.values():
            assert set(metrics) == {"p50_us", "p99_us",
                                    "deadline_met_pct"}
    assert "LOAD" in lul.report(results)


def test_priorities_structure():
    from repro.bench import priorities
    results = priorities.run(num_tasks=96)
    assert set(results) >= {"fifo-blocking", "deferred",
                            "deferred+priority"}
    assert "PRIORITIES" in priorities.report(results)


def test_config_sweeps_structure():
    from repro.bench import config_sweeps
    results = config_sweeps.run(num_tasks=32)
    assert set(results["gemtc_workers"]["sweep"]) == {32, 64, 128, 256}
    assert set(results["hyperq_connections"]["sweep"]) == {1, 4, 8, 16, 32}
    assert set(results["fusion_threads"]["sweep"]) == {64, 128, 256, 512}
    assert "SWEEP" in config_sweeps.report(results)


def test_ablations_structure():
    from repro.bench import ablations
    results = ablations.run(num_tasks=64)
    assert set(results) == {"protocol", "rows", "psched", "copyback"}
    assert "ABLATION" in ablations.report(results)
