"""The `python -m repro.bench` command-line runner."""

import subprocess
import sys

import pytest

from repro.bench.__main__ import EXPERIMENTS, TASK_SIZED, run_one


def test_registry_covers_every_paper_artefact():
    assert {"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "tab3", "tab5"} <= set(EXPERIMENTS)
    assert {"ablations", "load", "priorities", "sweeps"} <= set(EXPERIMENTS)
    assert TASK_SIZED <= set(EXPERIMENTS)


def test_run_one_small_tab3():
    text = run_one("tab3", num_tasks=32)
    assert "TAB3" in text
    assert "wall]" in text


def test_cli_subprocess_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "tab3", "--tasks", "24"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-1500:]
    assert "TAB3" in proc.stdout


def test_cli_rejects_unknown_experiment():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "nope"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "invalid choice" in proc.stderr


def test_bench_script_json_stream_is_clean(tmp_path):
    """scripts/bench.py --json run under the conda-silenced environment
    must put exactly one parsable JSON record on stdout (no condarc
    warnings or other chatter interleaved) carrying the engine metrics."""
    import json
    import pathlib

    from tests.bench.test_bench_baseline import bench

    script = pathlib.Path(__file__).parents[2] / "scripts" / "bench.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--json", "--no-fail",
         "--output", str(tmp_path / "BENCH.json")],
        capture_output=True, text=True, timeout=600,
        env=bench.clean_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr[-1500:]
    record = json.loads(proc.stdout)  # the *entire* stream is the record
    for key in ("engine_events_per_s", "engine_events_per_s_fan"):
        assert record["metrics"][key] > 0, key
    assert f"fig5_slice_{bench.FIG5_SLICE_TASKS}_tasks" in record["wall_s"]


def test_calibrate_script_reports_on_target():
    """scripts/calibrate.py must confirm the shipped constants still
    land near their Table 3 targets (and not mutate the library)."""
    import pathlib

    import repro.workloads.mandelbrot as mb

    script = pathlib.Path(__file__).parents[2] / "scripts" / "calibrate.py"
    before = mb.INST_PER_ITER
    proc = subprocess.run(
        [sys.executable, str(script), "--tasks", "96", "--workloads", "mb"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-1500:]
    assert "INST_PER_ITER" in proc.stdout
    assert "drifted" not in proc.stdout
    assert mb.INST_PER_ITER == before
