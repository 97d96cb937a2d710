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
