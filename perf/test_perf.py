"""Tests of the benchmark itself: ``python -m pytest perf -q``."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, PERF_DIR)

import run  # noqa: E402

run._load_src()

import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _declared():
    with open(run.BENCHMARK_JSON) as fh:
        return json.load(fh)


def test_calibration_imports_nothing_from_repro():
    with open(os.path.join(PERF_DIR, "calibrate.py")) as fh:
        tree = ast.parse(fh.read())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert modules
    assert not [m for m in modules if m.split(".")[0] == "repro"]


def test_benchmark_json_is_well_formed():
    declared = _declared()
    assert set(declared) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["perf"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.NAMES)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in declared["end_to_end"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_first_cell_is_consistent_and_matches_golden(name):
    cell = workloads.build(name, 0)[0]
    outcome = cell.run()
    assert outcome.errors == []
    assert outcome.completed > 0
    assert outcome.digest == run.golden_cells(name, 0)[0]
    assert cell.run().digest == outcome.digest


def test_broken_conservation_is_flagged():
    serve_cell = workloads.build("serve_obs", 0)[0]
    report = serve_cell.run().report
    assert workloads.serve_outcome(report).errors == []
    report.dropped += 1
    assert workloads.serve_outcome(report).errors

    fleet_cell = workloads.build("fleet_lossy", 0)[0]
    fleet = fleet_cell.run().report
    assert workloads.fleet_outcome(fleet).errors == []
    fleet.frontier["completed"] -= 1
    assert workloads.fleet_outcome(fleet).errors


def test_broken_invariant_fails_the_run():
    book = run.Book()
    cell = workloads.build("fleet_lossy", 0)[0]
    run.run_cell(cell, book)
    assert (book.attempted, book.failed) == (1, 0)
    doctored = workloads.Cell(cell.name, cell.runtime,
                              lambda: workloads.Outcome(
                                  digest="x", completed=1, latency=None,
                                  makespan_ns=1.0))
    run.run_cell(doctored, book)
    assert (book.attempted, book.failed) == (2, 1)


@pytest.mark.parametrize("traced", [0, 1])
def test_emitted_names_are_declared(traced, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"),
         "--workload", "fleet_lossy", "--seed", "0", "--seconds", "0",
         "--trace", str(traced), "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if traced else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for key, metric in result["metrics"].items():
        assert NAME.fullmatch(key)
        assert isinstance(metric["value"], (int, float))
    if traced:
        with open(tmp_path / "fleet_lossy.trace.json") as fh:
            chrome = json.load(fh)
        names = {e["name"] for e in chrome["traceEvents"]}
        assert {"run_cluster", "InProcessHost.step", "Engine.run"} <= names
        assert len(chrome["otherData"]["profile_top25"]) == 25
