"""`scripts/bench.py --check` baseline handling.

The perf guard must fail on a genuine regression — and *only* then.
A missing or schema-mismatched baseline (first run on a machine, or a
record-format change) records a fresh baseline and exits 0.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_script", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

FAKE_RECORD = {
    "metrics": {"pagoda_tasks_per_s": 1000.0, "engine_events_per_s": 5e6},
    "wall_s": {},
    "speedup_vs_seed": {},
}


@pytest.fixture
def fast_bench(monkeypatch):
    """bench.py with the (slow) measurement phase stubbed out."""
    monkeypatch.setattr(bench, "measure", lambda: json.loads(
        json.dumps(FAKE_RECORD)))
    return bench


def test_load_baseline_missing_file(tmp_path):
    assert bench.load_baseline(tmp_path / "nope.json") is None


def test_load_baseline_rejects_garbage_and_schema_mismatch(tmp_path):
    path = tmp_path / "b.json"
    for bad in ["not json {", json.dumps([1, 2, 3]),
                json.dumps({"no_metrics_key": 1}),
                json.dumps({"metrics": "a string, not a mapping"}),
                json.dumps({"metrics": {"tasks": "fast"}})]:
        path.write_text(bad)
        assert bench.load_baseline(path) is None, bad


def test_load_baseline_accepts_valid_record(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(FAKE_RECORD))
    assert bench.load_baseline(path) == FAKE_RECORD["metrics"]


def test_check_with_no_baseline_records_fresh_and_passes(
        fast_bench, tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    rc = fast_bench.main(["--check", "--output", str(out)])
    assert rc == 0
    assert "no baseline, recording fresh" in capsys.readouterr().out
    assert json.loads(out.read_text())["metrics"] == FAKE_RECORD["metrics"]


def test_check_with_mismatched_baseline_recovers(
        fast_bench, tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"metrics": {"tasks": "fast"}}))
    rc = fast_bench.main(["--check", "--output", str(out)])
    assert rc == 0
    assert "no baseline, recording fresh" in capsys.readouterr().out
    # the unusable baseline was replaced by a well-formed record
    assert fast_bench.load_baseline(out) == FAKE_RECORD["metrics"]


def test_obs_ratio_excluded_from_throughput_comparison(tmp_path):
    """obs_on_off_ratio has its own floor guard; a run-to-run swing in
    the ratio must not trip the generic >20% throughput check."""
    record = {"metrics": {"pagoda_tasks_per_s": 1000.0,
                          "obs_on_off_ratio": 0.8}}
    baseline = {"pagoda_tasks_per_s": 1000.0, "obs_on_off_ratio": 1.2}
    assert bench.check_regression(record, baseline) == []


def test_obs_overhead_floor_fails_check(fast_bench, tmp_path, monkeypatch,
                                        capsys):
    """A ratio below OBS_OVERHEAD_FLOOR fails --check (and only warns
    with --no-fail), independent of the baseline comparison."""
    slow = json.loads(json.dumps(FAKE_RECORD))
    slow["metrics"]["obs_on_off_ratio"] = bench.OBS_OVERHEAD_FLOOR / 2
    monkeypatch.setattr(bench, "measure",
                        lambda: json.loads(json.dumps(slow)))
    out = tmp_path / "BENCH.json"
    assert bench.main(["--check", "--output", str(out)]) == 1
    assert "obs_on_off_ratio" in capsys.readouterr().out
    assert bench.main(["--check", "--no-fail", "--output", str(out)]) == 0


def test_json_mode_keeps_stdout_machine_parsable(fast_bench, tmp_path,
                                                 capsys):
    """With --json the whole stdout stream is one JSON document; the
    human-readable report moves to stderr."""
    out = tmp_path / "BENCH.json"
    rc = fast_bench.main(["--check", "--json", "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert json.loads(captured.out)["metrics"] == FAKE_RECORD["metrics"]
    assert "no baseline, recording fresh" in captured.err


def test_clean_subprocess_env_silences_condarc(monkeypatch):
    import os

    monkeypatch.setenv("CONDARC", "/nonexistent/.condarc")
    monkeypatch.setenv("CONDA_PROMPT_MODIFIER", "(base) ")
    monkeypatch.setenv("CONDA_PREFIX", "/opt/conda")
    env = bench.clean_subprocess_env()
    assert env["CONDARC"] == os.devnull
    assert "CONDA_PROMPT_MODIFIER" not in env
    # the interpreter-resolution variables survive
    assert env["CONDA_PREFIX"] == "/opt/conda"
    assert os.environ["CONDARC"] == "/nonexistent/.condarc"  # untouched


def test_check_still_fails_on_genuine_regression(fast_bench, tmp_path):
    out = tmp_path / "BENCH.json"
    good = json.loads(json.dumps(FAKE_RECORD))
    good["metrics"]["pagoda_tasks_per_s"] = 10_000.0  # 10x the fresh run
    out.write_text(json.dumps(good))
    assert fast_bench.main(["--check", "--output", str(out)]) == 1
    # --check never rewrites an existing, usable baseline
    assert json.loads(out.read_text()) == good
    # --no-fail downgrades to a warning
    assert fast_bench.main(["--check", "--no-fail",
                            "--output", str(out)]) == 0
