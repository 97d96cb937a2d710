"""The `python -m repro.bench` command-line runner."""

import dataclasses
import subprocess
import sys

import pytest

from repro.bench import __main__ as cli
from repro.bench import fig5, fig7, fig9, fig11, tab3, tab5
from repro.scenarios import ScenarioParams, get, names, run_scenario
from repro.scenarios.spec import Verdict

#: a scenario that runs in well under a second
CHEAP = "serve.trace_replay"


def _choices():
    (action,) = [a for a in cli.build_parser()._actions
                 if a.dest == "scenario"]
    return action.choices


def _failing(result):
    """``result`` with one extra, failing verdict (a copy: the original
    may be memoized for the session)."""
    return dataclasses.replace(result, verdicts=result.verdicts + [
        Verdict("doctored", False, "forced failure for the exit code")])


def test_choices_are_exactly_the_scenario_names():
    assert _choices() == names() + ["all"]


def test_registry_covers_every_paper_artefact():
    choices = set(_choices())
    assert {f"paper.{a}" for a in ("fig5", "fig6", "fig7", "fig8", "fig9",
                                   "fig10", "fig11", "tab3", "tab5")} \
        <= choices
    assert {"paper.ablations", "paper.latency_under_load",
            "paper.priorities", "paper.config_sweeps"} <= choices


def test_cli_subprocess_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", CHEAP],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-1500:]
    assert f"PASS {CHEAP} v" in proc.stdout


def test_failing_verdict_exits_1_with_its_detail(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_scenario",
                        lambda name: _failing(run_scenario(name)))
    assert cli.main([CHEAP]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {CHEAP} v" in out
    assert "FAIL doctored: forced failure for the exit code" in out


def test_all_exits_1_when_one_scenario_fails(monkeypatch, capsys):
    monkeypatch.setattr(cli, "names", lambda: [CHEAP])
    monkeypatch.setattr(cli, "run_scenario",
                        lambda name: _failing(run_scenario(name)))
    assert cli.main(["all"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "SCENARIOS: scenario catalog, 0/1 passed"
    assert out[1].startswith(f"  FAIL {CHEAP} v")
    assert out[2] == ("      FAIL doctored: forced failure for the exit "
                      "code")


def test_tab5_prints_its_report_from_the_checked_run(monkeypatch, capsys):
    seen = []
    real_run = tab5.run

    def spy(*args, **kwargs):
        seen.append(real_run(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(tab5, "run", spy)
    assert cli.main(["paper.tab5"]) == 0
    out = capsys.readouterr().out
    assert len(seen) == 1  # one simulation backs the text and the verdict
    assert out.startswith(tab5.report(seen[0]) + "\n\n")
    assert "PASS paper.tab5 v" in out


class _Stop(Exception):
    pass


@pytest.mark.parametrize("full", ["", "1"])
def test_paper_scale_drops_the_pinned_task_count(monkeypatch, full):
    """Under ``PAGODA_FULL=1`` the scenarios of the artefacts that size
    by task count pass ``num_tasks=None`` (so ``default_num_tasks``
    picks 32K/273K); otherwise they keep their pinned count."""
    monkeypatch.setenv("PAGODA_FULL", full)
    for module in (fig5, fig7, fig9, fig11, tab3, tab5):
        seen = []

        def spy(**kwargs):
            seen.append(kwargs["num_tasks"])
            raise _Stop

        monkeypatch.setattr(module, "run", spy)
        name = "paper." + module.__name__.rsplit(".", 1)[1]
        with pytest.raises(_Stop):
            get(name).runner(ScenarioParams(seed=0))
        assert (seen[0] is None) == bool(full), (name, seen)


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
