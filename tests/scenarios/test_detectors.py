"""Detector units: dotted-path lookup and each predicate's contract."""

import pytest

from repro.scenarios import (
    Conservation,
    ExtraValue,
    ObsCounterMatchesReport,
    ObsValue,
    ReadmitWithin,
    ReportValue,
    Scenario,
    ScenarioContext,
    ScenarioOutcome,
    ScenarioParams,
    ScenarioResult,
    lookup,
)


def ctx(report=None, obs=None, extra=None):
    return ScenarioContext(scenario=None, params=ScenarioParams(seed=0),
                           report=report or {}, obs=obs,
                           extra=extra or {})


# -- lookup -------------------------------------------------------------------


def test_lookup_walks_dicts_and_lists():
    table = {"a": {"b": [{"c": 7}, {"c": 9}]}}
    assert lookup(table, "a.b.1.c") == 9


def test_lookup_names_the_missing_segment():
    with pytest.raises(KeyError, match="a.nope"):
        lookup({"a": {"b": 1}}, "a.nope.c")


# -- value detectors ----------------------------------------------------------


def test_report_value_compares():
    d = ReportValue("tail", "latency.p99", "<=", 100.0)
    passed, detail = d.check(ctx(report={"latency": {"p99": 42.0}}))
    assert passed
    assert "latency.p99=42.0 <= 100.0" == detail
    assert not d.check(ctx(report={"latency": {"p99": 200.0}}))[0]


def test_report_value_rejects_unknown_op():
    with pytest.raises(ValueError, match="unknown op"):
        ReportValue("x", "a", "~=", 1)


def test_extra_value_reads_runner_scalars():
    d = ExtraValue("ratio", "p99_ratio", ">", 1.0)
    assert d.check(ctx(extra={"p99_ratio": 2.5}))[0]


def test_obs_value_resolves_dotted_instrument_names():
    snap = {"counters": {"serve.dropped": 3},
            "gauges": {"serve.queue_depth": {"peak": 9}}}
    assert ObsValue("d", "counters.serve.dropped", ">", 0).check(
        ctx(obs=snap))[0]
    # instrument names contain dots: the trailing field is peeled off
    passed, detail = ObsValue("q", "gauges.serve.queue_depth.peak",
                              "<=", 16).check(ctx(obs=snap))
    assert passed and "=9" in detail


def test_obs_detectors_fail_gracefully_without_snapshot():
    d = ObsValue("d", "counters.serve.dropped", ">", 0)
    verdict = d.evaluate(ctx(obs=None))
    assert not verdict.passed
    assert "detector error" in verdict.detail


def test_obs_counter_matches_report():
    snap = {"counters": {"serve.completed": 10}}
    report = {"totals": {"completed": 10}}
    d = ObsCounterMatchesReport("agree", "serve.completed",
                                "totals.completed")
    assert d.check(ctx(report=report, obs=snap))[0]
    snap["counters"]["serve.completed"] = 9
    assert not d.check(ctx(report=report, obs=snap))[0]


# -- conservation -------------------------------------------------------------


def test_conservation_balances():
    report = {"totals": {"offered": 10, "completed": 7, "failed": 1,
                         "dropped": 2}}
    assert Conservation().check(ctx(report=report))[0]
    report["totals"]["dropped"] = 1
    passed, detail = Conservation().check(ctx(report=report))
    assert not passed and "9 == offered=10" in detail


# -- readmit-within -----------------------------------------------------------


def _heal_report(events):
    return {"sync": {"epoch_ns": 50_000.0},
            "health": {"events": events}}


def test_readmit_within_passes_on_prompt_heal():
    report = _heal_report([
        {"when_ns": 100_000.0, "kind": "quarantine", "node": "n1"},
        {"when_ns": 400_000.0, "kind": "readmit", "node": "n1"},
    ])
    d = ReadmitWithin("heal", node="n1", epochs=8)
    passed, detail = d.check(ctx(report=report))
    assert passed and "6 epochs" in detail


def test_readmit_within_fails_when_slow_or_absent():
    slow = _heal_report([
        {"when_ns": 0.0, "kind": "quarantine", "node": "n1"},
        {"when_ns": 900_000.0, "kind": "readmit", "node": "n1"},
    ])
    assert not ReadmitWithin("heal", "n1", epochs=8).check(
        ctx(report=slow))[0]
    never = _heal_report([
        {"when_ns": 0.0, "kind": "quarantine", "node": "n1"},
    ])
    passed, detail = ReadmitWithin("heal", "n1", epochs=8).check(
        ctx(report=never))
    assert not passed and "never readmitted" in detail
    other_node = _heal_report([
        {"when_ns": 0.0, "kind": "quarantine", "node": "n2"},
    ])
    assert not ReadmitWithin("heal", "n1", epochs=8).check(
        ctx(report=other_node))[0]


# -- result digest ------------------------------------------------------------


def _result(obs=None):
    scenario = Scenario(
        name="unit.test", version=2, layer="serve", description="unit",
        runner=lambda params: None,
        detectors=(Conservation(),),
    )
    outcome = ScenarioOutcome(
        report={"totals": {"offered": 1, "completed": 1, "failed": 0,
                           "dropped": 0}},
        obs=obs, extra={"x": 1.5})
    c = ScenarioContext(scenario=scenario,
                        params=ScenarioParams(seed=3),
                        report=outcome.report, obs=outcome.obs,
                        extra=outcome.extra)
    verdicts = [d.evaluate(c) for d in scenario.detectors]
    return ScenarioResult(scenario=scenario, params=c.params,
                          outcome=outcome, verdicts=verdicts)


def test_result_digest_excludes_execution_strategy():
    digest = _result().to_dict()
    assert digest["schema"] == "repro.scenarios/1"
    assert digest["scenario"] == "unit.test"
    assert digest["seed"] == 3
    assert digest["passed"] is True
    assert "report_sha256" in digest
    assert "obs_sha256" not in digest  # no snapshot attached


def test_result_summary_line_is_stable():
    line = _result().summary_line()
    assert line == "PASS unit.test v2 [serve] seed=3 detectors=1/1"


def test_scenario_validation():
    with pytest.raises(ValueError, match="layer"):
        Scenario(name="x", version=1, layer="nope", description="",
                 runner=lambda p: None, detectors=(Conservation(),))
    with pytest.raises(ValueError, match="no detectors"):
        Scenario(name="x", version=1, layer="serve", description="",
                 runner=lambda p: None, detectors=())
    with pytest.raises(ValueError, match="version"):
        Scenario(name="x", version=0, layer="serve", description="",
                 runner=lambda p: None, detectors=(Conservation(),))
