"""The built-in catalog: coverage, determinism, and the pass contract.

The acceptance criteria of the scenarios subsystem, as tests:

- at least six catalog scenarios spanning every stack layer, the
  paper claims included;
- every catalog scenario passes its detectors at the default seed
  (each runs once per session: :mod:`tests.scenarios.shared`);
- the result JSON is byte-identical under sliced engine drains, and
  a cluster scenario's bytes and engine events match a recording.
"""

import json

import pytest

from repro.scenarios import LAYERS, get, names, run_scenario
from repro.scenarios.registry import register
from repro.scenarios.spec import Scenario
from repro.scenarios.detectors import Conservation

from tests.differential.harness import drained_both_ways, run_pinned
from tests.scenarios.shared import run_once

#: one cheap scenario per execution-identity axis (the bench cell and
#: the full catalog cover the rest).
SERVE_PROBE = "serve.trace_replay"
CLUSTER_PROBE = "cluster.partition_heal"
#: (sha256 of CLUSTER_PROBE's result JSON, summed engine events),
#: recorded while ``workers=0`` and ``workers=2`` both produced it.
CLUSTER_PIN = (
    "cfc128f1b6cb32ac7448e4dc5ce2dd25b2ede83aa4b4f7a8693fd747a5fe31a4",
    1106)


def test_catalog_spans_every_layer():
    catalog = [get(n) for n in names()]
    assert len(catalog) >= 6
    assert {s.layer for s in catalog} == set(LAYERS)
    for s in catalog:
        assert s.version >= 1
        assert s.detectors
        assert s.description


def test_register_rejects_duplicate_names():
    with pytest.raises(ValueError, match="already registered"):
        register(Scenario(
            name=names()[0], version=1, layer="serve",
            description="dup", runner=lambda p: None,
            detectors=(Conservation(),),
        ))


def test_unknown_scenario_is_a_helpful_error():
    with pytest.raises(KeyError, match="no scenario"):
        get("nope.nothing")


@pytest.mark.parametrize("name", names())
def test_catalog_passes_at_default_seed(name):
    result = run_once(name)
    failures = [v.to_dict() for v in result.verdicts if not v.passed]
    assert result.passed, failures
    # the digest round-trips canonically
    digest = json.loads(result.to_json())
    assert digest["scenario"] == name
    assert json.dumps(digest, sort_keys=True,
                      separators=(",", ":")) == result.to_json()


def test_result_bytes_identical_across_lanes():
    """Result bytes are the same under sliced engine drains."""
    plain, sliced = drained_both_ways(
        lambda: run_scenario(SERVE_PROBE).to_json())
    assert plain == sliced


def test_result_bytes_identical_across_worker_counts():
    _, pin = run_pinned(lambda: run_scenario(CLUSTER_PROBE))
    assert pin == CLUSTER_PIN


def test_repeated_runs_are_byte_identical():
    a = run_scenario(SERVE_PROBE)
    b = run_scenario(SERVE_PROBE)
    assert a.to_json() == b.to_json()


def test_bench_cell_reports_every_scenario(monkeypatch):
    from repro.bench import scenarios as bench_scenarios

    monkeypatch.setattr(bench_scenarios, "run_scenario", run_once)
    results = bench_scenarios.run()
    assert results["total"] == len(names())
    assert results["all_passed"]
    text = bench_scenarios.report(results)
    for name in names():
        assert name in text
