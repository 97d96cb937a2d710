"""The built-in catalog: coverage, determinism, and the pass contract.

The acceptance criteria of the scenarios subsystem, as tests:

- at least six catalog scenarios spanning every stack layer, the
  paper claims included;
- every catalog scenario passes its detectors at the default seed
  (each runs once per session: :mod:`tests.scenarios.shared`) with
  the result bytes recorded in :data:`DIGESTS`;
- the result JSON is byte-identical under sliced engine drains, and
  a cluster scenario's bytes and engine events match a recording.
"""

import hashlib
import json

import pytest

from repro.bench.harness import full_scale
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

#: sha256 of every catalog scenario's ``result.to_json()`` at the
#: default seed.  A change that moves any of them re-blesses the
#: simulation and must say so; a refactor keeps every one.
DIGESTS = {
    "cluster.lossy_fabric":
        "3bef3b9a28ae51c2ecc3b425b9264c70889d82a9b24572dbc27b40bc5e4f671f",
    "cluster.partition_heal":
        "cfc128f1b6cb32ac7448e4dc5ce2dd25b2ede83aa4b4f7a8693fd747a5fe31a4",
    "fault.smm_brownout_admission":
        "1ad86ba3008f1b42bf2bb9aeadab0563d9c8aa5a9a6132646aa05143f6cc99b5",
    "paper.ablations":
        "84b00429c835a848e2a02d57a8f9244b909fc6aa2a7807603812a22d5819ca74",
    "paper.config_sweeps":
        "53cb044a334719a58ff1170aa41e950b2817e37b3360394945dff717cd2d2661",
    "paper.fig10":
        "c8c94dceb1e0bc91b5c229a2fc391dd272da337fe218c55f3f84e788843a8617",
    "paper.fig11":
        "39c449b098090cc6df4afc74cc4e9990d84ba1fd9d3d4f19f6cad9fb4aa84772",
    "paper.fig5":
        "706c610242ed23172f70120b2bf1b43980d746a8679f550a73cc94c6e44cb9ac",
    "paper.fig6":
        "5ab95fdbd68ccb1251dcd95f7bd8ed01e1ebc5ae2b6478e5b7e2c7cfcbc4f876",
    "paper.fig7":
        "dd61ffe3be4995dc99fba892c144304171ce782d52bf5566f3f2a8f4a351a6ae",
    "paper.fig8":
        "0104e914fb73a8382efb2f47f3dfef5d3b6e37a938b0dbaa023fb8198f2e0daf",
    "paper.fig9":
        "71ce71e923896b9982fb7c3679ae3a40e3dcbbd601d842c825f5988091d2110b",
    "paper.latency_under_load":
        "4e34ccee17206ddb26490527e84d1ce5f265067332d32abff1e721c2092ac44d",
    "paper.priorities":
        "3840ffb1e8cddf4c0637d44fcc4a3aac4ab06e0eba72faaf65cfbbbd6c507c8e",
    "paper.tab3":
        "b035ee2ad56fbe7c22b88cae13d8d3c262206b739e3fd6f909cb790c69fe5b31",
    "paper.tab5":
        "73f17ae37c89ce05c3237ffcbf5dcf16e70c7475035e0b070690c4725bd99f69",
    "partition.elastic_recovery":
        "ad727ab1f07f7d039790d8b333a2f56d4fb0053d68a15d6ba304cc95028948c9",
    "partition.noisy_neighbor":
        "76587440dd19ae9ee50a6511b1b15f1400628b790c624f4f7bf90aea1e711532",
    "serve.token_bucket_overload":
        "885d036c94ebd770f068f742df588d20b9d18a470777b6b290ca28f8164ae4f9",
    "serve.trace_replay":
        "30b438e244e97e3e9fa7d4d255dd3f8a1140d931eb76da4780aa26b3e9d9a7c1",
}


def test_catalog_spans_every_layer():
    catalog = [get(n) for n in names()]
    assert sorted(DIGESTS) == names()
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
    # and the bytes are the recorded ones (recorded at the pinned task
    # counts, which PAGODA_FULL=1 replaces with paper scale)
    if not full_scale():
        sha = hashlib.sha256(result.to_json().encode()).hexdigest()
        assert sha == DIGESTS[name]


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


def test_bench_cell_reports_every_scenario(monkeypatch, capsys):
    from repro.bench import __main__ as cli

    monkeypatch.setattr(cli, "run_scenario", run_once)
    assert cli.main(["all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    total = len(names())
    assert lines[0] == f"SCENARIOS: scenario catalog, {total}/{total} passed"
    assert [line.split()[1] for line in lines[1:]] == names()
