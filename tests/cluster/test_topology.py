"""Topology invariants: lookahead, epoch bounds, validation."""

import pytest

from repro.cluster import NodeSpec, Topology


def _nodes(n):
    return [NodeSpec(f"n{i}") for i in range(n)]


def test_lookahead_is_min_link_latency():
    topo = Topology(nodes=_nodes(3), link_ns=40_000.0,
                    links={("n0", "n1"): 10_000.0,
                           ("n1", "@router"): 90_000.0})
    assert topo.lookahead_ns == 10_000.0


def test_epoch_defaults_to_lookahead():
    topo = Topology(nodes=_nodes(2), link_ns=25_000.0)
    assert topo.epoch_length_ns == 25_000.0
    shorter = Topology(nodes=_nodes(2), link_ns=25_000.0, epoch_ns=5_000.0)
    assert shorter.epoch_length_ns == 5_000.0


def test_epoch_longer_than_lookahead_rejected():
    # conservative sync breaks if a message can arrive mid-epoch
    with pytest.raises(ValueError, match="lookahead"):
        Topology(nodes=_nodes(2), link_ns=25_000.0, epoch_ns=30_000.0)


def test_link_override_is_directional():
    topo = Topology(nodes=_nodes(2), link_ns=25_000.0,
                    links={("n0", "n1"): 12_000.0})
    assert topo.latency_ns("n0", "n1") == 12_000.0
    assert topo.latency_ns("n1", "n0") == 25_000.0


def test_validation_errors():
    with pytest.raises(ValueError, match="at least one node"):
        Topology(nodes=[])
    with pytest.raises(ValueError, match="duplicate"):
        Topology(nodes=[NodeSpec("a"), NodeSpec("a")])
    with pytest.raises(ValueError, match="link_ns"):
        Topology(nodes=_nodes(1), link_ns=0.0)
    with pytest.raises(ValueError, match="reserved"):
        NodeSpec("@router")
    with pytest.raises(KeyError):
        Topology(nodes=_nodes(2)).node("missing")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_latencies_rejected(bad):
    """``<= 0`` lets NaN through, and run_cluster then failed converting
    it to an integer; inf is no latency either."""
    with pytest.raises(ValueError, match="link_ns"):
        Topology(nodes=_nodes(1), link_ns=bad)
    with pytest.raises(ValueError, match="latency"):
        Topology(nodes=_nodes(2), links={("n0", "n1"): bad})
    with pytest.raises(ValueError, match="epoch_ns"):
        Topology(nodes=_nodes(2), epoch_ns=bad)


def test_describe_is_stable():
    topo = Topology(nodes=_nodes(4), link_ns=25_000.0)
    assert topo.describe() == topo.describe()
    assert "nodes=4" in topo.describe()
