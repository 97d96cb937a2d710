"""The consistent-hash router: determinism and dead-node behavior."""

import pytest

from repro.cluster import (
    ConsistentHashRouter,
    FleetView,
    NodeSpec,
    RouteRequest,
    Topology,
)


def _topo(n=4):
    return Topology(nodes=[NodeSpec(f"n{i}") for i in range(n)])


def _view(topo, dead=()):
    return FleetView({
        name: {"alive": 0 if name in dead else 1,
               "queued": 0, "inflight": 0, "pending": 0}
        for name in topo.node_names
    })


def _req(rid=0, tenant="t", index=0, kernel="k", deadline=None,
         respawn=False):
    return RouteRequest(rid=rid, tenant=tenant, index=index, kernel=kernel,
                        num_blocks=1, deadline_ns=deadline, respawn=respawn)


def test_consistent_hash_is_deterministic_across_instances():
    topo = _topo()
    a = ConsistentHashRouter(topo, key="request")
    b = ConsistentHashRouter(topo, key="request")
    view = _view(topo)
    for rid in range(64):
        req = _req(rid=rid, index=rid)
        assert a.route(req, view) == b.route(req, view)


def test_consistent_hash_spreads_and_death_only_remaps_victim_keys():
    topo = _topo()
    router = ConsistentHashRouter(topo, key="request")
    view = _view(topo)
    before = {rid: router.route(_req(rid=rid, index=rid), view)
              for rid in range(64)}
    assert len(set(before.values())) >= 2  # non-degenerate spread
    victim = before[0]
    dead_view = _view(topo, dead=(victim,))
    moved = 0
    for rid, owner in before.items():
        after = router.route(_req(rid=rid, index=rid), dead_view)
        assert after != victim
        if owner != victim:
            # survivors keep their placements — the consistent part
            assert after == owner
        else:
            moved += 1
    assert moved > 0


def test_hash_key_variants_and_validation():
    topo = _topo()
    view = _view(topo)
    by_tenant = ConsistentHashRouter(topo, key="tenant")
    # same tenant -> same node regardless of kernel/index
    assert len({by_tenant.route(_req(index=i, kernel=f"k{i}"), view)
                for i in range(16)}) == 1
    with pytest.raises(ValueError, match="hash key"):
        ConsistentHashRouter(topo, key="phase-of-moon")
    with pytest.raises(ValueError, match="replicas"):
        ConsistentHashRouter(topo, replicas=0)


def test_no_live_node_raises():
    topo = _topo(2)
    view = _view(topo, dead=("n0", "n1"))
    with pytest.raises(RuntimeError, match="no live node"):
        ConsistentHashRouter(topo).route(_req(), view)


def test_describe_strings():
    topo = _topo()
    assert "consistent_hash" in ConsistentHashRouter(topo).describe()
