"""Pins of the coordinator's per-message path, one layer at a time.

The fleet digests (``test_fleet_identity.py``, ``test_chaos.py``)
cover the whole path at once; these pin each step apart from them —
the rate fault draw, ring routing and the windowed node fate — with
sha256s recorded before the message types became tuples, plus the
public shape of :class:`Message` and :class:`RouteRequest`.
"""

import hashlib

import pytest

import repro.cluster as cluster
from repro.cluster import (
    ConsistentHashRouter,
    FleetView,
    Message,
    NodeSpec,
    RouteRequest,
    Topology,
)
from repro.cluster.topology import ROUTER
from repro.faults import FabricInjector, FaultPlan, FaultSpec, hash01
from repro.faults.injector import DROP, HOLD, OK

RATES = {"fabric.link.drop": 0.02, "fabric.link.dup": 0.1,
         "fabric.link.delay_spike": 0.3}
NODES = [f"n{i}" for i in range(16)]
DEAD = {0: (), 3: ("n2", "n7", "n11"),
        15: tuple(n for n in NODES if n != "n9")}
KERNELS = ("3des", "mb", "conv", "dct", "mm")


def _sha(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# -- rate fault draws ---------------------------------------------------------

def _rate_injector(seed):
    specs = [FaultSpec(kind=kind, magnitude_ns=1_000.0, meta={"rate": rate})
             for kind, rate in RATES.items()]
    return FabricInjector(FaultPlan(specs=specs, seed=seed)), specs


#: sha256 of the fired ``(kind, mid, attempt)`` list per plan seed.
DRAW_PINS = {
    0:
        "dec593cb46f509ba07cd403363c895cedbf30f3b55e53b6173b88d00234ea8f4",
    7:
        "85e2a59a8617953e758d23f5193b2bb0c0e5cd4d5ac8b41ef54f9ac77e51c7c1",
    2 ** 40:
        "4d2d9dd914d01f2b7775d6ee3cabeb0f84fe1954c99af09a3ef6760f2abf6fc8",
}


@pytest.mark.parametrize("seed", sorted(DRAW_PINS))
def test_rate_draw_fires_exactly_below_hash01(seed):
    inj, specs = _rate_injector(seed)
    fired = []
    for spec in specs:
        kind, rate = spec.kind, spec.meta["rate"]
        for mid in range(2_001):
            for attempt in (1, 2, 3):
                before = len(inj.injected)
                got = inj.draw(kind, 5.0, ROUTER, "n0", mid, attempt)
                hit = hash01(seed, kind, mid, attempt) < rate
                assert (got is spec) == hit
                assert len(inj.injected) == before + hit
                if hit:
                    fired.append((kind, mid, attempt))
    assert _sha(fired) == DRAW_PINS[seed]


# -- routing ------------------------------------------------------------------

def _ring_view(dead):
    return FleetView({
        name: {"alive": 0 if name in dead else 1,
               "queued": (i * 5) % 7, "inflight": i % 3, "pending": 0}
        for i, name in enumerate(NODES)
    })


def _requests(n=5_000):
    for rid in range(n):
        deadline = (None, 200_000.0, 1_000_000.0)[rid % 3]
        yield RouteRequest(rid=rid, tenant=f"t{rid % 12}", index=rid // 12,
                           kernel=KERNELS[(rid // 7) % 5],
                           num_blocks=1 + rid % 4, deadline_ns=deadline,
                           respawn=rid % 13 == 0)


#: sha256 of 5,000 placements on a 16-node ring, by (hash key, dead).
ROUTE_PINS = {
    ("request", 0):
        "6d02252b3f9cfbe4d3d3fee59db05c30e3d9d565e1e2955c76de00bb18da42ac",
    ("request", 3):
        "b2dfe2228a9b2f0a8786bfa58b4234e0a21ca3b57d0caf2e3afe2d8598335150",
    ("request", 15):
        "d9d9e04fb4e4cdb18373f73c956e6f64ae616ea15073804cd23b6a6ab1278426",
    ("kernel", 0):
        "3c90e5be27751311aaa89096a44e9c89a102d24cfbfb02656f892d8a4675a314",
    ("kernel", 3):
        "8eef4b0493c98d20d6461665f71a7d0bff6367c63356c1a90ffbea2c0a02ecbd",
    ("kernel", 15):
        "d9d9e04fb4e4cdb18373f73c956e6f64ae616ea15073804cd23b6a6ab1278426",
    ("tenant", 0):
        "54162d6a8d1a072ffaf7d89699adbc0b33291142d629e8fe3f442948c3af3534",
    ("tenant", 3):
        "7976da8c0c0da059fedceca69e61e45c78091ef490b1062fc73add7c2d02b385",
    ("tenant", 15):
        "d9d9e04fb4e4cdb18373f73c956e6f64ae616ea15073804cd23b6a6ab1278426",
}


@pytest.mark.parametrize("policy,dead", sorted(ROUTE_PINS))
def test_ring_placements_are_pinned(policy, dead):
    topo = Topology(nodes=[NodeSpec(n) for n in NODES])
    router = ConsistentHashRouter(topo, key=policy)
    view = _ring_view(DEAD[dead])
    placed = [router.route(req, view) for req in _requests()]
    assert not set(placed) & set(DEAD[dead])
    assert _sha(placed) == ROUTE_PINS[(policy, dead)]


@pytest.mark.parametrize("policy", ["request", "kernel", "tenant"])
def test_all_dead_ring_raises(policy):
    topo = Topology(nodes=[NodeSpec(n) for n in NODES])
    router = ConsistentHashRouter(topo, key=policy)
    view = _ring_view(NODES)
    for req in list(_requests(20)):
        with pytest.raises(RuntimeError, match="no live node"):
            router.route(req, view)


# -- windowed node fate -------------------------------------------------------

def _windowed_injector():
    specs = [
        FaultSpec(kind="fabric.link.partition", at_ns=100_000.0,
                  magnitude_ns=200_000.0, target="n1"),
        FaultSpec(kind="fabric.link.partition", at_ns=600_000.0,
                  magnitude_ns=50_000.0),
        FaultSpec(kind="fabric.node.pause", at_ns=50_000.0, target="n2"),
        FaultSpec(kind="fabric.node.resume", at_ns=250_000.0, target="n2"),
        FaultSpec(kind="fabric.node.pause", at_ns=400_000.0, target="n3"),
    ]
    return FabricInjector(FaultPlan(specs=specs, seed=3))


#: sha256 of node_fate over n0..n3 and the router, every 2.5 us.
FATE_PIN = (
    "2a0a0677c1a1018e9b1bd5dab83a79e669c87ebfe192ea8a3635b751818f9bcd")


def test_node_fate_windows_are_pinned():
    inj = _windowed_injector()
    times = sorted(set(range(0, 800_000, 2_500))
                   | {49_999, 99_999, 249_999, 299_999, 399_999, 649_999})
    fates = [(node, t, inj.node_fate(node, float(t)))
             for node in ("n0", "n1", "n2", "n3", ROUTER) for t in times]
    assert inj.node_fate("n1", 100_000.0) == (
        DROP, 100_000.0, "fabric.link.partition")
    assert inj.node_fate("n2", 60_000.0) == (
        HOLD, 250_000.0, "fabric.node.pause")
    assert inj.node_fate("n3", 500_000.0) == (
        DROP, 500_000.0, "fabric.node.pause")
    assert inj.node_fate("n0", 60_000.0) == (OK, 60_000.0, None)
    assert _sha(fates) == FATE_PIN


def test_windowless_plan_takes_the_early_return():
    plan = FaultPlan(specs=[FaultSpec(kind="fabric.link.drop",
                                      meta={"rate": 0.02})], seed=0)
    inj = FabricInjector(plan)
    # no window was compiled, so node_fate must not look for one
    inj._partitions = inj._pauses = None
    for t in (0.0, 12_345.5, 1e12):
        assert inj.node_fate("n0", t) == (OK, t, None)
        assert not inj.blackout(ROUTER, t)


# -- API compatibility --------------------------------------------------------

def test_message_and_route_request_keep_their_shape():
    assert "Message" in cluster.__all__ and "RouteRequest" in cluster.__all__
    msg = Message(kind="forward", src=ROUTER, dst="n0", send_ns=1.0,
                  arrive_ns=2.0, seq=3)
    assert (msg.payload, msg.mid, msg.attempt) == (None, -1, 1)
    assert Message._fields == ("kind", "src", "dst", "send_ns",
                               "arrive_ns", "seq", "payload", "mid",
                               "attempt")
    full = Message(kind="answer", src="n0", dst=ROUTER, send_ns=1.0,
                   arrive_ns=2.0, seq=4, payload=(7, "completed"), mid=4,
                   attempt=2)
    assert (full.payload, full.mid, full.attempt) == ((7, "completed"), 4, 2)
    # tuples compare by every field, the payload included
    assert full != full._replace(payload=(7, "failed"))
    with pytest.raises(AttributeError):
        msg.seq = 9
    req = RouteRequest(rid=1, tenant="t", index=2, kernel="k", num_blocks=3,
                       deadline_ns=None)
    assert (req.rid, req.tenant, req.index, req.kernel, req.num_blocks,
            req.deadline_ns, req.respawn) == (1, "t", 2, "k", 3, None, False)
    assert RouteRequest._fields == ("rid", "tenant", "index", "kernel",
                                    "num_blocks", "deadline_ns", "respawn")
    with pytest.raises(AttributeError):
        req.respawn = True
