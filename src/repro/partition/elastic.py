"""The elastic repartition controller: epoch-driven grow/shrink.

Runs as one deterministic engine process.  Every ``epoch_ns`` of
virtual time it:

1. computes each partition's **window utilization** from the busy-warp
   integrals the MasterKernels accumulate (the same data the
   ``gpu.partition.*.busy_warps`` obs timelines expose) — integral
   delta over the epoch divided by executor-warp capacity;
2. **settles quotas**: partitions below ``low_util`` return borrowed
   headroom to their lenders (the Zorua epoch boundary);
3. **borrows quotas**: partitions above ``high_util`` pull
   ``quota_step`` of idle sibling backing per resource;
4. **moves SMMs**: when the spread is wide enough — one partition above
   ``high_util``, another below ``low_util`` with SMMs to spare — it
   starts a whole-SMM hand-over (close columns, drain, re-reserve on
   the recipient), at most one move in flight at a time.

Everything the controller reads and writes lives inside the engine, so
an elastic run is as replayable as a static one: same seed, same
epochs, same moves, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator

from repro.core.warptable import WarpTable
from repro.partition.quota import RESOURCES


@dataclass
class ElasticConfig:
    """Policy knobs of the elastic repartition controller."""

    #: virtual-time rebalancing period.
    epoch_ns: float = 200_000.0
    #: window utilization above which a partition is "hungry".
    high_util: float = 0.60
    #: window utilization below which a partition is "idle" (returns
    #: borrowed quota; may donate an SMM).
    low_util: float = 0.20
    #: a donor never shrinks below this many SMMs.
    min_smms: int = 2
    #: quota borrowed per hungry epoch, as a fraction of the
    #: borrower's physical base (per resource).
    quota_step: float = 0.25
    #: SMM hand-overs the controller may start per epoch.  Distinct
    #: SMMs drain independently, so raising this shortens the grow
    #: ramp at the cost of closing more donor columns at once.
    moves_per_epoch: int = 1


def elastic_controller(stack, cfg: ElasticConfig) -> Generator:
    """The controller process body (spawned by PartitionedStack)."""
    engine = stack.engine
    ledger = stack.ledger
    names = sorted(stack.partitions)
    prev_busy: Dict[str, float] = {n: 0.0 for n in names}
    while True:
        yield cfg.epoch_ns
        if not stack.active:
            return
        if stack.workload_procs and not any(
                p.alive for p in stack.workload_procs):
            return
        now = engine.now
        utils: Dict[str, float] = {}
        for name in names:
            part = stack.partitions[name]
            busy = part.master.busy_integral(now)
            window = busy - prev_busy[name]
            prev_busy[name] = busy
            cap = (len(part.master.mtbs) * WarpTable.EXECUTOR_WARPS
                   * cfg.epoch_ns)
            utils[name] = window / cap if cap > 0 else 0.0
        if stack.obs is not None:
            for name in names:
                stack.obs.timeline(
                    f"gpu.partition.{name}.window_util"
                ).set(now, round(utils[name], 6))
        # 2. epoch boundary: idle partitions hand borrowed quota back
        for name in names:
            if utils[name] < cfg.low_util:
                for res in RESOURCES:
                    ledger.settle(name, res, now)
                stack.partitions[name].quota_signal.pulse()
        # 3. hungry partitions borrow idle sibling headroom
        hungry = sorted(
            (n for n in names if utils[n] > cfg.high_util),
            key=lambda n: (-utils[n], n),
        )
        for name in hungry:
            moved = 0
            for res in RESOURCES:
                acct = ledger.account(name, res)
                step = int(acct.base * cfg.quota_step)
                if step > 0:
                    moved += ledger.borrow(name, res, step, now)
            if moved:
                stack.partitions[name].quota_signal.pulse()
        # 4. whole-SMM rebalance: widest spread first, up to
        #    moves_per_epoch hand-overs started per tick
        if hungry:
            for _ in range(max(1, cfg.moves_per_epoch)):
                donors = sorted(
                    (n for n in names
                     if utils[n] < cfg.low_util
                     and stack.effective_smms(n) > cfg.min_smms),
                    key=lambda n: (utils[n], n),
                )
                if not donors or not stack.lend_smm(donors[0], hungry[0]):
                    break
