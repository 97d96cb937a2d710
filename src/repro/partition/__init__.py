"""repro.partition — SR-IOV-style compute partitioning with elastic
multi-tenant rebalancing.

Splits the device's SMMs into isolated logical partitions (SPX/DPX/QPX
or arbitrary masks), each a Pagoda session on its SMMs with its own
MasterKernel, TaskTable, PCIe function, DRAM slice, and fault domain,
plus Zorua-style virtualized shared-memory/register quotas that may
oversubscribe the physical budget and rebalance at runtime.
"""

from repro.partition.elastic import ElasticConfig, elastic_controller
from repro.partition.manager import (
    Partition,
    PartitionedStack,
    PartitionPlan,
    PartitionSpec,
    task_demand,
)
from repro.partition.modes import MODES, mode_masks, validate_masks
from repro.partition.quota import QuotaAccount, QuotaLedger

__all__ = [
    "MODES",
    "ElasticConfig",
    "Partition",
    "PartitionedStack",
    "PartitionPlan",
    "PartitionSpec",
    "QuotaAccount",
    "QuotaLedger",
    "elastic_controller",
    "mode_masks",
    "task_demand",
    "validate_masks",
]
