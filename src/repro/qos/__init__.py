"""Multi-tenant quality of service for the fleet.

Tenant identity rides every request from load generation to completion;
the fleet's cpu and channel stations arbitrate per-tenant deficit round
robin under strict-priority classes, overload control keeps per-tenant
CoDel/brownout state, and retry budgets are hierarchical so one tenant's
storm cannot drain the shared pool.  The noisy-neighbor sweep that gates
all of it (BENCH_qos.json) runs with
``python -m repro matrix --only qos [--quick|--check|--update]``.
"""

from repro.qos.drr import (
    CLASS_RANK,
    DEFAULT_CLASS,
    PRIORITY_CLASSES,
    DrrArbiter,
    QosResource,
)
from repro.qos.tenants import QOS_MODES, QosPolicy, TenantSpec

__all__ = [
    "CLASS_RANK",
    "DEFAULT_CLASS",
    "PRIORITY_CLASSES",
    "QOS_MODES",
    "DrrArbiter",
    "QosPolicy",
    "QosResource",
    "TenantSpec",
]
