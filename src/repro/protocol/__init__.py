"""The LDP collection protocol: the shard-parallel engine and its audits.

* :class:`repro.protocol.engine.ProtocolSession` — the mechanism itself:
  strategy + workload + reconstruction operator, bound once, with
  one-call sharded execution.  Per-user randomization is
  :meth:`~repro.mechanisms.base.StrategyMatrix.sample_responses`.
* :class:`repro.protocol.engine.ShardAccumulator` — mergeable, serializable
  aggregation state (the server side only ever adds reports into it).
* :mod:`repro.protocol.audit` — exact and empirical privacy audits.
* :mod:`repro.protocol.accounting` — client/server/shard resource accounting.
"""

from repro.protocol.accounting import (
    CostReport,
    SessionCostReport,
    communication_bits,
    compare_costs,
    cost_report,
    session_cost_report,
)
from repro.protocol.audit import (
    AuditReport,
    audit_session,
    audit_strategy,
    empirical_ratio_audit,
    empirical_sampler_audit,
)
from repro.protocol.engine import (
    ACCUMULATOR_FORMAT_VERSION,
    ACCUMULATOR_MAGIC,
    BACKENDS,
    FACTORED_ACCUMULATOR_FORMAT_VERSION,
    FACTORED_ACCUMULATOR_MAGIC,
    FactoredAccumulator,
    FactoredProtocolResult,
    FactoredProtocolSession,
    ProtocolResult,
    ProtocolSession,
    ShardAccumulator,
    expand_users,
    split_data_vector,
)

__all__ = [
    "ACCUMULATOR_FORMAT_VERSION",
    "ACCUMULATOR_MAGIC",
    "AuditReport",
    "BACKENDS",
    "CostReport",
    "FACTORED_ACCUMULATOR_FORMAT_VERSION",
    "FACTORED_ACCUMULATOR_MAGIC",
    "FactoredAccumulator",
    "FactoredProtocolResult",
    "FactoredProtocolSession",
    "ProtocolResult",
    "ProtocolSession",
    "SessionCostReport",
    "ShardAccumulator",
    "audit_session",
    "audit_strategy",
    "communication_bits",
    "compare_costs",
    "cost_report",
    "empirical_ratio_audit",
    "empirical_sampler_audit",
    "expand_users",
    "session_cost_report",
    "split_data_vector",
]
