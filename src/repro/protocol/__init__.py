"""The LDP collection protocol: the shard-parallel engine and its audits.

* :class:`repro.protocol.engine.ProtocolSession` — the mechanism itself:
  strategy + workload + reconstruction operator, bound once, with
  one-call sharded execution.  Per-user randomization is
  :meth:`~repro.mechanisms.base.StrategyMatrix.sample_responses`.
* :class:`repro.protocol.engine.ShardAccumulator` — mergeable, serializable
  aggregation state (the server side only ever adds reports into it).
* :mod:`repro.protocol.audit` — exact and empirical privacy audits.
* :mod:`repro.protocol.accounting` — client/server/shard resource accounting
  and the exact multi-round :class:`~repro.protocol.accounting.BudgetLedger`.
* :mod:`repro.protocol.adaptive` — private worst-approximated sub-workload
  selection for adaptive campaigns.
"""

from repro.protocol.accounting import (
    BudgetLedger,
    CostReport,
    LedgerEntry,
    RoundBudget,
    SessionCostReport,
    communication_bits,
    compare_costs,
    cost_report,
    session_cost_report,
    split_budget,
)
from repro.protocol.adaptive import (
    DEFAULT_SELECTOR_SENSITIVITY,
    SubWorkload,
    boosted_workload,
    group_scores,
    partition_workload,
    selection_probabilities,
    worst_approximated,
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
    "BudgetLedger",
    "CostReport",
    "DEFAULT_SELECTOR_SENSITIVITY",
    "FACTORED_ACCUMULATOR_FORMAT_VERSION",
    "FACTORED_ACCUMULATOR_MAGIC",
    "FactoredAccumulator",
    "FactoredProtocolResult",
    "FactoredProtocolSession",
    "LedgerEntry",
    "ProtocolResult",
    "ProtocolSession",
    "RoundBudget",
    "SessionCostReport",
    "ShardAccumulator",
    "SubWorkload",
    "audit_session",
    "audit_strategy",
    "boosted_workload",
    "communication_bits",
    "compare_costs",
    "cost_report",
    "empirical_ratio_audit",
    "empirical_sampler_audit",
    "expand_users",
    "group_scores",
    "partition_workload",
    "selection_probabilities",
    "session_cost_report",
    "split_budget",
    "split_data_vector",
    "worst_approximated",
]
