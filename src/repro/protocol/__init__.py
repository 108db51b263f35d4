"""Client/server LDP protocol simulation and the shard-parallel engine.

* :class:`repro.protocol.engine.ProtocolSession` — immutable session config
  (strategy + workload + reconstruction operator) and one-call sharded
  execution.
* :class:`repro.protocol.engine.ShardAccumulator` — mergeable, serializable
  per-shard aggregation state.
* :class:`repro.protocol.client.LocalRandomizer` — per-user randomization.
* :class:`repro.protocol.server.Aggregator` — single-node response
  collection and unbiased estimation.
* :func:`repro.protocol.simulation.run_protocol` — one-shot end-to-end
  execution (thin wrapper over the engine).
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
from repro.protocol.client import LocalRandomizer
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
from repro.protocol.server import Aggregator
from repro.protocol.simulation import run_protocol

__all__ = [
    "ACCUMULATOR_FORMAT_VERSION",
    "ACCUMULATOR_MAGIC",
    "Aggregator",
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
    "LocalRandomizer",
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
    "run_protocol",
    "selection_probabilities",
    "session_cost_report",
    "split_budget",
    "split_data_vector",
    "worst_approximated",
]
