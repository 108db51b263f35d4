"""repro — workload-adaptive linear query answering under local differential
privacy.

A full reproduction of McKenna, Maity, Mazumdar & Miklau, *A
workload-adaptive mechanism for linear queries under local differential
privacy* (PVLDB 2020).

Quickstart
----------
>>> import numpy as np
>>> from repro import workloads, OptimizedMechanism, OptimizerConfig
>>> from repro.protocol import ProtocolSession
>>> w = workloads.prefix(16)
>>> mech = OptimizedMechanism(OptimizerConfig(num_iterations=200, seed=0))
>>> strategy = mech.strategy_for(w, epsilon=1.0)
>>> x = np.full(16, 100.0)                     # 1600 users, uniform
>>> result = ProtocolSession(strategy, w).run(x, seed=0)
>>> result.workload_estimates.shape
(16,)

Subpackages
-----------
``repro.workloads``      the paper's six workloads + custom builders
``repro.mechanisms``     baseline LDP mechanisms as strategy matrices
``repro.optimization``   Algorithms 1 & 2 (the paper's contribution)
``repro.analysis``       variance, sample complexity, lower bounds
``repro.protocol``       shard-parallel collection engine & privacy audits
``repro.postprocess``    WNNLS consistency post-processing
``repro.data``           synthetic datasets
``repro.experiments``    one module per paper figure/table
``repro.store``          persistent content-addressed strategy store
``repro.service``        always-on collection service (ingest + live query)
"""

from repro import (
    analysis,
    data,
    domains,
    linalg,
    mechanisms,
    optimization,
    postprocess,
    protocol,
    service,
    store,
    workloads,
)
from repro._version import __version__
from repro.exceptions import (
    ClusterDegradedError,
    DataError,
    DomainError,
    FactorizationError,
    OptimizationError,
    PrivacyViolationError,
    ProtocolError,
    ReproError,
    ServiceError,
    ServiceHTTPError,
    StochasticityError,
    StoreError,
    WorkloadError,
)
from repro.mechanisms import Mechanism, StrategyMatrix
from repro.optimization import (
    OptimizationResult,
    OptimizedMechanism,
    OptimizerConfig,
    optimize_strategy,
)
from repro.protocol import ProtocolSession, ShardAccumulator
from repro.store import StrategyStore
from repro.workloads import Workload

__all__ = [
    "ClusterDegradedError",
    "DataError",
    "DomainError",
    "FactorizationError",
    "Mechanism",
    "OptimizationError",
    "OptimizationResult",
    "OptimizedMechanism",
    "OptimizerConfig",
    "PrivacyViolationError",
    "ProtocolError",
    "ProtocolSession",
    "ReproError",
    "ServiceError",
    "ServiceHTTPError",
    "ShardAccumulator",
    "StochasticityError",
    "StoreError",
    "StrategyMatrix",
    "StrategyStore",
    "Workload",
    "WorkloadError",
    "__version__",
    "analysis",
    "data",
    "domains",
    "linalg",
    "mechanisms",
    "optimization",
    "optimize_strategy",
    "postprocess",
    "protocol",
    "service",
    "store",
    "workloads",
]
