"""LDP mechanisms as strategy matrices, plus the additive-noise family.

The strategy-matrix encodings follow Table 1 of the paper exactly; the
Hierarchical and Fourier mechanisms are built with the vertical mixture
combinator :func:`repro.mechanisms.base.stack_strategies`.  The distributed
Matrix Mechanism and the Gaussian mechanism report noisy strategy-query
answers instead of categorical outputs and implement the same comparison
interface.
"""

from repro.mechanisms.base import (
    StrategyMatrix,
    stack_strategies,
)
from repro.mechanisms.factored import FACTORED_STRATEGY_MAGIC, FactoredStrategy
from repro.mechanisms.fourier import fourier
from repro.mechanisms.gaussian import DEFAULT_DELTA, GaussianMechanism, gaussian_sigma
from repro.mechanisms.hadamard_response import hadamard_response
from repro.mechanisms.hierarchical import DEFAULT_BRANCHING, hierarchical, level_cells
from repro.mechanisms.interface import Mechanism, StrategyMechanism
from repro.mechanisms.local_hashing import affine_hashes, olh, optimal_bucket_count
from repro.mechanisms.matrix_mechanism import (
    DistributedMatrixMechanism,
    square_root_strategy,
)
from repro.mechanisms.randomized_response import (
    randomized_response,
    randomized_response_inverse,
)
from repro.mechanisms.rappor import MAX_RAPPOR_DOMAIN, rappor
from repro.mechanisms.registry import by_name, paper_baselines
from repro.mechanisms.subset_selection import (
    recommended_subset_size,
    subset_selection,
)
from repro.mechanisms.unary import oue

__all__ = [
    "DEFAULT_BRANCHING",
    "DEFAULT_DELTA",
    "DistributedMatrixMechanism",
    "FACTORED_STRATEGY_MAGIC",
    "FactoredStrategy",
    "GaussianMechanism",
    "MAX_RAPPOR_DOMAIN",
    "Mechanism",
    "StrategyMatrix",
    "StrategyMechanism",
    "affine_hashes",
    "by_name",
    "fourier",
    "gaussian_sigma",
    "hadamard_response",
    "hierarchical",
    "level_cells",
    "olh",
    "optimal_bucket_count",
    "oue",
    "paper_baselines",
    "randomized_response",
    "randomized_response_inverse",
    "rappor",
    "recommended_subset_size",
    "square_root_strategy",
    "stack_strategies",
    "subset_selection",
]
