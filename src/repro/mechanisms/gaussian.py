"""The Gaussian mechanism for local linear-query estimation (Bassily 2019).

Each user one-hot encodes their type and adds i.i.d. Gaussian noise:

    report_i = e_{u_i} + N(0, sigma^2 I_n),
    sigma = sqrt(2) * sqrt(2 ln(1.25 / delta)) / eps

(the L2 distance between two one-hot encodings is sqrt(2)).  This gives
(eps, delta)-LDP rather than pure eps-LDP — the paper omits it from its
comparison because it is strictly dominated by the L2 Matrix Mechanism, and
we reproduce it as an extension so that claim can be checked.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PrivacyViolationError
from repro.mechanisms.base import _user_counts
from repro.mechanisms.interface import Mechanism
from repro.workloads.base import Workload

#: delta used when callers do not specify one (a common benchmark value).
DEFAULT_DELTA = 1e-6


def gaussian_sigma(epsilon: float, delta: float = DEFAULT_DELTA) -> float:
    """Per-coordinate noise scale of the classic analytic Gaussian mechanism."""
    if epsilon <= 0:
        raise PrivacyViolationError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise PrivacyViolationError(f"delta must be in (0, 1), got {delta}")
    return np.sqrt(2.0) * np.sqrt(2.0 * np.log(1.25 / delta)) / epsilon


class GaussianMechanism(Mechanism):
    """Local Gaussian mechanism (approximate LDP), strategy = identity."""

    def __init__(self, delta: float = DEFAULT_DELTA) -> None:
        self.delta = delta
        self.name = "Gaussian"

    def per_user_variances(self, workload: Workload, epsilon: float) -> np.ndarray:
        """Constant per-type variance ``sigma^2 ||W||_F^2``."""
        sigma = gaussian_sigma(epsilon, self.delta)
        value = sigma**2 * workload.frobenius_norm_squared()
        return np.full(workload.domain_size, value)

    def run(
        self,
        workload: Workload,
        data_vector: np.ndarray,
        epsilon: float,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Execute the protocol and return workload answers."""
        rng = rng or np.random.default_rng()
        data_vector = np.asarray(data_vector, dtype=float)
        num_users = int(_user_counts(data_vector).sum())
        sigma = gaussian_sigma(epsilon, self.delta)
        noise_total = rng.normal(
            scale=sigma * np.sqrt(num_users), size=workload.domain_size
        )
        return workload.matvec(data_vector + noise_total)
