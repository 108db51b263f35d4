"""Privacy audit helpers.

Because strategy matrices are explicit conditional distributions, the LDP
guarantee can be *verified exactly* by inspecting the matrix (no sampling
needed).  An empirical frequency audit is provided as well; it is what an
external auditor without access to the matrix internals would run, and it
sanity-checks that the sampling code actually follows the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ProtocolError
from repro.linalg import is_ldp_matrix
from repro.mechanisms.base import StrategyMatrix


@dataclass(frozen=True)
class AuditReport:
    """Result of an exact strategy audit."""

    epsilon_claimed: float
    epsilon_realized: float
    satisfied: bool
    worst_output: int

    @property
    def slack(self) -> float:
        """Unused budget ``eps_claimed - eps_realized`` (>= 0 when satisfied).

        Examples
        --------
        >>> report = AuditReport(1.0, 0.75, True, 0)
        >>> report.slack
        0.25
        """
        return self.epsilon_claimed - self.epsilon_realized


def audit_strategy(strategy: StrategyMatrix, rtol: float = 1e-8) -> AuditReport:
    """Exact audit: the realized privacy ratio of every output row.

    Returns the effective epsilon ``log(max ratio)`` and the output achieving
    it.

    Examples
    --------
    Randomized response uses its whole budget exactly:

    >>> import numpy as np
    >>> from repro.mechanisms import randomized_response
    >>> report = audit_strategy(randomized_response(8, 1.0))
    >>> report.satisfied and bool(np.isclose(report.epsilon_realized, 1.0))
    True
    """
    matrix = strategy.probabilities
    row_max = matrix.max(axis=1)
    row_min = matrix.min(axis=1)
    live = row_max > 0
    ratios = np.ones(matrix.shape[0])
    positive = live & (row_min > 0)
    ratios[positive] = row_max[positive] / row_min[positive]
    ratios[live & (row_min <= 0)] = np.inf
    worst = int(np.argmax(ratios))
    realized = float(np.log(ratios[worst]))
    return AuditReport(
        epsilon_claimed=strategy.epsilon,
        epsilon_realized=realized,
        satisfied=is_ldp_matrix(matrix, strategy.epsilon, rtol),
        worst_output=worst,
    )


def audit_session(session, rtol: float = 1e-8) -> AuditReport:
    """Exact audit of a :class:`~repro.protocol.engine.ProtocolSession`.

    Sharding is pure post-processing of independently randomized reports, so
    the session's guarantee is exactly its strategy's guarantee — whatever
    the shard count, backend, or merge order.

    Examples
    --------
    >>> from repro.mechanisms import randomized_response
    >>> from repro.protocol.engine import ProtocolSession
    >>> from repro.workloads import histogram
    >>> session = ProtocolSession(randomized_response(4, 1.0), histogram(4))
    >>> bool(audit_session(session).satisfied)
    True
    """
    return audit_strategy(session.strategy, rtol=rtol)


def empirical_sampler_audit(
    strategy: StrategyMatrix,
    num_samples: int = 200_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Largest per-type total-variation gap between the vectorized sampler's
    empirical output frequencies and the strategy columns.

    This is the sampling-code counterpart of :func:`empirical_ratio_audit`:
    it checks that :meth:`StrategyMatrix.sample_responses` (the engine's hot
    path) actually follows the matrix, type by type.  With enough samples the
    returned gap should be sampling noise, ``O(sqrt(m / num_samples))``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.mechanisms import randomized_response
    >>> gap = empirical_sampler_audit(
    ...     randomized_response(4, 1.0),
    ...     num_samples=20_000,
    ...     rng=np.random.default_rng(0),
    ... )
    >>> gap < 0.05
    True
    """
    rng = rng or np.random.default_rng()
    if num_samples < 1:
        raise ProtocolError(f"need >= 1 sample, got {num_samples}")
    worst = 0.0
    for user_type in range(strategy.domain_size):
        responses = strategy.sample_responses(
            np.full(num_samples, user_type, dtype=np.int64), rng
        )
        frequencies = (
            np.bincount(responses, minlength=strategy.num_outputs) / num_samples
        )
        gap = 0.5 * float(
            np.abs(frequencies - strategy.probabilities[:, user_type]).sum()
        )
        worst = max(worst, gap)
    return worst


def empirical_ratio_audit(
    strategy: StrategyMatrix,
    type_a: int,
    type_b: int,
    num_samples: int = 200_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical upper estimate of the output-probability ratio between two
    user types, from sampled responses.

    Uses add-one smoothing so unobserved outputs do not produce infinite
    ratios; with enough samples the value should not exceed
    ``exp(strategy.epsilon)`` by more than sampling noise.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.mechanisms import randomized_response
    >>> ratio = empirical_ratio_audit(
    ...     randomized_response(4, 1.0), 0, 1,
    ...     num_samples=20_000,
    ...     rng=np.random.default_rng(0),
    ... )
    >>> bool(ratio < np.exp(1.0) * 1.1)
    True
    """
    rng = rng or np.random.default_rng()
    n = strategy.domain_size
    if not (0 <= type_a < n and 0 <= type_b < n):
        raise ProtocolError("audit types outside the domain")
    counts = np.zeros((2, strategy.num_outputs))
    for row, user_type in enumerate((type_a, type_b)):
        counts[row] = rng.multinomial(
            num_samples, strategy.probabilities[:, user_type]
        )
    smoothed = counts + 1.0
    frequencies = smoothed / smoothed.sum(axis=1, keepdims=True)
    ratios = frequencies[0] / frequencies[1]
    return float(max(ratios.max(), (1.0 / ratios).max()))
