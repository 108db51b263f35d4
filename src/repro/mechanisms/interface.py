"""The unified mechanism-comparison interface.

Every mechanism in the paper's evaluation — the strategy-matrix family and
the additive-noise family (Matrix Mechanism, Gaussian) — implements
:class:`Mechanism`: a name, per-user-type variance contributions on a
workload, and an executable protocol.  Sample complexity (the paper's
evaluation metric) derives from the variances exactly as in Corollary 5.4.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.analysis.reconstruction import (
    factorization_residual,
    is_factorizable,
    reconstruction_operator,
)
from repro.analysis.sample_complexity import (
    PAPER_ALPHA,
    sample_complexity_from_variances,
)
from repro.analysis.variance import per_user_variances as _strategy_variances
from repro.exceptions import FactorizationError
from repro.mechanisms.base import StrategyMatrix
from repro.protocol.engine import ProtocolSession
from repro.workloads.base import Workload


class Mechanism(abc.ABC):
    """A mechanism that can answer (or decline) any linear workload."""

    name: str = "Mechanism"

    @abc.abstractmethod
    def per_user_variances(self, workload: Workload, epsilon: float) -> np.ndarray:
        """Per-user-type variance contributions ``t_u`` (Theorem 3.4 inner
        sum).  Entries are ``inf`` when the mechanism cannot answer the
        workload (factorization infeasible)."""

    @abc.abstractmethod
    def run(
        self,
        workload: Workload,
        data_vector: np.ndarray,
        epsilon: float,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Execute the protocol on a data vector; returns workload answers."""

    # -- derived metrics -----------------------------------------------------

    def worst_case_variance(
        self, workload: Workload, epsilon: float, num_users: float = 1.0
    ) -> float:
        """``L_worst`` (Corollary 3.5) for ``num_users`` users."""
        return float(num_users * np.max(self.per_user_variances(workload, epsilon)))

    def average_case_variance(
        self, workload: Workload, epsilon: float, num_users: float = 1.0
    ) -> float:
        """``L_avg`` (Corollary 3.6) for ``num_users`` users."""
        return float(num_users * np.mean(self.per_user_variances(workload, epsilon)))

    def sample_complexity(
        self, workload: Workload, epsilon: float, alpha: float = PAPER_ALPHA
    ) -> float:
        """Worst-case sample complexity at normalized-variance target alpha."""
        t = self.per_user_variances(workload, epsilon)
        return sample_complexity_from_variances(t, workload.num_queries, alpha)

    def sample_complexity_on_distribution(
        self,
        workload: Workload,
        epsilon: float,
        distribution: np.ndarray,
        alpha: float = PAPER_ALPHA,
    ) -> float:
        """Data-dependent sample complexity (Section 6.4)."""
        t = self.per_user_variances(workload, epsilon)
        distribution = np.asarray(distribution, dtype=float)
        weights = distribution / distribution.sum()
        return float(weights @ t / (workload.num_queries * alpha))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class StrategyMechanism(Mechanism):
    """A mechanism defined by a strategy-matrix factory.

    Fixed baselines (RR, Hadamard, Hierarchical, Fourier, ...) use the same
    strategy for every workload over a given domain, so strategies and their
    reconstruction operators are cached per ``(domain_size, epsilon)``.

    Parameters
    ----------
    name:
        Display name.
    factory:
        Callable ``factory(domain_size, epsilon) -> StrategyMatrix``.
    """

    def __init__(self, name: str, factory) -> None:
        self.name = name
        self._factory = factory
        self._cache: dict[tuple[int, float], tuple[StrategyMatrix, np.ndarray]] = {}

    def strategy_for(self, workload: Workload, epsilon: float) -> StrategyMatrix:
        """The strategy used on this workload (workload-independent here)."""
        return self._cached(workload, epsilon)[0]

    def reconstruction_for(self, workload: Workload, epsilon: float) -> np.ndarray:
        """The Theorem 3.10 reconstruction operator ``B`` for the strategy."""
        return self._cached(workload, epsilon)[1]

    def _cached(
        self, workload: Workload, epsilon: float
    ) -> tuple[StrategyMatrix, np.ndarray]:
        key = (workload.domain_size, round(float(epsilon), 12))
        if key not in self._cache:
            strategy = self._factory(workload.domain_size, epsilon)
            operator = reconstruction_operator(strategy.probabilities)
            self._cache[key] = (strategy, operator)
        return self._cache[key]

    def per_user_variances(self, workload: Workload, epsilon: float) -> np.ndarray:
        strategy = self.strategy_for(workload, epsilon)
        operator = self.reconstruction_for(workload, epsilon)
        gram = workload.gram()
        if not is_factorizable(gram, strategy.probabilities, operator):
            return np.full(workload.domain_size, np.inf)
        return _strategy_variances(strategy.probabilities, gram, operator)

    def run(
        self,
        workload: Workload,
        data_vector: np.ndarray,
        epsilon: float,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Randomize every user, aggregate, and reconstruct ``W B y``.

        Raises :class:`~repro.exceptions.FactorizationError` when the
        workload is outside the strategy's row space (no ``V`` with
        ``W = V Q`` exists, so no unbiased answer does either).

        Examples
        --------
        >>> from repro.mechanisms import fourier, randomized_response
        >>> from repro.workloads import histogram
        >>> rr = StrategyMechanism("RR", randomized_response)
        >>> rr.run(histogram(4), [25, 25, 25, 25], 1.0).shape
        (4,)
        >>> low_rank = StrategyMechanism(
        ...     "Fourier(deg=1)", lambda n, eps: fourier(n, eps, degree=1)
        ... )
        >>> x = [10] * 8
        >>> low_rank.run(histogram(8), x, 1.0)  # doctest: +IGNORE_EXCEPTION_DETAIL
        Traceback (most recent call last):
            ...
        repro.exceptions.FactorizationError: not in the row space
        """
        strategy = self.strategy_for(workload, epsilon)
        operator = self.reconstruction_for(workload, epsilon)
        gram = workload.gram()
        if not is_factorizable(gram, strategy.probabilities, operator):
            residual = factorization_residual(gram, strategy.probabilities, operator)
            raise FactorizationError(
                f"workload {workload.name!r} is not in the row space of strategy "
                f"{strategy.name!r} (residual {residual:.3e}); the factorization "
                "mechanism is undefined for this pair"
            )
        session = ProtocolSession(strategy, workload, operator)
        return session.run(data_vector, rng=rng).workload_estimates
