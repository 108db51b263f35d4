"""Strategy matrices: the paper's encoding of an LDP mechanism.

A :class:`StrategyMatrix` is an ``m x n`` conditional probability table
(Proposition 2.6) plus its samplers.  Binding a strategy to a workload
through a reconstruction operator (Definition 3.2) is
:class:`repro.protocol.engine.ProtocolSession`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reconstruction import strategy_row_sums
from repro.exceptions import PrivacyViolationError, ProtocolError, StochasticityError
from repro.linalg import is_column_stochastic, is_ldp_matrix, ldp_ratio, max_abs_column_sum_error

#: Users randomized per vectorized sampling block; bounds sampler memory to
#: ``O(chunk)`` scratch regardless of population size.
DEFAULT_SAMPLE_CHUNK = 65_536


def _user_counts(counts, what: str = "data vector") -> np.ndarray:
    """A vector of counts as ``int64``, refusing any count that is not a
    finite, non-negative whole number (``25.0`` is fine, ``2.5`` is not:
    flooring it would silently drop users).

    Every sampler and mechanism that turns a population into users, and
    every accumulator that folds a response histogram, checks its counts
    here, so a malformed vector fails the same way everywhere.
    """
    try:
        values = np.asarray(counts, dtype=float)
    except (ValueError, TypeError, OverflowError) as error:
        raise ProtocolError(f"{what} is not a numeric vector: {error}")
    if values.ndim != 1:
        raise ProtocolError(f"{what} must be 1-D, got {values.ndim}-D")
    if not np.isfinite(values).all():
        raise ProtocolError(f"{what} has non-finite counts")
    if (values < 0).any():
        raise ProtocolError(f"{what} has negative counts")
    if (values != np.floor(values)).any():
        raise ProtocolError(f"{what} has non-integer counts")
    return values.astype(np.int64)


def _user_types(values, domain_size: int) -> np.ndarray:
    """User types as ``int64``, refusing any that is not a whole number in
    ``[0, domain_size)`` (``2.0`` is fine, ``1.5`` is not: truncating it
    would randomize a different type).

    Both samplers check their input here, so a malformed raw value fails
    with :class:`ProtocolError` however it is randomized.
    """
    types = np.asarray(values)
    if types.dtype.kind not in "biuf":
        raise ProtocolError(f"user types must be numbers, got dtype {types.dtype}")
    if types.dtype.kind == "f":
        whole = np.isfinite(types) & (types == np.floor(types))
        if not whole.all():
            raise ProtocolError(
                f"user type {types[~whole].flat[0]} is not a whole number"
            )
    if types.size and (types.min() < 0 or types.max() >= domain_size):
        outside = types[(types < 0) | (types >= domain_size)].flat[0]
        raise ProtocolError(f"user type {outside} outside domain [0, {domain_size})")
    return types.astype(np.int64, copy=False)


@dataclass(frozen=True)
class StrategyMatrix:
    """A validated epsilon-LDP strategy matrix.

    Parameters
    ----------
    probabilities:
        The ``(m, n)`` table with ``probabilities[o, u] = Pr[output o | type u]``.
    epsilon:
        The privacy budget the matrix claims to satisfy.
    name:
        Display name of the mechanism this strategy encodes.
    validate:
        When True (default), construction verifies stochasticity and the
        privacy ratio and raises a typed error on violation.

    Examples
    --------
    >>> from repro.mechanisms import randomized_response
    >>> q = randomized_response(4, epsilon=1.0)
    >>> q.shape
    (4, 4)
    """

    probabilities: np.ndarray
    epsilon: float
    name: str = "Strategy"
    validate: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", matrix)
        if matrix.ndim != 2:
            raise StochasticityError(f"strategy must be 2-D, got {matrix.ndim}-D")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise PrivacyViolationError(
                f"epsilon must be finite and positive, got {self.epsilon}"
            )
        if not self.validate:
            return
        if not is_column_stochastic(matrix):
            raise StochasticityError(
                "strategy columns are not probability distributions "
                f"(max column-sum error {max_abs_column_sum_error(matrix):.3e}, "
                f"min entry {matrix.min():.3e})"
            )
        if not is_ldp_matrix(matrix, self.epsilon):
            ratio = ldp_ratio(matrix)
            raise PrivacyViolationError(
                f"strategy violates {self.epsilon}-LDP: realized ratio "
                f"{ratio:.6g} = e^{np.log(ratio):.6g}"
            )

    # -- shape & structure -------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """``(m, n)`` — outputs by user types."""
        return self.probabilities.shape

    @property
    def num_outputs(self) -> int:
        return self.probabilities.shape[0]

    @property
    def domain_size(self) -> int:
        return self.probabilities.shape[1]

    def row_sums(self) -> np.ndarray:
        """The diagonal of ``D_Q = Diag(Q 1)``."""
        return strategy_row_sums(self.probabilities)

    def realized_ratio(self) -> float:
        """The privacy ratio the matrix actually achieves (<= e^eps)."""
        return ldp_ratio(self.probabilities)

    def condensed(self) -> "StrategyMatrix":
        """Drop all-zero output rows (outputs that can never occur)."""
        live = self.probabilities.sum(axis=1) > 0
        if live.all():
            return self
        return StrategyMatrix(
            self.probabilities[live], self.epsilon, self.name, validate=False
        )

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Serialize to ``.npz`` (strategy optimization is an offline,
        one-time cost — Section 6.6 — so deployments ship a saved matrix to
        clients)."""
        np.savez_compressed(
            path,
            probabilities=self.probabilities,
            epsilon=np.asarray(self.epsilon),
            name=np.asarray(self.name),
        )

    @staticmethod
    def load(path) -> "StrategyMatrix":
        """Load a strategy saved with :meth:`save` (re-validated on load, so
        a tampered file cannot smuggle in a privacy violation)."""
        with np.load(path, allow_pickle=False) as archive:
            return StrategyMatrix(
                archive["probabilities"],
                float(archive["epsilon"]),
                str(archive["name"]),
            )

    # -- execution ----------------------------------------------------------

    def response_cdf(self) -> np.ndarray:
        """Per-column response CDFs, computed once and cached.

        ``response_cdf()[o, u] = Pr[output <= o | type u]``.  The last row is
        clamped to exactly 1.0 so a uniform draw in ``[0, 1)`` can never fall
        past the end of a column (column sums are only stochastic up to
        floating-point tolerance).
        """
        cached = self.__dict__.get("_response_cdf")
        if cached is None:
            cached = np.cumsum(self.probabilities, axis=0)
            cached[-1, :] = 1.0
            cached.setflags(write=False)
            object.__setattr__(self, "_response_cdf", cached)
        return cached

    def _offset_cdf(self) -> np.ndarray:
        """Flattened inverse-CDF lookup table for the vectorized sampler.

        Column ``u``'s CDF is shifted by ``+u`` and the columns are laid out
        contiguously, producing one globally sorted array: a single
        ``searchsorted`` with key ``u + draw`` then inverts every user's CDF
        at once, whatever their types are.
        """
        cached = self.__dict__.get("_offset_cdf_flat")
        if cached is None:
            offsets = np.arange(self.domain_size, dtype=float)
            cached = np.ascontiguousarray(
                (self.response_cdf() + offsets[None, :]).T
            ).ravel()
            cached.setflags(write=False)
            object.__setattr__(self, "_offset_cdf_flat", cached)
        return cached

    def sample_responses(
        self,
        user_types: np.ndarray,
        rng: np.random.Generator | None = None,
        chunk_size: int = DEFAULT_SAMPLE_CHUNK,
    ) -> np.ndarray:
        """Randomize a batch of users: one independent report per entry.

        Vectorized inverse-CDF sampling over the cached offset table:
        ``O(N log(nm))`` time and ``O(chunk_size)`` scratch memory, versus the
        naive ``O(N m)`` time *and* memory of materializing every user's
        response CDF.  Draws are consumed from ``rng`` one chunk at a time in
        order, so results are bit-identical for a given generator state
        regardless of ``chunk_size``.
        """
        rng = rng or np.random.default_rng()
        user_types = _user_types(user_types, self.domain_size)
        if user_types.size == 0:
            return np.zeros(0, dtype=np.int64)
        if chunk_size < 1:
            raise ProtocolError(f"chunk size must be >= 1, got {chunk_size}")
        table = self._offset_cdf()
        num_outputs = self.num_outputs
        responses = np.empty(user_types.shape[0], dtype=np.int64)
        for start in range(0, user_types.shape[0], chunk_size):
            chunk = user_types[start : start + chunk_size]
            keys = chunk + rng.random(chunk.shape[0])
            found = np.searchsorted(table, keys, side="left")
            np.clip(
                found - chunk * num_outputs,
                0,
                num_outputs - 1,
                out=responses[start : start + chunk.shape[0]],
            )
        return responses

    def sample_response(
        self, user_type: int, rng: np.random.Generator | None = None
    ) -> int:
        """One client-side invocation: randomize a single user's type.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.mechanisms import randomized_response
        >>> randomized_response(4, 1.0).sample_response(2, np.random.default_rng(0))
        2
        """
        user_type = int(_user_types(user_type, self.domain_size))
        rng = rng or np.random.default_rng()
        return int(rng.choice(self.num_outputs, p=self.probabilities[:, user_type]))

    def sample_histogram(
        self, data_vector: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Response histogram ``y = M_Q(x)`` for a whole population.

        Each user type's responses are a multinomial draw from its strategy
        column, so the full histogram is sampled in ``O(n)`` draws rather
        than ``O(N)``.  Counts must be finite, non-negative whole numbers.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.mechanisms import randomized_response
        >>> strategy = randomized_response(4, 1.0)
        >>> y = strategy.sample_histogram([5, 0, 3, 2], np.random.default_rng(0))
        >>> int(y.sum())
        10
        >>> strategy.sample_histogram([2.5, 1.7, 0.9, 3.2])
        Traceback (most recent call last):
            ...
        repro.exceptions.ProtocolError: data vector has non-integer counts
        """
        rng = rng or np.random.default_rng()
        if np.shape(data_vector) != (self.domain_size,):
            raise StochasticityError(
                f"data vector shape {np.shape(data_vector)} does not match "
                f"domain size {self.domain_size}"
            )
        histogram = np.zeros(self.num_outputs)
        for user_type, count in enumerate(_user_counts(data_vector)):
            count = int(count)
            if count > 0:
                histogram += rng.multinomial(count, self.probabilities[:, user_type])
        return histogram


def stack_strategies(
    components: list[tuple[float, np.ndarray]], epsilon: float, name: str
) -> StrategyMatrix:
    """Build a mixture mechanism: run component ``l`` with probability ``w_l``.

    The stacked matrix ``[w_1 Q_1; w_2 Q_2; ...]`` is column-stochastic when
    the weights sum to one and each block is column-stochastic, and it is
    epsilon-LDP when every block is (ratios act within blocks).  This is the
    combinator behind the Hierarchical and Fourier mechanisms.
    """
    weights = np.array([weight for weight, _ in components], dtype=float)
    if weights.min() < 0 or abs(weights.sum() - 1.0) > 1e-9:
        raise StochasticityError(
            f"mixture weights must be a distribution, got sum {weights.sum():.6g}"
        )
    blocks = [weight * np.asarray(block, dtype=float) for weight, block in components]
    return StrategyMatrix(np.vstack(blocks), epsilon, name)
