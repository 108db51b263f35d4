"""Streaming, shard-parallel protocol engine.

The factorization mechanism's server side is pure post-processing of an
*additive* response histogram, so collection decomposes freely: any
partition of the population into shards can be randomized independently —
sequentially or on a thread pool — and folded back together without
changing the estimate's distribution.  This module is the seam that
exploits that structure:

* :class:`ProtocolSession` — the immutable public configuration of one
  collection campaign: strategy, workload, and the reconstruction operator,
  computed once and shared by every shard.
* :class:`ShardAccumulator` — the mergeable per-shard state (response
  histogram + report count) with ``merge()``, ``snapshot()`` and byte-level
  serialization, so partial aggregates can cross process or machine
  boundaries.
* :meth:`ProtocolSession.run` — one-call execution over a data vector with
  ``num_shards``/``backend`` knobs.

Determinism contract: sharding is a pure function of the data vector and
``num_shards``, and each shard's generator is spawned from a root
:class:`numpy.random.SeedSequence`, so for a fixed seed the merged estimate
is bit-identical whether shards run serially or on threads, and in whatever
order they are merged (histogram counts are integers, exactly representable
in float64).
"""

from __future__ import annotations

import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reconstruction import reconstruction_operator
from repro.exceptions import ProtocolError
from repro.mechanisms.base import (
    DEFAULT_SAMPLE_CHUNK,
    StrategyMatrix,
    _user_counts,
)
from repro.workloads.base import Workload

#: Execution backends accepted by :meth:`ProtocolSession.run`.  Shards are
#: independent, so the backend changes only what a run costs, never its
#: result.
BACKENDS = ("serial", "thread")

#: Magic string identifying a serialized :class:`ShardAccumulator` payload.
ACCUMULATOR_MAGIC = "repro/shard-accumulator"

#: Serialization format version; bumped on incompatible payload changes so
#: checkpoints written by a different format fail loudly instead of
#: surfacing as a numpy decode error.
ACCUMULATOR_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one protocol execution.

    Examples
    --------
    >>> from repro.mechanisms import randomized_response
    >>> from repro.workloads import histogram
    >>> session = ProtocolSession(randomized_response(4, 1.0), histogram(4))
    >>> result = session.run([25.0] * 4, seed=0)
    >>> result.num_users
    100
    >>> result.workload_estimates.shape
    (4,)
    """

    workload_estimates: np.ndarray
    data_vector_estimate: np.ndarray
    response_vector: np.ndarray
    num_users: int


class ShardAccumulator:
    """Mergeable aggregation state for one shard of the population.

    Holds the running response histogram ``y`` and the number of reports
    folded in.  Accumulators over the same strategy form a commutative
    monoid under :meth:`merge` — the algebraic fact that makes the engine's
    shard-parallelism exact rather than approximate.

    Parameters
    ----------
    num_outputs:
        Output alphabet size ``m`` of the strategy being aggregated.

    Examples
    --------
    >>> left = ShardAccumulator(4).add_reports([0, 1, 1])
    >>> right = ShardAccumulator(4).add_reports([3])
    >>> merged = left.merge(right)
    >>> merged.num_reports
    4
    >>> merged.histogram
    array([1., 2., 0., 1.])
    """

    __slots__ = ("histogram", "num_reports")

    def __init__(self, num_outputs: int) -> None:
        if num_outputs < 1:
            raise ProtocolError(f"need >= 1 output, got {num_outputs}")
        self.histogram = np.zeros(num_outputs)
        self.num_reports = 0

    @property
    def num_outputs(self) -> int:
        return self.histogram.shape[0]

    # -- folding in data ---------------------------------------------------

    def add_reports(self, reports: np.ndarray) -> "ShardAccumulator":
        """Fold in raw client reports (output ids).

        Examples
        --------
        >>> ShardAccumulator(3).add_reports([0, 2, 2]).histogram
        array([1., 0., 2.])
        """
        reports = np.asarray(reports)
        if reports.size == 0:
            return self
        if reports.min() < 0 or reports.max() >= self.num_outputs:
            raise ProtocolError("report outside the strategy's output range")
        self.histogram += np.bincount(reports, minlength=self.num_outputs)
        self.num_reports += int(reports.shape[0])
        return self

    def add_histogram(self, histogram: np.ndarray) -> "ShardAccumulator":
        """Fold in a pre-aggregated response histogram (finite,
        non-negative whole counts).

        Examples
        --------
        >>> ShardAccumulator(3).add_histogram([5.0, 0.0, 2.0]).num_reports
        7
        >>> ShardAccumulator(3).add_histogram([0.4, 0.4, 0.0])
        Traceback (most recent call last):
            ...
        repro.exceptions.ProtocolError: histogram has non-integer counts
        """
        counts = _user_counts(histogram, "histogram")
        if counts.shape != (self.num_outputs,):
            raise ProtocolError(
                f"histogram shape {counts.shape} != ({self.num_outputs},)"
            )
        self.histogram += counts
        self.num_reports += int(counts.sum())
        return self

    # -- monoid structure --------------------------------------------------

    def merge(self, other: "ShardAccumulator") -> "ShardAccumulator":
        """Combine two shard states into a new one (commutative, associative).

        Examples
        --------
        >>> a = ShardAccumulator(2).add_reports([0])
        >>> b = ShardAccumulator(2).add_reports([1])
        >>> a.merge(b) == b.merge(a)
        True
        """
        if other.num_outputs != self.num_outputs:
            raise ProtocolError(
                f"cannot merge accumulators over {self.num_outputs} and "
                f"{other.num_outputs} outputs"
            )
        merged = ShardAccumulator(self.num_outputs)
        merged.histogram = self.histogram + other.histogram
        merged.num_reports = self.num_reports + other.num_reports
        return merged

    @staticmethod
    def merge_all(accumulators) -> "ShardAccumulator":
        """Fold any number of shard states into one.

        Examples
        --------
        >>> shards = [ShardAccumulator(2).add_reports([i % 2]) for i in range(4)]
        >>> ShardAccumulator.merge_all(shards).num_reports
        4
        """
        accumulators = list(accumulators)
        if not accumulators:
            raise ProtocolError("cannot merge zero accumulators")
        merged = accumulators[0].snapshot()
        for accumulator in accumulators[1:]:
            if accumulator.num_outputs != merged.num_outputs:
                raise ProtocolError(
                    f"cannot merge accumulators over {merged.num_outputs} "
                    f"and {accumulator.num_outputs} outputs"
                )
            merged.histogram += accumulator.histogram
            merged.num_reports += accumulator.num_reports
        return merged

    def snapshot(self) -> "ShardAccumulator":
        """An independent copy of the current state (safe to keep while the
        original keeps streaming).

        Examples
        --------
        >>> live = ShardAccumulator(2).add_reports([0])
        >>> frozen = live.snapshot()
        >>> _ = live.add_reports([1, 1])
        >>> frozen.num_reports
        1
        """
        copy = ShardAccumulator(self.num_outputs)
        copy.histogram = self.histogram.copy()
        copy.num_reports = self.num_reports
        return copy

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a compact ``.npz`` byte string (for shipping partial
        aggregates between processes or machines).

        Examples
        --------
        >>> original = ShardAccumulator(4).add_reports([1, 2, 2])
        >>> ShardAccumulator.from_bytes(original.to_bytes()) == original
        True
        """
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            format_magic=np.asarray(ACCUMULATOR_MAGIC),
            format_version=np.asarray(ACCUMULATOR_FORMAT_VERSION, dtype=np.int64),
            histogram=self.histogram,
            num_reports=np.asarray(self.num_reports, dtype=np.int64),
        )
        return buffer.getvalue()

    @staticmethod
    def from_bytes(payload: bytes) -> "ShardAccumulator":
        """Inverse of :meth:`to_bytes`.

        Payloads are tagged with a magic string and a format version so a
        checkpoint written by an incompatible library fails with a clear
        :class:`ProtocolError` rather than a numpy decode error.  Untagged
        payloads (written before the tag existed) are still accepted, and
        so is the zero ``round_id`` field older writers stored; a nonzero
        one held a cohort of a multi-round campaign, which no campaign
        takes any more, so it is refused.
        """
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
                if "format_magic" in archive.files:
                    magic = str(archive["format_magic"])
                    if magic != ACCUMULATOR_MAGIC:
                        raise ProtocolError(
                            f"payload magic {magic!r} is not a serialized "
                            f"ShardAccumulator (expected {ACCUMULATOR_MAGIC!r})"
                        )
                    version = int(archive["format_version"])
                    if version != ACCUMULATOR_FORMAT_VERSION:
                        raise ProtocolError(
                            f"ShardAccumulator payload has format version "
                            f"{version}; this library reads version "
                            f"{ACCUMULATOR_FORMAT_VERSION} — re-serialize with "
                            "a matching library version"
                        )
                histogram = np.asarray(archive["histogram"], dtype=float)
                num_reports = int(archive["num_reports"])
                round_id = (
                    int(archive["round_id"]) if "round_id" in archive.files else 0
                )
        except ProtocolError:
            raise
        except Exception as error:  # zip damage, missing fields, bad dtypes
            raise ProtocolError(
                f"payload is not a serialized ShardAccumulator: {error}"
            )
        if histogram.ndim != 1 or histogram.shape[0] < 1:
            raise ProtocolError(
                f"serialized histogram has invalid shape {histogram.shape}"
            )
        # A payload crosses a trust boundary (edge partials, checkpoints,
        # worker snapshots): one NaN or fractional count would poison every
        # later estimate of the campaign it merges into.
        total = int(_user_counts(histogram, "serialized histogram").sum())
        if num_reports != total:
            raise ProtocolError(
                f"serialized accumulator counts {num_reports} reports but "
                f"its histogram holds {total}"
            )
        if round_id:
            raise ProtocolError(
                f"serialized accumulator is tagged round {round_id}; campaigns "
                "have no rounds, so only untagged (round 0) payloads load"
            )
        accumulator = ShardAccumulator(histogram.shape[0])
        accumulator.histogram = histogram
        accumulator.num_reports = num_reports
        return accumulator

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShardAccumulator):
            return NotImplemented
        return (
            self.num_reports == other.num_reports
            and np.array_equal(self.histogram, other.histogram)
        )

    def __repr__(self) -> str:
        return (
            f"ShardAccumulator(num_outputs={self.num_outputs}, "
            f"num_reports={self.num_reports})"
        )


def split_data_vector(data_vector: np.ndarray, num_shards: int) -> list[np.ndarray]:
    """Deterministically partition a population histogram into shard histograms.

    Each type's count is spread as evenly as possible: shard ``k`` receives
    ``count // K`` users of every type plus one extra when ``k < count % K``.
    The split is a pure function of ``(data_vector, num_shards)``, which is
    what makes sharded runs reproducible independent of execution backend.

    Examples
    --------
    >>> split_data_vector([5, 2], num_shards=2)
    [array([3., 1.]), array([2., 1.])]
    """
    if num_shards < 1:
        raise ProtocolError(f"need >= 1 shard, got {num_shards}")
    counts = _user_counts(data_vector)
    base, remainder = counts // num_shards, counts % num_shards
    return [
        (base + (shard < remainder)).astype(float) for shard in range(num_shards)
    ]


def expand_users(data_vector: np.ndarray) -> np.ndarray:
    """Expand a data vector of counts into an array of user types.

    Examples
    --------
    >>> expand_users([2, 0, 3])
    array([0, 0, 2, 2, 2])
    """
    counts = _user_counts(data_vector)
    return np.repeat(np.arange(counts.shape[0]), counts)


def _shard_seeds(
    backend: str,
    num_shards: int,
    chunk_size: int,
    seed: int | np.random.SeedSequence | None,
    rng: np.random.Generator | None,
) -> list[np.random.SeedSequence | None]:
    """Validate a ``run`` call's execution knobs and return one seed
    sequence per shard (``[None]`` in legacy single-``rng`` mode)."""
    if backend not in BACKENDS:
        raise ProtocolError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if chunk_size < 1:
        raise ProtocolError(f"chunk size must be >= 1, got {chunk_size}")
    if num_shards < 1:
        raise ProtocolError(f"need >= 1 shard, got {num_shards}")
    if rng is not None:
        if seed is not None:
            raise ProtocolError("pass either rng or seed, not both")
        if num_shards != 1 or backend != "serial":
            raise ProtocolError(
                "an explicit rng only supports num_shards=1 on the serial "
                "backend; use seed= for sharded runs"
            )
        return [None]
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return list(root.spawn(num_shards))


def _map_shards(collect, jobs: list, backend: str) -> list:
    """``collect(*job)`` for every job, in job order: in-line, or on a thread
    pool with one thread per CPU this process may use (more threads than
    CPUs only queue behind each other)."""
    if backend == "serial" or len(jobs) == 1:
        return [collect(*job) for job in jobs]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(len(jobs), cpus)) as pool:
        return list(pool.map(collect, *zip(*jobs)))


@dataclass(frozen=True)
class ProtocolSession:
    """Immutable public configuration of one collection campaign.

    Binds a validated strategy to a workload and computes the reconstruction
    operator exactly once; every shard, worker, and merge then shares the
    same session object (or a pickled copy of its strategy), decoupling the
    one-time strategy selection cost from any number of concurrent
    collection runs.

    Parameters
    ----------
    strategy:
        The public epsilon-LDP strategy matrix every client uses.
    workload:
        The analyst's target workload (determines the final estimates).
    operator:
        Optional precomputed reconstruction operator ``B``; defaults to the
        variance-optimal operator of Theorem 3.10.  Passing one avoids
        recomputing the pseudo-inverse when a mechanism already cached it.

    Examples
    --------
    >>> from repro.mechanisms import randomized_response
    >>> from repro.workloads import prefix
    >>> session = ProtocolSession(randomized_response(8, 1.0), prefix(8))
    >>> result = session.run([10.0] * 8, num_shards=4, seed=0)
    >>> result.num_users
    80
    """

    strategy: StrategyMatrix
    workload: Workload
    operator: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.workload.domain_size != self.strategy.domain_size:
            raise ProtocolError(
                f"workload domain {self.workload.domain_size} != strategy "
                f"domain {self.strategy.domain_size}"
            )
        operator = self.operator
        if operator is None:
            operator = reconstruction_operator(self.strategy.probabilities)
        operator = np.asarray(operator, dtype=float)
        if operator.shape != (self.strategy.domain_size, self.strategy.num_outputs):
            raise ProtocolError(
                f"operator shape {operator.shape} != "
                f"({self.strategy.domain_size}, {self.strategy.num_outputs})"
            )
        # Freeze even a caller-supplied operator: sessions alias mechanism
        # caches, and an in-place edit would corrupt every later run.
        operator.setflags(write=False)
        object.__setattr__(self, "operator", operator)

    @classmethod
    def from_store(
        cls, store, workload: Workload, epsilon: float
    ) -> "ProtocolSession":
        """Build a session straight from a persisted strategy.

        Looks up the lowest-objective stored strategy for this workload's
        Gram matrix at ``epsilon`` (any optimizer configuration) — the
        deployment path where strategy optimization happened offline, via
        ``repro strategy build`` or a previous process, and collection only
        needs to load the artifact.

        Parameters
        ----------
        store:
            A :class:`~repro.store.StrategyStore`.
        workload:
            The analyst's target workload.
        epsilon:
            Privacy budget the stored strategy must match exactly.

        Raises
        ------
        ProtocolError
            If the store has no entry for this workload/budget.

        Examples
        --------
        >>> import tempfile
        >>> from repro.optimization import (
        ...     OptimizerConfig, multi_restart_optimize
        ... )
        >>> from repro.store import StrategyStore
        >>> from repro.workloads import histogram
        >>> store = StrategyStore(tempfile.mkdtemp())
        >>> workload = histogram(4)
        >>> config = OptimizerConfig(num_iterations=30, seed=0)
        >>> report = multi_restart_optimize(
        ...     workload, 1.0, config, restarts=1, store=store
        ... )
        >>> session = ProtocolSession.from_store(store, workload, 1.0)
        >>> session.epsilon
        1.0
        """
        record = store.best_for(workload.gram(), epsilon)
        if record is None:
            raise ProtocolError(
                f"store has no strategy for workload {workload.name!r} "
                f"(n = {workload.domain_size}) at epsilon {epsilon:g}; "
                "build one with `repro strategy build` or "
                "multi_restart_optimize(..., store=store)"
            )
        result = store.load(record.entry_id)
        return cls(result.strategy, workload)

    @property
    def epsilon(self) -> float:
        """The privacy budget of the session's strategy."""
        return self.strategy.epsilon

    @property
    def num_outputs(self) -> int:
        return self.strategy.num_outputs

    @property
    def domain_size(self) -> int:
        return self.strategy.domain_size

    # -- shard-level API ---------------------------------------------------

    def new_accumulator(self) -> ShardAccumulator:
        """A fresh, empty shard state for this session's strategy.

        Examples
        --------
        >>> from repro.mechanisms import randomized_response
        >>> from repro.workloads import histogram
        >>> session = ProtocolSession(randomized_response(4, 1.0), histogram(4))
        >>> session.new_accumulator().num_outputs
        4
        """
        return ShardAccumulator(self.strategy.num_outputs)

    def randomize_shard(
        self,
        user_types: np.ndarray,
        rng: np.random.Generator | None = None,
        chunk_size: int = DEFAULT_SAMPLE_CHUNK,
    ) -> ShardAccumulator:
        """Message-level randomization of one batch of users.

        Streams the batch through the strategy's vectorized sampler in
        chunks, folding reports into a fresh accumulator, so peak memory is
        ``O(chunk_size)`` however large the shard is.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.mechanisms import randomized_response
        >>> from repro.workloads import histogram
        >>> session = ProtocolSession(randomized_response(4, 1.0), histogram(4))
        >>> shard = session.randomize_shard(
        ...     np.array([0, 1, 2, 3]), np.random.default_rng(0)
        ... )
        >>> shard.num_reports
        4
        """
        rng = rng or np.random.default_rng()
        if chunk_size < 1:
            raise ProtocolError(f"chunk size must be >= 1, got {chunk_size}")
        user_types = np.asarray(user_types)
        accumulator = self.new_accumulator()
        for start in range(0, user_types.shape[0], chunk_size):
            chunk = user_types[start : start + chunk_size]
            accumulator.add_reports(
                self.strategy.sample_responses(chunk, rng, chunk_size=chunk_size)
            )
        return accumulator

    def sample_shard(
        self,
        shard_vector: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> ShardAccumulator:
        """Fast-path randomization of one shard's population histogram
        (per-type multinomial draws, ``O(n)`` instead of ``O(N)``).

        Examples
        --------
        >>> import numpy as np
        >>> from repro.mechanisms import randomized_response
        >>> from repro.workloads import histogram
        >>> session = ProtocolSession(randomized_response(4, 1.0), histogram(4))
        >>> session.sample_shard([10.0] * 4, np.random.default_rng(0)).num_reports
        40
        """
        accumulator = self.new_accumulator()
        accumulator.add_histogram(self.strategy.sample_histogram(shard_vector, rng))
        return accumulator

    def finalize(self, accumulator: ShardAccumulator) -> ProtocolResult:
        """Reconstruct estimates from a (possibly merged) shard state.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.mechanisms import randomized_response
        >>> from repro.workloads import histogram
        >>> session = ProtocolSession(randomized_response(4, 1.0), histogram(4))
        >>> shard = session.randomize_shard(
        ...     np.zeros(50, dtype=int), np.random.default_rng(0)
        ... )
        >>> session.finalize(shard).num_users
        50
        """
        if accumulator.num_outputs != self.strategy.num_outputs:
            raise ProtocolError(
                f"accumulator over {accumulator.num_outputs} outputs does not "
                f"match strategy with {self.strategy.num_outputs} outputs"
            )
        data_estimate = self.operator @ accumulator.histogram
        return ProtocolResult(
            workload_estimates=self.workload.matvec(data_estimate),
            data_vector_estimate=data_estimate,
            response_vector=accumulator.histogram.copy(),
            num_users=accumulator.num_reports,
        )

    # -- one-call execution ------------------------------------------------

    def run(
        self,
        data_vector: np.ndarray,
        *,
        num_shards: int = 1,
        backend: str = "serial",
        fast: bool = True,
        seed: int | np.random.SeedSequence | None = None,
        rng: np.random.Generator | None = None,
        chunk_size: int = DEFAULT_SAMPLE_CHUNK,
    ) -> ProtocolResult:
        """Execute the full protocol over a population histogram.

        Parameters
        ----------
        data_vector:
            True population histogram ``x`` (finite, non-negative whole
            counts per type).
        num_shards:
            Number of independent shards the population is split into.
        backend:
            ``"serial"`` (in-line loop) or ``"thread"``
            (:class:`concurrent.futures.ThreadPoolExecutor` with one thread
            per usable CPU, capped at ``num_shards``).
        fast:
            Per-type multinomial shortcut (``True``) versus message-level
            per-user sampling (``False``); both paths are exact simulations
            of the same protocol distribution.
        seed:
            Root seed; each shard's generator is spawned from
            ``SeedSequence(seed)``, making results bit-identical across
            backends and merge orders.
        rng:
            Legacy single-generator mode (requires ``num_shards == 1`` and
            the serial backend); mutually exclusive with ``seed``.
        chunk_size:
            Sampler block size for the message-level path.

        Examples
        --------
        The determinism contract — same seed, different shard counts and
        backends, bit-identical responses:

        >>> import numpy as np
        >>> from repro.mechanisms import randomized_response
        >>> from repro.workloads import histogram
        >>> session = ProtocolSession(randomized_response(8, 1.0), histogram(8))
        >>> x = [30.0] * 8
        >>> a = session.run(x, num_shards=4, backend="serial", seed=7)
        >>> b = session.run(x, num_shards=4, backend="thread", seed=7)
        >>> bool(np.array_equal(a.response_vector, b.response_vector))
        True
        """
        seeds = _shard_seeds(backend, num_shards, chunk_size, seed, rng)
        data_vector = np.asarray(data_vector, dtype=float)
        if data_vector.shape != (self.strategy.domain_size,):
            raise ProtocolError(
                f"data vector shape {data_vector.shape} != "
                f"({self.strategy.domain_size},)"
            )

        def collect(shard_vector, seed_sequence) -> ShardAccumulator:
            generator = rng or np.random.default_rng(seed_sequence)
            if fast:
                return self.sample_shard(shard_vector, generator)
            return self.randomize_shard(
                expand_users(shard_vector), generator, chunk_size
            )

        jobs = list(zip(split_data_vector(data_vector, num_shards), seeds))
        partials = _map_shards(collect, jobs, backend)
        return self.finalize(ShardAccumulator.merge_all(partials))


#: Magic string identifying a serialized :class:`FactoredAccumulator` payload.
FACTORED_ACCUMULATOR_MAGIC = "repro/factored-accumulator"

#: Serialization format version for factored accumulator payloads.
FACTORED_ACCUMULATOR_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FactoredProtocolResult:
    """Outcome of one factored protocol execution.

    ``workload_estimates`` concatenates the per-subset marginal estimates in
    the workload's block order — the same vector the dense
    :class:`ProtocolSession` would produce for the same responses — while
    ``marginal_estimates`` keys each flat marginal table by its attribute
    subset.  There is deliberately no ``data_vector_estimate``: on domains
    with millions of cells the length-``n`` vector ``x_hat`` is never
    formed; every marginal is reconstructed factor-wise.
    """

    workload_estimates: np.ndarray
    marginal_estimates: dict
    num_users: int


def _marginal_table_shape(
    subset: tuple[int, ...], output_sizes: tuple[int, ...]
) -> tuple[int, ...]:
    """Axes of subset ``S``'s count tensor: attributes of ``S`` descending,
    so the C-order flat layout has the smallest attribute fastest-varying —
    the same order as the workload's marginal block rows."""
    if not subset:
        return (1,)
    return tuple(output_sizes[a] for a in sorted(subset, reverse=True))


def _fold_subset_counts(
    responses: np.ndarray,
    subset: tuple[int, ...],
    output_sizes: tuple[int, ...],
) -> np.ndarray:
    """Count table of one subset from per-attribute responses ``(N, k)``."""
    shape = _marginal_table_shape(subset, output_sizes)
    if not subset:
        return np.array([responses.shape[0]], dtype=np.int64)
    flat = np.zeros(responses.shape[0], dtype=np.int64)
    for attribute in sorted(subset, reverse=True):
        flat = flat * output_sizes[attribute] + responses[:, attribute]
    counts = np.bincount(flat, minlength=int(np.prod(shape)))
    return counts.reshape(shape)


class FactoredAccumulator:
    """Mergeable aggregation state for a factored (per-attribute) protocol.

    Instead of one length-``prod_i m_i`` histogram — unrepresentable on
    product domains with millions of cells — this keeps one small integer
    count tensor per workload marginal: table ``T_S[o_S]`` counts reports
    whose responses on the attributes of ``S`` equal ``o_S``.  Because each
    factor's reconstruction operator satisfies ``1^T B_i = 1^T`` (the core
    ``A_i`` of a column-stochastic factor fixes the all-ones vector),
    marginalizing the joint histogram over the attributes outside ``S``
    *commutes with reconstruction*, so these tables are sufficient
    statistics for every marginal estimate.  Counts are integers, so merges
    are exact and order-independent, like :class:`ShardAccumulator`.

    Parameters
    ----------
    output_sizes:
        Per-attribute output alphabet sizes ``(m_0, ..., m_{k-1})``.
    subsets:
        The workload's attribute subsets (one count table each).

    Examples
    --------
    >>> import numpy as np
    >>> left = FactoredAccumulator((2, 2), [(0,), (0, 1)])
    >>> _ = left.add_responses(np.array([[0, 1], [1, 1]]))
    >>> right = FactoredAccumulator((2, 2), [(0,), (0, 1)])
    >>> _ = right.add_responses(np.array([[1, 0]]))
    >>> merged = left.merge(right)
    >>> merged.num_reports
    3
    >>> merged.tables[0]
    array([1, 2])
    """

    __slots__ = ("output_sizes", "subsets", "tables", "num_reports")

    def __init__(self, output_sizes, subsets) -> None:
        output_sizes = tuple(int(size) for size in output_sizes)
        if not output_sizes or min(output_sizes) < 1:
            raise ProtocolError(
                f"output sizes must be positive, got {output_sizes}"
            )
        canonical = [tuple(sorted(subset)) for subset in subsets]
        if not canonical:
            raise ProtocolError("needs at least one attribute subset")
        for subset in canonical:
            if any(not 0 <= a < len(output_sizes) for a in subset):
                raise ProtocolError(f"subset {subset} outside the attributes")
        self.output_sizes = output_sizes
        self.subsets = canonical
        self.tables = [
            np.zeros(_marginal_table_shape(subset, output_sizes), dtype=np.int64)
            for subset in canonical
        ]
        self.num_reports = 0

    @property
    def num_attributes(self) -> int:
        return len(self.output_sizes)

    def _check_compatible(self, other: "FactoredAccumulator") -> None:
        if (
            other.output_sizes != self.output_sizes
            or other.subsets != self.subsets
        ):
            raise ProtocolError(
                "cannot merge factored accumulators with different output "
                "sizes or marginal subsets"
            )

    # -- folding in data ---------------------------------------------------

    def add_responses(self, responses: np.ndarray) -> "FactoredAccumulator":
        """Fold in per-attribute client responses of shape ``(N, k)``.

        Examples
        --------
        >>> import numpy as np
        >>> state = FactoredAccumulator((2, 3), [(1,)])
        >>> state.add_responses(np.array([[0, 2], [1, 2]])).tables[0]
        array([0, 0, 2])
        """
        responses = np.asarray(responses)
        if responses.ndim != 2 or responses.shape[1] != self.num_attributes:
            raise ProtocolError(
                f"responses must have shape (N, {self.num_attributes}), "
                f"got {responses.shape}"
            )
        if responses.size == 0:
            return self
        responses = responses.astype(np.int64, copy=False)
        for index, size in enumerate(self.output_sizes):
            column = responses[:, index]
            if column.min() < 0 or column.max() >= size:
                raise ProtocolError(
                    f"attribute {index} response outside [0, {size})"
                )
        for table, subset in zip(self.tables, self.subsets):
            table += _fold_subset_counts(responses, subset, self.output_sizes)
        self.num_reports += int(responses.shape[0])
        return self

    # -- monoid structure --------------------------------------------------

    def merge(self, other: "FactoredAccumulator") -> "FactoredAccumulator":
        """Combine two shard states (commutative, associative, exact)."""
        self._check_compatible(other)
        merged = FactoredAccumulator(self.output_sizes, self.subsets)
        merged.tables = [
            mine + theirs for mine, theirs in zip(self.tables, other.tables)
        ]
        merged.num_reports = self.num_reports + other.num_reports
        return merged

    @staticmethod
    def merge_all(accumulators) -> "FactoredAccumulator":
        """Fold any number of shard states into one."""
        accumulators = list(accumulators)
        if not accumulators:
            raise ProtocolError("cannot merge zero accumulators")
        merged = accumulators[0].snapshot()
        for accumulator in accumulators[1:]:
            merged._check_compatible(accumulator)
            for mine, theirs in zip(merged.tables, accumulator.tables):
                mine += theirs
            merged.num_reports += accumulator.num_reports
        return merged

    def snapshot(self) -> "FactoredAccumulator":
        """An independent copy of the current state."""
        copy = FactoredAccumulator(self.output_sizes, self.subsets)
        copy.tables = [table.copy() for table in self.tables]
        copy.num_reports = self.num_reports
        return copy

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a compact ``.npz`` byte string.

        Examples
        --------
        >>> import numpy as np
        >>> original = FactoredAccumulator((2, 2), [(0, 1)])
        >>> _ = original.add_responses(np.array([[1, 0]]))
        >>> FactoredAccumulator.from_bytes(original.to_bytes()) == original
        True
        """
        arrays = {
            "format_magic": np.asarray(FACTORED_ACCUMULATOR_MAGIC),
            "format_version": np.asarray(
                FACTORED_ACCUMULATOR_FORMAT_VERSION, dtype=np.int64
            ),
            "output_sizes": np.asarray(self.output_sizes, dtype=np.int64),
            "num_reports": np.asarray(self.num_reports, dtype=np.int64),
            "num_subsets": np.asarray(len(self.subsets), dtype=np.int64),
        }
        for index, (subset, table) in enumerate(zip(self.subsets, self.tables)):
            arrays[f"subset_{index}"] = np.asarray(subset, dtype=np.int64)
            arrays[f"table_{index}"] = table
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        return buffer.getvalue()

    @staticmethod
    def from_bytes(payload: bytes) -> "FactoredAccumulator":
        """Inverse of :meth:`to_bytes` (magic/version checked first)."""
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
                magic = str(archive["format_magic"])
                if magic != FACTORED_ACCUMULATOR_MAGIC:
                    raise ProtocolError(
                        f"payload magic {magic!r} is not a serialized "
                        "FactoredAccumulator (expected "
                        f"{FACTORED_ACCUMULATOR_MAGIC!r})"
                    )
                version = int(archive["format_version"])
                if version != FACTORED_ACCUMULATOR_FORMAT_VERSION:
                    raise ProtocolError(
                        f"FactoredAccumulator payload has format version "
                        f"{version}; this library reads version "
                        f"{FACTORED_ACCUMULATOR_FORMAT_VERSION}"
                    )
                output_sizes = tuple(
                    int(size) for size in archive["output_sizes"]
                )
                subsets = [
                    tuple(int(a) for a in archive[f"subset_{index}"])
                    for index in range(int(archive["num_subsets"]))
                ]
                tables = [
                    np.asarray(archive[f"table_{index}"], dtype=np.int64)
                    for index in range(len(subsets))
                ]
                num_reports = int(archive["num_reports"])
        except ProtocolError:
            raise
        except Exception as error:  # zip damage, missing fields, bad dtypes
            raise ProtocolError(
                f"payload is not a serialized FactoredAccumulator: {error}"
            )
        accumulator = FactoredAccumulator(output_sizes, subsets)
        for mine, loaded in zip(accumulator.tables, tables):
            if loaded.shape != mine.shape or loaded.min() < 0:
                raise ProtocolError(
                    "serialized factored accumulator has a corrupt count table"
                )
            mine += loaded
        if num_reports < 0:
            raise ProtocolError("serialized accumulator has negative counts")
        # Every table is a marginal of the same reports, so each sums to
        # their number; a forged count would skew every estimate's scale.
        for table in accumulator.tables:
            total = int(table.sum())
            if total != num_reports:
                raise ProtocolError(
                    f"serialized accumulator counts {num_reports} reports but "
                    f"a count table holds {total}"
                )
        accumulator.num_reports = num_reports
        return accumulator

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredAccumulator):
            return NotImplemented
        return (
            self.output_sizes == other.output_sizes
            and self.subsets == other.subsets
            and self.num_reports == other.num_reports
            and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self.tables, other.tables)
            )
        )

    def __repr__(self) -> str:
        return (
            f"FactoredAccumulator(output_sizes={self.output_sizes}, "
            f"subsets={len(self.subsets)}, num_reports={self.num_reports})"
        )


@dataclass(frozen=True)
class FactoredProtocolSession:
    """Marginal collection over a product domain, entirely factor-wise.

    The factored counterpart of :class:`ProtocolSession`: binds a
    :class:`~repro.mechanisms.factored.FactoredStrategy` to a
    :class:`~repro.workloads.kron.ProductMarginalsWorkload` and answers
    every requested marginal without materializing any joint object — no
    ``m x n`` strategy, no length-``m`` histogram, no length-``n``
    ``x_hat``.  Memory is ``O(sum_i m_i d_i)`` for the per-factor
    reconstruction operators plus one small count table per marginal, so
    domains with millions of cells run comfortably.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.mechanisms import FactoredStrategy, randomized_response
    >>> from repro.workloads import k_way_product_marginals
    >>> strategy = FactoredStrategy(
    ...     (randomized_response(3, 0.5), randomized_response(4, 0.5))
    ... )
    >>> session = FactoredProtocolSession(
    ...     strategy, k_way_product_marginals((3, 4), 1)
    ... )
    >>> rows = np.array([[0, 1], [2, 3], [2, 3]])
    >>> result = session.run(rows, seed=0)
    >>> result.num_users
    3
    >>> result.workload_estimates.shape
    (7,)
    """

    strategy: object
    workload: object

    def __post_init__(self) -> None:
        from repro.mechanisms.factored import FactoredStrategy
        from repro.workloads.kron import ProductMarginalsWorkload

        if not isinstance(self.strategy, FactoredStrategy):
            raise ProtocolError(
                "FactoredProtocolSession needs a FactoredStrategy, got "
                f"{type(self.strategy).__name__}"
            )
        if not isinstance(self.workload, ProductMarginalsWorkload):
            raise ProtocolError(
                "FactoredProtocolSession needs a ProductMarginalsWorkload, "
                f"got {type(self.workload).__name__}"
            )
        domain_sizes = tuple(self.workload.product_domain.sizes)
        if domain_sizes != self.strategy.domain_sizes:
            raise ProtocolError(
                f"workload attribute sizes {domain_sizes} != strategy "
                f"attribute sizes {self.strategy.domain_sizes}"
            )
        # Computes and caches the per-factor Theorem 3.10 operators now, so
        # a malformed factor fails here rather than inside a worker.
        self.strategy.reconstruction_factors()

    @property
    def epsilon(self) -> float:
        """The composed privacy budget of the factored strategy."""
        return self.strategy.epsilon

    @property
    def domain_size(self) -> int:
        return self.strategy.domain_size

    # -- shard-level API ---------------------------------------------------

    def new_accumulator(self) -> FactoredAccumulator:
        """A fresh, empty shard state for this session."""
        return FactoredAccumulator(
            self.strategy.output_sizes, self.workload.subsets
        )

    def randomize_shard(
        self,
        attribute_rows: np.ndarray,
        rng: np.random.Generator | None = None,
        chunk_size: int = DEFAULT_SAMPLE_CHUNK,
    ) -> FactoredAccumulator:
        """Randomize one batch of users (rows of per-attribute types)."""
        rng = rng or np.random.default_rng()
        if chunk_size < 1:
            raise ProtocolError(f"chunk size must be >= 1, got {chunk_size}")
        attribute_rows = np.asarray(attribute_rows)
        accumulator = self.new_accumulator()
        for start in range(0, attribute_rows.shape[0], chunk_size):
            chunk = attribute_rows[start : start + chunk_size]
            accumulator.add_responses(
                self.strategy.sample_attribute_responses(
                    chunk, rng, chunk_size=chunk_size
                )
            )
        return accumulator

    def finalize(self, accumulator: FactoredAccumulator) -> FactoredProtocolResult:
        """Reconstruct every marginal from a (possibly merged) shard state.

        Subset ``S``'s estimate is ``(B_{i_r} (x) ... (x) B_{i_1})``
        applied to its count table (attributes sorted ascending; the
        all-ones rows of the attributes outside ``S`` drop out exactly
        because ``1^T B_i = 1^T``).
        """
        from repro.linalg import KronOperator

        expected = self.new_accumulator()
        if (
            accumulator.output_sizes != expected.output_sizes
            or accumulator.subsets != expected.subsets
        ):
            raise ProtocolError(
                "accumulator does not match this session's strategy outputs "
                "and workload subsets"
            )
        operators = self.strategy.reconstruction_factors()
        estimates: dict = {}
        pieces = []
        for subset, table in zip(accumulator.subsets, accumulator.tables):
            if not subset:
                estimate = table.astype(float)
            else:
                joint = KronOperator([operators[a] for a in subset])
                estimate = joint.matvec(table.ravel().astype(float))
            estimates[subset] = estimate
            pieces.append(estimate)
        return FactoredProtocolResult(
            workload_estimates=np.concatenate(pieces),
            marginal_estimates=estimates,
            num_users=accumulator.num_reports,
        )

    # -- one-call execution ------------------------------------------------

    def run(
        self,
        attribute_rows: np.ndarray,
        *,
        num_shards: int = 1,
        backend: str = "serial",
        seed: int | np.random.SeedSequence | None = None,
        rng: np.random.Generator | None = None,
        chunk_size: int = DEFAULT_SAMPLE_CHUNK,
    ) -> FactoredProtocolResult:
        """Execute the full factored protocol over a user table.

        Parameters
        ----------
        attribute_rows:
            Integer array of shape ``(N, k)``; row ``u`` holds user ``u``'s
            per-attribute types (users are *rows*, never a flat histogram —
            the flat domain may be too large to index).
        num_shards / backend:
            Sharding knobs, as in :meth:`ProtocolSession.run`; shards are
            contiguous row ranges, so the merged tables are bit-identical
            across backends and merge orders for a fixed ``seed``.
        seed / rng:
            Root seed (each shard's generator spawned from it), or a legacy
            single generator (serial, one shard only).
        chunk_size:
            Sampler block size.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.mechanisms import FactoredStrategy, randomized_response
        >>> from repro.workloads import k_way_product_marginals
        >>> strategy = FactoredStrategy(
        ...     (randomized_response(2, 1.0), randomized_response(2, 1.0))
        ... )
        >>> session = FactoredProtocolSession(
        ...     strategy, k_way_product_marginals((2, 2), 2)
        ... )
        >>> rows = np.tile([[0, 1]], (30, 1))
        >>> a = session.run(rows, num_shards=3, backend="serial", seed=7)
        >>> b = session.run(rows, num_shards=3, backend="thread", seed=7)
        >>> bool(np.array_equal(a.workload_estimates, b.workload_estimates))
        True
        """
        seeds = _shard_seeds(backend, num_shards, chunk_size, seed, rng)
        attribute_rows = np.asarray(attribute_rows)
        if (
            attribute_rows.ndim != 2
            or attribute_rows.shape[1] != self.strategy.num_attributes
        ):
            raise ProtocolError(
                f"attribute rows must have shape "
                f"(N, {self.strategy.num_attributes}), got "
                f"{attribute_rows.shape}"
            )

        def collect(shard_rows, seed_sequence) -> FactoredAccumulator:
            generator = rng or np.random.default_rng(seed_sequence)
            return self.randomize_shard(shard_rows, generator, chunk_size)

        jobs = list(zip(np.array_split(attribute_rows, num_shards), seeds))
        partials = _map_shards(collect, jobs, backend)
        return self.finalize(FactoredAccumulator.merge_all(partials))
