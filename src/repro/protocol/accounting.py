"""Resource accounting for LDP mechanisms.

The paper's related work points to the comparison of computational, sample
and communication complexity across histogram mechanisms in [1]; this module
makes those quantities inspectable for any strategy-matrix mechanism in the
library.

For a strategy with ``m`` outputs over ``n`` types:

* each client sends one output id — ``ceil(log2 m)`` bits;
* a client needs its own column of ``Q`` to randomize — ``m`` floats
  (often far fewer in practice when the column has repeated values, which
  the report also counts);
* the server keeps ``m`` counters and reconstructs with an ``n x m``
  operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mechanisms.base import StrategyMatrix


@dataclass(frozen=True)
class CostReport:
    """Resource footprint of one strategy-matrix mechanism.

    Examples
    --------
    >>> from repro.mechanisms import randomized_response
    >>> report = cost_report(randomized_response(8, 1.0))
    >>> report.num_outputs, report.communication_bits
    (8, 3)
    """

    mechanism: str
    num_outputs: int
    communication_bits: int
    client_column_entries: int
    client_distinct_levels: int
    server_counters: int
    reconstruction_entries: int


def communication_bits(num_outputs: int) -> int:
    """Bits per client report: ``ceil(log2 m)`` (minimum 1).

    Examples
    --------
    >>> communication_bits(1024)
    10
    >>> communication_bits(1)
    1
    """
    return max(1, math.ceil(math.log2(max(num_outputs, 2))))


def cost_report(strategy: StrategyMatrix) -> CostReport:
    """Account for a single mechanism's client/server resource use.

    Examples
    --------
    Randomized response has exactly two distinct probability levels:

    >>> from repro.mechanisms import randomized_response
    >>> cost_report(randomized_response(8, 1.0)).client_distinct_levels
    2
    """
    matrix = strategy.probabilities
    distinct = int(np.unique(np.round(matrix, 12)).size)
    return CostReport(
        mechanism=strategy.name,
        num_outputs=strategy.num_outputs,
        communication_bits=communication_bits(strategy.num_outputs),
        client_column_entries=strategy.num_outputs,
        client_distinct_levels=distinct,
        server_counters=strategy.num_outputs,
        reconstruction_entries=strategy.domain_size * strategy.num_outputs,
    )


def compare_costs(strategies: list[StrategyMatrix]) -> list[CostReport]:
    """Cost reports for several mechanisms, sorted by communication bits.

    Examples
    --------
    >>> from repro.mechanisms import hadamard_response, randomized_response
    >>> reports = compare_costs(
    ...     [hadamard_response(8, 1.0), randomized_response(8, 1.0)]
    ... )
    >>> [report.mechanism for report in reports]
    ['Randomized Response', 'Hadamard']
    """
    reports = [cost_report(strategy) for strategy in strategies]
    return sorted(reports, key=lambda report: report.communication_bits)


@dataclass(frozen=True)
class SessionCostReport:
    """Resource footprint of a sharded collection session.

    Quantifies what the shard-parallel engine actually moves around: each
    shard keeps one ``m``-counter accumulator, each merge ships that
    accumulator once, and the message-level sampler touches only
    ``O(chunk)`` scratch per block (versus ``O(N x m)`` for the naive
    batched sampler).
    """

    mechanism: str
    num_shards: int
    communication_bits_per_report: int
    accumulator_bytes: int
    merge_traffic_bytes: int
    sampler_table_bytes: int
    sampler_chunk_bytes: int
    reconstruction_flops: int

    # (Built by :func:`session_cost_report`; see its Examples section.)


def session_cost_report(
    session, num_shards: int = 1, chunk_size: int | None = None
) -> SessionCostReport:
    """Account for one :class:`~repro.protocol.engine.ProtocolSession`.

    Parameters
    ----------
    session:
        The protocol session to cost out.
    num_shards:
        Planned shard count (drives merge traffic).
    chunk_size:
        Sampler block size; defaults to the engine's default chunk.

    Examples
    --------
    >>> from repro.mechanisms import randomized_response
    >>> from repro.protocol.engine import ProtocolSession
    >>> from repro.workloads import histogram
    >>> session = ProtocolSession(randomized_response(8, 1.0), histogram(8))
    >>> report = session_cost_report(session, num_shards=4)
    >>> report.accumulator_bytes, report.merge_traffic_bytes
    (64, 256)
    """
    from repro.mechanisms.base import DEFAULT_SAMPLE_CHUNK

    if num_shards < 1:
        raise ValueError(f"need >= 1 shard, got {num_shards}")
    chunk = DEFAULT_SAMPLE_CHUNK if chunk_size is None else chunk_size
    strategy = session.strategy
    float_bytes = np.dtype(float).itemsize
    accumulator_bytes = strategy.num_outputs * float_bytes
    return SessionCostReport(
        mechanism=strategy.name,
        num_shards=num_shards,
        communication_bits_per_report=communication_bits(strategy.num_outputs),
        accumulator_bytes=accumulator_bytes,
        merge_traffic_bytes=num_shards * accumulator_bytes,
        # The sampler caches two (m, n) tables per strategy: the column CDFs
        # and the flattened offset-CDF lookup derived from them.
        sampler_table_bytes=2
        * strategy.num_outputs
        * strategy.domain_size
        * float_bytes,
        sampler_chunk_bytes=3 * chunk * float_bytes,
        reconstruction_flops=2 * strategy.domain_size * strategy.num_outputs,
    )

