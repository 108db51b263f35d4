"""End-to-end protocol simulation (thin wrapper over the engine).

:func:`run_protocol` keeps the original one-shot API; execution is delegated
to :class:`repro.protocol.engine.ProtocolSession` with a single shard.  Two
code paths:

* ``fast=True`` (default): per-type multinomial sampling of the response
  histogram — mathematically identical to simulating each user, ``O(n)``
  draws instead of ``O(N)``.
* ``fast=False``: every user's report is individually sampled and streamed
  into the shard accumulator; used in tests to confirm the fast path matches
  the message-level protocol.

For sharded, streaming, or parallel collection, use the engine directly.
"""

from __future__ import annotations

import numpy as np

from repro.mechanisms.base import StrategyMatrix
from repro.protocol.engine import ProtocolResult, ProtocolSession, expand_users
from repro.workloads.base import Workload

__all__ = ["ProtocolResult", "expand_users", "run_protocol"]


def run_protocol(
    workload: Workload,
    strategy: StrategyMatrix,
    data_vector: np.ndarray,
    rng: np.random.Generator | None = None,
    fast: bool = True,
) -> ProtocolResult:
    """Execute the full LDP protocol on a population.

    Parameters
    ----------
    workload:
        The analyst's workload (determines the final estimates).
    strategy:
        Public strategy matrix used by every client.
    data_vector:
        True population histogram ``x`` (integer counts per type).
    rng:
        Source of randomness.
    fast:
        Use the multinomial shortcut instead of per-user messages.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.mechanisms import randomized_response
    >>> from repro.workloads import histogram
    >>> result = run_protocol(
    ...     histogram(4),
    ...     randomized_response(4, 1.0),
    ...     [25.0] * 4,
    ...     rng=np.random.default_rng(0),
    ... )
    >>> result.num_users
    100
    """
    rng = rng or np.random.default_rng()
    session = ProtocolSession(strategy, workload)
    return session.run(np.asarray(data_vector, dtype=float), rng=rng, fast=fast)
