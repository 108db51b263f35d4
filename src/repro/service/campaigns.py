"""Named collection campaigns and the manager that owns them.

A *campaign* is one standing collection effort: an immutable
:class:`~repro.protocol.engine.ProtocolSession` (the public strategy,
workload, and reconstruction operator, fixed at creation) plus the live
:class:`~repro.protocol.engine.ShardAccumulator` that folds in reports as
they arrive.  Because the accumulator is additive, a campaign can be
queried at any moment — the current estimate is exactly what the batch
pipeline would produce on the reports received so far.

The :class:`CampaignManager` holds any number of concurrent campaigns and
is deliberately synchronous and single-threaded: the service mutates it
only from the asyncio event loop, so no locking is needed.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from repro.exceptions import ServiceError
from repro.postprocess.intervals import (
    IntervalEstimate,
    variance_matrix,
    workload_confidence_intervals,
)
from repro.protocol.engine import ProtocolSession, ShardAccumulator
from repro.workloads import by_name as workload_by_name
from repro.workloads.base import MAX_EXPLICIT_ENTRIES

#: Campaign names become checkpoint file stems, so they are restricted to a
#: filesystem-safe alphabet (matched with fullmatch — `$` alone would let a
#: trailing newline through).
_NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def validate_campaign_name(name: str) -> str:
    """Check a campaign name is filesystem- and URL-safe.

    Examples
    --------
    >>> validate_campaign_name("latency-v2")
    'latency-v2'
    >>> try:
    ...     validate_campaign_name("../etc/passwd")
    ... except Exception as error:
    ...     type(error).__name__
    'ServiceError'
    """
    if not isinstance(name, str) or not _NAME_PATTERN.fullmatch(name):
        raise ServiceError(
            f"invalid campaign name {name!r}; use 1-64 characters from "
            "[A-Za-z0-9_.-], starting with a letter or digit"
        )
    return name


def _require_string(name: str, value) -> None:
    if not isinstance(value, str):
        raise ServiceError(f"{name} must be a string, got {value!r}")


def _require_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ServiceError(f"{name} must be an integer, got {value!r}")


def _require_finite(name: str, value) -> None:
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not math.isfinite(value)
    ):
        raise ServiceError(f"{name} must be a finite number, got {value!r}")


@dataclass
class Campaign:
    """One standing collection campaign: immutable session + live state.

    Attributes
    ----------
    name:
        Unique, filesystem-safe campaign identifier.
    session:
        The frozen public configuration every client of this campaign uses.
    accumulator:
        The live response histogram; grows monotonically as reports arrive.
    workload_name, epsilon, source:
        Provenance recorded at creation (and in checkpoints): which paper
        workload, what budget, and where the strategy came from
        (a mechanism name, ``"store"``, or ``"strategy"``).
    created_at:
        Unix timestamp of campaign creation.
    """

    name: str
    session: ProtocolSession
    workload_name: str
    epsilon: float
    source: str
    created_at: float = field(default_factory=time.time)
    accumulator: ShardAccumulator = field(default=None)  # type: ignore[assignment]
    #: Highest partial-forward sequence number applied per edge aggregator
    #: (see :meth:`CampaignManager.apply_partial`).  Persisted in
    #: checkpoints so a retried forward stays idempotent across recovery.
    edge_sequences: dict[str, int] = field(default_factory=dict)
    #: The session's variance matrix ``M``
    #: (:func:`~repro.postprocess.intervals.variance_matrix`): built by the
    #: first query, never checkpointed.
    _variance_matrix: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        validate_campaign_name(self.name)
        if self.accumulator is None:
            self.accumulator = self.session.new_accumulator()
        elif self.accumulator.num_outputs != self.session.num_outputs:
            raise ServiceError(
                f"campaign {self.name!r}: accumulator over "
                f"{self.accumulator.num_outputs} outputs does not match the "
                f"session's {self.session.num_outputs} outputs"
            )

    def variance_matrix(self) -> np.ndarray:
        """The session's variance matrix, built at the first call."""
        if self._variance_matrix is None:
            session = self.session
            self._variance_matrix = variance_matrix(
                session.workload, session.strategy, session.operator
            )
        return self._variance_matrix

    @property
    def num_reports(self) -> int:
        """Reports folded so far."""
        return self.accumulator.num_reports

    def describe(self) -> dict:
        """JSON-ready summary (no matrices)."""
        return {
            "name": self.name,
            "workload": self.workload_name,
            "domain_size": self.session.domain_size,
            "num_outputs": self.session.num_outputs,
            "num_queries": self.session.workload.num_queries,
            "epsilon": self.session.epsilon,
            "strategy": self.session.strategy.name,
            "source": self.source,
            "created_at": self.created_at,
            "num_reports": self.num_reports,
        }


@dataclass(frozen=True)
class QueryAnswer:
    """A live query response: current estimates with uncertainty."""

    campaign: str
    intervals: IntervalEstimate
    num_reports: int
    as_of: float

    def to_json(self) -> dict:
        """JSON-ready payload (arrays become lists)."""
        return {
            "campaign": self.campaign,
            "num_reports": self.num_reports,
            "as_of": self.as_of,
            "confidence": self.intervals.confidence,
            "estimates": [float(v) for v in self.intervals.estimates],
            "standard_errors": [
                float(v) for v in self.intervals.standard_errors
            ],
            "lower": [float(v) for v in self.intervals.lower],
            "upper": [float(v) for v in self.intervals.upper],
        }


class CampaignManager:
    """Registry of concurrently running campaigns.

    Examples
    --------
    >>> manager = CampaignManager()
    >>> campaign = manager.create(
    ...     "demo", workload="Histogram", domain_size=8, epsilon=1.0,
    ...     mechanism="Randomized Response",
    ... )
    >>> campaign.accumulator.add_reports([0, 1, 1]).num_reports
    3
    >>> manager.query("demo").num_reports
    3
    >>> sorted(c.name for c in manager.campaigns())
    ['demo']
    """

    def __init__(self) -> None:
        self._campaigns: dict[str, Campaign] = {}

    # -- creation ----------------------------------------------------------

    def create(
        self,
        name: str,
        *,
        workload: str,
        domain_size: int,
        epsilon: float,
        mechanism: str = "Hadamard",
        iterations: int = 300,
        store=None,
    ) -> Campaign:
        """Build a campaign (see :meth:`build`) and register it."""
        return self.adopt(
            self.build(
                name,
                workload=workload,
                domain_size=domain_size,
                epsilon=epsilon,
                mechanism=mechanism,
                iterations=iterations,
                store=store,
            )
        )

    def build(
        self,
        name: str,
        *,
        workload: str,
        domain_size: int,
        epsilon: float,
        mechanism: str = "Hadamard",
        iterations: int = 300,
        store=None,
    ) -> Campaign:
        """Resolve a strategy and construct a campaign *without* registering
        it — pure with respect to the manager's state, so the (possibly
        slow) strategy resolution can run off the event loop and the cheap
        :meth:`adopt` can happen on it.

        ``mechanism`` selects the strategy source:

        * a closed-form mechanism name (``"Hadamard"``, ``"Randomized
          Response"``, …) builds the strategy directly;
        * ``"Optimized"`` runs the paper's PGD optimizer (``iterations``
          iterations, read-through ``store`` if given);
        * ``"store"`` loads the best persisted strategy for this
          workload/budget from ``store`` and refuses to optimize — the
          deployment path where optimization happened offline.
        """
        validate_campaign_name(name)
        if name in self._campaigns:
            raise ServiceError(f"campaign {name!r} already exists")
        _require_string("workload", workload)
        _require_string("mechanism", mechanism)
        _require_integer("iterations", iterations)
        _require_finite("epsilon", epsilon)
        target = workload_by_name(workload, domain_size)
        if target.num_queries * target.domain_size > MAX_EXPLICIT_ENTRIES:
            raise ServiceError(
                f"{workload} at n={domain_size} has {target.num_queries} "
                f"queries; a query needs its {target.num_queries} x "
                f"{domain_size} variance matrix, over the "
                f"{MAX_EXPLICIT_ENTRIES}-entry limit, so no query could be "
                "answered — use a smaller domain"
            )
        if mechanism == "store":
            if store is None:
                raise ServiceError(
                    "mechanism 'store' needs a strategy store; pass store= "
                    "(or --store on the CLI)"
                )
            session = ProtocolSession.from_store(store, target, float(epsilon))
            source = "store"
        else:
            session = self._session_from_mechanism(
                target, float(epsilon), mechanism, iterations, store
            )
            source = mechanism
        return Campaign(
            name=name,
            session=session,
            workload_name=workload,
            epsilon=float(epsilon),
            source=source,
        )

    @staticmethod
    def _session_from_mechanism(
        workload, epsilon: float, mechanism: str, iterations: int, store
    ) -> ProtocolSession:
        from repro.experiments.runner import protocol_session

        if mechanism == "Optimized":
            from repro.optimization import OptimizedMechanism, OptimizerConfig

            resolved = OptimizedMechanism(
                OptimizerConfig(num_iterations=iterations, seed=0), store=store
            )
        else:
            from repro.mechanisms import by_name

            try:
                resolved = by_name(mechanism)
            except Exception as error:
                raise ServiceError(f"unknown mechanism {mechanism!r}: {error}")
        return protocol_session(resolved, workload, epsilon)

    def adopt(self, campaign: Campaign) -> Campaign:
        """Register an already-built campaign (checkpoint recovery path).

        Names that differ only by case are rejected: campaign names become
        checkpoint file stems, and on a case-insensitive filesystem
        ``Test`` and ``test`` would silently overwrite each other's
        payloads, producing a checkpoint that fails its own checksums.
        """
        if campaign.name in self._campaigns:
            raise ServiceError(f"campaign {campaign.name!r} already exists")
        folded = campaign.name.casefold()
        for existing in self._campaigns:
            if existing.casefold() == folded:
                raise ServiceError(
                    f"campaign {campaign.name!r} collides with {existing!r} "
                    "on case-insensitive filesystems; pick a distinct name"
                )
        self._campaigns[campaign.name] = campaign
        return campaign

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> Campaign:
        """The campaign registered under ``name``; raises on a miss."""
        campaign = self._campaigns.get(name)
        if campaign is None:
            known = ", ".join(sorted(self._campaigns)) or "none"
            raise ServiceError(
                f"unknown campaign {name!r} (registered: {known})"
            )
        return campaign

    def campaigns(self) -> list[Campaign]:
        """All campaigns, oldest first."""
        return sorted(self._campaigns.values(), key=lambda c: c.created_at)

    def __len__(self) -> int:
        return len(self._campaigns)

    def __contains__(self, name: str) -> bool:
        return name in self._campaigns

    # -- edge partial forwards ---------------------------------------------

    def apply_partial(
        self, name: str, *, edge_id: str, sequence: int, payload: bytes
    ) -> dict:
        """Fold one edge aggregator's forwarded partial into a campaign.

        The payload is a tagged :meth:`ShardAccumulator.to_bytes` blob
        (one that carries a nonzero round is refused with
        :class:`~repro.exceptions.ProtocolError`).  ``sequence`` is the edge's
        monotonically increasing flush counter: a forward whose sequence is
        not greater than the last one applied for ``edge_id`` is
        acknowledged as a duplicate *without folding* — so an edge that
        retries a forward after a lost reply can never double-count.

        Returns a JSON-ready receipt with ``duplicate``, ``accepted`` (the
        reports folded), and ``last_sequence`` (the edge resynchronizes its
        counter from it after a restart under a reused edge id).

        Must run on the event loop (it mutates the live accumulator), like
        every other campaign mutation.
        """
        campaign = self.get(name)
        if not isinstance(edge_id, str) or not _NAME_PATTERN.fullmatch(edge_id):
            raise ServiceError(
                f"invalid edge id {edge_id!r}; use 1-64 characters from "
                "[A-Za-z0-9_.-], starting with a letter or digit"
            )
        if isinstance(sequence, bool) or not isinstance(sequence, int):
            raise ServiceError(f"sequence must be an integer, got {sequence!r}")
        if sequence < 1:
            raise ServiceError(f"sequence must be >= 1, got {sequence}")
        last = campaign.edge_sequences.get(edge_id, 0)
        if sequence <= last:
            return {
                "campaign": name,
                "edge": edge_id,
                "duplicate": True,
                "accepted": 0,
                "last_sequence": last,
            }
        partial = ShardAccumulator.from_bytes(payload)
        if partial.num_outputs != campaign.session.num_outputs:
            raise ServiceError(
                f"partial over {partial.num_outputs} outputs does not match "
                f"campaign {name!r}'s {campaign.session.num_outputs} outputs"
            )
        campaign.accumulator = campaign.accumulator.merge(partial)
        campaign.edge_sequences[edge_id] = sequence
        return {
            "campaign": name,
            "edge": edge_id,
            "duplicate": False,
            "accepted": partial.num_reports,
            "last_sequence": sequence,
        }

    # -- answering ---------------------------------------------------------

    def query(
        self,
        name: str,
        confidence: float = 0.95,
        pending: list[ShardAccumulator] | None = None,
    ) -> QueryAnswer:
        """Current estimates for one campaign, with confidence intervals.

        ``pending`` lets the caller fold in accumulators held outside the
        campaign (the cluster workers' shard snapshots) without mutating
        it.  The session's variance matrix is built once, by the first
        query.
        """
        campaign = self.get(name)
        merged = campaign.accumulator
        for partial in pending or ():
            if partial.num_reports:
                merged = merged.merge(partial)
        session = campaign.session
        intervals = workload_confidence_intervals(
            session.workload,
            session.operator,
            campaign.variance_matrix(),
            merged.histogram,
            confidence,
        )
        return QueryAnswer(
            campaign=name,
            intervals=intervals,
            num_reports=merged.num_reports,
            as_of=time.time(),
        )

    def total_reports(self) -> int:
        """Reports folded across every campaign."""
        return sum(c.num_reports for c in self._campaigns.values())

    def __repr__(self) -> str:
        return (
            f"CampaignManager(campaigns={len(self)}, "
            f"reports={self.total_reports()})"
        )
