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

*Adaptive* campaigns add rounds on top: an :class:`AdaptivePlan` splits the
campaign budget across rounds (exactly, via the
:class:`~repro.protocol.accounting.BudgetLedger`), each round collects with
its own strategy from a fresh client cohort, and the transition between
rounds privately selects the worst-approximated sub-workload
(:func:`~repro.protocol.adaptive.worst_approximated`) and re-optimizes the
strategy against the boosted workload through the strategy store's warm
starts.  The advance is split into a pure planning step, a slow pure
optimization step, and a cheap commit, so the service can run the
optimization off the event loop while ingest continues.
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
from repro.protocol.accounting import BudgetLedger, RoundBudget, split_budget
from repro.protocol.adaptive import (
    boosted_workload,
    group_scores,
    partition_workload,
    worst_approximated,
)
from repro.protocol.engine import ProtocolSession, ShardAccumulator
from repro.telemetry import get_registry
from repro.workloads import by_name as workload_by_name
from repro.workloads.base import MAX_EXPLICIT_ENTRIES, ExplicitWorkload

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


@dataclass(frozen=True)
class AdaptivePlan:
    """The round structure of one adaptive campaign, fixed at creation.

    Attributes
    ----------
    num_rounds:
        Total collection rounds the campaign budget is split across.
    num_groups:
        How many contiguous sub-workloads the selector chooses between.
    selector_share:
        Fraction of each later round's budget spent on the
        exponential-mechanism selection that focused it.
    boost:
        Row weight applied to the selected sub-workload before the next
        round's strategy optimization.
    iterations, restarts:
        Optimizer effort per round transition (PGD iterations, random
        restarts through the store's warm starts).
    seed:
        Root seed; the round-``r`` selection draws from
        ``default_rng([seed, r])``, so advancement is deterministic per
        (plan, round) and independent of ingest timing.

    Examples
    --------
    >>> plan = AdaptivePlan(num_rounds=2)
    >>> [round.round_id for round in plan.budgets(1.0)]
    [1, 2]
    """

    num_rounds: int
    num_groups: int = 4
    selector_share: float = 0.05
    boost: float = 4.0
    iterations: int = 150
    restarts: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_rounds", "num_groups", "iterations", "restarts", "seed"):
            _require_integer(name, getattr(self, name))
        for name in ("selector_share", "boost"):
            _require_finite(name, getattr(self, name))
        if self.num_rounds < 2:
            raise ServiceError(
                f"an adaptive campaign needs >= 2 rounds, got {self.num_rounds}"
            )
        if self.num_groups < 2:
            raise ServiceError(
                f"need >= 2 sub-workload groups to select between, "
                f"got {self.num_groups}"
            )
        if not 0 < self.selector_share < 1:
            raise ServiceError(
                f"selector_share must be in (0, 1), got {self.selector_share}"
            )
        if self.boost <= 0:
            raise ServiceError(f"boost must be positive, got {self.boost}")
        if self.iterations < 1 or self.restarts < 1:
            raise ServiceError("iterations and restarts must be >= 1")
        if self.seed < 0:
            raise ServiceError(f"seed must be >= 0, got {self.seed}")

    def budgets(self, total_epsilon: float) -> list[RoundBudget]:
        """The campaign's exact per-round budget split."""
        return split_budget(
            total_epsilon, self.num_rounds, selector_share=self.selector_share
        )

    def to_json(self) -> dict:
        return {
            "num_rounds": self.num_rounds,
            "num_groups": self.num_groups,
            "selector_share": self.selector_share,
            "boost": self.boost,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, document: dict) -> "AdaptivePlan":
        """Build a plan from a JSON object (campaign-creation bodies accept
        ``rounds``/``groups`` aliases; unknown keys are rejected, and
        values are checked by type, not converted)."""
        if not isinstance(document, dict):
            raise ServiceError("adaptive plan must be a JSON object")
        aliases = {"rounds": "num_rounds", "groups": "num_groups"}
        fields = {
            "num_rounds", "num_groups", "selector_share", "boost",
            "iterations", "restarts", "seed",
        }
        values: dict = {}
        for key, value in document.items():
            target = aliases.get(key, key)
            if target not in fields:
                raise ServiceError(f"unknown adaptive plan field {key!r}")
            values[target] = value
        if "num_rounds" not in values:
            raise ServiceError("adaptive plan needs 'rounds' (or 'num_rounds')")
        return cls(**values)


@dataclass
class RoundRecord:
    """One *completed* round of an adaptive campaign.

    The session and accumulator are frozen at round close; queries keep
    folding every completed round's estimate in, so no cohort's reports are
    ever discarded.  ``selected_group`` is the sub-workload this round's
    data chose (via the exponential mechanism) for the *next* round's
    strategy to focus on.
    """

    round_id: int
    session: ProtocolSession
    accumulator: ShardAccumulator
    selected_group: int
    #: This round's estimates and floored standard errors, computed by the
    #: first query after the round closed: stale-round reports and partials
    #: are refused, so they never change, and the round keeps no variance
    #: matrix.
    _answer: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def answer(self) -> tuple[np.ndarray, np.ndarray]:
        """``(estimates, standard_errors)`` of this round alone."""
        if self._answer is None:
            session = self.session
            intervals = workload_confidence_intervals(
                session.workload,
                session.operator,
                variance_matrix(session.workload, session.strategy, session.operator),
                self.accumulator.histogram,
            )
            self._answer = (intervals.estimates, intervals.standard_errors)
        return self._answer

    def describe(self) -> dict:
        return {
            "round": self.round_id,
            "epsilon": self.session.epsilon,
            "strategy": self.session.strategy.name,
            "num_reports": self.accumulator.num_reports,
            "selected_group": self.selected_group,
        }


@dataclass(frozen=True)
class AdaptiveSnapshot:
    """Checkpoint-consistent view of one adaptive campaign's round state.

    Captured on the event loop by :meth:`Campaign.freeze_adaptive` so the
    checkpoint writer (on a worker thread) serializes the plan, the exact
    ledger, the live session, and the completed rounds as they stood in a
    single loop tick — never half of a round transition.
    """

    plan: AdaptivePlan
    ledger_json: dict
    current_round: int
    session: ProtocolSession
    rounds: tuple[RoundRecord, ...]


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
    adaptive, ledger, rounds, current_round:
        Adaptive-mode state: the round plan, the exact budget ledger, the
        completed :class:`RoundRecord` history, and the round the live
        session/accumulator collect for (``0`` on non-adaptive campaigns,
        1-based otherwise).  For adaptive campaigns ``epsilon`` is the
        *campaign total*; the per-round strategy budgets live in the
        ledger.
    """

    name: str
    session: ProtocolSession
    workload_name: str
    epsilon: float
    source: str
    created_at: float = field(default_factory=time.time)
    accumulator: ShardAccumulator = field(default=None)  # type: ignore[assignment]
    adaptive: AdaptivePlan | None = None
    ledger: BudgetLedger | None = None
    rounds: list[RoundRecord] = field(default_factory=list)
    current_round: int = 0
    #: Highest partial-forward sequence number applied per edge aggregator
    #: (see :meth:`CampaignManager.apply_partial`).  Persisted in
    #: checkpoints so a retried forward stays idempotent across recovery.
    edge_sequences: dict[str, int] = field(default_factory=dict)
    #: The live session's variance matrix ``M``
    #: (:func:`~repro.postprocess.intervals.variance_matrix`): built by the
    #: first query, dropped when a round advance swaps the session, never
    #: checkpointed.
    _variance_matrix: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        validate_campaign_name(self.name)
        if self.adaptive is not None:
            if self.current_round == 0:
                self.current_round = 1
            if self.ledger is None:
                raise ServiceError(
                    f"adaptive campaign {self.name!r} needs a budget ledger"
                )
            if not 1 <= self.current_round <= self.adaptive.num_rounds:
                raise ServiceError(
                    f"campaign {self.name!r}: round {self.current_round} "
                    f"outside [1, {self.adaptive.num_rounds}]"
                )
        elif self.ledger is not None or self.rounds or self.current_round:
            raise ServiceError(
                f"campaign {self.name!r} has round state but no adaptive plan"
            )
        if self.accumulator is None:
            self.accumulator = self.session.new_accumulator(self.current_round)
        elif self.accumulator.num_outputs != self.session.num_outputs:
            raise ServiceError(
                f"campaign {self.name!r}: accumulator over "
                f"{self.accumulator.num_outputs} outputs does not match the "
                f"session's {self.session.num_outputs} outputs"
            )
        elif self.accumulator.round_id != self.current_round:
            raise ServiceError(
                f"campaign {self.name!r}: accumulator tagged round "
                f"{self.accumulator.round_id} does not match the campaign's "
                f"round {self.current_round}"
            )

    def variance_matrix(self) -> np.ndarray:
        """The live session's variance matrix, built at the first call."""
        if self._variance_matrix is None:
            session = self.session
            self._variance_matrix = variance_matrix(
                session.workload, session.strategy, session.operator
            )
        return self._variance_matrix

    @property
    def num_reports(self) -> int:
        """Reports folded so far — every completed round plus the live one."""
        return self.accumulator.num_reports + sum(
            record.accumulator.num_reports for record in self.rounds
        )

    def freeze_adaptive(self) -> "AdaptiveSnapshot | None":
        """A consistent copy of the round state, for checkpointing.

        Must be taken on the event loop (like accumulator snapshots): the
        checkpoint writer runs on a worker thread, and a round advance
        committing in between would otherwise let it see round-``r+1``'s
        ledger with round-``r``'s session.
        """
        if self.adaptive is None:
            return None
        return AdaptiveSnapshot(
            plan=self.adaptive,
            ledger_json=self.ledger.to_json(),
            current_round=self.current_round,
            session=self.session,
            rounds=tuple(self.rounds),
        )

    def describe(self) -> dict:
        """JSON-ready summary (no matrices)."""
        summary = {
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
            "round": self.current_round,
        }
        if self.adaptive is not None:
            summary["epsilon"] = self.epsilon
            summary["adaptive"] = {
                "plan": self.adaptive.to_json(),
                "current_round": self.current_round,
                "round_epsilon": self.session.epsilon,
                "rounds": [record.describe() for record in self.rounds],
                "ledger": self.ledger.describe(),
            }
        return summary


@dataclass(frozen=True)
class QueryAnswer:
    """A live query response: current estimates with uncertainty.

    ``round`` is the campaign round the answer was computed in (``0`` for
    non-adaptive campaigns); adaptive answers combine every round collected
    so far, and ``round`` names the one still accepting reports.
    """

    campaign: str
    intervals: IntervalEstimate
    num_reports: int
    as_of: float
    round: int = 0

    def to_json(self) -> dict:
        """JSON-ready payload (arrays become lists)."""
        return {
            "campaign": self.campaign,
            "num_reports": self.num_reports,
            "as_of": self.as_of,
            "round": self.round,
            "confidence": self.intervals.confidence,
            "estimates": [float(v) for v in self.intervals.estimates],
            "standard_errors": [
                float(v) for v in self.intervals.standard_errors
            ],
            "lower": [float(v) for v in self.intervals.lower],
            "upper": [float(v) for v in self.intervals.upper],
        }


@dataclass(frozen=True)
class AdvancePlan:
    """The pure planning half of one round advance.

    Produced on the event loop by :meth:`CampaignManager.plan_advance` from
    a snapshot of the campaign's current estimate; carries everything the
    slow, off-loop strategy optimization needs, plus the ``from_round``
    guard :meth:`CampaignManager.commit_advance` uses to refuse a stale
    commit if the campaign advanced some other way in between.
    """

    campaign: str
    from_round: int
    to_round: int
    scores: tuple[float, ...]
    selected_group: int
    boosted: ExplicitWorkload
    budget: RoundBudget


@dataclass(frozen=True)
class AdvanceReport:
    """What one committed round transition did (JSON-ready summary)."""

    campaign: str
    from_round: int
    to_round: int
    selected_group: int
    scores: tuple[float, ...]
    strategy: str
    round_epsilon: float
    select_epsilon: float

    def to_json(self) -> dict:
        return {
            "campaign": self.campaign,
            "from_round": self.from_round,
            "round": self.to_round,
            "selected_group": self.selected_group,
            "scores": list(self.scores),
            "strategy": self.strategy,
            "round_epsilon": self.round_epsilon,
            "select_epsilon": self.select_epsilon,
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
        adaptive: AdaptivePlan | None = None,
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
                adaptive=adaptive,
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
        adaptive: AdaptivePlan | None = None,
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

        Passing ``adaptive`` makes ``epsilon`` the *campaign total*: the
        plan splits it across rounds exactly, the round-1 strategy is
        resolved at round 1's collect budget, and the campaign opens in
        round 1 with its collect debit already on the ledger.
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
        ledger = None
        strategy_epsilon = float(epsilon)
        if adaptive is not None:
            budgets = adaptive.budgets(epsilon)
            strategy_epsilon = float(budgets[0].collect_epsilon)
            ledger = BudgetLedger(epsilon)
            ledger.debit(budgets[0].collect, round_id=1, purpose="collect")
        if mechanism == "store":
            if store is None:
                raise ServiceError(
                    "mechanism 'store' needs a strategy store; pass store= "
                    "(or --store on the CLI)"
                )
            session = ProtocolSession.from_store(store, target, strategy_epsilon)
            source = "store"
        else:
            session = self._session_from_mechanism(
                target, strategy_epsilon, mechanism, iterations, store
            )
            source = mechanism
        return Campaign(
            name=name,
            session=session,
            workload_name=workload,
            epsilon=float(epsilon),
            source=source,
            adaptive=adaptive,
            ledger=ledger,
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

    # -- adaptive round advancement ----------------------------------------

    def _adaptive_campaign(self, name: str) -> Campaign:
        campaign = self.get(name)
        if campaign.adaptive is None:
            raise ServiceError(
                f"campaign {name!r} is not adaptive; create it with an "
                "adaptive plan to use rounds"
            )
        return campaign

    def plan_advance(self, name: str) -> AdvancePlan:
        """Plan the next round transition (fast, pure, runs on the loop).

        Scores each sub-workload by the root-mean-square plug-in standard
        error of the campaign's *current combined estimate*, privately
        selects the worst-approximated one with the exponential mechanism
        at the next round's selection budget, and returns the boosted
        workload the next strategy should be optimized against.  The
        selection draw is seeded by ``(plan.seed, current_round)``, so
        planning the same round twice — including across a crash/recovery
        — picks the same group.
        """
        campaign = self._adaptive_campaign(name)
        plan = campaign.adaptive
        if campaign.current_round >= plan.num_rounds:
            raise ServiceError(
                f"campaign {name!r} is already in its final round "
                f"({campaign.current_round} of {plan.num_rounds})"
            )
        budget = plan.budgets(campaign.epsilon)[campaign.current_round]
        answer = self.query(name)
        groups = partition_workload(campaign.session.workload, plan.num_groups)
        scores = group_scores(groups, answer.intervals.standard_errors)
        rng = np.random.default_rng([plan.seed, campaign.current_round])
        selected = worst_approximated(
            scores, float(budget.select_epsilon), rng=rng
        )
        return AdvancePlan(
            campaign=name,
            from_round=campaign.current_round,
            to_round=campaign.current_round + 1,
            scores=tuple(float(s) for s in scores),
            selected_group=selected,
            boosted=boosted_workload(
                campaign.session.workload, groups, selected, plan.boost
            ),
            budget=budget,
        )

    def optimize_round_strategy(
        self, advance: AdvancePlan, *, store=None
    ) -> ProtocolSession:
        """Optimize the next round's strategy (slow; safe off the loop).

        Reads only immutable campaign state (the frozen plan and session),
        so the service runs it in a worker thread while ingest continues.
        The new session binds the *base* workload — the boost only shapes
        the optimization target, not what queries the campaign answers.
        """
        campaign = self._adaptive_campaign(advance.campaign)
        plan = campaign.adaptive
        from repro.optimization import OptimizerConfig, multi_restart_optimize

        config = OptimizerConfig(
            num_iterations=plan.iterations, seed=plan.seed + advance.to_round
        )
        report = multi_restart_optimize(
            advance.boosted,
            float(advance.budget.collect_epsilon),
            config,
            restarts=plan.restarts,
            store=store,
            workload_name=advance.boosted.name,
        )
        return ProtocolSession(report.result.strategy, campaign.session.workload)

    def commit_advance(
        self, advance: AdvancePlan, session: ProtocolSession
    ) -> AdvanceReport:
        """Commit a planned advance (cheap; must run on the loop).

        Debits the new round's selection and collection budgets — the
        ledger raises *before* any state changes if they would overspend —
        then freezes the outgoing round as a :class:`RoundRecord` and swaps
        in the new session with a fresh, round-tagged accumulator.
        """
        campaign = self._adaptive_campaign(advance.campaign)
        if campaign.current_round != advance.from_round:
            raise ServiceError(
                f"stale advance for campaign {advance.campaign!r}: planned "
                f"from round {advance.from_round} but the campaign is in "
                f"round {campaign.current_round}"
            )
        if session.domain_size != campaign.session.domain_size:
            raise ServiceError(
                f"advance session domain {session.domain_size} != campaign "
                f"domain {campaign.session.domain_size}"
            )
        campaign.ledger.debit(
            advance.budget.select, round_id=advance.to_round, purpose="select"
        )
        campaign.ledger.debit(
            advance.budget.collect, round_id=advance.to_round, purpose="collect"
        )
        campaign.rounds.append(
            RoundRecord(
                round_id=advance.from_round,
                session=campaign.session,
                accumulator=campaign.accumulator,
                selected_group=advance.selected_group,
            )
        )
        campaign.session = session
        campaign._variance_matrix = None
        campaign.accumulator = session.new_accumulator(advance.to_round)
        campaign.current_round = advance.to_round
        get_registry().counter(
            "repro_rounds_advanced_total",
            "Committed adaptive-campaign round transitions.",
            labelnames=("campaign",),
        ).labels(advance.campaign).inc()
        return AdvanceReport(
            campaign=advance.campaign,
            from_round=advance.from_round,
            to_round=advance.to_round,
            selected_group=advance.selected_group,
            scores=advance.scores,
            strategy=session.strategy.name,
            round_epsilon=float(advance.budget.collect_epsilon),
            select_epsilon=float(advance.budget.select_epsilon),
        )

    def advance_round(self, name: str, *, store=None) -> AdvanceReport:
        """Plan, optimize, and commit one round transition synchronously.

        The service splits these steps across the loop and a worker
        thread; tests and the CLI's offline paths use this one-shot form.
        """
        started = time.perf_counter()
        advance = self.plan_advance(name)
        session = self.optimize_round_strategy(advance, store=store)
        report = self.commit_advance(advance, session)
        get_registry().histogram(
            "repro_round_advance_seconds",
            "Wall time of one plan/optimize/commit round transition.",
            bounds=(0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0),
        ).observe(time.perf_counter() - started)
        return report

    # -- edge partial forwards ---------------------------------------------

    def apply_partial(
        self, name: str, *, edge_id: str, sequence: int, payload: bytes
    ) -> dict:
        """Fold one edge aggregator's forwarded partial into a campaign.

        The payload is a tagged :meth:`ShardAccumulator.to_bytes` blob; its
        round tag must match the campaign's live round (a stale or unknown
        round is refused with :class:`~repro.exceptions.ProtocolError`,
        like any other ingest path).  ``sequence`` is the edge's
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
        from repro.service.ingest import resolve_round

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
                "round": campaign.current_round,
            }
        partial = ShardAccumulator.from_bytes(payload)
        # resolve_round raises the same stale/unknown-round ProtocolErrors
        # the report paths do, and must run *before* the alphabet check: a
        # round advance can re-optimize onto a different output alphabet,
        # and a stale partial should be refused as stale, not misreported
        # as a shape mismatch.  Unlike a report batch, a partial is an
        # *accumulator* and merges by round tag, so an untagged (round-0)
        # partial cannot fold into an adaptive campaign's live round — the
        # edge must mirror the round it aggregated for.
        from repro.exceptions import ProtocolError

        if campaign.adaptive is not None and partial.round_id == 0:
            raise ProtocolError(
                f"campaign {name!r} is adaptive (round "
                f"{campaign.current_round} live); partials must carry the "
                "round they aggregated — refresh the edge's campaign mirror"
            )
        resolve_round(campaign, partial.round_id or None)
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
            "round": campaign.current_round,
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
        it.

        Adaptive campaigns combine every completed round with the live one:
        rounds collect from disjoint client cohorts, so their total-count
        estimates are independent and simply add — ``est = Σ est_r`` with
        ``se = sqrt(Σ se_r²)`` — and no cohort's reports are ever thrown
        away when the strategy moves on.  The live session's variance
        matrix and each completed round's answer are computed once, by the
        first query that needs them.
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
            [
                record.answer()
                for record in campaign.rounds
                if record.accumulator.num_reports
            ],
        )
        return QueryAnswer(
            campaign=name,
            intervals=intervals,
            num_reports=merged.num_reports
            + sum(record.accumulator.num_reports for record in campaign.rounds),
            as_of=time.time(),
            round=campaign.current_round,
        )

    def total_reports(self) -> int:
        """Reports folded across every campaign."""
        return sum(c.num_reports for c in self._campaigns.values())

    def __repr__(self) -> str:
        return (
            f"CampaignManager(campaigns={len(self)}, "
            f"reports={self.total_reports()})"
        )
