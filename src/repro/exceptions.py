"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch the whole family with one clause while still distinguishing specific
failure modes when needed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DomainError(ReproError):
    """An invalid domain description (non-positive size, bad attributes)."""


class WorkloadError(ReproError):
    """An invalid workload (shape mismatch, missing representation)."""


class AllocationCapError(WorkloadError, ValueError):
    """Materializing a structured (Kronecker) object would allocate more
    cells than the configured cap.  Subclasses :class:`ValueError` as well so
    callers outside the library can catch it without importing the
    hierarchy; the message states the would-be allocation size."""


class PrivacyViolationError(ReproError):
    """A strategy matrix does not satisfy the claimed epsilon-LDP guarantee."""


class StochasticityError(ReproError):
    """A strategy matrix is not a valid conditional probability table."""


class FactorizationError(ReproError):
    """No reconstruction matrix V with W = VQ exists (W outside rowspace(Q))."""


class OptimizationError(ReproError):
    """Strategy optimization failed (diverged, infeasible, bad configuration)."""


class ProtocolError(ReproError):
    """Invalid protocol configuration or malformed client/server messages."""


class DataError(ReproError):
    """Invalid dataset specification or malformed data vector."""


class StoreError(ReproError):
    """A strategy-store entry is missing, corrupted, or fails validation."""


class ServiceError(ReproError):
    """The collection service was misused or its state is damaged (unknown
    campaign, malformed request, corrupt checkpoint)."""


class ServiceHTTPError(ServiceError):
    """An HTTP request to the collection service came back >= 400.  Carries
    the status code so SDK callers (notably the edge aggregator's forwarder)
    can distinguish permanent client faults (4xx: drop and resynchronize)
    from transient server faults (5xx: keep the payload and retry)."""

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = int(status)


class ClusterDegradedError(ServiceError):
    """A cluster worker process died, so the pool refuses to operate (its
    un-checkpointed reports are lost); the HTTP layer maps this to a 503
    rather than a client-fault 400."""
