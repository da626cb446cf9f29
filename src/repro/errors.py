"""Exception hierarchy for the Proteus reproduction.

All library-raised exceptions derive from :class:`ProteusError` so callers can
catch everything from this package with one handler while still being able to
discriminate between configuration mistakes, runtime protocol violations, and
capacity problems.
"""

from __future__ import annotations


class ProteusError(Exception):
    """Base class for every exception raised by this package."""


class ConfigurationError(ProteusError):
    """A component was constructed or configured with invalid parameters."""


class PlacementError(ProteusError):
    """Virtual-node placement could not satisfy the balance condition.

    Raised when Algorithm 1 cannot borrow a feasible host range, which the
    paper proves never happens for valid inputs; seeing this exception means
    the inputs violated a precondition (e.g. non-positive key-space size).
    """


class RoutingError(ProteusError):
    """A request could not be mapped to any active cache server."""


class TransitionError(ProteusError):
    """A smooth-provisioning transition was driven incorrectly.

    Examples: starting a transition while another one for the same server is
    still in its TTL drain window, or committing a transition that was never
    started.
    """


class CacheError(ProteusError):
    """Base class for cache-server errors."""


class CapacityError(CacheError):
    """An item cannot fit in the cache even after eviction."""


class DigestError(ProteusError):
    """The counting-Bloom-filter digest was used inconsistently.

    Raised, for instance, when deleting a key that was never inserted —
    the paper notes this "will never happen" when the digest is driven only
    by item link/unlink, so we surface it loudly instead of corrupting
    counters silently.
    """


class DigestBroadcastError(TransitionError):
    """The digest broadcast that arms a transition failed on some servers.

    Carries ``failures`` — a map from server id to the exception that made
    that server's snapshot/fetch fail — so callers can retry, exclude the
    dead servers, or surface the detail.  The transition is *not* armed when
    this is raised: routing epochs are untouched and a later ``scale_to``
    may retry from scratch.
    """

    def __init__(self, message: str, failures=None) -> None:
        super().__init__(message)
        #: server id -> exception for every server whose digest calls failed
        self.failures = dict(failures or {})


class ProtocolError(ProteusError):
    """A malformed memcached-protocol request or response was seen."""


class TransportError(ProteusError):
    """A network operation against a cache server failed in transit.

    Covers connection resets, unexpected EOF mid-reply, and per-operation
    timeouts — the *transient* fault class: the request may be retried on a
    fresh connection, as opposed to :class:`ProtocolError` proper (the bytes
    arrived but were nonsense) or :class:`ConfigurationError` (retrying
    cannot help).
    """


class DeadlineExceeded(ProteusError):
    """A request's time budget ran out before the operation completed."""


class OverloadError(ProteusError):
    """Load was shed somewhere along the request path.

    The *never-retry* fault class: a shed means some layer deliberately
    refused work it could not absorb, so retrying immediately would feed
    the very overload that caused the refusal (the retry-storm
    amplification loop).  :meth:`repro.resilience.RetryPolicy.is_transient`
    therefore always answers ``False`` for this family.
    """


class ServerBusyError(OverloadError):
    """The server answered ``SERVER_ERROR busy`` — it shed the command.

    Unlike :class:`ProtocolError`, the connection is still perfectly
    framed (the server emitted a well-formed error line in the command's
    reply slot), so the stream is *not* poisoned and later pipelined
    commands on the same connection may still succeed.
    """


class SimulationError(ProteusError):
    """The discrete-event simulation was driven into an invalid state."""


class ProvisioningError(ProteusError):
    """A provisioning schedule or actuator operation is invalid."""
