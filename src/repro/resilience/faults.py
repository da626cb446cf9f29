"""The shared fault vocabulary: declarative plans both substrates speak.

A :class:`FaultPlan` says *what is wrong* with the path to one cache server
— refuse connections, reset mid-stream with some probability, delay
responses, blackhole them, truncate writes — without saying *how* the
wrongness is realized.  Two realisers read it.  For the live stack it is
the test suite's seeded virtual-time network (``tests/simnet``), which
runs the unmodified client, server and frontend over in-memory
connections and applies every field to the bytes on the path.  For the
simulator it is :meth:`repro.experiments.testbed.SimTestbed.run`,
which expresses the subset a crash can (the plans that ``kills_server``)
as crash / repair events.  Because both read the same
:class:`FaultSchedule`, a live test and a simulation run can be handed
*the same scripted outage* and their degraded-path accounting compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError

__all__ = ["FaultPlan", "ScheduledFault", "FaultSchedule"]


@dataclass(frozen=True)
class FaultPlan:
    """What is injected on the path to one server.  All faults compose.

    Attributes:
        reject_connections: refuse every new connection (hard-down server).
        blackhole: accept traffic but never forward a response — the
            hung-server case; only a per-op timeout gets a client out.
        reset_probability: per-response-chunk probability of an abrupt
            connection reset.
        partial_write_probability: per-response-chunk probability of
            forwarding only a prefix of the chunk and then resetting —
            the mid-reply desync case.
        delay: fixed extra latency per response chunk, seconds.
        delay_jitter: uniform extra delay in ``[0, delay_jitter]``.
        drop_syn: connect-phase fault: the dial is swallowed — it never
            completes, so only the client's connect timeout ends it (the
            firewalled / partitioned path); open connections go silent in
            both directions.  A crash to the simulator.
        connect_delay: connect-phase fault: a dial completes this many
            seconds late (the slow-accept / overloaded-listener case), then
            works.
        drop_request_probability: per-request-chunk probability of silently
            dropping the client -> server chunk (request-direction loss:
            the server never sees the command, the client times out waiting
            for a reply that was never going to come).
        seed: PRNG seed for the probabilistic faults.
    """

    reject_connections: bool = False
    blackhole: bool = False
    reset_probability: float = 0.0
    partial_write_probability: float = 0.0
    delay: float = 0.0
    delay_jitter: float = 0.0
    drop_syn: bool = False
    connect_delay: float = 0.0
    drop_request_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "reset_probability",
            "partial_write_probability",
            "drop_request_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if self.delay < 0 or self.delay_jitter < 0 or self.connect_delay < 0:
            raise ConfigurationError("delays must be >= 0")

    # ------------------------------------------------------------- queries

    @property
    def kills_server(self) -> bool:
        """True when the plan makes the server effectively unreachable —
        the subset of faults the simulator expresses as a crash."""
        return self.reject_connections or self.blackhole or self.drop_syn

    # ---------------------------------------------------------- factories

    @classmethod
    def none(cls) -> "FaultPlan":
        """The no-fault plan (a healthy path)."""
        return cls()

    @classmethod
    def killed(cls) -> "FaultPlan":
        """A hard-down server: every connection refused."""
        return cls(reject_connections=True)

    @classmethod
    def slow(cls, delay: float, jitter: float = 0.0) -> "FaultPlan":
        """A healthy but slow server."""
        return cls(delay=delay, delay_jitter=jitter)

    @classmethod
    def flaky(cls, reset_probability: float, seed: int = 0) -> "FaultPlan":
        """A server whose connections reset at random."""
        return cls(reset_probability=reset_probability, seed=seed)

    @classmethod
    def syn_dropped(cls) -> "FaultPlan":
        """Dials hang instead of failing fast (firewalled/partitioned path)."""
        return cls(drop_syn=True)

    @classmethod
    def slow_accept(cls, connect_delay: float) -> "FaultPlan":
        """An overloaded listener: connections come up late but do work."""
        return cls(connect_delay=connect_delay)

    @classmethod
    def lossy_requests(cls, probability: float, seed: int = 0) -> "FaultPlan":
        """Request-direction loss: commands vanish before the server."""
        return cls(drop_request_probability=probability, seed=seed)


@dataclass(frozen=True)
class ScheduledFault:
    """Apply *plan* to *server_id* at time *at*; clear it at *clear_at*."""

    at: float
    server_id: int
    plan: FaultPlan
    clear_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(f"at must be >= 0, got {self.at}")
        if self.clear_at is not None and self.clear_at <= self.at:
            raise ConfigurationError("clear_at must be after at")

    def active(self, now: float) -> bool:
        """True while this entry's plan is in force at time *now*."""
        if now < self.at:
            return False
        return self.clear_at is None or now < self.clear_at


@dataclass
class FaultSchedule:
    """A scripted outage: scheduled fault entries over one cluster.

    The one fault timeline both substrates consume: the virtual network of
    ``tests/simnet`` replays it by re-planning each server's path at every
    entry's ``at`` / ``clear_at``; the simulator schedules the
    :meth:`crashes` entries as crash/repair events
    (:meth:`repro.experiments.testbed.SimTestbed.run`).
    """

    entries: List[ScheduledFault] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.entries = sorted(self.entries, key=lambda entry: entry.at)

    def add(
        self,
        at: float,
        server_id: int,
        plan: FaultPlan,
        clear_at: Optional[float] = None,
    ) -> "FaultSchedule":
        """Append an entry (chainable)."""
        self.entries.append(ScheduledFault(at, server_id, plan, clear_at))
        self.entries.sort(key=lambda entry: entry.at)
        return self

    def plans_at(self, now: float) -> Dict[int, FaultPlan]:
        """The plan in force per server at time *now* (later entries win);
        servers with no active entry are absent (i.e. fault-free)."""
        plans: Dict[int, FaultPlan] = {}
        for entry in self.entries:
            if entry.active(now):
                plans[entry.server_id] = entry.plan
        return plans

    def crashes(self) -> List[ScheduledFault]:
        """The entries whose plan ``kills_server`` — the simulator's whole
        fault vocabulary (delay / reset plans have no sim equivalent)."""
        return [entry for entry in self.entries if entry.plan.kills_server]

    def servers(self) -> List[int]:
        """Every server id the schedule touches (sorted, distinct)."""
        return sorted({entry.server_id for entry in self.entries})
