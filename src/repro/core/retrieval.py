"""The sans-IO Algorithm-2 retrieval core (paper Section IV, "Date Retrieval").

Algorithm 2 — route to the new owner, consult the old owner's digest on a
miss during a transition, fall back to the database, write the value back —
is pure *decision* logic.  What differs between execution substrates is only
how each step is performed: the simulator charges latency-model samples
against a virtual clock, the live tier awaits memcached round trips over
TCP.  This module owns the decisions; drivers own the I/O.

:meth:`RetrievalEngine.retrieve_many` plans reads (a single fetch is a
batch of one) and :meth:`RetrievalEngine.write_many` plans writes.  Both
are generators that *yield rounds of commands* — tuples of
:class:`ProbeCacheMulti`, :class:`WaitForLeader`, :class:`ReadDatabase`,
:class:`WriteBackMulti` and :class:`DeleteMulti` with no mutual
dependencies — receiving a tuple of answers aligned by index via ``send``.
The digest check needs no command: it is a bit test against the snapshot
the transition already carries.  A driver is a small loop::

    steps = engine.retrieve_many(keys, epochs, now=now)
    answers = None
    try:
        while True:
            round_ = steps.send(answers)
            answers = tuple(...)  # perform the I/O each command names
    except StopIteration as stop:
        results = stop.value  # {key: FetchResult}; stamp .completed

Because both the simulated web tier (:class:`repro.web.frontend.WebServer`)
and the asyncio tier (:class:`repro.net.webtier.AsyncProteusFrontend`)
drive this one planner, the branch structure of Algorithm 2 — and therefore
the :class:`FetchPath` accounting — cannot drift between them.  Section
III-E replication is the same algorithm over a longer *read plan*: the
router hands the planner each key's distinct owners
(:meth:`~repro.core.router.Router.read_plans`).  Epochs come in as
:class:`~repro.core.transition.RoutingEpochs` — from the simulated
cluster or the live tier's own transition manager — so the engine never
needs to know where transition state lives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.hotkey import HotKeyArmor
from repro.core.transition import RoutingEpochs

__all__ = [
    "Command",
    "CommandRound",
    "DEGRADED_EVENTS",
    "DeleteMulti",
    "FetchPath",
    "FetchResult",
    "FetchStats",
    "LeaderWindowRegistry",
    "MAX_MULTIGET_KEYS",
    "ProbeCacheMulti",
    "ReadDatabase",
    "RetrievalConfig",
    "RetrievalEngine",
    "SERVER_UNAVAILABLE",
    "WaitForLeader",
    "WriteBackMulti",
]


# --------------------------------------------------------------------- paths


class FetchPath(str, enum.Enum):
    """Which branch of Algorithm 2 served the request.

    A ``str`` mix-in so members compare and hash like their wire labels
    (``FetchPath.HIT_NEW == "hit_new"``): simulator reports and live-tier
    reports key their counters identically and stay directly comparable.
    """

    #: served from the frontend-local hot-key cache (sketch-elected keys
    #: only; DistCache-style armor) — no cache-server round trip at all.
    HIT_LOCAL = "hit_local"
    #: hit at the authoritative (new-mapping) server — Alg. 2 line 3.
    HIT_NEW = "hit_new"
    #: digest hit, data pulled from the old owner — Alg. 2 line 7 ("hot").
    HIT_OLD = "hit_old"
    #: digest said yes but the old server missed — false positive, went to DB.
    FALSE_POSITIVE_DB = "false_positive_db"
    #: digest said no (cold data) or no transition in flight — went to DB.
    MISS_DB = "miss_db"
    #: coalesced behind an in-flight DB fetch for the same key (dog-pile
    #: protection, the paper's reference [12] scenario).
    COALESCED = "coalesced"
    #: a cache fault (a dead or unreachable server) blocked the normal
    #: path and the database served instead — the *failure* fallback
    #: of Algorithm 2, as opposed to the ordinary-miss fallbacks above.
    DEGRADED_DB = "degraded_db"
    #: admission control refused the DB-path work (overload): the request
    #: was *not served* (value ``None``) — unlike :attr:`DEGRADED_DB`,
    #: which is served correctly at extra latency cost.  Hits never land
    #: here: they complete before any database decision is made.
    SHED = "shed"


#: The degraded-path event labels :class:`FetchStats` counts — one per
#: fault the engine can serve around: a new-plan owner's probe skipped, an
#: old owner's probe skipped, and a write-back that could not be installed.
DEGRADED_EVENTS = ("probe_new", "probe_old", "writeback")
#: Upper bound on keys per batched command (:class:`ProbeCacheMulti` /
#: :class:`WriteBackMulti` / :class:`DeleteMulti`); larger groups are split,
#: the way memcached clients chunk oversized multigets.  A constant, not an
#: option: a ``gets`` of 64 maximal keys fits the parsers' line bound.
MAX_MULTIGET_KEYS = 64
#: Open leader windows before a :class:`LeaderWindowRegistry` prunes.
MAX_LEADER_WINDOWS = 4096

#: The paths on which the database served the request.
_DATABASE_PATHS = (
    FetchPath.FALSE_POSITIVE_DB, FetchPath.MISS_DB, FetchPath.DEGRADED_DB
)


@dataclass
class FetchStats:
    """Per-path counters for one Algorithm-2 executor (web server)."""

    counts: Dict[FetchPath, int] = field(
        default_factory=lambda: {path: 0 for path in FetchPath}
    )
    #: how often the engine served *around* a fault, per degraded event
    #: (see :data:`DEGRADED_EVENTS`); one request may record several.
    degraded: Dict[str, int] = field(
        default_factory=lambda: {event: 0 for event in DEGRADED_EVENTS}
    )
    #: reads a replica other than the key's ring-0 owner answered
    failovers: int = 0

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def shed(self) -> int:
        """Requests refused by admission control (not served)."""
        return self.counts[FetchPath.SHED]

    @property
    def degraded_events(self) -> int:
        """Total faults served around (sum over the degraded counters)."""
        return sum(self.degraded.values())

    @property
    def database_reads(self) -> int:
        """Requests the database served."""
        return sum(self.counts[path] for path in _DATABASE_PATHS)

    @property
    def database_fraction(self) -> float:
        """Fraction of requests that reached the DB tier."""
        total = self.total
        return self.database_reads / total if total else 0.0


# ------------------------------------------------------------- configuration


@dataclass
class RetrievalConfig:
    """Engine-level retrieval options, shared by every driver.

    One instance lives on the engine and every driver exposes the same
    live object as ``driver.config``, so a new option lands in every
    substrate at once.
    """

    #: dog-pile protection — while a DB fetch for a key is in flight, later
    #: misses for it wait instead of reading the DB again (the "memcache dog
    #: pile" the paper's introduction cites).  Off by default: the paper's
    #: Fig. 9 spike depends on the dog pile being possible.
    coalesce_misses: bool = False
    #: hot-key armor — serve sketch-elected hot keys from a tiny
    #: frontend-local cache (:class:`~repro.core.hotkey.HotKeyCache`) with
    #: TTL-bounded staleness; the DistCache-inspired extension for Zipf
    #: head keys, off by default.  Needs the driver's clock (``now=``).
    hot_key_cache: bool = False
    #: staleness bound for locally served values, in driver-clock seconds.
    hot_key_ttl: float = 1.0


# ------------------------------------------------------------------ commands


@dataclass(slots=True)
class ProbeCacheMulti:
    """``get_multi`` *keys* from cache server *server_id* — one round trip.

    Driver answer: a ``dict`` mapping each key that **hit** to its value
    (missing keys missed, exactly like memcached's multiget reply), or
    :data:`SERVER_UNAVAILABLE` (no probe happened for any key).
    """

    server_id: int
    keys: Tuple[str, ...]


@dataclass(slots=True)
class WaitForLeader:
    """If another request's DB fetch for *key* is in flight, wait for it.

    Driver answer: ``True`` when a leader existed and the wait completed
    (the engine then re-probes the new owner), ``False`` when there was no
    leader or its window already closed (the engine reads the DB itself).
    """

    key: str


@dataclass(slots=True)
class ReadDatabase:
    """Read *key* from the authoritative store (never misses).

    Driver answer: the value.  When ``announce_leader`` is set the driver
    must also publish this request as the key's in-flight leader so that
    concurrent misses can coalesce behind it (see :class:`WaitForLeader`).
    """

    key: str
    announce_leader: bool = False


@dataclass(slots=True)
class WriteBackMulti:
    """Install every ``(key, value)`` pair at server *server_id* (Alg. 2
    line 12) — one pipelined round trip.

    A read's fill (from :meth:`RetrievalEngine.retrieve_many`) stores only
    where the key is absent (memcached ``add``), so it never replaces a
    write (:meth:`RetrievalEngine.write_many`) that landed while its
    database read was in flight.  Driver answer: ignored, or
    :data:`SERVER_UNAVAILABLE`.
    """

    server_id: int
    items: Tuple[Tuple[str, Any], ...]

    @property
    def keys(self) -> Tuple[str, ...]:
        """The grouped keys (derived from ``items``)."""
        return tuple(key for key, _ in self.items)


@dataclass(slots=True)
class DeleteMulti:
    """Delete every key at server *server_id*: the copies a write
    invalidates (:meth:`RetrievalEngine.write_many`).

    Driver answer: ignored, or :data:`SERVER_UNAVAILABLE`.
    """

    server_id: int
    keys: Tuple[str, ...]


Command = Union[
    ProbeCacheMulti, WaitForLeader, ReadDatabase, WriteBackMulti, DeleteMulti
]

#: One step of the protocol: commands with no mutual dependencies, answered
#: by a tuple of results aligned by index.  Drivers may execute a round's
#: commands concurrently.
CommandRound = Tuple[Command, ...]


class _DriverSignal:
    """An identity sentinel a driver may answer a command with (falsy, so
    it never reads as a hit)."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __bool__(self) -> bool:
        return False


#: Driver answer to :class:`ProbeCacheMulti` / :class:`WriteBackMulti` /
#: :class:`DeleteMulti` meaning "the server could not be reached (dead,
#: hung, or open-circuit)".
#: A read *degrades* instead of failing: a skipped probe is a forced miss
#: at that owner (the plan's next owner is probed), a failed write-back
#: never fails the fetch — the request completes, via the database
#: (:attr:`FetchPath.DEGRADED_DB`).
SERVER_UNAVAILABLE = _DriverSignal("SERVER_UNAVAILABLE")


def _per_server(command, placed: Sequence[Tuple[int, Any]]) -> CommandRound:
    """One round of *command*: ``(server_id, item)`` pairs grouped into one
    command per server (ascending), groups longer than
    :data:`MAX_MULTIGET_KEYS` split."""
    if len(placed) == 1:  # a batch of one: nothing to group, sort, or split
        ((server_id, item),) = placed
        return (command(server_id, (item,)),)
    grouped: Dict[int, list] = {}
    for server_id, item in placed:
        if server_id in grouped:
            grouped[server_id].append(item)
        else:
            grouped[server_id] = [item]
    round_ = []
    limit = MAX_MULTIGET_KEYS
    for server_id in sorted(grouped):
        group = grouped[server_id]
        if len(group) > limit:
            round_ += [
                command(server_id, tuple(group[start:start + limit]))
                for start in range(0, len(group), limit)
            ]
        else:
            round_.append(command(server_id, tuple(group)))
    return tuple(round_)


# ------------------------------------------------------------------ outcomes


@dataclass(slots=True)
class FetchResult:
    """Outcome **and timing** of one Algorithm-2 retrieval, on every
    substrate.

    The engine builds it with ``started`` = ``completed`` = its ``now``;
    a driver stamps ``completed`` when its last command lands (virtual
    seconds in the simulator, the live tier's clock over TCP).  Every
    other field is substrate-independent, so the tiers diff field for
    field.
    """

    key: str
    value: Any
    path: FetchPath
    started: Optional[float]
    completed: Optional[float]
    #: the ring-0 owner under the new (old) epoch — the head of the plan
    new_server: int
    old_server: Optional[int] = None
    #: True when the engine served *around* at least one fault (skipped
    #: probe or failed write-back) on the way.
    degraded: bool = False
    #: the cache server that answered; ``None`` when the database, the
    #: frontend-local hot-key cache, or nobody (:attr:`FetchPath.SHED`) did
    served_by: Optional[int] = None
    #: cache probes answered on the key's behalf (an unavailable server's
    #: does not count: no probe happened)
    probes: int = 0

    @property
    def latency(self) -> float:
        """End-to-end response time in seconds."""
        return self.completed - self.started

    @property
    def touched_database(self) -> bool:
        return self.path in _DATABASE_PATHS

    @property
    def failover(self) -> bool:
        """True when a new-plan owner other than the ring-0 owner answered
        (it covered for a missing primary)."""
        return (
            self.served_by is not None
            and self.served_by != self.new_server
            and self.path is not FetchPath.HIT_OLD
        )


# -------------------------------------------------------------------- engine


class RetrievalEngine:
    """Algorithm 2 as a transport-agnostic state machine.

    Args:
        router: the deterministic routing strategy shared by every web
            server (the consistency objective: same router, same decisions).
        config: the engine options (:class:`RetrievalConfig` defaults when
            omitted); drivers expose the same object as ``driver.config``.
    """

    def __init__(
        self, router, config: Optional[RetrievalConfig] = None
    ) -> None:
        self.router = router
        self.config = config if config is not None else RetrievalConfig()
        #: per-path counters
        self.stats = FetchStats()
        self._armor: Optional[HotKeyArmor] = None
        #: DB-path admission controller (duck-typed:
        #: :class:`repro.resilience.admission.VirtualQueueAdmission`);
        #: ``None`` admits everything.  With the driver's clock as ``now``
        #: the engine asks ``admission.admit_db(now)`` before each
        #: database read and a refusal sheds the request
        #: (:attr:`FetchPath.SHED`, value ``None``); hits never ask.
        self.admission = None

    @property
    def armor(self) -> HotKeyArmor:
        """The hot-key armor bundle, built lazily: ``hot_key_ttl`` is read
        once, on first use; the ``hot_key_cache`` switch itself may be
        toggled at any time."""
        if self._armor is None:
            self._armor = HotKeyArmor(self.config.hot_key_ttl)
        return self._armor

    def retrieve_many(
        self,
        keys: Iterable[str],
        epochs: RoutingEpochs,
        now: Optional[float] = None,
    ) -> Generator[CommandRound, Any, Dict[str, FetchResult]]:
        """The planner: Algorithm 2 over a whole key set (or one key).

        A key's **read plan** under an epoch is the tuple of its distinct
        owners there, ring 0's first
        (:meth:`~repro.core.router.Router.read_plans`): one owner, or up
        to ``r`` with Section III-E's replica rings.  The data path, per
        key (paper Algorithm 2, over plans):

        1. probe the *new* epoch's plan, ring round by ring round; done at
           the first hit.
        2. Nothing there, *during a transition*: check the broadcast
           digest of every *ceded* old owner — in the old epoch's plan,
           absent from the new one.  Probe those whose digest says yes
           (the key is "hot" there); if none holds it after all, that was
           a digest false positive.
        3. Still nothing: wait behind an in-flight leader if coalescing,
           else read the database.
        4. Fill every new-plan owner but the one that served (with one
           owner: nothing after a step-1 hit, the new owner otherwise);
           a fill never replaces a copy already there.

        Property 1 (Section IV-A): only the *first* request for a hot key
        touches the old server; the write-back in step 4 makes every
        subsequent request a step-1 hit.  Property 2: after TTL seconds
        every hot key has migrated, so the old server can power off.

        Probes and write-backs are grouped by server (split at
        :data:`MAX_MULTIGET_KEYS`), so the batch costs at most one multiget
        round trip per probed server per ring round; only
        :class:`ReadDatabase` stays per-key.  Digest checks are local and
        grouped per ceded old owner: **one** ``digest_hit_many`` per old
        owner per batch, never split.

        Returns key -> :class:`FetchResult` (the driver stamps
        ``completed``); duplicate keys collapse, and a batch of N keys
        yields the outcomes and :class:`FetchStats` of N batches of one.

        **Degraded mode.**  Any probe or write-back may be answered
        :data:`SERVER_UNAVAILABLE` and the engine serves around it
        (a hit at the plan's next owner counts in ``FetchStats.failovers``);
        a request the database served after a fault records
        :attr:`FetchPath.DEGRADED_DB` and per-event counters, never a plain
        miss.

        **Hot-key armor.**  With ``config.hot_key_cache`` enabled and the
        driver's clock passed as *now*, every access feeds the top-k
        election sketch, and a sketch-elected key with a fresh local copy
        is served without a probe (:attr:`FetchPath.HIT_LOCAL`); hot keys
        are admitted locally as Algorithm 2 writes them back, so local
        staleness is TTL-bounded.  Without *now* the armor is inert.
        """
        pending = list(dict.fromkeys(keys))
        outcomes: Dict[str, FetchResult] = {}
        if not pending:
            return outcomes
        config = self.config
        new_plan = dict(zip(pending, self.router.read_plans(pending, epochs.new)))
        old_plan: Dict[str, Tuple[int, ...]] = {}
        #: path -> keys served on it, added to FetchStats at settle time
        tally: Dict[FetchPath, int] = {}
        #: the served keys the settle pass visits, in the order they landed
        landed: List[str] = []
        #: key -> the faults served around on its way; any entry *forces*
        #: the key's database read (if it comes to one) to DEGRADED_DB
        events: Dict[str, List[str]] = {}
        #: key -> cache probes that answered "not here"
        misses: Dict[str, int] = {}
        armor = self.armor if now is not None and config.hot_key_cache else None
        #: one owner per plan, no armor: a new-plan hit has nothing to settle
        quiet = armor is None and max(map(len, new_plan.values())) == 1

        def ring_rounds(keys, plans, fault, path):
            """Probe *keys* along *plans*: round ``r`` asks every still
            unanswered key's ``r``-th owner, one multiget per server.  A
            hit becomes its key's outcome on *path*; a probe answered
            :data:`SERVER_UNAVAILABLE` appends *fault* to its keys' events;
            a key's rounds end with its plan."""
            ring, before = 0, len(outcomes)
            while keys:
                probes = _per_server(
                    ProbeCacheMulti, [(plans[key][ring], key) for key in keys]
                )
                answers = yield probes
                settled = quiet and plans is new_plan
                unanswered = []
                for probe, answer in zip(probes, answers):
                    if answer is SERVER_UNAVAILABLE:
                        for key in probe.keys:
                            events.setdefault(key, []).append(fault)
                        unanswered += probe.keys
                        continue
                    values, server_id = answer or {}, probe.server_id
                    for key in probe.keys:
                        value = values.get(key)
                        if value is None:
                            misses[key] = misses.get(key, 0) + 1
                            unanswered.append(key)
                            continue
                        outcomes[key] = FetchResult(
                            key, value, path, now, now, new_plan[key][0],
                            None, False, server_id, 1,
                        )
                        if not settled:
                            landed.append(key)
                ring += 1
                keys = unanswered and [
                    key for key in unanswered if ring < len(plans[key])
                ]
            tally[path] = tally.get(path, 0) + len(outcomes) - before

        if armor is not None:
            remaining = []
            for key in pending:
                local = armor.lookup(key, now)
                if local is not None:
                    outcomes[key] = FetchResult(
                        key, local, FetchPath.HIT_LOCAL, now, now,
                        new_plan[key][0],
                    )
                    continue
                remaining.append(key)
            pending = remaining
            tally[FetchPath.HIT_LOCAL] = len(outcomes)  # all of them, so far

        # Phase 1 — Alg. 2 line 3, batched: the new epoch's plans.
        yield from ring_rounds(pending, new_plan, "probe_new", FetchPath.HIT_NEW)
        # (an all-hit batch, the common case, skips a pass over the keys)
        pending = len(outcomes) < len(new_plan) and [
            key for key in pending if key not in outcomes
        ]

        #: digest said yes, every (reachable) old owner said no
        false_positives: Iterable[str] = ()

        # Phase 2 — digest checks at the owners the transition took each
        # key from (Alg. 2 line 6: bit tests against the broadcast snapshot,
        # no round trip), then the old owners' own rounds.
        if pending and epochs.in_transition:
            old_plan = dict(
                zip(pending, self.router.read_plans(pending, epochs.old))
            )
            #: ceded old owner -> its keys; a server with no snapshot
            #: answers all-False, so its keys go to the database as misses
            ceded: Dict[int, List[str]] = {}
            for key in pending:
                for owner in old_plan[key]:
                    if owner not in new_plan[key]:
                        ceded.setdefault(owner, []).append(key)
            #: key -> the ceded owners whose digest advertises it
            hot: Dict[str, Tuple[int, ...]] = {}
            for owner in sorted(ceded):
                keys = ceded[owner]
                bits = epochs.transition.digest_hit_many(owner, keys)
                for key, hit in zip(keys, bits):
                    if hit:
                        hot[key] = hot.get(key, ()) + (owner,)
            if hot:
                yield from ring_rounds(
                    list(hot), hot, "probe_old", FetchPath.HIT_OLD
                )
                # (A dead old owner is no false positive: no probe ever
                # happened, and it recorded "probe_old".)
                false_positives = {
                    key for key in hot
                    if key not in outcomes and key not in events
                }
                pending = [key for key in pending if key not in outcomes]

        # Phase 3 — coalescing: wait behind in-flight leaders, then re-probe
        # the new plans of the keys whose leader completed (batched).  The
        # leader's write-back has installed the value there: one more cache
        # probe instead of a DB read, and no write-back of our own —
        # rewriting would push the item's creation time past later
        # coalescing followers.
        if pending and config.coalesce_misses:
            answers = yield tuple(WaitForLeader(key) for key in pending)
            waited = [key for key, ok in zip(pending, answers) if ok]
            yield from ring_rounds(
                waited, new_plan, "probe_new", FetchPath.COALESCED
            )
            pending = [key for key in pending if key not in outcomes]

        # Phase 4 — per-key database reads (the DB never batches misses
        # away; each distinct key costs one authoritative read).  Each
        # read is individually admission-checked: a batch straddling the
        # overload threshold sheds only its excess keys — no DB read, no
        # write-back, no leader announcement, value ``None``.
        if pending and self.admission is not None and now is not None:
            admitted: List[str] = []
            for key in pending:
                if self.admission.admit_db(now):
                    admitted.append(key)
                else:
                    outcomes[key] = FetchResult(
                        key, None, FetchPath.SHED, now, now, new_plan[key][0]
                    )
            tally[FetchPath.SHED] = len(pending) - len(admitted)
            pending = admitted
        if pending:
            announce = config.coalesce_misses
            values = yield tuple(ReadDatabase(key, announce) for key in pending)
            for key, value in zip(pending, values):
                path = FetchPath.MISS_DB
                if key in events:
                    path = FetchPath.DEGRADED_DB
                elif key in false_positives:
                    path = FetchPath.FALSE_POSITIVE_DB
                outcomes[key] = FetchResult(
                    key, value, path, now, now, new_plan[key][0]
                )
                tally[path] = tally.get(path, 0) + 1
            landed += pending

        # Phase 5 — settle: counters, and what Alg. 2 line 12 installs
        # where — every new-plan owner but the one that served.
        stats = self.stats
        for path, count in tally.items():
            stats.counts[path] += count
        write_backs: List[Tuple[int, Tuple[str, Any]]] = []
        for key in landed:
            outcome, plan = outcomes[key], new_plan[key]
            value, served_by = outcome.value, outcome.served_by
            if outcome.failover:
                stats.failovers += 1
            if armor is not None:
                # Admit hot keys at the same moment Alg. 2 writes back:
                # the local copy is never older than the cache copy.
                armor.admit(key, value, now)
            if outcome.path is not FetchPath.COALESCED:
                for owner in plan:
                    if owner != served_by:
                        write_backs.append((owner, (key, value)))
        if misses or events:  # some key went past a first-probe hit
            for key, old in old_plan.items():
                outcomes[key].old_server = old[0]
            for key, count in misses.items():
                outcomes[key].probes += count
            for key, faults in events.items():
                outcomes[key].degraded = True
                for event in faults:
                    stats.degraded[event] += 1

        # Phase 6 — write-backs: one pipelined command per owner.
        if write_backs:
            commands = _per_server(WriteBackMulti, write_backs)
            answers = yield commands
            for command, answer in zip(commands, answers):
                if answer is SERVER_UNAVAILABLE:
                    # Recorded, never fatal: the values were served already;
                    # the next fetch of these keys just misses again.
                    for key, _ in command.items:
                        stats.degraded["writeback"] += 1
                        outcomes[key].degraded = True
        return outcomes

    def write_many(
        self, items: Iterable[Tuple[str, Any]], epochs: RoutingEpochs
    ) -> Generator[CommandRound, Any, Dict[str, List[int]]]:
        """The write planner, one round: each value goes to every owner of
        its new-epoch read plan (:class:`WriteBackMulti`) and every other
        copy is deleted (:class:`DeleteMulti`) — DistCache's coherence
        rule, so neither a transition's old-owner probe nor a later resize
        serves the value a write replaced.  Copies sit on a key's *owner
        chain* (its read plans over every active count), inside the
        active-or-draining prefix (a server beyond it is off, and comes
        back cold).  The last of duplicate keys wins; hot keys' local
        copies are dropped.  Returns key -> the new-plan owners that took
        the write (not those answered :data:`SERVER_UNAVAILABLE`).
        """
        final = dict(items)
        keys = list(final)
        router = self.router
        plans = router.read_plans(keys, epochs.new)
        chains = [set() for _ in keys]
        for count in range(1, router.num_servers + 1):
            for chain, plan in zip(chains, router.read_plans(keys, count)):
                chain.update(plan)
        prefix = max(epochs.new, epochs.old or 0)
        round_ = _per_server(WriteBackMulti, [
            (owner, (key, final[key]))
            for key, plan in zip(keys, plans) for owner in plan
        ]) + _per_server(DeleteMulti, [
            (owner, key)
            for key, plan, chain in zip(keys, plans, chains)
            for owner in chain if owner < prefix and owner not in plan
        ])
        answers = yield round_
        if self.config.hot_key_cache:
            for key in keys:
                self.armor.invalidate(key)
        lost = {(command.server_id, key)
                for command, answer in zip(round_, answers)
                if answer is SERVER_UNAVAILABLE for key in command.keys}
        return {
            key: [owner for owner in plan if (owner, key) not in lost]
            for key, plan in zip(keys, plans)
        }


# ------------------------------------------------------- coalescing windows


class LeaderWindowRegistry:
    """Simulated-time bookkeeping for :class:`WaitForLeader`.

    Maps key -> completion time of the in-flight leader's DB fetch plus its
    write-back.  A follower whose virtual clock is still inside the window
    jumps to its end; anything later is a plain miss.
    """

    def __init__(self) -> None:
        self._windows: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._windows)

    def leader_done(self, key: str, now: float) -> Optional[float]:
        """The open window's end for *key*, or ``None`` if closed/absent."""
        done = self._windows.get(key)
        if done is None or now >= done:
            return None
        return done

    def announce(self, key: str, done_at: float, now: float) -> None:
        """Publish a leader window for *key* closing at *done_at*; prunes
        against the *current* clock ``now`` (not the request's start), so
        a window that closed while this request was in flight goes."""
        self._windows[key] = done_at
        if len(self._windows) > MAX_LEADER_WINDOWS:
            # The map stays bounded by the concurrent-miss key count.
            self._windows = {
                k: t for k, t in self._windows.items() if t > now
            }
