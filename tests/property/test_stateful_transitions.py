"""Hypothesis stateful test: the cache-cluster scaling state machine, with
requests.

Random interleavings of smooth scale requests, abrupt scale requests, time
advances, crashes, repairs, puts, page fetches and evictions must preserve
the lifecycle invariants and the write contract:

* servers in the active prefix are ON (unless crashed); servers beyond the
  prefix are OFF or DRAINING (draining only inside an open window);
* at most one drain window is open, and it closes by its deadline;
* a closed scale-down window leaves the drained servers OFF and empty;
* every fetch returns the last value put — a put leaves no other copy
  that a transition's old-owner probe or a later resize could serve.

The fleet starts warm at ``ACTIVE`` of ``N`` servers, so a scale-up
moves cached keys to new owners from the first step.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bloom.config import BloomConfig
from repro.cache.cluster import CacheCluster
from repro.cache.server import PowerState
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.errors import TransitionError
from repro.sim.latency import Constant
from repro.web.frontend import WebServer

N = 5
ACTIVE = 3
TTL = 10.0
#: a request starts this long after the previous event, so it sees every
#: write that event made (a sim item is invisible before its write time,
#: and a request's writes land a few cache round trips after it starts)
REQUEST = 0.05
PAGE = [f"k:{key}" for key in range(8)]
CFG = BloomConfig(
    num_counters=2048, counter_bits=8, num_hashes=4, kappa=100,
    fp_bound=0.0, fn_bound=0.0,
)


class ClusterMachine(RuleBasedStateMachine):
    replicas = 1

    def __init__(self):
        super().__init__()
        self.cluster = CacheCluster(
            ProteusRouter(N, ring_size=2 ** 20, replicas=self.replicas),
            capacity_bytes=4096 * 50,
            initial_active=ACTIVE,
            ttl=TTL,
            bloom_config=CFG,
        )
        self.database = DatabaseCluster(3, service_model=Constant(0.001))
        self.web = WebServer(0, self.cluster, self.database)
        self.now = 0.0
        #: key -> the last value put (the database holds it too)
        self.last_put = {}
        #: (key, value) of every fetch since the invariants last ran
        self.fetched = []
        self.web.fetch_many(PAGE, self.now)  # warm: every key at its owner

    @rule(target_n=st.integers(min_value=1, max_value=N))
    def smooth_scale(self, target_n):
        try:
            self.cluster.scale_to(target_n, self.now)
        except TransitionError:
            # a window is still open — legal rejection, state unchanged
            assert self.cluster.transitions.in_transition(self.now)

    @rule(target_n=st.integers(min_value=1, max_value=N))
    def abrupt_scale(self, target_n):
        try:
            self.cluster.abrupt_scale_to(target_n, self.now)
        except TransitionError:
            assert self.cluster.transitions.in_transition(self.now)

    @rule(server=st.integers(min_value=0, max_value=N - 1))
    def crash(self, server):
        self.cluster.fail_server(server, self.now)

    @rule(server=st.integers(min_value=0, max_value=N - 1))
    def repair(self, server):
        self.cluster.repair_server(server, self.now)

    @rule(delta=st.floats(min_value=0.5, max_value=25.0))
    def advance(self, delta):
        self.now += delta
        self.cluster.finalize_expired(self.now)

    @rule(key=st.sampled_from(PAGE), value=st.integers())
    def put(self, key, value):
        self.now += REQUEST
        self.database.put(key, value)
        self.web.put(key, value, self.now)
        self.last_put[key] = value

    @rule()
    def fetch(self):
        self.now += REQUEST
        results = self.web.fetch_many(PAGE, self.now)
        self.fetched += [(key, result.value) for key, result in results.items()]

    @rule(key=st.sampled_from(PAGE), server=st.integers(0, N - 1))
    def evict(self, key, server):
        """One serving server loses the key (LRU, or a crash and repair)."""
        target = self.cluster.server(server)
        if target.state.serves_requests:
            target.delete(key, self.now)

    # ------------------------------------------------------------ invariants

    @invariant()
    def every_fetch_returns_the_last_value_put(self):
        for key, value in self.fetched:
            if key in self.last_put:
                assert value == self.last_put[key], (key, value)
        self.fetched.clear()

    @invariant()
    def active_prefix_is_on_unless_crashed(self):
        n = self.cluster.active_count
        failed = self.cluster.failed_servers()
        for sid in range(n):
            state = self.cluster.server(sid).state
            if sid in failed:
                assert state is PowerState.OFF
            else:
                assert state is PowerState.ON

    @invariant()
    def beyond_prefix_is_off_or_draining(self):
        n = self.cluster.active_count
        in_window = self.cluster.transitions.in_transition(self.now)
        for sid in range(n, N):
            state = self.cluster.server(sid).state
            if state is PowerState.DRAINING:
                assert in_window  # draining only inside an open window
            else:
                assert state is PowerState.OFF

    @invariant()
    def window_closes_by_deadline(self):
        transition = self.cluster.transitions.current(self.now)
        if transition is not None:
            assert self.now < transition.deadline

    @invariant()
    def drained_servers_are_empty(self):
        for transition in self.cluster.transitions.history:
            for sid in transition.draining_servers():
                server = self.cluster.server(sid)
                if server.state is PowerState.OFF:
                    assert len(server.store) == 0


class ReplicatedClusterMachine(ClusterMachine):
    """The same machine over two replica rings (Section III-E)."""

    replicas = 2


for machine in (ClusterMachine, ReplicatedClusterMachine):
    machine.TestCase.settings = settings(
        max_examples=40, stateful_step_count=40, deadline=None
    )
TestClusterMachine = ClusterMachine.TestCase
TestReplicatedClusterMachine = ReplicatedClusterMachine.TestCase


def test_shrunk_example_put_mid_drain_then_crash():
    """The machine's shrunk failing example before puts deleted the other
    copies: a put during a 3 -> 1 drain wrote only the new owner, that
    owner crashed, and the next fetch pulled the pre-put value off the
    draining old owner, whose digest still advertised it."""
    state = ClusterMachine()
    state.smooth_scale(target_n=1)
    state.put(key="k:1", value=0)
    state.crash(server=0)
    state.fetch()
    state.every_fetch_returns_the_last_value_put()
