"""Hypothesis stateful test: a cache node's stored reply blocks vs a dict.

``MemcachedServer`` stores each item as its whole ``get`` reply block
(``VALUE <key> <flags> <bytes>`` header, data, CRLF), built once when the
item is set.  Every command that changes an item's data or flags must
rebuild it, so this machine drives random sequences of every write
command through ``ServerConnection.data_received`` against a plain
``{key: (flags, value)}`` model and, after each step, checks:

* every reply is the one the model predicts;
* a ``get`` of every key is exactly the model's blocks, formatted by
  ``protocol.value_response``, then ``END``;
* ``store.used_bytes`` and the ``bytes`` stat are the payloads' total —
  the header a block carries is not counted.

The server's clock stands still at 0, so only a negative ``exptime``
expires an item (at once); the ``get`` of the check then unlinks it.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bloom.config import optimal_config
from repro.net import protocol as proto
from repro.net.server import MemcachedServer, ServerConnection
from tests.net.test_server_connection import RecordingTransport

KEYS = [f"k{i}" for i in range(5)]
GET_ALL = ("get " + " ".join(KEYS) + "\r\n").encode()

keys = st.sampled_from(KEYS)
flags = st.integers(0, 2**32 - 1)
#: never, later, or already expired
exptimes = st.sampled_from([0, 100, -1])
values = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda n: b"%d" % n),
    st.binary(max_size=12),
)


class ReplyBlockMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.server = MemcachedServer(
            bloom_config=optimal_config(64), clock=lambda: 0.0
        )
        # No socket: the connection writes into a recording transport.
        self.connection = ServerConnection(self.server)
        self.transport = RecordingTransport(self.connection)
        self.connection.transport = self.transport
        self.model = {}  # key -> (flags, value) of the live items

    def send(self, chunk):
        self.connection.data_received(chunk)
        return self.transport.writes.pop()

    def stored(self, key, flags, value, exptime):
        """The model's side of one successful store."""
        if exptime < 0:
            self.model.pop(key, None)
        else:
            self.model[key] = (flags, value)

    def expect(self, reply, want):
        assert reply == want, (reply, want)

    @rule(verb=st.sampled_from(["set", "add"]), key=keys,
          flags=flags, exptime=exptimes, value=values)
    def store(self, verb, key, flags, exptime, value):
        reply = self.send(b"%s %s %d %d %d\r\n%s\r\n" % (
            verb.encode(), key.encode(), flags, exptime, len(value), value,
        ))
        if verb == "add" and key in self.model:
            self.expect(reply, proto.NOT_STORED)
            return
        self.expect(reply, proto.STORED)
        self.stored(key, flags, value, exptime)

    @rule(key=keys, delta=st.integers(0, 2**64 - 1))
    def incr(self, key, delta):
        reply = self.send(b"incr %s %d\r\n" % (key.encode(), delta))
        if key not in self.model:
            self.expect(reply, proto.NOT_FOUND)
            return
        old_flags, old = self.model[key]
        try:
            number = int(old.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            assert reply.startswith(b"CLIENT_ERROR "), reply
            return
        number = (number + delta) % 2**64
        self.expect(reply, proto.number_response(number))
        self.stored(key, old_flags, b"%d" % number, 0)

    @rule(key=keys)
    def delete(self, key):
        reply = self.send(b"delete %s\r\n" % key.encode())
        self.expect(
            reply, proto.DELETED if key in self.model else proto.NOT_FOUND
        )
        self.model.pop(key, None)

    @rule()
    def flush_all(self):
        self.expect(self.send(b"flush_all\r\n"), b"OK\r\n")
        self.model.clear()

    @invariant()
    def blocks_match_the_model(self):
        # The get runs first: it unlinks what has expired, so the byte
        # count below is the live items'.
        self.expect(self.send(GET_ALL), b"".join(
            proto.value_response(key, *self.model[key])
            for key in KEYS if key in self.model
        ) + proto.END)
        payload = sum(len(value) for _, value in self.model.values())
        assert self.server.store.used_bytes == payload
        stats = self.send(b"stats\r\n")
        assert b"STAT bytes %d\r\n" % payload in stats, stats


ReplyBlockMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestReplyBlockMachine = ReplyBlockMachine.TestCase
